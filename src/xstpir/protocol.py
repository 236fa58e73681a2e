"""The layered private-retrieval scheme over MDS-coded, noise-protected storage.

One message symbol column W_lk (the (L(k-1)+l)-th symbol of every message) is
placed on the Cauchy term 1/(f_l - a_n)^(K_c-k+1) of each server's share, and
the matching query round k scales the selection vector so that round-k answers
expose exactly the L desired symbols (W_lk e_theta) on the terms
1/(f_l - a_n), with every remaining product collapsing onto the shared span
1, a_n, ..., a_n^(K_c+X+T-2).

Every coded object is one sum sum_e d^e v_e mod q with d = f_l - a_n,
computed by ``coded_share`` for every d that shares the same term vectors
(one layer, all servers) in one call; ``code_layers`` codes every layer for
every server, adding a 0/1 selector as d^e at its few nonzero positions.
This module owns the code layout: ``layer_count`` is the one layout rule,
``code_storage`` the one storage coder (data on d^(-K_c..-1), X noise layers
on d^(0..X-1)) and ``code_queries`` the one query coder (the selector on
d^(K_c-k), T noise layers on d^(K_c..K_c+T-1), every round k).  PSDMM is
this code at X = X_eff and U = B = 0.

The coefficients d^e depend only on the evaluation points, so they are the
code's per-point constants: ``coefficient_table`` builds each (points,
exponents) table once, ``default_points`` hands out one points object per
(field, L, N), and the coders read every coefficient from the tables.

``coded_share`` takes one coefficient row per output and packs along the
longer side of its input, so that few big-int products and one reduction do
the work: vectors at least as long as the number of outputs (bulk,
byzantine, PSDMM) are packed once each, and every output is one product per term and one
reduction; shorter vectors (the desk scale, K <= 3 < N) would pay that
reduction per output on 1 to 3 entries, so each term's coefficient column is
packed across the outputs instead, every vector entry is one product per
term, and one reduction takes every output.  Slots are whole 64-bit words,
reduced by ``linalg._word_slots``, the package's one exact reduction, whose
docstring holds the proof; ``FieldMatrix.mul`` reads its outputs back
through the same step.

Every decode (PIR, and PSDMM with lambda*mu scalars per answer) is
``RobustDecoder.decode_rounds``, which owns the round loop and the order of
the decoded symbols; ``decode`` hands it one rows x 1 ``FieldMatrix`` per
round, cut from the chosen answers, and reads the ell symbols off its
``flat``.

Every kernel here returns residues in [0, q) (the contract in ``field``): the
storage and query bundles hold what ``encode_storage`` and ``gen_queries``
return, unreduced again.  In this module only ``MessageSet`` reduces caller
data; ``decode`` checks the answers instead and erases every bundle that
holds anything but K_c residues.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache, partial
from math import prod
from operator import mul

from .field import PrimeField, smallest_prime_geq
from .linalg import _ORDER, EvaluationPoints, FieldMatrix, _word_slots, build_decoding_matrix
from .robust import DecodingFailure, decoder_for


class InfeasibleParamsError(ValueError):
    """Parameter tuple leaves no room for a data layer (L < 1), or no session
    could decode it (K_c = 1, X = T = B = 0)."""


def layer_count(n: int, kc: int, x: int, t: int, u: int, b: int) -> int:
    """The layout rule L = (N - U) - (K_c + X + T + 2B - 1), at (N, K_c, X, T, U, B).

    Raises ``InfeasibleParamsError`` when L < 1, and at K_c = 1 with
    X = T = B = 0, whose decoding matrix would be square pure-Cauchy, which
    ``build_decoding_matrix`` refuses.
    """
    layers = (n - u) - (kc + x + t + 2 * b - 1)
    if layers < 1:
        raise InfeasibleParamsError(f"L = {layers} < 1: N-U too small for K_c+X+T+2B-1")
    if kc == 1 and x == t == b == 0:
        raise InfeasibleParamsError(
            "K_c = 1 with X = T = B = 0: the decoding matrix would be square pure-Cauchy"
        )
    return layers


@dataclass(frozen=True)
class ProtocolParams:
    """Validated parameter tuple; the layer count and message length are computed.

    layers (``layer_count``) and message_len = layers * K_c are set here from
    the seven inputs and cannot be passed.  L >= 1 with K_c >= 1 also bounds
    X, T <= N - 1 and U <= N - 1.
    """

    num_servers: int            # N
    code_dim: int               # K_c, MDS storage code dimension
    security: int               # X, colluding-server bound for storage secrecy
    privacy: int                # T, colluding-server bound for query privacy
    max_unresponsive: int = 0   # U
    max_byzantine: int = 0      # B
    num_messages: int = 1       # K
    layers: int = dc_field(init=False)       # L, derived
    message_len: int = dc_field(init=False)  # ell = L * K_c, derived

    def __post_init__(self):
        n, kc, x, t = self.num_servers, self.code_dim, self.security, self.privacy
        u, b, k = self.max_unresponsive, self.max_byzantine, self.num_messages
        if min(n, kc, k) < 1 or min(x, t, u, b) < 0:
            raise ValueError("need N, K_c, K >= 1 and X, T, U, B >= 0")
        layers = layer_count(n, kc, x, t, u, b)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "message_len", layers * kc)

    @property
    def decode_width(self) -> int:
        """Unknowns per decoding round: L desired slots plus the K_c + X + T - 1
        interference slots, which the layout rule makes N - U - 2B."""
        return self.responsive_count - 2 * self.max_byzantine

    @property
    def responsive_count(self) -> int:
        return self.num_servers - self.max_unresponsive


derive_params = ProtocolParams  # the constructor under its older name


@lru_cache(maxsize=1024)  # desk-scale grids revisit their 435 tuples
def achievable_rate(params: ProtocolParams) -> Fraction:
    """Retrieved symbols per downloaded symbol: L / (N - U)."""
    return Fraction(params.layers, params.responsive_count)


@lru_cache(maxsize=1024)
def comparison_rate_prior(params: ProtocolParams) -> Fraction:
    """Best previously reported rate: ours scaled by K_c / (K_c + X)."""
    return achievable_rate(params) * Fraction(
        params.code_dim, params.code_dim + params.security
    )


def default_field(params) -> PrimeField:
    """Smallest prime field satisfying q >= L + N (ProtocolParams or PsdmmParams)."""
    return PrimeField(smallest_prime_geq(params.layers + params.num_servers))


def default_points(params, field: PrimeField | None = None) -> EvaluationPoints:
    """f_l = l and alpha_n = L + n over ``field`` (default: ``default_field``).

    Memoized on (field, L, N): equal tuples share one ``EvaluationPoints``.
    """
    if field is None:
        field = default_field(params)
    return _default_points(field, params.layers, params.num_servers)


_default_points = lru_cache(maxsize=256)(EvaluationPoints.default)


def nested(shape, vector) -> tuple:
    """Nested tuples over ``shape`` (two axes or more), cut from the list ``vector(prod(shape))``.

    The innermost vectors are cut from that one call in row-major order, so a
    random draw and an audit's enumeration fill one layout the same way.  For
    ``field.random_vector`` one call is exact: it gives the values, and leaves
    the rng state, of one ``vector(shape[-1])`` call per innermost vector.  An
    axis of size 0 gives empty tuples at its depth.
    """
    level = vector(prod(shape))
    for depth in range(len(shape) - 1, 0, -1):  # tuples of shape[depth] items of the level below
        size = shape[depth]
        level = [tuple(level[i * size:(i + 1) * size]) for i in range(prod(shape[:depth]))]
    return tuple(level)


@dataclass(frozen=True)
class MessageSet:
    """K messages of ell symbols each, with the dual per-column view W_lk.

    The constructor reduces every symbol mod q: caller data enters here.
    ``random`` draws residues, and wraps them as they are through
    ``_of_residues``.
    """

    field: PrimeField
    layers: int
    code_dim: int
    messages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.field.q
        ell = self.layers * self.code_dim
        msgs = tuple(tuple(v % q for v in m) for m in self.messages)
        if not msgs or any(len(m) != ell for m in msgs):
            raise ValueError(f"every message must hold exactly {ell} symbols")
        object.__setattr__(self, "messages", msgs)

    @property
    def num_messages(self) -> int:
        return len(self.messages)

    @property
    def message_len(self) -> int:
        return self.layers * self.code_dim

    def symbol_position(self, l: int, k: int) -> int:
        """0-based position of the (l, k) symbol inside a message: L(k-1)+l-1."""
        if not (1 <= l <= self.layers and 1 <= k <= self.code_dim):
            raise ValueError("layer or round index out of range")
        return self.layers * (k - 1) + l - 1

    @classmethod
    def _of_residues(cls, field: PrimeField, layers: int, code_dim: int, messages) -> "MessageSet":
        """Wrap K tuples of ell residues each as they are, without reducing them again."""
        m = cls.__new__(cls)
        for name, value in zip(("field", "layers", "code_dim", "messages"),
                               (field, layers, code_dim, messages)):
            object.__setattr__(m, name, value)
        return m

    @classmethod
    def random(cls, field: PrimeField, params: ProtocolParams, rng) -> "MessageSet":
        """K messages of ell uniform symbols, drawn in one ``random_vector`` call."""
        shape = (params.num_messages, params.message_len)
        vectors = nested(shape, partial(field.random_vector, rng))
        return cls._of_residues(field, params.layers, params.code_dim, vectors)


@dataclass(frozen=True)
class StorageNoise:
    """L x X uniform row vectors of length K protecting the stored data."""

    field: PrimeField
    z: tuple[tuple[tuple[int, ...], ...], ...]  # [l][x] -> K-vector

    @staticmethod
    def shape(params: ProtocolParams) -> tuple[int, int, int]:
        return (params.layers, params.security, params.num_messages)

    @classmethod
    def random(cls, field: PrimeField, params: ProtocolParams, rng) -> "StorageNoise":
        return cls(field, nested(cls.shape(params), partial(field.random_vector, rng)))


@dataclass(frozen=True)
class QueryNoise:
    """L x T x K_c uniform column vectors of length K protecting the queries."""

    field: PrimeField
    zp: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]  # [l][t][round] -> K-vector

    @staticmethod
    def shape(params: ProtocolParams) -> tuple[int, int, int, int]:
        return (params.layers, params.privacy, params.code_dim, params.num_messages)

    @classmethod
    def random(cls, field: PrimeField, params: ProtocolParams, rng) -> "QueryNoise":
        return cls(field, nested(cls.shape(params), partial(field.random_vector, rng)))


@dataclass(frozen=True)
class ServerStorage:
    """The L coded share vectors S_n1..S_nL held by one server, as residues."""

    server: int
    shares: tuple[tuple[int, ...], ...]  # [l] -> K-vector
    field: PrimeField


@dataclass(frozen=True)
class QueryBundle:
    """All K_c rounds of query vectors for one server (sent in one shot), as residues."""

    server: int
    rounds: tuple[tuple[tuple[int, ...], ...], ...]  # [round][l] -> K-vector
    field: PrimeField


@dataclass(frozen=True)
class AnswerBundle:
    """The K_c answer scalars (reduced residues) returned by one server."""

    server: int
    scalars: tuple[int, ...]


@lru_cache(maxsize=1024)
def coefficient_table(points: EvaluationPoints, exponents: tuple[int, ...]):
    """[layer][server]: (d^e mod q for e in ``exponents``), d = f_l - a_n.

    Built once per (points, exponents), a negative exponent through ``pow``'s
    modular inverse (the points are pairwise distinct, so d != 0).  The size
    covers the desk-scale grid's 191 keys, which every pass revisits, and the
    543 of the acceptance grid.
    """
    q = points.field.q
    return tuple(
        tuple(tuple(pow((fl - a) % q, e, q) for e in exponents) for a in points.alpha)
        for fl in points.f
    )


def coded_share(coefficients, vectors, q: int) -> list[list[int]]:
    """[sum_e c_e v_e mod q for each row (c_e) of ``coefficients``], entry by entry.

    Each coefficient row holds one residue per vector of ``vectors``, which
    must be non-empty and of equal lengths (``ValueError`` otherwise); the
    vectors are reduced on entry, so any ints may come in.  The packing
    follows the shape (the module docstring says why), with every slot
    reduced by ``linalg._word_slots``:
    - vectors no shorter than the outputs (bulk, byzantine and PSDMM, with
      K >= 32 > N): each vector is packed once, one slot per entry, and each
      output is one product per term and one reduction;
    - shorter vectors (the desk scale, K <= 3 < N): each term's coefficient
      column is packed once, one slot per output, each vector entry is one
      product per term, and one reduction takes all outputs * length slots.
    Either way no slot exceeds terms * (q-1)^2.
    """
    if not vectors:
        raise ValueError("coded_share needs at least one term vector")
    outputs, terms, length = len(coefficients), len(vectors), len(vectors[0])
    if len(set(map(len, vectors))) != 1:  # one-word slots: slice assignment would resize
        raise ValueError("term vectors must have equal lengths")
    if set(map(len, coefficients)) - {terms}:  # zip would drop the unmatched terms
        raise ValueError("each coefficient row must hold one coefficient per term vector")
    if 0 < length < outputs:
        words, lo, zero, reduce = _word_slots(q, terms, outputs * length)
        columns = []
        for column in zip(*coefficients):
            slots = zero[:words * outputs]
            slots[lo::words] = array("Q", column)
            columns.append(int.from_bytes(slots, _ORDER))
        entries = zip(*[[v % q for v in vec] for vec in vectors])
        step = 64 * words * outputs  # entry j's outputs take slots j*outputs..
        x = 0
        for j, entry in enumerate(entries):
            x += sum(map(mul, entry, columns)) << (j * step)
        flat = reduce(x)
        return [flat[n::outputs] for n in range(outputs)]
    words, lo, zero, reduce = _word_slots(q, terms, length)
    packed = []
    for vec in vectors:
        slots = zero[:]
        slots[lo::words] = array("Q", [v % q for v in vec])
        packed.append(int.from_bytes(slots, _ORDER))
    # each output reduced as it is formed: holding every unreduced sum costs memory
    return [reduce(sum(map(mul, row, packed))) for row in coefficients]


def code_layers(points: EvaluationPoints, exponents, terms, length: int, wrap=tuple, selector=None):
    """[server][layer]: ``wrap`` of sum_e d^e v_e mod q, d = f_l - a_n, over layer l's terms.

    ``terms`` yields each layer's term vectors of ``length`` entries, paired
    with ``exponents``; a layer with none codes to zero vectors.  Every d^e
    is read from ``coefficient_table``.
    ``selector = (e, positions)`` stands for a 0/1 vector (e_theta, or Q_theta
    flattened) on the term d^e: d^e is added at its few nonzero positions
    instead of coding it as a dense term.  Each layer is wrapped as soon as it
    is coded.
    """
    q = points.field.q
    table = coefficient_table(points, tuple(exponents))
    if selector is not None:
        e, positions = selector
        picks = coefficient_table(points, (e,))
    per_layer = []  # [layer][server]
    for l, vectors in enumerate(terms):
        if vectors:
            shares = coded_share(table[l], vectors, q)
        else:
            shares = [[0] * length for _ in points.alpha]
        if selector is not None:
            for (c,), share in zip(picks[l], shares):
                for j in positions:
                    share[j] = (share[j] + c) % q
        per_layer.append([wrap(share) for share in shares])
    return list(zip(*per_layer))


def check_noise(noise, shape, message: str) -> None:
    """Raise ``ValueError(message)`` unless the nested ``noise`` has ``shape``."""
    level = [noise]
    for depth, size in enumerate(shape):
        if depth:
            level = [v for t in level for v in t]
        if any(len(t) != size for t in level):  # the coders would drop unmatched terms silently
            raise ValueError(message)


def query_noise_exponents(code_dim: int, count: int) -> range:
    """d^(K_c..K_c+count-1), above every storage term: query noise, and PSDMM's library noise."""
    return range(code_dim, code_dim + count)


def code_storage(points, code_dim: int, security: int, column, noise, length: int, wrap=tuple):
    """The storage coder, [server][layer]: sum_k C_lk / d^(K_c-k+1) + sum_x d^(x-1) Z_lx.

    For the L = len(points.f) layers, ``column(l, k)`` is C_lk and the L x X
    noise holds Z_lx, all vectors of ``length`` entries.
    """
    layers = len(points.f)
    check_noise(noise, (layers, security), "storage noise must be L x X vectors")
    terms = (
        [column(l, k) for k in range(1, code_dim + 1)] + list(noise[l - 1])
        for l in range(1, layers + 1)
    )
    return code_layers(points, range(-code_dim, security), terms, length, wrap)


def code_queries(points, code_dim: int, privacy: int, positions, noise, length: int, wrap=tuple):
    """The query coder, [server][round][layer]: d^(K_c-k) E + sum_t d^(K_c+t-1) Z'_ltk.

    E is the 0/1 selector with ones at ``positions``; the L x T x K_c noise
    holds Z'_ltk, vectors of ``length`` entries.
    """
    shape = (len(points.f), privacy, code_dim)
    check_noise(noise, shape, "query noise must be L x T x K_c vectors")
    exponents = query_noise_exponents(code_dim, privacy)
    per_round = [  # [round][server][layer]
        code_layers(
            points, exponents, ([zt[rk - 1] for zt in zl] for zl in noise), length, wrap,
            (code_dim - rk, positions),
        )
        for rk in range(1, code_dim + 1)
    ]
    return list(zip(*per_round))


def encode_storage(
    messages: MessageSet,
    noise: StorageNoise,
    points: EvaluationPoints,
    params: ProtocolParams,
) -> list[ServerStorage]:
    """Code each symbol column onto inverse powers of (f_l - a_n), plus noise.

    Share vector: S_nl = sum_k W_lk / (f_l - a_n)^(K_c-k+1)
                         + sum_x (f_l - a_n)^(x-1) Z_lx.
    Every column W_lk is read from one transpose of the messages.
    """
    _check_dims(messages, params, points)
    columns = list(zip(*messages.messages))  # [position] -> K-vector, transposed once
    shares = code_storage(
        points, params.code_dim, params.security,
        lambda l, k: columns[messages.symbol_position(l, k)], noise.z, params.num_messages,
    )
    return [ServerStorage(n, s, points.field) for n, s in enumerate(shares, 1)]


def gen_queries(
    theta: int,
    noise: QueryNoise,
    points: EvaluationPoints,
    params: ProtocolParams,
) -> list[QueryBundle]:
    """Round-k query vector: (f_l - a_n)^(K_c-k) e_theta plus T noise layers.

    Q_nl = (f_l - a_n)^(K_c-k) e_theta + sum_t (f_l - a_n)^(K_c+t-1) Z'_lt.
    """
    if not 1 <= theta <= params.num_messages:
        raise ValueError(f"theta must be in 1..{params.num_messages}")
    queries = code_queries(
        points, params.code_dim, params.privacy, (theta - 1,), noise.zp, params.num_messages
    )
    return [QueryBundle(n, rounds, points.field) for n, rounds in enumerate(queries, 1)]


def server_answer(storage: ServerStorage, queries: QueryBundle) -> AnswerBundle:
    """Honest answer: one inner product sum_l S_nl . Q_nl per query round."""
    if storage.server != queries.server:
        raise ValueError("storage and query bundle belong to different servers")
    if storage.field != queries.field:
        raise ValueError("storage and queries live in different fields")
    if not queries.rounds or any(
        len(per_layer) != len(storage.shares) for per_layer in queries.rounds
    ):
        raise ValueError("query layer count must match stored share count")
    q = storage.field.q
    scalars = []
    for per_layer in queries.rounds:
        acc = 0
        for s, qv in zip(storage.shares, per_layer):
            if len(s) != len(qv):
                raise ValueError("share and query vector lengths differ")
            acc += sum(map(mul, s, qv))
        scalars.append(acc % q)
    return AnswerBundle(storage.server, tuple(scalars))


def _normalize_answers(answers, num_servers: int) -> dict[int, AnswerBundle]:
    """The bundles by server index, erasing every bundle whose index is not an int in 1..N."""
    bundles = answers.values() if isinstance(answers, dict) else answers
    out = {}
    for ab in bundles:
        n = ab.server
        if type(n) is not int or not 1 <= n <= num_servers:  # a bool, a str, None, a list
            continue
        if n in out:
            raise ValueError(f"duplicate answer bundle for server {n}")
        out[n] = ab
    return out


def decode(answers, points: EvaluationPoints, params: ProtocolParams) -> list[int]:
    """Recover all ell desired symbols from >= N-U well-formed answer bundles.

    Rounds are decoded in order; each round solves for the full width
    coefficient vector (tolerating up to B corrupted scalars), keeps its first
    L entries as the desired symbols, and discards the interference slots.
    A bundle is an erasure unless its server index is an int in 1..N and its
    scalars are a tuple or list of exactly K_c ints in [0, q), where no int
    is a bool; of the rest, exactly N-U are consumed (the lowest server
    indices), and DecodingFailure is raised when fewer remain.
    """
    kc, field, q = params.code_dim, points.field, points.field.q
    by_server = _normalize_answers(answers, params.num_servers)
    well_formed = sorted(
        n
        for n, ab in by_server.items()
        if isinstance(ab.scalars, (tuple, list))
        and len(ab.scalars) == kc
        and all(type(v) is int and 0 <= v < q for v in ab.scalars)  # a bool is an erasure
    )
    need = params.responsive_count
    if len(well_formed) < need:
        raise DecodingFailure(
            f"decoding needs well-formed answers from {need} servers, got {len(well_formed)}"
        )
    chosen = well_formed[:need]
    matrix = build_decoding_matrix(points, tuple(chosen), params.layers, params.decode_width)
    columns = zip(*(by_server[n].scalars for n in chosen))
    rounds = [FieldMatrix._of_flat(field, list(column), 1) for column in columns]
    return decoder_for(matrix).decode_rounds(rounds, params.max_byzantine).flat


def _check_dims(messages: MessageSet, params: ProtocolParams, points: EvaluationPoints):
    if messages.layers != params.layers or messages.code_dim != params.code_dim:
        raise ValueError("message layout does not match the parameters")
    if messages.num_messages != params.num_messages:
        raise ValueError("message count does not match the parameters")
    if len(points.f) != params.layers or len(points.alpha) != params.num_servers:
        raise ValueError("evaluation point counts do not match the parameters")
    if messages.field != points.field:
        raise ValueError("messages and points live in different fields")
