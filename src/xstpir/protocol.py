"""The layered private-retrieval scheme over MDS-coded, noise-protected storage.

One message symbol column W_lk (the (L(k-1)+l)-th symbol of every message) is
placed on the Cauchy term 1/(f_l - a_n)^(K_c-k+1) of each server's share, and
the matching query round k scales the selection vector so that round-k answers
expose exactly the L desired symbols (W_lk e_theta) on the terms
1/(f_l - a_n), with every remaining product collapsing onto the shared span
1, a_n, ..., a_n^(K_c+X+T-2).

Every coded object is one sum sum_e d^e v_e mod q with d = f_l - a_n, coded
server by server: each coder hands ``linalg.coded_share`` every block (a
storage layer, or one round's layer of the queries) with one coefficient
table, and takes back each server's whole flat list.  ``layer_count`` is the
one layout rule, ``code_storage`` the one storage coder (data on
d^(-K_c..-1), X noise on d^(0..X-1)) and ``code_queries`` the one query coder
(T noise layers on d^(K_c..K_c+T-1); the 0/1 selector, the only part that
depends on theta, on d^(K_c-k) at its few nonzero positions).  PSDMM is this
code at X = X_eff and U = B = 0.  The storage coder takes the ell data
vectors in message order and puts the (L(k-1)+l)-th on layer l's term
d^(-(K_c-k+1)); the decoder returns them in that order.  Each noise object
is one flat draw of uniform symbols, which ``noise_vectors`` cuts into the
coders' term vectors, row-major, refusing one of another total length.

The coefficients d^e depend only on the evaluation points, so they are the
code's per-point constants: ``coefficient_table`` builds each (points,
exponents) table once, ``default_points`` hands out one points object per
(field, L, N), and the coders read every coefficient from the tables.

Storage and queries are ``FieldMatrix``, one per server, whose field is the
bundle's: each wraps that server's flat list from the coder as it is.
Server n's ``ServerStorage.shares`` is the L x K matrix whose row l is S_nl,
and its ``QueryBundle.rounds`` the K_c x L*K matrix whose row k is
[Q_n1k ... Q_nLk], the L layer vectors side by side.  Round k's answer
sum_l S_nl . Q_nlk is row k times the stored rows joined, so
``server_answer`` is one ``FieldMatrix.matvec`` of ``rounds`` by
``shares.flat``, K_c dot products of length L*K.  It reads a query row as
vectors of the stored K: a row that is no whole number of them is refused as
a length mismatch, and one of another number as a layer-count mismatch.

Every decode (PIR, and PSDMM with lambda*mu scalars per answer) is
``RobustDecoder.decode_rounds``, which owns the round loop and the order of
the decoded symbols; ``decode`` hands it one rows x 1 ``FieldMatrix`` per
round, cut from the chosen answers, and reads the ell symbols off its
``flat``.

Every kernel here returns residues in [0, q) (the contract in ``field``): the
storage and query bundles hold what ``encode_storage`` and ``gen_queries``
return, unreduced again.  In this module only ``MessageSet`` and the noise
objects reduce caller data, through ``PrimeField.residues``; ``decode``
checks the answers instead and erases every entry that is not a bundle of
K_c residues.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache, partial
from operator import index

from .field import PrimeField, smallest_prime_geq
from .linalg import EvaluationPoints, FieldMatrix, build_decoding_matrix, coded_share
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


def _take_ints(params) -> None:
    """Store each input of the frozen dataclass ``params`` through ``operator.index``."""
    for name in params.__match_args__:  # the inputs; a bool enters as 0 or 1
        object.__setattr__(params, name, index(getattr(params, name)))


def _desired_index(theta, count: int) -> int:
    """``theta`` through ``operator.index`` (a float raises ``TypeError``), in 1..count."""
    if not 1 <= (theta := index(theta)) <= count:
        raise ValueError(f"theta must be in 1..{count}")
    return theta


@dataclass(frozen=True)
class ProtocolParams:
    """Validated parameter tuple; the layer count and message length are computed.

    layers (``layer_count``) and message_len = layers * K_c are set here from
    the seven inputs (ints, by ``_take_ints``) and cannot be passed.  L >= 1
    with K_c >= 1 also bounds X, T <= N - 1 and U <= N - 1.
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
        if not type(n) is type(kc) is type(x) is type(t) is type(u) is type(b) is type(k) is int:
            _take_ints(self)  # kept off the all-int path: params_grid builds hundreds of tuples
            return self.__post_init__()
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


def achievable_rate(params: ProtocolParams) -> Fraction:
    """Retrieved symbols per downloaded symbol: L / (N - U)."""
    return Fraction(params.layers, params.responsive_count)


def comparison_rate_prior(params: ProtocolParams) -> Fraction:
    """Our rate times K_c / (K_c + X), the ``prior_rate`` column: a fixed scaling,
    not a published rate (at K_c = 1 it is below arXiv 1808.07457's (N-X-T)/N)."""
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


def _of_residues(cls, *values):
    """The frozen dataclass ``cls`` holding ``values`` as they are, past its reduction.

    ``random`` draws residues, and the audits' unit noise vectors are 0/1, so they pay no reduction.
    """
    obj = cls.__new__(cls)
    vars(obj).update(zip(cls.__dataclass_fields__, values))  # past the frozen __setattr__
    return obj


@dataclass(frozen=True)
class MessageSet:
    """K messages of ell symbols each.

    The constructor reduces every symbol through ``field.residues``: caller
    data enters here.  ``random`` draws residues, and wraps them as they are
    through ``_of_residues``.
    """

    field: PrimeField
    layers: int
    code_dim: int
    messages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ell = self.layers * self.code_dim
        msgs = self.field.residues(self.messages, 2)
        if not msgs or any(len(m) != ell for m in msgs):
            raise ValueError(f"every message must hold exactly {ell} symbols")
        object.__setattr__(self, "messages", msgs)

    @property
    def num_messages(self) -> int:
        return len(self.messages)

    @classmethod
    def random(cls, field: PrimeField, params: ProtocolParams, rng) -> "MessageSet":
        """K messages of ell uniform symbols, drawn in one ``random_vector`` call."""
        ell = params.message_len
        flat = field.random_vector(rng, params.num_messages * ell)
        rows = tuple(tuple(flat[i:i + ell]) for i in range(0, len(flat), ell))
        return _of_residues(cls, field, params.layers, params.code_dim, rows)


@dataclass(frozen=True)
class StorageNoise:
    """The L * X * K uniform symbols protecting the stored data, flat.

    They are in the order [l][x][j]: Z_lx, a K-vector, is the run from
    ((l-1)X + x-1)K on, cut out by ``code_storage``.  The constructor reduces
    every entry through ``field.residues``; ``random`` wraps its one draw as it is.
    """

    field: PrimeField
    z: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", self.field.residues(self.z, 1))

    @staticmethod
    def size(params: ProtocolParams) -> int:
        return params.layers * params.security * params.num_messages

    @classmethod
    def random(cls, field: PrimeField, params: ProtocolParams, rng) -> "StorageNoise":
        return _of_residues(cls, field, tuple(field.random_vector(rng, cls.size(params))))


@dataclass(frozen=True)
class QueryNoise:
    """The L * T * K_c * K uniform symbols protecting the queries, flat.

    They are in the order [l][t][round][j]: Z'_ltk, a K-vector, is the run
    from (((l-1)T + t-1)K_c + k-1)K on, cut out by ``code_queries``.  The
    constructor reduces every entry through ``field.residues``; ``random``
    wraps its one draw as it is.
    """

    field: PrimeField
    zp: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "zp", self.field.residues(self.zp, 1))

    @staticmethod
    def size(params: ProtocolParams) -> int:
        return params.layers * params.privacy * params.code_dim * params.num_messages

    @classmethod
    def random(cls, field: PrimeField, params: ProtocolParams, rng) -> "QueryNoise":
        return _of_residues(cls, field, tuple(field.random_vector(rng, cls.size(params))))


@dataclass(frozen=True)
class ServerStorage:
    """The L coded share vectors S_n1..S_nL held by one server, as residues."""

    server: int
    shares: FieldMatrix  # L x K: row l-1 is S_nl


@dataclass(frozen=True)
class QueryBundle:
    """All K_c rounds of query vectors for one server (sent in one shot), as residues."""

    server: int
    rounds: FieldMatrix  # K_c x L*K: row k-1 is [Q_n1k ... Q_nLk], the layers side by side


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


def noise_vectors(noise, count: int, length: int, what: str) -> list:
    """The ``count`` term vectors of ``length`` entries, cut in order from the flat ``noise``.

    Raises ``ValueError("<what> of <length> entries")`` unless ``noise`` holds
    exactly count * length entries: the coders would drop unmatched terms silently.
    """
    if len(noise) != count * length:
        raise ValueError(f"{what} of {length} entries")
    return [noise[i:i + length] for i in range(0, count * length, length)]


def query_noise_exponents(code_dim: int, count: int) -> range:
    """d^(K_c..K_c+count-1), above every storage term: query noise, and PSDMM's library noise."""
    return range(code_dim, code_dim + count)


def code_storage(points, code_dim: int, security: int, columns, noise):
    """The storage coder, [server]: layer by layer, sum_k C_lk / d^(K_c-k+1) + sum_x d^(x-1) Z_lx.

    ``columns`` holds the ell = L * K_c data vectors in message order, for
    the L = len(points.f) layers: C_lk is the (L(k-1)+l)-th, so layer l's
    K_c data terms are ``columns[l-1::L]`` (``ValueError`` on another count).
    The flat noise holds the L x X vectors Z_lx, [l][x], as long as the columns.
    """
    layers = len(points.f)
    if len(columns) != layers * code_dim:
        raise ValueError(f"storage needs L * K_c = {layers * code_dim} data vectors")
    length = len(columns[0])
    z = noise_vectors(noise, layers * security, length, "storage noise must be L x X vectors")
    terms = [[*columns[l::layers], *z[l * security:(l + 1) * security]] for l in range(layers)]
    table = coefficient_table(points, tuple(range(-code_dim, security)))
    return coded_share(table, terms, points.field.q)


def code_queries(points, code_dim: int, privacy: int, positions, noise, length: int):
    """The query coder, [server]: by round, then layer, d^(K_c-k) E + sum_t d^(K_c+t-1) Z'_ltk.

    E is the 0/1 selector with ones at ``positions``; the flat noise holds the
    L x T x K_c vectors Z'_ltk, [l][t][round], of ``length`` entries
    (``ValueError`` otherwise).  E is added at its ``positions``, not coded.
    """
    q, layers = points.field.q, len(points.f)
    what = "query noise must be L x T x K_c vectors"
    z = noise_vectors(noise, layers * privacy * code_dim, length, what)
    if privacy:
        terms = [
            [z[(l * privacy + t) * code_dim + k] for t in range(privacy)]
            for k in range(code_dim) for l in range(layers)
        ]
        table = coefficient_table(points, tuple(query_noise_exponents(code_dim, privacy)))
        flats = coded_share(table, terms, q)
    else:
        flats = [[0] * (code_dim * layers * length) for _ in points.alpha]
    picks = coefficient_table(points, tuple(range(code_dim - 1, -1, -1)))  # d^(K_c-k), by k
    for n, flat in enumerate(flats):
        for b in range(code_dim * layers):  # block b: round b // L, layer b % L
            c = picks[b % layers][n][b // layers]
            for j in positions:
                flat[b * length + j] = (flat[b * length + j] + c) % q
    return flats


def encode_storage(
    messages: MessageSet,
    noise: StorageNoise,
    points: EvaluationPoints,
    params: ProtocolParams,
) -> list[ServerStorage]:
    """Code each symbol column onto inverse powers of (f_l - a_n), plus noise.

    Share vector: S_nl = sum_k W_lk / (f_l - a_n)^(K_c-k+1)
                         + sum_x (f_l - a_n)^(x-1) Z_lx.
    The messages are transposed once, into the ell columns W_lk in message
    order, which ``code_storage`` places on the layers.
    """
    _check_dims(messages, params, points, noise)
    flats = code_storage(
        points, params.code_dim, params.security, list(zip(*messages.messages)), noise.z
    )
    wrap = partial(FieldMatrix._of_flat, points.field, cols=params.num_messages)
    return [ServerStorage(n, wrap(flat)) for n, flat in enumerate(flats, 1)]


def gen_queries(
    theta: int,
    noise: QueryNoise,
    points: EvaluationPoints,
    params: ProtocolParams,
) -> list[QueryBundle]:
    """Round-k query vector: (f_l - a_n)^(K_c-k) e_theta plus T noise layers.

    Q_nlk = (f_l - a_n)^(K_c-k) e_theta + sum_t (f_l - a_n)^(K_c+t-1) Z'_ltk.
    """
    theta = _desired_index(theta, params.num_messages)
    _check_points(points, params)
    if noise.field != points.field:
        raise ValueError("noise and points live in different fields")
    k = params.num_messages
    flats = code_queries(points, params.code_dim, params.privacy, (theta - 1,), noise.zp, k)
    wrap = partial(FieldMatrix._of_flat, points.field, cols=params.layers * k)
    return [QueryBundle(n, wrap(flat)) for n, flat in enumerate(flats, 1)]


def server_answer(storage: ServerStorage, queries: QueryBundle) -> AnswerBundle:
    """Honest answer: round k's sum_l S_nl . Q_nlk, all K_c rounds as one ``matvec``.

    ``shares.flat`` is the L stored rows joined, so row k of ``rounds`` dotted
    with it is round k's answer.
    """
    if storage.server != queries.server:
        raise ValueError("storage and query bundle belong to different servers")
    if storage.shares.field != queries.rounds.field:
        raise ValueError("storage and queries live in different fields")
    if queries.rounds.cols % storage.shares.cols:
        raise ValueError("share and query vector lengths differ")
    if queries.rounds.cols != storage.shares.rows * storage.shares.cols:
        raise ValueError("query layer count must match stored share count")
    return AnswerBundle(storage.server, tuple(queries.rounds.matvec(storage.shares.flat)))


def _scalars_by_server(answers, num_servers: int) -> dict:
    """Each entry's ``scalars`` (None if it has none) by server index, erasing
    every entry whose ``server`` is not an int in 1..N (or that has none:
    None, an int, a tuple), and every index that more than one entry claims."""
    bundles = answers.values() if isinstance(answers, dict) else answers
    out, repeated = {}, set()
    for ab in bundles:
        n = getattr(ab, "server", None)
        if type(n) is not int or not 1 <= n <= num_servers:  # a bool, a str, None, a list
            continue
        if n in out:
            repeated.add(n)
        out[n] = getattr(ab, "scalars", None)
    for n in repeated:
        del out[n]
    return out


def decode(answers, points: EvaluationPoints, params: ProtocolParams) -> list[int]:
    """Recover all ell desired symbols from >= N-U well-formed answer bundles.

    Rounds are decoded in order; each round solves for the full width
    coefficient vector (tolerating up to B corrupted scalars), keeps its first
    L entries as the desired symbols, and discards the interference slots.
    An entry is an erasure unless its ``server`` is an int in 1..N that no
    other entry claims, and its ``scalars`` are a tuple or list of exactly K_c
    ints in [0, q), where no int is a bool; two bundles for one server, even
    identical ones, erase that server.  Of the rest, exactly N-U are consumed
    (the lowest server indices), and DecodingFailure is raised when fewer
    remain.
    """
    _check_points(points, params)
    kc, field, q = params.code_dim, points.field, points.field.q
    scalars = _scalars_by_server(answers, params.num_servers)
    well_formed = sorted(
        n
        for n, s in scalars.items()
        if isinstance(s, (tuple, list))
        and len(s) == kc
        and all(type(v) is int and 0 <= v < q for v in s)  # a bool is an erasure
    )
    need = params.responsive_count
    if len(well_formed) < need:
        raise DecodingFailure(
            f"decoding needs well-formed answers from {need} servers, got {len(well_formed)}"
        )
    chosen = well_formed[:need]
    matrix = build_decoding_matrix(points, tuple(chosen), params.layers, params.decode_width)
    columns = zip(*(scalars[n] for n in chosen))
    rounds = [FieldMatrix._of_flat(field, list(column), 1) for column in columns]
    return decoder_for(matrix).decode_rounds(rounds, params.max_byzantine).flat


def _check_dims(messages: MessageSet, params: ProtocolParams, points: EvaluationPoints, noise):
    if messages.layers != params.layers or messages.code_dim != params.code_dim:
        raise ValueError("message layout does not match the parameters")
    if messages.num_messages != params.num_messages:
        raise ValueError("message count does not match the parameters")
    _check_points(points, params)
    if not messages.field == noise.field == points.field:
        raise ValueError("messages, noise and points live in different fields")


def _check_points(points: EvaluationPoints, params) -> None:
    """One f per layer and one alpha per server (ProtocolParams or PsdmmParams)."""
    if len(points.f) != params.layers or len(points.alpha) != params.num_servers:
        raise ValueError("evaluation point counts do not match the parameters")
