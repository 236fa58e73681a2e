"""Private secure distributed matrix multiplication: the retrieval code at X = X_eff.

The confidential blocks A_1..A_ell are secret-shared exactly like message
columns (Cauchy terms plus X_A noise layers), the library matrices B_1..B_M
are optionally shared with X_B noise on the query-noise exponents, and the
block selector Q_theta is hidden like a query.  Each server returns
sum_l A~_nl B~_nl Q_nlk in round k.  The share product is storage with the
noise span X_eff = K_c + X_A + X_B - 1 (X_A when the library is public), so
the layout is ``protocol.layer_count`` at X = X_eff and U = B = 0, and its
lambda*mu entries decode as scalar streams of ``RobustDecoder.decode_rounds``.

Matrices stay flat: a ``FieldMatrix`` holds its entries row-major, so the
A-shares come from the storage coder ``protocol.code_storage``, handed the
ell blocks' ``flat`` vectors in block order as it takes message symbols, and
the queries from the query coder ``protocol.code_queries`` (Q_theta's mu ones
as the selector).  Each share is cut into per-layer blocks, and each query is
one matrix, which ``psdmm_answer`` cuts into blocks.  Each noise is one flat
draw, cut into term vectors through ``protocol.noise_vectors``, over the
points' field.  Round k's N answer blocks, flat, are the rows of the one
matrix ``decode_rounds`` solves for round k with one product.

``PsdmmInstance`` holds one shape of A block and one of library matrix, over
its field, with A's columns matching B's rows.  The coders and
``psdmm_decode`` check the point counts, and their blocks, against the
parameters and the points' field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial

from .field import PrimeField
from .linalg import EvaluationPoints, FieldMatrix, build_decoding_matrix, coded_share
from .protocol import (  # noqa: F401  (default_field/default_points re-exported)
    InfeasibleParamsError,
    coefficient_table,
    code_queries,
    code_storage,
    default_field,
    default_points,
    layer_count,
    noise_vectors,
    query_noise_exponents,
    _check_points,
    _desired_index,
    _of_residues,
    _take_ints,
)
from .robust import decoder_for


@dataclass(frozen=True)
class PsdmmParams:
    """Parameter tuple for one multiplication instance; the layout is computed.

    ``layers`` (``protocol.layer_count`` at X = X_eff, U = B = 0) and
    block_count = K_c * layers are set here from the nine inputs (ints, by
    ``protocol._take_ints``) and cannot be passed.
    """

    num_servers: int    # N
    privacy: int        # T
    security_a: int     # X_A
    security_b: int     # X_B
    library_size: int   # M
    rows_a: int         # lambda
    inner_dim: int      # chi
    cols_b: int         # mu
    code_dim: int       # K_c
    layers: int = dc_field(init=False)       # L, derived
    block_count: int = dc_field(init=False)  # ell = K_c * L, derived

    def __post_init__(self):
        _take_ints(self)
        if min(self.num_servers, self.library_size, self.code_dim) < 1:
            raise ValueError("need N, M, K_c >= 1")
        if min(self.rows_a, self.inner_dim, self.cols_b) < 1:
            raise ValueError("matrix dimensions must be positive")
        if min(self.privacy, self.security_a, self.security_b) < 0:
            raise ValueError("T, X_A, X_B must be non-negative")
        layers = layer_count(
            self.num_servers, self.code_dim, self.effective_security, self.privacy, 0, 0
        )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "block_count", layers * self.code_dim)

    @property
    def shared_library(self) -> bool:
        return self.security_b > 0

    @property
    def effective_security(self) -> int:
        """Noise span of the share product: K_c+X_A+X_B-1 if B is shared, else X_A."""
        if self.shared_library:
            return self.code_dim + self.security_a + self.security_b - 1
        return self.security_a

    @property
    def decode_width(self) -> int:
        """N: the retrieval code's width N - U - 2B at U = B = 0."""
        return self.num_servers

    @property
    def upload_cost(self) -> Fraction:
        """Share symbols uploaded per confidential symbol: N / K_c."""
        return Fraction(self.num_servers, self.code_dim)

    @property
    def download_cost(self) -> Fraction:
        """Answer symbols downloaded per product symbol: N / L."""
        return Fraction(self.num_servers, self.layers)


derive_psdmm_params = PsdmmParams  # the constructor under its older name


def _random_matrix(field: PrimeField, rng, rows: int, cols: int) -> FieldMatrix:
    """Row by row, the draws of ``rows`` calls of ``random_vector(rng, cols)``."""
    return FieldMatrix._of_flat(field, field.random_vector(rng, rows * cols), cols)


def _side_by_side(blocks) -> FieldMatrix:
    """[M_1 M_2 ...]: matrices of equal height joined column-wise."""
    width = sum(m.cols for m in blocks)
    flat = [0] * (blocks[0].rows * width)
    start = 0
    for m in blocks:
        for j in range(m.cols):  # one strided copy per column: psdmm's blocks are tall
            flat[start + j::width] = m.flat[j::m.cols]
        start += m.cols
    return FieldMatrix._of_flat(blocks[0].field, flat, width)


@dataclass(frozen=True)
class PsdmmInstance:
    """The ell confidential blocks, the library, and its concatenation."""

    field: PrimeField
    a_blocks: tuple[FieldMatrix, ...]   # ell of lambda x chi
    b_library: tuple[FieldMatrix, ...]  # M of chi x mu

    def __post_init__(self):
        if not self.a_blocks or not self.b_library:
            raise ValueError("need at least one A block and one library matrix")
        for what, blocks in (("A blocks", self.a_blocks), ("library matrices", self.b_library)):
            if not all(isinstance(m, FieldMatrix) and m.field == self.field for m in blocks):
                raise ValueError(f"{what} must be FieldMatrix over GF({self.field.q})")
            if len({(m.rows, m.cols) for m in blocks}) != 1:
                raise ValueError(f"{what} must share one shape")
        if self.a_blocks[0].cols != self.b_library[0].rows:
            raise ValueError("A blocks need as many columns as the library matrices have rows")

    @property
    def b_concat(self) -> FieldMatrix:
        """[B_1 B_2 ... B_M], chi x M*mu."""
        return _side_by_side(self.b_library)

    @classmethod
    def random(cls, field: PrimeField, params: PsdmmParams, rng) -> "PsdmmInstance":
        return cls(
            field,
            tuple(
                _random_matrix(field, rng, params.rows_a, params.inner_dim)
                for _ in range(params.block_count)
            ),
            tuple(
                _random_matrix(field, rng, params.inner_dim, params.cols_b)
                for _ in range(params.library_size)
            ),
        )


@dataclass(frozen=True)
class PsdmmNoise:
    """All noise matrices, flattened row-major, as three flat draws cut like the PIR noise.

    ``a_noise``: L x X_A lambda x chi A-share matrices, [l][x]; ``b_noise``:
    L x X_B chi x M*mu B-share matrices, [l][x']; ``query_noise``: L x T x K_c
    M*mu x mu query matrices, [l][t][round].  The constructor reduces every
    entry through ``field.residues``; ``random`` wraps its draws as they are.
    """

    field: PrimeField
    a_noise: tuple[int, ...]
    b_noise: tuple[int, ...]
    query_noise: tuple[int, ...]

    def __post_init__(self):
        for name in ("a_noise", "b_noise", "query_noise"):
            object.__setattr__(self, name, self.field.residues(getattr(self, name), 1))

    @classmethod
    def random(cls, field: PrimeField, params: PsdmmParams, rng) -> "PsdmmNoise":
        layers, wide = params.layers, params.library_size * params.cols_b
        sizes = (
            layers * params.security_a * params.rows_a * params.inner_dim,
            layers * params.security_b * params.inner_dim * wide,
            layers * params.privacy * params.code_dim * wide * params.cols_b,
        )
        return _of_residues(cls, field, *(tuple(field.random_vector(rng, n)) for n in sizes))


def _check_blocks(blocks, count: int, rows: int, cols: int, field: PrimeField, what: str):
    """Raise unless ``blocks`` are ``count`` rows x cols matrices over ``field``.

    ``PsdmmInstance`` gives its blocks one shape and field, so the first stands for all.
    """
    m = blocks[0]
    if (len(blocks), m.rows, m.cols, m.field) != (count, rows, cols, field):
        raise ValueError(f"need {count} {what} of {rows}x{cols} over GF({field.q})")


def _check_points_and_noise(noise: PsdmmNoise, points: EvaluationPoints, params) -> None:
    _check_points(points, params)
    if noise.field != points.field:  # residues of another field, taken mod q, are not uniform
        raise ValueError("noise and points live in different fields")


def _cut(field: PrimeField, flat: list[int], rows: int, cols: int) -> tuple[FieldMatrix, ...]:
    """The coded blocks of one server's ``flat``, each a rows x cols matrix."""
    size = rows * cols
    wrap = partial(FieldMatrix._of_flat, field, cols=cols)
    return tuple(wrap(flat[i:i + size]) for i in range(0, len(flat), size))


def share_a(
    inst: PsdmmInstance, noise: PsdmmNoise, points: EvaluationPoints, params: PsdmmParams
) -> list[tuple[FieldMatrix, ...]]:
    """Per-server confidential shares: A~_nl = sum_k A_lk/d^(K_c-k+1) + sum_x d^(x-1) Z_lx.

    A_lk is block L(k-1)+l, placed by ``protocol.code_storage``.
    """
    _check_blocks(
        inst.a_blocks, params.block_count, params.rows_a, params.inner_dim, points.field,
        "A blocks",
    )
    _check_points_and_noise(noise, points, params)
    columns = [m.flat for m in inst.a_blocks]
    flats = code_storage(points, params.code_dim, params.security_a, columns, noise.a_noise)
    return [_cut(points.field, flat, params.rows_a, params.inner_dim) for flat in flats]


def share_b(
    inst: PsdmmInstance, noise: PsdmmNoise, points: EvaluationPoints, params: PsdmmParams
) -> list[tuple[FieldMatrix, ...]]:
    """Per-server library shares: B~_nl = B + sum_x' d^(K_c+x'-1) Z'_lx'.

    With X_B = 0 the one exponent is d^0 = 1, so every share is the plain
    concatenated library.
    """
    _check_blocks(
        inst.b_library, params.library_size, params.inner_dim, params.cols_b, points.field,
        "library matrices",
    )
    _check_points_and_noise(noise, points, params)
    b, xb = inst.b_concat, params.security_b
    size, what = len(b.flat), "library noise must be L x X_B matrices"
    z = noise_vectors(noise.b_noise, params.layers * xb, size, what)
    terms = [[b.flat, *z[l * xb:(l + 1) * xb]] for l in range(params.layers)]
    table = coefficient_table(points, (0, *query_noise_exponents(params.code_dim, xb)))
    flats = coded_share(table, terms, points.field.q)
    return [_cut(points.field, flat, b.rows, b.cols) for flat in flats]


def psdmm_query(
    theta: int, noise: PsdmmNoise, points: EvaluationPoints, params: PsdmmParams
) -> list[FieldMatrix]:
    """Per-server block queries Q_nlk = d^(K_c-k) Q_theta + sum_t d^(K_c+t-1) Z''_ltk.

    Q_theta is the M*mu x mu block column holding the identity at block theta;
    its mu ones sit at the row-major positions ((theta-1)mu + i)mu + i.
    Server n's query is its flat list from the coder as it is: one
    K_c*L*M*mu x mu matrix of blocks Q_nlk, by round, then layer.
    """
    theta, mu = _desired_index(theta, params.library_size), params.cols_b
    _check_points_and_noise(noise, points, params)
    ones = [((theta - 1) * mu + i) * mu + i for i in range(mu)]
    length = params.library_size * mu * mu
    flats = code_queries(points, params.code_dim, params.privacy, ones, noise.query_noise, length)
    return [FieldMatrix._of_flat(points.field, flat, mu) for flat in flats]


def psdmm_answer(
    a_share_n: tuple[FieldMatrix, ...],
    b_share_n: tuple[FieldMatrix, ...],
    queries_n: FieldMatrix,
) -> list[FieldMatrix]:
    """One server's K_c answers: Y_nk = sum_l A~_nl (B~_nl Q_nlk), each lambda x mu.

    Two products on the blocks of the ``psdmm_query`` matrix: per layer,
    B~_nl [Q_nl1 ... Q_nlK_c] takes every round at once; then [A~_n1 ... A~_nL]
    times those results stacked sums over the layers, in K_c column blocks.
    """
    if len(a_share_n) != len(b_share_n):
        raise ValueError("share layer counts differ")
    for blocks in (a_share_n, b_share_n):
        if len({(m.field, m.rows, m.cols) for m in blocks}) != 1:
            raise ValueError("the shares of every layer must share one shape")
    layers, field, height = len(b_share_n), b_share_n[0].field, b_share_n[0].cols
    if not isinstance(queries_n, FieldMatrix) or queries_n.field != field:
        raise ValueError(f"the query must be one FieldMatrix over GF({field.q})")
    (rounds, rest), mu = divmod(queries_n.rows, layers * height), queries_n.cols
    if rounds < 1 or rest:
        raise ValueError(f"the query must be rounds of {layers} blocks of {height} rows")
    blocks = _cut(field, queries_n.flat, height, mu)  # by round, then layer
    stacked = []  # B~_nl [Q_nl1 ... Q_nlK_c] of every layer, one below the other
    for l, b_m in enumerate(b_share_n):
        stacked += b_m.mul(_side_by_side(blocks[l::layers])).flat
    y = _side_by_side(a_share_n).mul(FieldMatrix._of_flat(field, stacked, rounds * mu))
    flat, cols, wrap = y.flat, y.cols, partial(FieldMatrix._of_flat, field, cols=mu)
    starts = (range(i, len(flat), cols) for i in range(0, cols, mu))  # round k's mu columns
    return [wrap([v for r in rows for v in flat[r:r + mu]]) for rows in starts]


def psdmm_decode(
    answers: list[list[FieldMatrix]], points: EvaluationPoints, params: PsdmmParams
) -> list[FieldMatrix]:
    """Recover (A_1 B_theta, ..., A_ell B_theta) from all N servers' answers.

    Round k stacks the N servers' round-k blocks, flattened row-major, as the
    rows of one N x lambda*mu matrix of scalar streams of the round decoder.
    """
    _check_points(points, params)
    if not isinstance(answers, (list, tuple)) or len(answers) != params.num_servers:
        raise ValueError("answers from all servers are required")
    for rounds in answers:
        if not isinstance(rounds, (list, tuple)) or len(rounds) != params.code_dim:
            raise ValueError(f"every server must answer {params.code_dim} rounds")
        if any(
            not isinstance(y, FieldMatrix)
            or (y.field, y.rows, y.cols) != (points.field, params.rows_a, params.cols_b)
            for y in rounds
        ):
            raise ValueError(
                f"every answer block must be {params.rows_a}x{params.cols_b}"
                f" over GF({points.field.q})"
            )
    matrix = build_decoding_matrix(
        points, tuple(range(1, params.num_servers + 1)), params.layers, params.decode_width
    )
    field, size = points.field, params.rows_a * params.cols_b
    by_round = [
        FieldMatrix._of_flat(field, [v for y in blocks for v in y.flat], size)
        for blocks in zip(*answers)
    ]
    decoded = decoder_for(matrix).decode_rounds(by_round, 0)
    return [FieldMatrix._of_flat(field, row, params.cols_b) for row in decoded.data]


@dataclass(frozen=True)
class CostReport:
    """Exact upload/download pair for one feasible code dimension."""

    code_dim: int
    upload: Fraction
    download: Fraction
    shared_library: bool
    prior_download: Fraction | None = None


def prior_download_cost(num_servers: int, code_dim: int) -> Fraction:
    """Asymptotic download of the earlier scheme at X_A=T=1, X_B=0."""
    if num_servers - (code_dim + 1) <= 0:
        raise ValueError("prior-cost formula needs N > K_c + 1")
    return Fraction(code_dim + 1, code_dim) * Fraction(
        num_servers, num_servers - (code_dim + 1)
    )


def cost_hull(
    num_servers: int, privacy: int, security_a: int, security_b: int
) -> list[CostReport]:
    """All feasible (upload, download) pairs: one per K_c in 1..N that the layout accepts.

    When X_A = T = 1 and X_B = 0 each report carries the prior scheme's
    asymptotic download for comparison.
    """
    reports = []
    for kc in range(1, num_servers + 1):
        try:
            p = PsdmmParams(num_servers, privacy, security_a, security_b, 1, 1, 1, 1, kc)
        except InfeasibleParamsError:
            continue
        prior = None
        if security_a == 1 and privacy == 1 and security_b == 0:
            prior = prior_download_cost(num_servers, kc)
        reports.append(CostReport(kc, p.upload_cost, p.download_cost, p.shared_library, prior))
    return reports
