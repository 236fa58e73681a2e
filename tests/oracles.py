"""Independent brute-force oracles for the test suite.

These never call the code paths they check: answers are re-derived by
expanding the storage/query product as a Laurent polynomial in (f_l - a_n)
directly from the raw message and noise vectors, and evaluated numerically.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import combinations, islice, product
from math import prod

from xstpir.audit import AuditVerdict
from xstpir.field import PrimeField
from xstpir.linalg import DecodingMatrix, EvaluationPoints, FieldMatrix
from xstpir.protocol import MessageSet, ProtocolParams, QueryNoise, StorageNoise


def nested(shape, vector) -> tuple:
    """Nested tuples over ``shape`` (two axes or more); innermost: ``vector(shape[-1])``.

    One call per innermost vector, in row-major order.
    """
    if len(shape) == 2:
        return tuple([tuple(vector(shape[1])) for _ in range(shape[0])])
    return tuple([nested(shape[1:], vector) for _ in range(shape[0])])


def cut(flat, shape) -> tuple:
    """``flat``, of exactly prod(shape) entries, as nested tuples over ``shape``, row-major."""
    assert len(flat) == prod(shape), (len(flat), shape)
    return nested(shape, partial(islice, iter(flat)))


def storage_noise_terms(noise: StorageNoise, params: ProtocolParams) -> tuple:
    """[l][x]: the K-vector Z_lx of a flat ``StorageNoise``."""
    return cut(noise.z, (params.layers, params.security, params.num_messages))


def query_noise_terms(noise: QueryNoise, params: ProtocolParams) -> tuple:
    """[l][t][round]: the K-vector Z'_ltk of a flat ``QueryNoise``."""
    shape = (params.layers, params.privacy, params.code_dim, params.num_messages)
    return cut(noise.zp, shape)


def psdmm_noise_terms(noise, params) -> tuple:
    """A ``PsdmmNoise``'s three draws: [l][x], [l][x'] and [l][t][round] row-major matrices."""
    layers, wide = params.layers, params.library_size * params.cols_b
    return (
        cut(noise.a_noise, (layers, params.security_a, params.rows_a * params.inner_dim)),
        cut(noise.b_noise, (layers, params.security_b, params.inner_dim * wide)),
        cut(noise.query_noise, (layers, params.privacy, params.code_dim, wide * params.cols_b)),
    )


def diff(points: EvaluationPoints, l: int, server: int) -> int:
    """f_l - alpha_n for 1-based layer l and server n."""
    return (points.f[l - 1] - points.alpha[server - 1]) % points.field.q


def layer_vector(messages: MessageSet, l: int, k: int) -> list[int]:
    """W_lk: the (L(k-1)+l)-th symbol of every message, as a length-K row."""
    if not (1 <= l <= messages.layers and 1 <= k <= messages.code_dim):
        raise ValueError("layer or round index out of range")
    pos = messages.layers * (k - 1) + l - 1
    return [m[pos] for m in messages.messages]


def solve_column(decoder, observed, num_errors: int) -> list[int]:
    """``decoder.solve`` of one stream: ``observed`` as a rows x 1 block, a list back."""
    block = FieldMatrix(decoder.matrix.field, [[v] for v in observed])
    return decoder.solve(block, num_errors).flat


def _dot(q: int, u, v) -> int:
    return sum(a * b for a, b in zip(u, v)) % q


def matmul(a, b, q: int) -> list[list[int]]:
    """Row lists of a*b mod q by the plain triple loop, independent of ``FieldMatrix.mul``."""
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) % q for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def matadd(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """a + b entrywise, by the plain double loop."""
    rows = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)]
    return FieldMatrix(a.field, rows)


def coded_share(d: int, exponents, vectors, q: int) -> list[int]:
    """sum_e d^e v_e mod q for one d, entry by entry: the reference of ``linalg.coded_share``."""
    inv = pow(d, q - 2, q) if min(exponents) < 0 else 1
    coeffs = [pow(d, e, q) if e >= 0 else pow(inv, -e, q) for e in exponents]
    return [sum(c * v for c, v in zip(coeffs, entry)) % q for entry in zip(*vectors)]


def _eliminate(m: FieldMatrix, rhs=()):
    """Gauss-Jordan on [m | rhs]: (det m, the solution column or None if singular).

    The test suite's own elimination, independent of ``FieldMatrix.inverse``.
    """
    if m.rows != m.cols:
        raise ValueError("elimination needs a square matrix")
    q, n = m.field.q, m.rows
    a = [row + [rhs[i] % q] if rhs else row[:] for i, row in enumerate(m.data)]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det % q
        det = det * a[col][col] % q
        inv = pow(a[col][col], q - 2, q)
        a[col] = [v * inv % q for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(u - f * v) % q for u, v in zip(a[r], a[col])]
    return det, [row[n] for row in a] if rhs else None


def det(m: FieldMatrix) -> int:
    """Determinant of a square matrix over GF(q)."""
    return _eliminate(m)[0]


def solve(m: FieldMatrix, rhs) -> list[int] | None:
    """The solution x of m x = rhs, or None when m is singular."""
    return _eliminate(m, rhs)[1]


def recover_messages(storages, points: EvaluationPoints, params: ProtocolParams) -> MessageSet:
    """Rebuild every message from any K_c + X server shares (the MDS property).

    Per layer l, server n's share entry of message j is the storage
    coefficient row [1/d^K_c, ..., 1/d, 1, d, ..., d^(X-1)] (d = f_l - a_n,
    the ``coded_share`` here of the unit vectors) times the unknowns
    (W_l1, ..., W_lK_c, Z_l1, ..., Z_lX) of message j; the first K_c entries
    of each solution are its layer-l symbols.  Fewer shares are a ValueError.
    """
    storages = list(storages)
    kc, x, layers = params.code_dim, params.security, params.layers
    need = kc + x
    if len(storages) < need:
        raise ValueError(f"message recovery needs {need} shares, got {len(storages)}")
    storages = storages[:need]
    field, q = points.field, points.field.q
    exponents = [-(kc - k + 1) for k in range(1, kc + 1)] + [e - 1 for e in range(1, x + 1)]
    units = [[int(i == j) for j in range(need)] for i in range(need)]
    symbols = [[0] * params.message_len for _ in range(params.num_messages)]
    for l in range(1, layers + 1):
        rows = [coded_share(diff(points, l, st.server), exponents, units, q) for st in storages]
        for j, message in enumerate(symbols):
            rhs = [st.shares.data[l - 1][j] for st in storages]
            unknowns = solve(FieldMatrix(field, rows), rhs)
            assert unknowns is not None, "the storage coefficient rows are singular"
            for k in range(kc):
                message[layers * k + l - 1] = unknowns[k]
    return MessageSet(field, layers, kc, tuple(map(tuple, symbols)))


def scale(m: FieldMatrix, c: int) -> FieldMatrix:
    """c * m, entrywise."""
    return FieldMatrix(m.field, [[c * v for v in row] for row in m.data])


def answer_coefficients(
    messages: MessageSet,
    storage_noise: StorageNoise,
    query_noise: QueryNoise,
    theta: int,
    params: ProtocolParams,
    round_k: int,
    q: int,
) -> dict[tuple[int, int], int]:
    """Server-independent coefficients c[(l, e)] of the round answer.

    A_nk = sum over (l, e) of c[(l, e)] * (f_l - a_n)^e: the storage share
    contributes exponents -(K_c-k+1) (messages) and x-1 (noise), the query
    contributes K_c - round_k (selector) and K_c + t - 1 (noise); c collects
    the inner products of every cross pair.
    """
    kc = params.code_dim
    e_theta = [1 if j == theta - 1 else 0 for j in range(params.num_messages)]
    z, zp = storage_noise_terms(storage_noise, params), query_noise_terms(query_noise, params)
    coeffs: dict[tuple[int, int], int] = {}
    for l in range(1, params.layers + 1):
        storage_terms = [
            (-(kc - k + 1), layer_vector(messages, l, k)) for k in range(1, kc + 1)
        ] + [
            (x - 1, z[l - 1][x - 1]) for x in range(1, params.security + 1)
        ]
        query_terms = [(kc - round_k, e_theta)] + [
            (kc + t - 1, zp[l - 1][t - 1][round_k - 1])
            for t in range(1, params.privacy + 1)
        ]
        for e1, v1 in storage_terms:
            for e2, v2 in query_terms:
                key = (l, e1 + e2)
                coeffs[key] = (coeffs.get(key, 0) + _dot(q, v1, v2)) % q
    return coeffs


def evaluate_coefficients(
    coeffs: dict[tuple[int, int], int], points: EvaluationPoints, server: int
) -> int:
    """Numeric value of a Laurent expansion at one server's alpha."""
    q = points.field.q
    total = 0
    for (l, e), c in coeffs.items():
        d = diff(points, l, server)
        base = pow(d, q - 2, q) if e < 0 else d
        total = (total + c * pow(base, abs(e), q)) % q
    return total


def interference_offset(
    decoded: dict[tuple[int, int], int],
    points: EvaluationPoints,
    params: ProtocolParams,
    round_k: int,
    server: int,
) -> int:
    """Known contribution of rounds < round_k to this server's round-k answer.

    Scalar reference for the offsets of ``RobustDecoder.decode_rounds``:
    sum_l sum_(k<round_k) decoded[(l,k)] / (f_l - a_n)^(round_k-k+1), with
    each inverse taken afresh; a missing earlier symbol is a ValueError.
    """
    q = points.field.q
    off = 0
    for l in range(1, params.layers + 1):
        inv_d = pow(diff(points, l, server), q - 2, q)
        for k in range(1, round_k):
            try:
                sym = decoded[(l, k)]
            except KeyError:
                raise ValueError(f"round {round_k} offset needs decoded symbol (l={l}, k={k})")
            off = (off + sym * pow(inv_d, round_k - k + 1, q)) % q
    return off


def brute_force_inverse(q: int, a: int) -> int:
    """Exhaustive search for the multiplicative inverse."""
    for b in range(1, q):
        if (a * b) % q == 1:
            return b
    raise AssertionError(f"{a} has no inverse mod {q}")


def reshape(field, flat, cols: int) -> FieldMatrix:
    """The matrix with ``cols`` columns whose row-major entries are ``flat``."""
    return FieldMatrix(field, [flat[i:i + cols] for i in range(0, len(flat), cols)])


def query_block(matrix: FieldMatrix, params, k: int, l: int) -> FieldMatrix:
    """Q_nlk, round k's layer-l block of one server's ``psdmm_query`` matrix.

    The matrix stacks M*mu-row blocks round by round, and layer by layer
    within a round.
    """
    height = params.library_size * params.cols_b
    start = ((k - 1) * params.layers + l - 1) * height * matrix.cols
    return reshape(matrix.field, matrix.flat[start:start + height * matrix.cols], matrix.cols)


def block_selector(field: PrimeField, library_size: int, cols_b: int, theta: int) -> FieldMatrix:
    """Q_theta: M*mu x mu block column holding the identity at block theta."""
    if not 1 <= theta <= library_size:
        raise ValueError(f"theta must be in 1..{library_size}")
    wide = library_size * cols_b
    data = [[0] * cols_b for _ in range(wide)]
    base = (theta - 1) * cols_b
    for i in range(cols_b):
        data[base + i][i] = 1
    return FieldMatrix(field, data)


def share_product_coefficients(inst, noise, params, layer: int):
    """Exponent -> matrix coefficients of the share product A~_nl B~_nl.

    Expands term by term from the raw blocks and noise matrices, never through
    the share construction or ``FieldMatrix.mul``: A-share components carry
    exponents -(K_c-k+1) and x-1, B-share components 0 and K_c+x'-1; the
    product collects all pairs.
    """
    kc = params.code_dim
    a_noise, b_noise, _ = psdmm_noise_terms(noise, params)
    a_terms = [  # A_lk is block L(k-1)+l
        (-(kc - k + 1), inst.a_blocks[params.layers * (k - 1) + layer - 1])
        for k in range(1, kc + 1)
    ] + [
        (x - 1, reshape(inst.field, a_noise[layer - 1][x - 1], params.inner_dim))
        for x in range(1, params.security_a + 1)
    ]
    b_terms = [(0, inst.b_concat)] + [
        (kc + x - 1, reshape(inst.field, b_noise[layer - 1][x - 1], inst.b_concat.cols))
        for x in range(1, params.security_b + 1)
    ]
    coeffs = {}
    for e1, ma in a_terms:
        for e2, mb in b_terms:
            e = e1 + e2
            term = FieldMatrix(ma.field, matmul(ma.data, mb.data, ma.field.q))
            coeffs[e] = matadd(coeffs[e], term) if e in coeffs else term
    return coeffs


def evaluate_matrix_coefficients(coeffs, points, layer: int, server: int):
    """Numeric share product at one server from its Laurent expansion."""
    q = points.field.q
    d = diff(points, layer, server)
    inv_d = pow(d, q - 2, q)
    total = None
    for e, m in coeffs.items():
        base = inv_d if e < 0 else d
        term = scale(m, pow(base, abs(e), q))
        total = term if total is None else matadd(total, term)
    return total


def consensus_candidates(matrix: DecodingMatrix, observed):
    """Yield (subset, solution, agreement count) for every width-row subset.

    Scans the subsets in lexicographic order, solving each square system by
    elimination and re-encoding over every row.
    """
    full = matrix.matrix()
    for subset in combinations(range(matrix.rows), matrix.width):
        x = solve(full.row_submatrix(subset), [observed[i] for i in subset])
        yield subset, x, sum(e == y for e, y in zip(full.matvec(x), observed))


def consensus_decode(matrix: DecodingMatrix, observed, b: int):
    """Subset consensus: the first width-row solution agreeing on >= rows - b rows.

    None when no candidate of ``consensus_candidates`` reaches the threshold.
    """
    return next(
        (x for _, x, agree in consensus_candidates(matrix, observed) if agree >= matrix.rows - b),
        None,
    )


def enumerate_audit(cfg, points: EvaluationPoints, free: int, views) -> AuditVerdict:
    """Enumerate every flat noise of ``free`` entries; compare the views' distributions.

    The reference of ``audit._audit``, with its signature: each view maps a
    flat noise to the N servers' observations, one flat list each; the
    colluding servers' joint observation is counted per view, and the audit
    passes when every view has the same distribution.  It takes q^free view
    calls per view.
    """
    q = points.field.q
    dists = []
    for view in views:
        dist: Counter = Counter()
        for flat in product(range(q), repeat=free):
            observed = view(flat)
            dist[tuple(tuple(observed[n - 1]) for n in cfg.colluding)] += 1
        dists.append(dist)
    return AuditVerdict(
        target=cfg.target,
        colluding=cfg.colluding,
        states_enumerated=len(views) * q**free,
        passed=all(d == dists[0] for d in dists),
        support_size=len(set().union(*dists)),
        within_budget=cfg.within_budget,
    )
