"""Private secure distributed matrix multiplication: shares, queries, decode, costs."""

from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from xstpir.field import PrimeField, smallest_prime_geq
from xstpir.linalg import EvaluationPoints, FieldMatrix
from xstpir.protocol import InfeasibleParamsError, ProtocolParams
import xstpir.psdmm as pm

import oracles
from oracles import (
    block_selector,
    diff,
    evaluate_matrix_coefficients,
    matadd,
    matmul,
    query_block,
    reshape,
    scale,
    share_product_coefficients,
    solve,
)


def build_instance(params, seed):
    field = pm.default_field(params)
    pts = pm.default_points(params, field)
    inst = pm.PsdmmInstance.random(field, params, Random(seed))
    noise = pm.PsdmmNoise.random(field, params, Random(seed + 1))
    return field, pts, inst, noise


def run_psdmm(params, theta, seed):
    field, pts, inst, noise = build_instance(params, seed)
    qnoise = pm.PsdmmNoise.random(field, params, Random(seed + 2))
    a_sh = pm.share_a(inst, noise, pts, params)
    b_sh = pm.share_b(inst, noise, pts, params)
    queries = pm.psdmm_query(theta, qnoise, pts, params)
    answers = [
        pm.psdmm_answer(a_sh[n], b_sh[n], queries[n])
        for n in range(params.num_servers)
    ]
    decoded = pm.psdmm_decode(answers, pts, params)
    expected = [a.mul(inst.b_library[theta - 1]) for a in inst.a_blocks]
    return decoded, expected


# ---------------------------------------------------------------- parameters


def test_params_both_regimes():
    p = pm.derive_psdmm_params(6, 1, 1, 1, 2, 2, 2, 2, code_dim=1)
    assert p.layers == 3 and p.download_cost == 2 and p.upload_cost == 6
    p0 = pm.derive_psdmm_params(4, 1, 1, 0, 3, 2, 3, 2, code_dim=2)
    assert p0.layers == 1 and p0.download_cost == 4 and p0.upload_cost == 2
    assert p0.effective_security == 1  # X_A only when the library is public
    assert p.effective_security == 1 + 1 + 1 - 1  # K_c + X_A + X_B - 1


def test_params_infeasible_kc_rejected():
    with pytest.raises(InfeasibleParamsError):
        pm.derive_psdmm_params(4, 1, 1, 1, 2, 1, 1, 1, code_dim=2)  # L = -1
    with pytest.raises(InfeasibleParamsError):
        pm.derive_psdmm_params(4, 1, 1, 0, 2, 1, 1, 1, code_dim=3)  # L = 0
    with pytest.raises(InfeasibleParamsError, match="square pure-Cauchy"):
        pm.PsdmmParams(3, 0, 0, 0, 1, 1, 1, 1, 1)  # K_c = 1, T = X_A = X_B = 0
    with pytest.raises(ValueError):
        pm.derive_psdmm_params(4, 1, 1, 0, 0, 1, 1, 1, code_dim=1)  # M = 0


def test_params_follow_the_retrieval_layout_at_effective_security():
    """PsdmmParams is the layout rule at X = X_eff, U = B = 0: same verdict, L and width."""
    for n, kc, t, xa, xb in product(range(1, 13), range(1, 13), range(3), range(3), range(3)):
        if kc > n:
            continue
        x_eff = kc + xa + xb - 1 if xb else xa
        try:
            want = ProtocolParams(n, kc, x_eff, t)
        except InfeasibleParamsError:
            want = None
        try:
            got = pm.PsdmmParams(n, t, xa, xb, 2, 1, 1, 1, kc)
        except InfeasibleParamsError:
            got = None
        assert (got is None) == (want is None), (n, kc, t, xa, xb)
        if got is not None:
            assert (got.layers, got.decode_width) == (want.layers, want.decode_width)


def test_params_derived_fields_not_settable():
    with pytest.raises(TypeError):  # L and ell are computed, not passed
        pm.PsdmmParams(6, 1, 1, 1, 2, 2, 2, 2, 1, layers=3, block_count=3)
    p = pm.PsdmmParams(6, 1, 1, 1, 2, 2, 2, 2, 1)
    assert p == pm.derive_psdmm_params(6, 1, 1, 1, 2, 2, 2, 2, 1)
    assert (p.layers, p.block_count) == (3, 3)


def test_params_take_their_inputs_through_index():
    """``PsdmmParams(4.0, 1, 1, 0, 2, 2, 2, 2, 1)`` used to build, and its
    ``download_cost`` then raised ``TypeError`` from ``Fraction``."""
    args = (4, 1, 1, 0, 2, 2, 2, 2, 1)
    for i in range(len(args)):
        with pytest.raises(TypeError):
            pm.PsdmmParams(*args[:i], float(args[i]), *args[i + 1:])
    p = pm.PsdmmParams(4, True, 1, False, 2, 2, 2, 2, True)
    assert p == pm.PsdmmParams(*args) and p.download_cost == 2
    assert all(type(v) is int for v in asdict(p).values())


def test_kc_range_endpoint_feasible_when_library_shared():
    # floor((N+1-XA-XB-T)/2) always leaves L >= 1
    for n in range(4, 10):
        for xa, xb, t in ((1, 1, 1), (2, 1, 1), (1, 2, 2)):
            kc_max = (n + 1 - xa - xb - t) // 2
            if kc_max < 1:
                continue
            p = pm.derive_psdmm_params(n, t, xa, xb, 2, 1, 1, 1, code_dim=kc_max)
            assert p.layers >= 1


# -------------------------------------------------------------------- shares


def test_share_b_public_library_is_verbatim():
    p = pm.derive_psdmm_params(4, 1, 1, 0, 2, 2, 2, 2, code_dim=1)
    field, pts, inst, noise = build_instance(p, seed=0)
    shares = pm.share_b(inst, noise, pts, p)
    b = inst.b_concat
    assert all(share == b for per_server in shares for share in per_server)


def test_share_b_single_noise_layer_formula():
    """X_B=1, K_c=1: share is B + d * Z'_l1."""
    p = pm.derive_psdmm_params(5, 1, 1, 1, 2, 1, 2, 1, code_dim=1)
    field, pts, inst, noise = build_instance(p, seed=1)
    shares = pm.share_b(inst, noise, pts, p)
    b = inst.b_concat
    zb = oracles.psdmm_noise_terms(noise, p)[1]
    for n in range(1, p.num_servers + 1):
        for l in range(1, p.layers + 1):
            d = diff(pts, l, n)
            want = matadd(b, scale(reshape(field, zb[l - 1][0], b.cols), d))
            assert shares[n - 1][l - 1] == want


def test_shares_and_queries_reject_misshapen_noise():
    """Noise of another shape raises rather than losing terms (X_A = X_B = T = 1, L = 3)."""
    p = pm.PsdmmParams(6, 1, 1, 1, 2, 2, 2, 2, 1)
    field, pts, inst, noise = build_instance(p, seed=3)
    other = pm.PsdmmNoise.random(field, pm.PsdmmParams(6, 1, 0, 1, 2, 2, 2, 2, 1), Random(0))
    assert len(other.a_noise) != len(noise.a_noise)  # drawn at X_A = 0: L = 4
    builds = {
        "a_noise": lambda z: pm.share_a(inst, z, pts, p),
        "b_noise": lambda z: pm.share_b(inst, z, pts, p),
        "query_noise": lambda z: pm.psdmm_query(1, z, pts, p),
    }
    for name, build in builds.items():
        drawn = getattr(noise, name)
        for bad in (drawn[:-1], drawn + drawn[:1], getattr(other, name)):
            with pytest.raises(ValueError, match="noise must be"):
                build(replace(noise, **{name: bad}))
        build(noise)


def test_share_a_minimal_formula():
    """K_c=1, X_A=1, L=1: share is A_11 / d + Z_11."""
    p = pm.derive_psdmm_params(3, 1, 1, 0, 2, 2, 2, 2, code_dim=1)
    assert p.layers == 1
    field, pts, inst, noise = build_instance(p, seed=2)
    shares = pm.share_a(inst, noise, pts, p)
    q = field.q
    for n in range(1, p.num_servers + 1):
        d = diff(pts, 1, n)
        want = matadd(
            scale(inst.a_blocks[0], pow(d, q - 2, q)),
            reshape(field, oracles.psdmm_noise_terms(noise, p)[0][0][0], p.inner_dim),
        )
        assert shares[n - 1][0] == want


def test_share_a_mds_recovery():
    """Any K_c + X_A shares determine every A block (per-entry linear solve)."""
    p = pm.derive_psdmm_params(6, 1, 2, 0, 2, 2, 2, 1, code_dim=2)
    field, pts, inst, noise = build_instance(p, seed=3)
    shares = pm.share_a(inst, noise, pts, p)
    q = field.q
    kc, xa = p.code_dim, p.security_a
    need = kc + xa
    for chosen in combinations(range(1, p.num_servers + 1), need):
        for l in range(1, p.layers + 1):
            rows = []
            for n in chosen:
                d = diff(pts, l, n)
                inv_d = pow(d, q - 2, q)
                rows.append(
                    [pow(inv_d, kc - k + 1, q) for k in range(1, kc + 1)]
                    + [pow(d, x - 1, q) for x in range(1, xa + 1)]
                )
            system = FieldMatrix(field, rows)
            for i in range(p.rows_a):
                for j in range(p.inner_dim):
                    rhs = [shares[n - 1][l - 1].data[i][j] for n in chosen]
                    sol = solve(system, rhs)
                    for k in range(1, kc + 1):
                        assert sol[k - 1] == inst.a_blocks[p.layers * (k - 1) + l - 1].data[i][j]


def test_share_secrecy_by_enumeration():
    """X_A (X_B) colluding shares are identically distributed for two inputs."""
    p = pm.derive_psdmm_params(4, 1, 1, 1, 1, 1, 1, 1, code_dim=1)  # scalar blocks
    field = pm.default_field(p)
    pts = pm.default_points(p, field)
    q = field.q

    def a_share_dist(a_val, server):
        dist = Counter()
        for z in range(q):  # the single lambda*chi*L*X_A noise symbol
            d = diff(pts, 1, server)
            share = (a_val * pow(d, q - 2, q) + z) % q
            dist[share] += 1
        return dist

    assert a_share_dist(0, 2) == a_share_dist(3, 2)

    def b_share_dist(b_val, server):
        dist = Counter()
        for z in range(q):
            d = diff(pts, 1, server)
            share = (b_val + pow(d, 1, q) * z) % q  # exponent K_c + x' - 1 = 1
            dist[share] += 1
        return dist

    assert b_share_dist(1, 3) == b_share_dist(4, 3)


# ------------------------------------------------------------------- queries


def test_block_selector_placement():
    f = PrimeField(7)
    sel = block_selector(f, 2, 1, theta=2)
    assert sel.data == [[0], [1]]
    sel2 = block_selector(f, 3, 2, theta=1)
    assert sel2.data == [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0], [0, 0]]
    with pytest.raises(ValueError):
        block_selector(f, 2, 1, theta=3)


def test_selector_picks_the_requested_library_block():
    p = pm.derive_psdmm_params(4, 1, 1, 0, 3, 2, 2, 2, code_dim=1)
    field, pts, inst, _ = build_instance(p, seed=4)
    for theta in range(1, 4):
        sel = block_selector(field, p.library_size, p.cols_b, theta)
        assert inst.b_concat.mul(sel) == inst.b_library[theta - 1]


def test_query_without_privacy_noise_is_bare_scaled_selector():
    p = pm.derive_psdmm_params(4, 0, 1, 0, 2, 1, 1, 1, code_dim=2)
    field = pm.default_field(p)
    pts = pm.default_points(p, field)
    noise = pm.PsdmmNoise.random(field, p, Random(5))
    queries = pm.psdmm_query(2, noise, pts, p)
    sel = block_selector(field, 2, 1, 2)
    q = field.q
    for n in range(1, p.num_servers + 1):
        for rk in range(1, p.code_dim + 1):
            for l in range(1, p.layers + 1):
                d = diff(pts, l, n)
                assert query_block(queries[n - 1], p, rk, l) == scale(
                    sel, pow(d, p.code_dim - rk, q)
                )


@pytest.mark.parametrize("smallest_q", [True, False])
@pytest.mark.parametrize("kc", [1, 2, 3])
def test_query_matches_dense_selector_oracle(kc, smallest_q):
    """Every server's query equals the coded share of Q_theta, flattened, plus the noise."""
    for t, xb in product(range(3), (0, 1)):
        p = pm.derive_psdmm_params(9, t, 1, xb, 3, 1, 1, 2, code_dim=kc)
        field = pm.default_field(p) if smallest_q else PrimeField(2**31 - 1)
        q = field.q
        pts = pm.default_points(p, field)
        noise = pm.PsdmmNoise.random(field, p, Random(10 * kc + t))
        zq = oracles.psdmm_noise_terms(noise, p)[2]
        for theta in range(1, p.library_size + 1):
            sel = block_selector(field, p.library_size, p.cols_b, theta)
            selector = [v for row in sel.data for v in row]
            queries = pm.psdmm_query(theta, noise, pts, p)
            for n, rk, l in product(
                range(1, p.num_servers + 1), range(1, kc + 1), range(1, p.layers + 1)
            ):
                flat = oracles.coded_share(
                    diff(pts, l, n),
                    [kc - rk, *range(kc, kc + t)],
                    [selector] + [zt[rk - 1] for zt in zq[l - 1]],
                    q,
                )
                assert query_block(queries[n - 1], p, rk, l) == reshape(field, flat, p.cols_b)
        for theta in (0, p.library_size + 1):
            with pytest.raises(ValueError):
                pm.psdmm_query(theta, noise, pts, p)


@pytest.mark.parametrize(
    "shape",
    [
        (6, 1, 1, 1, 2, 2, 2, 2, 1),
        (4, 1, 1, 0, 3, 2, 3, 2, 2),  # X_B = 0: no B-share noise
        (7, 0, 1, 1, 2, 2, 3, 2, 2),  # T = 0: no query noise
    ],
)
def test_noise_is_the_row_by_row_draw_stream(shape):
    """The flat noise holds the row-by-row randrange draws, in order, and leaves rng alike."""
    p = pm.derive_psdmm_params(*shape)
    field = pm.default_field(p)
    rng, ref = Random(17), Random(17)
    noise = pm.PsdmmNoise.random(field, p, rng)
    wide = p.library_size * p.cols_b
    matrices = (
        [(p.rows_a, p.inner_dim)] * (p.layers * p.security_a)
        + [(p.inner_dim, wide)] * (p.layers * p.security_b)
        + [(wide, p.cols_b)] * (p.layers * p.privacy * p.code_dim)
    )
    want = [
        ref.randrange(field.q) for rows, cols in matrices for _ in range(rows) for _ in range(cols)
    ]
    got = [*noise.a_noise, *noise.b_noise, *noise.query_noise]
    assert got == want
    assert rng.random() == ref.random()


@pytest.mark.parametrize("smallest_q", [True, False])
@pytest.mark.parametrize(
    "shape",
    [
        (4, 1, 1, 0, 2, 2, 2, 2, 1),  # public library: B shares are verbatim
        (6, 1, 1, 1, 2, 2, 3, 2, 1),
        (7, 1, 1, 1, 2, 2, 2, 2, 2),  # K_c = 2: selector exponents 1 and 0
    ],
)
def test_shares_and_queries_are_residues(shape, smallest_q):
    """Every entry of the shares, queries, answers and decoded blocks lies in range(q)."""
    p = pm.derive_psdmm_params(*shape)
    field = pm.default_field(p) if smallest_q else PrimeField(2**31 - 1)
    q = field.q
    pts = pm.default_points(p, field)
    inst = pm.PsdmmInstance.random(field, p, Random(q))
    noise = pm.PsdmmNoise.random(field, p, Random(q + 1))
    a_sh = pm.share_a(inst, noise, pts, p)
    b_sh = pm.share_b(inst, noise, pts, p)
    blocks = [m for per_server in a_sh + b_sh for m in per_server]
    for theta in range(1, p.library_size + 1):
        queries = pm.psdmm_query(theta, noise, pts, p)
        blocks += queries
        answers = [pm.psdmm_answer(*server) for server in zip(a_sh, b_sh, queries)]
        blocks += [m for rounds in answers for m in rounds]
        blocks += pm.psdmm_decode(answers, pts, p)
    assert all(0 <= v < q for m in blocks for row in m.data for v in row)


# ------------------------------------------------------- answers and decode


def test_answer_minimal_triple_product():
    p = pm.derive_psdmm_params(3, 1, 1, 0, 2, 2, 2, 2, code_dim=1)
    field, pts, inst, noise = build_instance(p, seed=6)
    qnoise = pm.PsdmmNoise.random(field, p, Random(7))
    a_sh = pm.share_a(inst, noise, pts, p)
    b_sh = pm.share_b(inst, noise, pts, p)
    queries = pm.psdmm_query(1, qnoise, pts, p)
    y = pm.psdmm_answer(a_sh[0], b_sh[0], queries[0])
    assert len(y) == 1
    assert y[0] == a_sh[0][0].mul(b_sh[0][0].mul(query_block(queries[0], p, 1, 1)))


@pytest.mark.parametrize("smallest_q", [True, False])
@pytest.mark.parametrize("security_b", [0, 1])
@pytest.mark.parametrize("kc", [1, 2, 3])
def test_answer_is_sum_of_triple_products(kc, security_b, smallest_q):
    """Every server's round-k answer is sum_l A~_nl (B~_nl Q_nlk), by the triple loop."""
    p = pm.derive_psdmm_params(8, 1, 1, security_b, 2, 2, 3, 2, code_dim=kc)
    field = pm.default_field(p) if smallest_q else PrimeField(2**31 - 1)
    q = field.q
    pts = pm.default_points(p, field)
    inst = pm.PsdmmInstance.random(field, p, Random(kc))
    noise = pm.PsdmmNoise.random(field, p, Random(kc + 1))
    a_sh = pm.share_a(inst, noise, pts, p)
    b_sh = pm.share_b(inst, noise, pts, p)
    queries = pm.psdmm_query(2, noise, pts, p)
    for a_n, b_n, q_n in zip(a_sh, b_sh, queries):
        answers = pm.psdmm_answer(a_n, b_n, q_n)
        assert len(answers) == kc
        for k, y in enumerate(answers, 1):
            per_layer = [query_block(q_n, p, k, l) for l in range(1, p.layers + 1)]
            expected = [[0] * p.cols_b for _ in range(p.rows_a)]
            for a_m, b_m, q_m in zip(a_n, b_n, per_layer):
                term = matmul(a_m.data, matmul(b_m.data, q_m.data, q), q)
                expected = [[(u + v) % q for u, v in zip(r, t)] for r, t in zip(expected, term)]
            assert y.data == expected


def test_share_product_matches_expansion_oracle():
    """Term-by-term expansion of A~_nl B~_nl evaluated numerically."""
    p = pm.derive_psdmm_params(7, 1, 2, 1, 2, 2, 2, 2, code_dim=1)
    field, pts, inst, noise = build_instance(p, seed=8)
    a_sh = pm.share_a(inst, noise, pts, p)
    b_sh = pm.share_b(inst, noise, pts, p)
    for l in range(1, p.layers + 1):
        coeffs = share_product_coefficients(inst, noise, p, l)
        for n in range(1, p.num_servers + 1):
            direct = a_sh[n - 1][l - 1].mul(b_sh[n - 1][l - 1])
            assert direct == evaluate_matrix_coefficients(coeffs, pts, l, n)


def test_effective_noise_span():
    """Product exponents cover {-K_c..-1} plus {0..K_c+X_A+X_B-2} exactly."""
    p = pm.derive_psdmm_params(8, 1, 2, 2, 2, 2, 2, 2, code_dim=1)
    _, _, inst, noise = build_instance(p, seed=9)
    allowed = set(range(-p.code_dim, 0)) | set(
        range(0, p.code_dim + p.security_a + p.security_b - 1)
    )
    for l in range(1, p.layers + 1):
        coeffs = share_product_coefficients(inst, noise, p, l)
        assert set(coeffs) == allowed

    p0 = pm.derive_psdmm_params(5, 1, 2, 0, 2, 2, 2, 2, code_dim=1)
    _, _, inst0, noise0 = build_instance(p0, seed=10)
    for l in range(1, p0.layers + 1):
        coeffs = share_product_coefficients(inst0, noise0, p0, l)
        # public library: only X_A noise exponents remain
        assert set(coeffs) == set(range(-p0.code_dim, 0)) | set(range(0, p0.security_a))


def test_decode_scalar_case():
    p = pm.derive_psdmm_params(3, 1, 1, 0, 2, 1, 1, 1, code_dim=1)
    for theta in (1, 2):
        decoded, expected = run_psdmm(p, theta, seed=11)
        assert decoded == expected


def test_decode_shared_library_example():
    p = pm.derive_psdmm_params(6, 1, 1, 1, 2, 2, 2, 2, code_dim=1)
    assert p.layers == 3 and p.download_cost == Fraction(6, 3)
    decoded, expected = run_psdmm(p, theta=2, seed=12)
    assert decoded == expected


def test_decode_public_library_example():
    p = pm.derive_psdmm_params(4, 1, 1, 0, 2, 2, 2, 2, code_dim=2)
    assert p.layers == 1 and p.download_cost == 4 and p.upload_cost == 2
    decoded, expected = run_psdmm(p, theta=1, seed=13)
    assert decoded == expected


def test_correctness_does_not_need_wide_inner_dimension():
    """chi >= min(lambda, mu) conditions the cost claim, not correctness."""
    p = pm.derive_psdmm_params(4, 1, 1, 0, 2, 2, 1, 2, code_dim=1)  # chi < min
    decoded, expected = run_psdmm(p, theta=2, seed=14)
    assert decoded == expected


def test_answer_shape_validation():
    p = pm.derive_psdmm_params(4, 1, 1, 0, 2, 2, 2, 2, code_dim=1)
    field, pts, inst, noise = build_instance(p, seed=15)
    a_sh = pm.share_a(inst, noise, pts, p)
    b_sh = pm.share_b(inst, noise, pts, p)
    with pytest.raises(ValueError):
        pm.psdmm_answer(a_sh[0][:1] * 2, b_sh[0], [[]])
    queries = pm.psdmm_query(1, pm.PsdmmNoise.random(field, p, Random(0)), pts, p)
    answers = [
        pm.psdmm_answer(a_sh[n], b_sh[n], queries[n]) for n in range(p.num_servers)
    ]
    with pytest.raises(ValueError):
        pm.psdmm_decode(answers[:-1], pts, p)
    wide = FieldMatrix(field, [row + [0] for row in answers[0][0].data])  # lambda x (mu+1)
    with pytest.raises(ValueError):
        pm.psdmm_decode([[wide]] + answers[1:], pts, p)
    with pytest.raises(ValueError):
        pm.psdmm_decode([[]] + answers[1:], pts, p)  # server 1 misses its round
    with pytest.raises(ValueError, match="from all servers"):
        pm.psdmm_decode(None, pts, p)
    for first in (None, answers[0][0], 5):  # no round list, a bare block, an int
        with pytest.raises(ValueError, match="rounds"):
            pm.psdmm_decode([first] + answers[1:], pts, p)


def test_answer_rejects_a_malformed_query():
    """A query that is no ``FieldMatrix``, holds no positive whole number of
    L*M*mu-row rounds, or lives over another field raises ``ValueError``."""
    p = pm.derive_psdmm_params(5, 1, 1, 0, 2, 2, 2, 2, code_dim=2)
    field, pts, inst, noise = build_instance(p, seed=31)
    a_sh, b_sh = pm.share_a(inst, noise, pts, p), pm.share_b(inst, noise, pts, p)
    query = pm.psdmm_query(1, noise, pts, p)[0]
    rows, mu = query.rows, query.cols
    assert p.layers == 2 and rows == p.code_dim * p.layers * p.library_size * mu
    other = PrimeField(smallest_prime_geq(field.q + 1))
    cut = pm._cut(field, query.flat, p.library_size * mu, mu)
    bad = (
        [[]],
        None,
        query.data,
        tuple(cut[i:i + p.layers] for i in range(0, len(cut), p.layers)),  # per-round tuples
        FieldMatrix._of_flat(field, query.flat[:-mu], mu),  # a row short
        FieldMatrix._of_flat(field, query.flat[:rows * mu // 4], mu),  # half a round
        FieldMatrix._of_flat(field, [], mu),  # no round
        FieldMatrix(other, query.data),
    )
    for q_n in bad:
        with pytest.raises(ValueError):
            pm.psdmm_answer(a_sh[0], b_sh[0], q_n)
    one_round = FieldMatrix._of_flat(field, query.flat[:rows * mu // 2], mu)
    assert pm.psdmm_answer(a_sh[0], b_sh[0], one_round) == pm.psdmm_answer(
        a_sh[0], b_sh[0], query
    )[:1]


def test_query_is_the_coders_list_wrapped_as_it_is(monkeypatch):
    """Server n's query holds ``code_queries``' list for n itself, not a copy,
    as one K_c*L*M*mu x mu matrix."""
    p = pm.derive_psdmm_params(7, 1, 1, 1, 2, 2, 2, 2, code_dim=2)
    field, pts, _, noise = build_instance(p, seed=32)
    coded, code_queries = [], pm.code_queries

    def spy(*args):
        coded.append(code_queries(*args))
        return coded[-1]

    monkeypatch.setattr(pm, "code_queries", spy)
    queries = pm.psdmm_query(2, noise, pts, p)
    (flats,) = coded
    assert len(queries) == len(flats) == p.num_servers
    shape = (field, p.code_dim * p.layers * p.library_size * p.cols_b, p.cols_b)
    for m, flat in zip(queries, flats):
        assert m.flat is flat and (m.field, m.rows, m.cols) == shape


def test_theta_enters_psdmm_query_through_index():
    """``psdmm_query(2.0, ...)`` used to fail on list indexing inside the coder."""
    p = pm.derive_psdmm_params(4, 1, 1, 0, 2, 2, 2, 2, code_dim=1)
    _, pts, _, noise = build_instance(p, seed=33)
    for bad in (2.0, "2"):
        with pytest.raises(TypeError, match="interpreted as an integer"):
            pm.psdmm_query(bad, noise, pts, p)
    assert pm.psdmm_query(True, noise, pts, p) == pm.psdmm_query(1, noise, pts, p)


# ----------------------------------------------------------- boundary checks


def _blocks(field, count, rows, cols, seed=0):
    rng = Random(seed)
    return tuple(
        FieldMatrix(field, [field.random_vector(rng, cols) for _ in range(rows)])
        for _ in range(count)
    )


BOUNDARY = pm.PsdmmParams(6, 1, 1, 1, 2, 2, 2, 2, 1)  # M = 2, lambda = chi = mu = 2, ell = 3


def test_instance_rejects_library_of_another_shape():
    """A 3x2 library matrix at chi = 2: ``b_concat`` would drop its third row."""
    p = BOUNDARY
    field = pm.default_field(p)
    a = _blocks(field, p.block_count, 2, 2)
    with pytest.raises(ValueError, match="one shape"):
        pm.PsdmmInstance(field, a, _blocks(field, 1, 2, 2) + _blocks(field, 1, 3, 2))
    with pytest.raises(ValueError, match="one shape"):
        pm.PsdmmInstance(field, a[:2] + _blocks(field, 1, 2, 3), _blocks(field, 2, 2, 2))
    with pytest.raises(ValueError, match="columns"):
        pm.PsdmmInstance(field, a, _blocks(field, 2, 3, 2))
    with pytest.raises(ValueError, match="at least one"):
        pm.PsdmmInstance(field, a, ())


def test_shares_reject_blocks_the_params_do_not_name():
    """2x3 A blocks (with 3x2 B) at lambda = chi = 2 would give 3x2 shares."""
    p = BOUNDARY
    field, pts, inst, noise = build_instance(p, seed=21)
    wrong = pm.PsdmmInstance(
        field, _blocks(field, p.block_count, 2, 3), _blocks(field, p.library_size, 3, 2)
    )
    for share in (pm.share_a, pm.share_b):
        share(inst, noise, pts, p)
        with pytest.raises(ValueError, match="need"):
            share(wrong, noise, pts, p)
    with pytest.raises(ValueError, match="library matrices"):  # M = 1 of 2
        pm.share_b(replace(inst, b_library=inst.b_library[:1]), noise, pts, p)


def test_share_a_rejects_too_few_blocks():
    p = BOUNDARY
    field, pts, inst, noise = build_instance(p, seed=22)
    with pytest.raises(ValueError, match="A blocks"):  # was an IndexError
        pm.share_a(replace(inst, a_blocks=inst.a_blocks[:-1]), noise, pts, p)


def test_instance_and_shares_reject_another_field():
    """Entries of another field were folded mod q without an error."""
    p = BOUNDARY
    field, pts, inst, noise = build_instance(p, seed=23)
    other = PrimeField(smallest_prime_geq(field.q + 1))
    with pytest.raises(ValueError, match="FieldMatrix over"):
        pm.PsdmmInstance(field, inst.a_blocks, _blocks(other, p.library_size, 2, 2))
    with pytest.raises(ValueError, match="FieldMatrix over"):
        pm.PsdmmInstance(field, inst.a_blocks[:-1] + ([[1, 2], [3, 4]],), inst.b_library)
    foreign = pm.PsdmmInstance(
        other, _blocks(other, p.block_count, 2, 2), _blocks(other, p.library_size, 2, 2)
    )
    for share in (pm.share_a, pm.share_b):
        with pytest.raises(ValueError, match=f"GF\\({field.q}\\)"):
            share(foreign, noise, pts, p)


def test_shares_and_queries_reject_noise_of_another_field():
    """GF(13) noise at GF(11) points was coded without complaint, though its
    residues taken mod 11 are not uniform."""
    p = BOUNDARY
    field, pts, inst, _ = build_instance(p, seed=29)
    other = PrimeField(smallest_prime_geq(field.q + 1))
    assert (field.q, other.q) == (11, 13)
    foreign = pm.PsdmmNoise.random(other, p, Random(30))
    message = "^noise and points live in different fields$"
    for share in (pm.share_a, pm.share_b):
        with pytest.raises(ValueError, match=message):
            share(inst, foreign, pts, p)
    with pytest.raises(ValueError, match=message):
        pm.psdmm_query(1, foreign, pts, p)


def test_coders_and_decoder_refuse_points_for_another_server_count():
    """Eight alphas for six servers, at the right L = 4: both shares and the
    queries coded eight servers, while ``psdmm_decode`` read the answers at
    the first six alphas."""
    field = PrimeField(13)
    p = pm.PsdmmParams(6, 1, 1, 0, 2, 2, 2, 2, 1)
    pts = EvaluationPoints(field, (1, 2, 3, 4), tuple(range(5, 13)))
    assert (p.layers, p.num_servers) == (4, 6)
    good = pm.default_points(p, field)
    inst = pm.PsdmmInstance.random(field, p, Random(31))
    noise = pm.PsdmmNoise.random(field, p, Random(32))
    a_sh, b_sh = pm.share_a(inst, noise, good, p), pm.share_b(inst, noise, good, p)
    queries = pm.psdmm_query(1, noise, good, p)
    answers = [pm.psdmm_answer(a_sh[n], b_sh[n], queries[n]) for n in range(p.num_servers)]
    assert pm.psdmm_decode(answers, good, p) == [a.mul(inst.b_library[0]) for a in inst.a_blocks]
    message = "^evaluation point counts do not match the parameters$"
    for share in (pm.share_a, pm.share_b):
        with pytest.raises(ValueError, match=message):
            share(inst, noise, pts, p)
    with pytest.raises(ValueError, match=message):
        pm.psdmm_query(1, noise, pts, p)
    with pytest.raises(ValueError, match=message):
        pm.psdmm_decode(answers, pts, p)


def test_decode_rejects_answer_blocks_of_another_field_or_type():
    p = BOUNDARY
    field, pts, inst, noise = build_instance(p, seed=24)
    a_sh, b_sh = pm.share_a(inst, noise, pts, p), pm.share_b(inst, noise, pts, p)
    queries = pm.psdmm_query(1, noise, pts, p)
    answers = [pm.psdmm_answer(a_sh[n], b_sh[n], queries[n]) for n in range(p.num_servers)]
    assert pm.psdmm_decode(answers, pts, p) == [a.mul(inst.b_library[0]) for a in inst.a_blocks]
    other = PrimeField(smallest_prime_geq(field.q + 1))
    for bad in (FieldMatrix(other, answers[0][0].data), None, answers[0][0].data):
        with pytest.raises(ValueError, match="every answer block"):
            pm.psdmm_decode([[bad]] + answers[1:], pts, p)


# --------------------------------------------------------------------- costs


def test_upload_accounting():
    p = pm.derive_psdmm_params(6, 1, 1, 0, 2, 3, 2, 2, code_dim=2)
    share_symbols = p.layers * p.rows_a * p.inner_dim
    total = share_symbols * p.num_servers
    confidential = p.block_count * p.rows_a * p.inner_dim
    assert Fraction(total, confidential) == p.upload_cost == Fraction(6, 2)


def test_cost_hull_public_library():
    hull = pm.cost_hull(4, 1, 1, 0)
    assert [(r.code_dim, r.upload, r.download) for r in hull] == [
        (1, Fraction(4, 1), Fraction(2, 1)),
        (2, Fraction(2, 1), Fraction(4, 1)),
    ]
    assert hull[0].prior_download == Fraction(4, 1)
    assert all(r.download < r.prior_download for r in hull)


def test_cost_hull_strictly_improves_for_all_feasible_kc():
    for n in range(4, 13):
        hull = pm.cost_hull(n, 1, 1, 0)
        assert hull, n
        for r in hull:
            assert r.prior_download is not None
            assert r.download < r.prior_download


def test_cost_hull_shared_library_formulas():
    n, t, xa, xb = 9, 1, 1, 2
    hull = pm.cost_hull(n, t, xa, xb)
    kc_max = (n + 1 - xa - xb - t) // 2
    assert [r.code_dim for r in hull] == list(range(1, kc_max + 1))
    for r in hull:
        layers = n - (xa + xb + t + 2 * r.code_dim - 2)
        assert r.download == Fraction(n, layers)
        assert r.upload == Fraction(n, r.code_dim)
        assert r.prior_download is None


def test_cost_hull_drops_infeasible_kc():
    # X_B=0: the nominal K_c range ends at N+1-XA-T but that point has L=0
    n, xa, t = 5, 1, 1
    hull = pm.cost_hull(n, t, xa, 0)
    assert [r.code_dim for r in hull] == list(range(1, n - xa - t + 1))
    # K_c = 1 at T = X_A = X_B = 0 is the square pure-Cauchy corner
    assert [r.code_dim for r in pm.cost_hull(3, 0, 0, 0)] == [2, 3]
    # every hull lists exactly the K_c in 1..N that the parameter tuple accepts
    for n in range(1, 12):
        for t, xa, xb in product(range(3), repeat=3):
            feasible = []
            for kc in range(1, n + 1):
                try:
                    p = pm.derive_psdmm_params(n, t, xa, xb, 2, 1, 1, 1, code_dim=kc)
                except InfeasibleParamsError:
                    continue
                assert p.decode_width == p.num_servers
                feasible.append(kc)
            assert [r.code_dim for r in pm.cost_hull(n, t, xa, xb)] == feasible


def test_end_to_end_grid_both_regimes():
    cases = [
        (5, 1, 1, 1, 1),  # shared library
        (6, 1, 2, 1, 1),
        (5, 1, 1, 0, 2),  # public library
        (6, 2, 1, 0, 1),
    ]
    for n, t, xa, xb, kc in cases:
        for lam, chi, mu in ((1, 2, 1), (2, 1, 3), (3, 3, 2)):
            for m in (1, 3):
                p = pm.derive_psdmm_params(n, t, xa, xb, m, lam, chi, mu, kc)
                for theta in range(1, m + 1):
                    decoded, expected = run_psdmm(p, theta, seed=n * 100 + theta)
                    assert decoded == expected
