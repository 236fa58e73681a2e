"""The retrieval scheme: parameters, encoding, queries, answers, decoding."""

from fractions import Fraction
from functools import partial
from itertools import combinations
from random import Random

import pytest

import xstpir as xp
from xstpir.field import PrimeField, smallest_prime_geq
from xstpir.linalg import EvaluationPoints, FieldMatrix, build_decoding_matrix
from xstpir.protocol import InfeasibleParamsError, coded_share, coefficient_table, nested
import xstpir.psdmm as pm
from xstpir.robust import DecodingFailure, decoder_for

import oracles
from oracles import (
    answer_coefficients,
    diff,
    evaluate_coefficients,
    interference_offset,
    layer_vector,
    recover_messages,
    solve_column,
)


def fresh_instance(params, seed, field=None, theta=1):
    """Messages, noise, points, storages, queries, answers for one run."""
    if field is None:
        field = xp.default_field(params)
    pts = xp.default_points(params, field)
    rng = Random(seed)
    msgs = xp.MessageSet.random(field, params, rng)
    zn = xp.StorageNoise.random(field, params, rng)
    qn = xp.QueryNoise.random(field, params, rng)
    storages = xp.encode_storage(msgs, zn, pts, params)
    queries = xp.gen_queries(theta, qn, pts, params)
    answers = [xp.server_answer(s, qb) for s, qb in zip(storages, queries)]
    return field, pts, msgs, zn, qn, storages, queries, answers


# ---------------------------------------------------------------- parameters


def test_derive_params_worked_examples():
    p = xp.derive_params(4, 2, 1, 1, 0, 0, 2)
    assert (p.layers, p.message_len) == (1, 2)
    p = xp.derive_params(5, 2, 1, 1, 0, 0, 2)
    assert (p.layers, p.message_len) == (2, 4)
    with pytest.raises(InfeasibleParamsError):
        xp.derive_params(4, 2, 1, 2, 0, 0, 2)  # L = 0
    with pytest.raises(InfeasibleParamsError, match="square pure-Cauchy"):
        xp.derive_params(4, 1, 0, 0)  # width = L = rows, no Vandermonde column


def test_derive_params_validation():
    with pytest.raises(ValueError):
        xp.derive_params(0, 1, 0, 1)
    with pytest.raises(ValueError):
        xp.derive_params(4, 1, -1, 1)
    with pytest.raises(ValueError):
        xp.derive_params(4, 1, 5, 1)  # X > N
    with pytest.raises(ValueError):
        xp.derive_params(4, 1, 1, 1, max_unresponsive=4)
    with pytest.raises(TypeError):  # L and ell are computed, not passed
        xp.ProtocolParams(4, 2, 1, 1, 0, 0, 2, layers=2, message_len=4)
    # L >= 1 bounds X, T and U below N: larger values are infeasible tuples
    for args in ((4, 1, 5, 1), (4, 1, 1, 5), (4, 1, 1, 1, 4), (3, 2, 0, 0, 3)):
        with pytest.raises(InfeasibleParamsError):
            xp.derive_params(*args)
    assert xp.ProtocolParams(5, 2, 1, 1, 0, 0, 2) == xp.derive_params(5, 2, 1, 1, 0, 0, 2)


def test_rates():
    p4 = xp.derive_params(4, 2, 1, 1)
    assert xp.achievable_rate(p4) == Fraction(1, 4)
    assert xp.comparison_rate_prior(p4) == Fraction(1, 6)
    p5 = xp.derive_params(5, 2, 1, 1)
    assert xp.achievable_rate(p5) == Fraction(2, 5)
    assert xp.comparison_rate_prior(p5) == Fraction(4, 15)
    p10 = xp.derive_params(10, 1, 0, 1)
    assert xp.achievable_rate(p10) == Fraction(9, 10)
    assert xp.comparison_rate_prior(p10) == xp.achievable_rate(p10)  # X = 0
    # rate formula as stated: 1 - (K_c+X+T+2B-1)/(N-U)
    p = xp.derive_params(9, 2, 1, 2, 1, 1, 3)
    assert xp.achievable_rate(p) == 1 - Fraction(2 + 1 + 2 + 2 - 1, 9 - 1)


def test_default_field_is_smallest_prime():
    assert xp.default_field(xp.derive_params(4, 2, 1, 1)).q == 5
    assert xp.default_field(xp.derive_params(5, 2, 1, 1)).q == 7
    assert xp.default_field(xp.derive_params(8, 2, 1, 1, 1, 1)).q == 11


# ------------------------------------------------------------------ messages


def test_message_set_dual_views_agree():
    p = xp.derive_params(6, 2, 1, 1, num_messages=3)  # L = 3, ell = 6
    field = xp.default_field(p)
    msgs = xp.MessageSet.random(field, p, Random(0))
    for l in range(1, p.layers + 1):
        for k in range(1, p.code_dim + 1):
            vec = layer_vector(msgs, l, k)
            pos = msgs.symbol_position(l, k)
            assert pos == p.layers * (k - 1) + l - 1
            assert vec == [m[pos] for m in msgs.messages]
    with pytest.raises(ValueError):
        layer_vector(msgs, 0, 1)
    with pytest.raises(ValueError):
        layer_vector(msgs, 1, p.code_dim + 1)


def test_message_set_shape_checked():
    f = xp.PrimeField(5)
    with pytest.raises(ValueError):
        xp.MessageSet(f, 1, 2, ((1, 2, 3),))  # ell = 2, got 3 symbols


# ------------------------------------------------------------------- storage


def test_encode_storage_frozen_example():
    """q=5, f=1, alpha=(2,3,4,0): S_n = W11/d^2 + W12/d + Z11 by hand."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    f = xp.PrimeField(5)
    pts = xp.default_points(p, f)
    msgs = xp.MessageSet(f, 1, 2, ((1, 3), (2, 4)))  # W11=(1,2), W12=(3,4)
    zn = xp.StorageNoise(f, (((0, 1),),))
    storages = xp.encode_storage(msgs, zn, pts, p)
    assert [s.shares[0] for s in storages] == [(3, 4), (0, 2), (3, 1), (4, 2)]


def test_encode_storage_without_noise_layers():
    """X=0 gives a pure Cauchy combination of the message columns."""
    p = xp.derive_params(4, 2, 0, 1, num_messages=2)  # L = 2
    f = xp.default_field(p)
    pts = xp.default_points(p, f)
    msgs = xp.MessageSet.random(f, p, Random(1))
    zn = xp.StorageNoise(f, ((), ()))
    storages = xp.encode_storage(msgs, zn, pts, p)
    q = f.q
    for s in storages:
        for l in range(1, p.layers + 1):
            d = diff(pts, l, s.server)
            want = tuple(
                sum(
                    pow(d, (q - 2) * (p.code_dim - k + 1), q) * layer_vector(msgs, l, k)[j]
                    for k in range(1, p.code_dim + 1)
                )
                % q
                for j in range(2)
            )
            assert s.shares[l - 1] == want


def test_mds_recovery_from_any_subset():
    """Any K_c + X shares determine every message (and reject fewer)."""
    p = xp.derive_params(5, 2, 1, 1, num_messages=3)
    _, pts, msgs, _, _, storages, _, _ = fresh_instance(p, seed=5)
    need = p.code_dim + p.security
    for sub in combinations(storages, need):
        rec = recover_messages(sub, pts, p)
        assert rec.messages == msgs.messages
    with pytest.raises(ValueError):
        recover_messages(storages[: need - 1], pts, p)


def test_encode_storage_dimension_checks():
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    f = xp.default_field(p)
    pts = xp.default_points(p, f)
    msgs = xp.MessageSet.random(f, p, Random(0))
    bad_noise = xp.StorageNoise(f, (((1, 1), (2, 2)),))  # X=2 layers, expected 1
    with pytest.raises(ValueError):
        xp.encode_storage(msgs, bad_noise, pts, p)
    other = xp.derive_params(4, 2, 1, 1, num_messages=3)
    msgs3 = xp.MessageSet.random(f, other, Random(0))
    with pytest.raises(ValueError):
        xp.encode_storage(msgs3, xp.StorageNoise.random(f, p, Random(0)), pts, p)


# ------------------------------------------------------------------- queries


def test_gen_queries_frozen_example():
    """q=7, K=3, theta=2, fixed noise: vectors match the hand expansion."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=3)
    f = xp.PrimeField(7)
    pts = xp.EvaluationPoints(f, (1,), (2, 3, 4, 5))
    qn = xp.QueryNoise(f, ((((1, 2, 3), (4, 5, 6)),),))  # Z'^1=(1,2,3), Z'^2=(4,5,6)
    bundles = xp.gen_queries(2, qn, pts, p)
    expected = {
        1: ((1, 1, 3), (4, 6, 6)),
        2: ((4, 6, 5), (2, 0, 3)),
        3: ((2, 1, 6), (1, 4, 5)),
        4: ((2, 0, 6), (1, 4, 5)),
    }
    for qb in bundles:
        assert qb.rounds[0][0] == expected[qb.server][0]
        assert qb.rounds[1][0] == expected[qb.server][1]


def test_final_round_exposes_selector_unscaled():
    """Round K_c scales the selector by d^0 = 1."""
    p = xp.derive_params(5, 2, 1, 0, num_messages=3)  # T = 0: no noise at all
    f = xp.default_field(p)
    pts = xp.default_points(p, f)
    qn = xp.QueryNoise(f, tuple(() for _ in range(p.layers)))
    bundles = xp.gen_queries(2, qn, pts, p)
    for qb in bundles:
        for l in range(p.layers):
            # bare scaled selector; final round unscaled
            assert qb.rounds[-1][l] == (0, 1, 0)
            d = diff(pts, l + 1, qb.server)
            assert qb.rounds[0][l] == (0, d % f.q, 0)


def test_gen_queries_theta_range():
    p = xp.derive_params(4, 2, 1, 1, num_messages=3)
    f = xp.default_field(p)
    qn = xp.QueryNoise.random(f, p, Random(0))
    pts = xp.default_points(p, f)
    for bad in (0, 4):
        with pytest.raises(ValueError):
            xp.gen_queries(bad, qn, pts, p)


# ---------------------------------------------------------- residue contract

Q31 = 2**31 - 1


def _residues(values, q) -> bool:
    return all(0 <= v < q for v in values)


@pytest.mark.parametrize("q", [2, 5, Q31])
def test_coded_share_returns_residues(q):
    """Negative and positive exponents over negative and >= q input vectors."""
    rng = Random(q)
    for d in {1, q - 1, rng.randrange(1, q)}:
        for exponents in ([-2], [3], [-3, -1, 0, 1, 4]):
            vectors = [
                [-q - 1, -1, q, 2 * q + 3, rng.randrange(-3 * q, 4 * q)] for _ in exponents
            ]
            got = coded_share([[pow(d, e, q) for e in exponents]], vectors, q)[0]
            assert _residues(got, q)
            assert got == [
                sum(pow(d, e, q) * v[j] for e, v in zip(exponents, vectors)) % q
                for j in range(5)
            ]


@pytest.mark.parametrize("q", [2, 5, Q31, smallest_prime_geq(2**40), 2**64 - 59])
def test_coded_share_matches_oracle_at_worst_case_carries(q):
    """The packed kernel equals the per-entry sum, with every entry and d at q-1.

    With d = q-1 every odd exponent's coefficient is q-1, so the all-odd
    exponent lists reach the largest sum, terms * (q-1)^2, in every slot.
    """
    rng = Random(q)
    exponent_lists = ([-1], [-1, 1], [-3, -1, 1], [-3, -1, 1, 3], [-2, 0, 3], [-1, 2, 0, 4])
    for length in (1, 2, 17, 2048):
        for exponents in exponent_lists:
            ds = [q - 1, 1, rng.randrange(1, q), q - 1]
            worst = [[q - 1] * length for _ in exponents]
            mixed = [[rng.randrange(q) for _ in range(length)] for _ in exponents]
            for vectors in (worst, mixed):
                want = [oracles.coded_share(d, exponents, vectors, q) for d in ds]
                coefficients = [[pow(d, e, q) for e in exponents] for d in ds]
                assert coded_share(coefficients, vectors, q) == want


# Shapes (entries per vector, outputs): the first four have more outputs than
# entries and take the packing across outputs, the rest one packing per vector.
SHAPES = [(1, 2), (1, 20), (2, 8), (3, 4), (3, 20), (2, 2), (3, 1), (17, 4)]


@pytest.mark.parametrize("q", [2, 5, Q31, smallest_prime_geq(2**40), 2**64 - 59])
def test_coded_share_orientations_match_oracle_at_worst_case_carries(q):
    """Both packings equal the per-entry sum, also with every slot at terms * (q-1)^2."""
    rng = Random(q + 1)
    for length, outputs in SHAPES:
        for exponents in ([-1], [-3, -1, 1], [-1, 1, 3, 5], [-2, 0, 3]):
            worst_ds = [q - 1] * outputs  # every odd power of q-1 is q-1
            mixed_ds = [rng.randrange(1, q) for _ in range(outputs)]
            worst = [[q - 1] * length for _ in exponents]
            mixed = [[rng.randrange(q) for _ in range(length)] for _ in exponents]
            for ds, vectors in ((worst_ds, worst), (mixed_ds, mixed), (worst_ds, mixed)):
                coefficients = [[pow(d, e, q) for e in exponents] for d in ds]
                want = [oracles.coded_share(d, exponents, vectors, q) for d in ds]
                assert coded_share(coefficients, vectors, q) == want


@pytest.mark.parametrize("length, outputs", SHAPES)
def test_coded_share_reduces_caller_vectors_in_both_orientations(length, outputs):
    """Entries below 0 and at or above q still give the residues of the exact sums."""
    for q in (5, Q31):
        rng = Random(q * length + outputs)
        coefficients = [[rng.randrange(q) for _ in range(3)] for _ in range(outputs)]
        pool = [-q - 1, -1, q, 2 * q + 3, 7 * q - 1]
        vectors = [[rng.choice(pool) for _ in range(length)] for _ in range(3)]
        got = coded_share(coefficients, vectors, q)
        assert all(_residues(share, q) for share in got)
        assert got == [
            [sum(c * v[j] for c, v in zip(row, vectors)) % q for j in range(length)]
            for row in coefficients
        ]


@pytest.mark.parametrize("outputs", [1, 6])
def test_coded_share_rejects_unequal_lengths_in_both_orientations(outputs):
    """Vectors of other lengths raise, whichever is first, rather than truncate."""
    coefficients = [[1, 2]] * outputs
    for lengths in ((3, 2), (2, 3), (1, 2), (2, 1)):
        vectors = [[1] * n for n in lengths]
        with pytest.raises(ValueError):
            coded_share(coefficients, vectors, 7)


@pytest.mark.parametrize("outputs", [1, 6])
def test_coded_share_rejects_unmatched_coefficients_and_no_vectors_in_both_orientations(outputs):
    """A coefficient row with a coefficient too few or too many, or no vector, raises.

    Two vectors of length 2 are packed per output at 1 output, and across
    the outputs at 6; either way zip would drop the unmatched terms.
    """
    vectors = [[1, 2], [5, 5]]
    assert coded_share([[1, 1]] * outputs, vectors, 7) == [[6, 0]] * outputs
    for rows in ([[1]] * outputs, [[1, 1, 1]] * outputs, [[1, 1]] * (outputs - 1) + [[1]]):
        with pytest.raises(ValueError):
            coded_share(rows, vectors, 7)
    with pytest.raises(ValueError):
        coded_share([[1, 1]] * (outputs + 2), [[1, 2]], 7)
    with pytest.raises(ValueError):
        coded_share([[1]] * outputs, [], 7)


NESTED_SHAPES = [(3, 4), (1, 1), (2, 3, 5), (2, 1, 2, 3), (4, 0, 3), (3, 2, 0), (0, 2, 2), (2, 0)]


@pytest.mark.parametrize("q", [2, 5, 11, 2**31 - 1])
def test_nested_draws_in_one_call_what_a_call_per_vector_draws(q):
    """One ``random_vector`` call cut into the layout equals one call per innermost vector.

    Small q rejects often (5/16 to 1/2 of all draws at q <= 11), so a cut
    that took a draw too many or too few would shift every later vector and
    the generator state; zero-size axes must give empty tuples and draw nothing.
    """
    f = PrimeField(q)
    for shape in NESTED_SHAPES:
        for seed in range(20):
            rng, ref = Random(seed), Random(seed)
            got = nested(shape, partial(f.random_vector, rng))
            assert got == oracles.nested(shape, partial(f.random_vector, ref))
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("q", [2, 5, 11, 2**31 - 1])
def test_random_objects_equal_their_constructed_forms(q):
    """Each ``random`` equals its constructor on the reference draws, which it reduces.

    ``MessageSet.random`` wraps its residues without the constructor's
    reduction; the result must still be the constructed object.
    """
    f = PrimeField(q)

    def ref(seed):
        return partial(f.random_vector, Random(seed))

    for args in [(2, 1, 1, 0, 0, 0, 1), (4, 2, 1, 1, 0, 0, 3), (6, 2, 1, 1, 1, 0, 5)]:
        p = xp.derive_params(*args)
        for seed in range(5):
            rows = oracles.nested((p.num_messages, p.message_len), ref(seed))
            msgs = xp.MessageSet.random(f, p, Random(seed))
            assert msgs == xp.MessageSet(f, p.layers, p.code_dim, rows)
            assert type(msgs.messages) is tuple and {type(m) for m in msgs.messages} == {tuple}
            assert xp.StorageNoise.random(f, p, Random(seed)) == xp.StorageNoise(
                f, oracles.nested(xp.StorageNoise.shape(p), ref(seed)))
            assert xp.QueryNoise.random(f, p, Random(seed)) == xp.QueryNoise(
                f, oracles.nested(xp.QueryNoise.shape(p), ref(seed)))
    pp = pm.PsdmmParams(6, 1, 1, 1, 2, 2, 2, 2, 1)
    draw = ref(3)  # the three noises come from one stream, in this order
    wide = pp.library_size * pp.cols_b
    assert pm.PsdmmNoise.random(f, pp, Random(3)) == pm.PsdmmNoise(
        oracles.nested((pp.layers, pp.security_a, pp.rows_a * pp.inner_dim), draw),
        oracles.nested((pp.layers, pp.security_b, pp.inner_dim * wide), draw),
        oracles.nested((pp.layers, pp.privacy, pp.code_dim, wide * pp.cols_b), draw),
    )


@pytest.mark.parametrize("smallest_q", [True, False])
def test_coefficient_table_matches_pow(smallest_q):
    """Entry [l][n] is d^e for d = f_l - a_n; a negative e is a power of d^(q-2)."""
    p = xp.derive_params(7, 2, 1, 1, 0, 0, 3)
    f = xp.default_field(p) if smallest_q else PrimeField(Q31)
    q = f.q
    pts = xp.default_points(p, f)
    exponents = (-3, -2, -1, 0, 1, 2, 5)
    table = coefficient_table(pts, exponents)
    assert (len(table), len(table[0])) == (p.layers, p.num_servers)
    for l in range(1, p.layers + 1):
        for n in range(1, p.num_servers + 1):
            d = diff(pts, l, n)
            inv = pow(d, q - 2, q)
            want = tuple(pow(d, e, q) if e >= 0 else pow(inv, -e, q) for e in exponents)
            assert table[l - 1][n - 1] == want
    assert coefficient_table(pts, exponents) is table


def test_default_points_are_shared_per_field_and_shape():
    """Equal (field, L, N) give the identical object; any other, a different one."""
    p = xp.derive_params(5, 2, 1, 1, 0, 0, 2)
    same_shape = xp.derive_params(5, 2, 1, 1, 0, 0, 3)  # K does not enter L
    assert xp.default_points(p) is xp.default_points(same_shape)
    assert xp.default_points(p, PrimeField(Q31)) is xp.default_points(p, PrimeField(Q31))
    assert xp.default_points(p, PrimeField(Q31)) is not xp.default_points(p)
    other_l = xp.derive_params(5, 1, 1, 1, 0, 0, 2)
    other_n = xp.derive_params(6, 3, 1, 1, 0, 0, 2)
    assert p.layers != other_l.layers and p.layers == other_n.layers
    for other in (other_l, other_n):
        assert xp.default_points(other, PrimeField(Q31)) != xp.default_points(p, PrimeField(Q31))


@pytest.mark.parametrize("smallest_q", [True, False])
@pytest.mark.parametrize(
    "shape",
    [
        (5, 2, 1, 1, 0, 0, 3),  # L + N = q at the smallest q: the last alpha is 0
        (4, 2, 1, 0, 0, 0, 3),  # T = 0: a query is the bare e_theta slot
        (7, 1, 1, 1, 1, 1, 2),  # U = B = 1
    ],
)
def test_storage_queries_and_answers_are_residues(shape, smallest_q):
    """Every entry the kernels return lies in range(q), also from unreduced noise."""
    p = xp.derive_params(*shape)
    f = xp.default_field(p) if smallest_q else xp.PrimeField(Q31)
    q = f.q
    pts = xp.default_points(p, f)
    rng = Random(q)
    msgs = xp.MessageSet.random(f, p, rng)

    def raw():
        return tuple(rng.randrange(-2 * q, 3 * q) for _ in range(p.num_messages))

    zn = xp.StorageNoise(
        f, tuple(tuple(raw() for _ in range(p.security)) for _ in range(p.layers))
    )
    qn = xp.QueryNoise(
        f,
        tuple(
            tuple(tuple(raw() for _ in range(p.code_dim)) for _ in range(p.privacy))
            for _ in range(p.layers)
        ),
    )
    storages = xp.encode_storage(msgs, zn, pts, p)
    assert all(_residues(vec, q) for s in storages for vec in s.shares)
    for theta in range(1, p.num_messages + 1):
        queries = xp.gen_queries(theta, qn, pts, p)
        assert all(_residues(vec, q) for qb in queries for rnd in qb.rounds for vec in rnd)
        if not p.privacy:  # round K_c holds e_theta at exponent K_c - k = 0 alone
            assert all(vec[theta - 1] == 1 for qb in queries for vec in qb.rounds[-1])
        answers = [xp.server_answer(s, qb) for s, qb in zip(storages, queries)]
        assert all(_residues(a.scalars, q) for a in answers)
        assert xp.decode(answers, pts, p) == list(msgs.messages[theta - 1])


# ------------------------------------------------------------------- answers


def test_answer_single_term_inner_product():
    f = xp.PrimeField(29)
    s = xp.ServerStorage(1, ((2, 3),), f)
    qb = xp.QueryBundle(1, (((4, 5),),), f)
    assert xp.server_answer(s, qb).scalars == (23,)  # 2*4 + 3*5
    f5 = xp.PrimeField(5)
    assert xp.server_answer(
        xp.ServerStorage(1, ((2, 3),), f5), xp.QueryBundle(1, (((4, 5),),), f5)
    ).scalars == (3,)  # reduced mod 5
    with pytest.raises(ValueError):
        xp.server_answer(xp.ServerStorage(2, ((2, 3),), f), qb)
    with pytest.raises(ValueError):
        xp.server_answer(xp.ServerStorage(1, ((2, 3), (1, 1)), f), qb)
    with pytest.raises(ValueError):
        xp.server_answer(xp.ServerStorage(1, ((2, 3),), f5), qb)


def test_answer_four_term_decomposition():
    """A_n1 = W11Qt/d + I1 + d*I2 + d^2*I3 with the documented I terms."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=3)
    theta = 2
    f, pts, msgs, zn, qn, storages, queries, answers = fresh_instance(
        p, seed=3, theta=theta
    )
    q = f.q
    w11, w12 = layer_vector(msgs, 1, 1), layer_vector(msgs, 1, 2)
    z11 = zn.z[0][0]
    zq1 = qn.zp[0][0][0]
    e_t = [1 if j == theta - 1 else 0 for j in range(3)]
    dot = lambda u, v: sum(a * b for a, b in zip(u, v)) % q
    i1 = (dot(w11, zq1) + dot(w12, e_t)) % q
    i2 = (dot(w12, zq1) + dot(z11, e_t)) % q
    i3 = dot(z11, zq1)
    for ans in answers:
        d = diff(pts, 1, ans.server)
        want = (
            pow(d, q - 2, q) * dot(w11, e_t) + i1 + d * i2 + d * d % q * i3
        ) % q
        assert ans.scalars[0] == want


def test_answer_matches_expansion_oracle():
    """Random instances equal the brute-force polynomial expansion."""
    for seed in range(6):
        p = xp.derive_params(7, 2, 2, 1, num_messages=3)  # L = 3
        theta = 1 + seed % 3
        f, pts, msgs, zn, qn, storages, queries, answers = fresh_instance(
            p, seed=seed, theta=theta
        )
        for rk in range(1, p.code_dim + 1):
            coeffs = answer_coefficients(msgs, zn, qn, theta, p, rk, f.q)
            for ans in answers:
                assert ans.scalars[rk - 1] == evaluate_coefficients(
                    coeffs, pts, ans.server
                )


def test_answer_linearity_by_superposition():
    p = xp.derive_params(5, 2, 1, 1, num_messages=2)
    f, pts, msgs, zn, qn, storages, queries, _ = fresh_instance(p, seed=8)
    q = f.q
    rng = Random(99)
    s1 = storages[0]
    s2 = xp.ServerStorage(
        1, tuple(tuple(rng.randrange(q) for _ in row) for row in s1.shares), f
    )
    s_sum = xp.ServerStorage(
        1,
        tuple(
            tuple((a + b) % q for a, b in zip(r1, r2))
            for r1, r2 in zip(s1.shares, s2.shares)
        ),
        f,
    )
    qb = queries[0]
    a1, a2 = xp.server_answer(s1, qb), xp.server_answer(s2, qb)
    a_sum = xp.server_answer(s_sum, qb)
    assert a_sum.scalars == tuple(
        (u + v) % q for u, v in zip(a1.scalars, a2.scalars)
    )
    # linear in the query side too
    qb2 = xp.QueryBundle(
        1,
        tuple(
            tuple(tuple(rng.randrange(q) for _ in vec) for vec in layer)
            for layer in qb.rounds
        ),
        f,
    )
    qb_sum = xp.QueryBundle(
        1,
        tuple(
            tuple(
                tuple((a + b) % q for a, b in zip(v1, v2))
                for v1, v2 in zip(l1, l2)
            )
            for l1, l2 in zip(qb.rounds, qb2.rounds)
        ),
        f,
    )
    b1, b2 = xp.server_answer(s1, qb), xp.server_answer(s1, qb2)
    b_sum = xp.server_answer(s1, qb_sum)
    assert b_sum.scalars == tuple(
        (u + v) % q for u, v in zip(b1.scalars, b2.scalars)
    )


# ---------------------------------------------------------------- offsets


def test_offset_round_one_is_zero():
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    pts = xp.default_points(p)
    assert interference_offset({}, pts, p, 1, 1) == 0


def test_offset_single_layer_formula():
    """Round 2 offset at L=1 is decoded_symbol / d^2."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    f = xp.default_field(p)
    pts = xp.default_points(p, f)
    q = f.q
    for n in range(1, 5):
        d = diff(pts, 1, n)
        want = (3 * pow(pow(d, q - 2, q), 2, q)) % q
        assert interference_offset({(1, 1): 3}, pts, p, 2, n) == want
    with pytest.raises(ValueError):
        interference_offset({}, pts, p, 2, 1)  # missing round-1 symbol


@pytest.mark.parametrize("streams", [1, 16])
@pytest.mark.parametrize("kc", [2, 3])
def test_offset_matrix_times_earlier_symbols_matches_oracle(kc, streams):
    """O_k times the L*k x S earlier symbols is every row's and stream's scalar offset."""
    p = xp.derive_params(8, kc, 1, 1, 1, 1, 2)
    f = PrimeField(Q31)
    q = f.q
    pts = xp.default_points(p, f)
    servers = (1, 2, 3, 5, 6, 7, 8)  # server 4 silent
    decoder = decoder_for(build_decoding_matrix(pts, servers, p.layers, p.decode_width))
    rng = Random(kc * 100 + streams)
    symbols = {(l, k): f.random_vector(rng, streams)
               for l in range(1, p.layers + 1) for k in range(1, kc)}
    for rk in range(1, kc):  # 0-based round index: rounds 1..rk are known
        known = [v for k in range(1, rk + 1) for l in range(1, p.layers + 1)
                 for v in symbols[(l, k)]]  # row L*(k-1) + l-1
        o = decoder.offsets(rk)
        assert decoder.offsets(rk) is o
        if streams == 1:
            got = [[v] for v in o.matvec(known)]
        else:
            got = o.mul(FieldMatrix._of_flat(f, known, streams)).data
        for row, server in zip(got, servers):
            want = [
                interference_offset(
                    {key: vec[s] for key, vec in symbols.items()}, pts, p, rk + 1, server
                )
                for s in range(streams)
            ]
            assert row == want


def test_corrected_answer_has_no_deep_inverse_terms():
    """After the offset, only 1/d survives among inverse powers (re-expansion)."""
    p = xp.derive_params(7, 3, 1, 1, num_messages=2)  # K_c = 3, L = 3
    theta = 2
    f, pts, msgs, zn, qn, storages, queries, answers = fresh_instance(
        p, seed=4, theta=theta
    )
    q = f.q
    for rk in range(2, p.code_dim + 1):
        coeffs = answer_coefficients(msgs, zn, qn, theta, p, rk, q)
        decoded = {
            (l, k): layer_vector(msgs, l, k)[theta - 1]
            for l in range(1, p.layers + 1)
            for k in range(1, rk)
        }
        # deep inverse coefficients are exactly the decoded earlier-round symbols
        residual = dict(coeffs)
        for (l, k), sym in decoded.items():
            key = (l, -(rk - k + 1))
            residual[key] = (residual.get(key, 0) - sym) % q
        for (l, e), c in residual.items():
            if e <= -2:
                assert c == 0
        for ans in answers:
            off = interference_offset(decoded, pts, p, rk, ans.server)
            corrected = (ans.scalars[rk - 1] - off) % q
            assert corrected == evaluate_coefficients(residual, pts, ans.server)


# ------------------------------------------------------------------- decode


def test_decode_round_trip_grid_sample():
    for n, kc, x, t, k in ((4, 2, 1, 1, 3), (5, 2, 1, 1, 2), (6, 1, 2, 2, 2), (7, 3, 1, 1, 2)):
        p = xp.derive_params(n, kc, x, t, num_messages=k)
        for theta in range(1, k + 1):
            _, pts, msgs, _, _, _, _, answers = fresh_instance(p, seed=n, theta=theta)
            assert xp.decode(answers, pts, p) == list(msgs.messages[theta - 1])


def test_decode_requires_enough_answers():
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    _, pts, msgs, _, _, _, _, answers = fresh_instance(p, seed=1)
    with pytest.raises(ValueError):
        xp.decode(answers[:3], pts, p)
    with pytest.raises(ValueError):
        xp.decode(answers + [answers[0]], pts, p)  # duplicate server
    for scalars in (answers[1].scalars[:1], answers[1].scalars + (0,)):  # != K_c = 2
        with pytest.raises(ValueError):
            xp.decode([answers[0], xp.AnswerBundle(2, scalars)] + answers[2:], pts, p)


def test_decode_treats_malformed_bundle_as_erasure():
    """U = 1 and all six answer: server 3's malformed bundle is the erasure.

    Malformed: K_c + 1 scalars, a scalar that is not an int in [0, q) (a
    bool among them), or scalars that are not a tuple or list (None, an int,
    an iterator).  A bundle whose server index is not an int in 1..N is an
    erasure too: 0, N + 1, a string, None, a bool or an unhashable list.
    Beside the six it is ignored, also twice over, and with only servers
    1..4 it leaves too few answers.
    """
    p = xp.derive_params(6, 2, 1, 1, max_unresponsive=1, num_messages=2)
    f, pts, msgs, _, _, _, _, answers = fresh_instance(p, seed=4, theta=2)
    good = answers[2].scalars
    for stray in (0, p.num_servers + 1, "7", "3", None, True, [3]):
        extra = xp.AnswerBundle(stray, good)
        assert xp.decode(answers + [extra, extra], pts, p) == list(msgs.messages[1])
        with pytest.raises(DecodingFailure):
            xp.decode(answers[:4] + [extra], pts, p)
    for scalars in (
        good + (1,), (f.q, good[1]), (good[0], -1), (good[0], None), (True, good[1]),
        None, 7, iter(good),
    ):
        answers[2] = xp.AnswerBundle(3, scalars)
        assert xp.decode(answers, pts, p) == list(msgs.messages[1])
    answers[4] = xp.AnswerBundle(5, answers[4].scalars[:1])
    with pytest.raises(DecodingFailure):  # two erasures at U = 1
        xp.decode(answers, pts, p)


def test_decode_with_byzantine_garbage():
    p = xp.derive_params(8, 2, 1, 1, 1, 1, num_messages=2)
    theta = 2
    f, pts, msgs, _, _, _, _, answers = fresh_instance(p, seed=2, theta=theta)
    rng = Random(17)
    for silent in (1, 4, 8):
        for bad in (2, 5, 7):
            if bad == silent:
                continue
            delivered = {}
            for ans in answers:
                if ans.server == silent:
                    continue
                if ans.server == bad:
                    delivered[ans.server] = xp.AnswerBundle(
                        bad,
                        tuple((v + rng.randrange(1, f.q)) % f.q for v in ans.scalars),
                    )
                else:
                    delivered[ans.server] = ans
            assert xp.decode(delivered, pts, p) == list(msgs.messages[theta - 1])


def _offset(matrix, desired, k: int, q: int) -> list[int]:
    """Per row, the round-(k+1) offset sum_l sum_(j<k) desired[j][l] / (f_l - a_n)^(k-j+1)."""
    return [
        sum(desired[j][l] * pow(row[l], k - j + 1, q)
            for j in range(k) for l in range(matrix.cauchy_cols)) % q
        for row in matrix.entries
    ]


def _per_stream_solves(matrix, rounds, num_errors: int, q: int):
    """``decode_rounds``'s output from one ``decoder_for(matrix).solve`` per stream and round."""
    layers, streams = matrix.cauchy_cols, rounds[0].cols
    desired = [[] for _ in range(streams)]  # [stream][round]: the L desired symbols
    for k, observed in enumerate(rounds):
        for s, past in enumerate(desired):
            off = _offset(matrix, past, k, q)
            ys = [(y - o) % q for y, o in zip(observed.flat[s::streams], off)]
            past.append(solve_column(decoder_for(matrix), ys, num_errors)[:layers])
    return FieldMatrix(
        matrix.field,
        [[past[k][l] for past in desired] for k in range(len(rounds)) for l in range(layers)],
    )


@pytest.mark.parametrize("num_errors", [0, 2])
@pytest.mark.parametrize("streams", [1, 3, 16])
def test_decode_rounds_batches_streams_like_per_stream_solves(streams, num_errors):
    """One product per round equals a solve per stream, also with planted errors.

    8 rows at width 4 correct 2 errors per stream.  Each stream's errors sit
    in its own random rows, so together they touch more than 2 rows.
    """
    q, layers, rows, width, rounds = 101, 2, 8, 4, 3
    rng = Random(streams * 10 + num_errors)
    f = PrimeField(q)
    pool = rng.sample(range(q), layers + rows)
    pts = EvaluationPoints(f, tuple(pool[:layers]), tuple(pool[layers:]))
    matrix = build_decoding_matrix(pts, tuple(range(1, rows + 1)), layers, width)
    xs = [[f.random_vector(rng, width) for _ in range(streams)] for _ in range(rounds)]
    desired = [[xs[k][s][:layers] for k in range(rounds)] for s in range(streams)]
    observations = [[[0] * streams for _ in range(rows)] for _ in range(rounds)]  # [round][row]
    for s in range(streams):
        for k in range(rounds):
            off = _offset(matrix, desired[s], k, q)
            for r, row in enumerate(matrix.entries):
                observations[k][r][s] = (sum(a * b for a, b in zip(row, xs[k][s])) + off[r]) % q
        for r in rng.sample(range(rows), num_errors):
            for k in range(rounds):
                observations[k][r][s] = (observations[k][r][s] + rng.randrange(1, q)) % q
    observed = [FieldMatrix(f, per_round) for per_round in observations]
    truth = FieldMatrix(
        f, [[xs[k][s][l] for s in range(streams)] for k in range(rounds) for l in range(layers)]
    )
    assert decoder_for(matrix).decode_rounds(observed, num_errors) == truth
    assert _per_stream_solves(matrix, observed, num_errors, q) == truth


def test_decode_rounds_rejects_unequal_rows():
    """A round with another number of rows, streams or field, or no round, raises."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    pts = xp.default_points(p)
    matrix = build_decoding_matrix(pts, (1, 2, 3, 4), p.layers, p.decode_width)
    decoder = decoder_for(matrix)

    def rounds(*shapes, field=pts.field):
        return [FieldMatrix(field, [[1] * cols for _ in range(rows)]) for rows, cols in shapes]

    decoder.decode_rounds(rounds((4, 3), (4, 3)), 0)
    for bad in (
        rounds((4, 2), (4, 3)), rounds((4, 3), (4, 2)), rounds((4, 3), (3, 3)),
        rounds((4, 3), (4, 3), (1, 3)), rounds((3, 3), (3, 3)), rounds((5, 3), (5, 3)),
        rounds((4, 3), (4, 3), field=PrimeField(smallest_prime_geq(pts.field.q + 1))),
    ):
        with pytest.raises(ValueError, match="one or more rounds"):
            decoder.decode_rounds(bad, 0)
    with pytest.raises(ValueError, match="one or more rounds"):
        decoder.decode_rounds([], 0)


def test_download_accounting():
    p = xp.derive_params(5, 2, 1, 1, num_messages=2)
    assert p.responsive_count * p.code_dim == 10
    assert p.message_len == 4
    assert Fraction(p.message_len, p.responsive_count * p.code_dim) == xp.achievable_rate(p)
