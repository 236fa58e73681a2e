"""The retrieval scheme: parameters, encoding, queries, answers, decoding."""

import sys
from dataclasses import asdict, replace
from fractions import Fraction
from functools import partial
from itertools import combinations
from random import Random
from types import SimpleNamespace

import pytest

import xstpir as xp
from xstpir.field import PrimeField, smallest_prime_geq
from xstpir.linalg import EvaluationPoints, FieldMatrix, build_decoding_matrix, coded_share
from xstpir.protocol import InfeasibleParamsError, code_storage, coefficient_table
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


def test_params_take_their_counts_through_index():
    """``ProtocolParams(6.0, 2, 1, 1, 1, 0, 2)`` used to build with ``layers == 2.0``."""
    args = (6, 2, 1, 1, 1, 0, 2)
    for i in range(len(args)):
        for bad in (float(args[i]), str(args[i])):
            with pytest.raises(TypeError):
                xp.ProtocolParams(*args[:i], bad, *args[i + 1:])
    p = xp.ProtocolParams(6, True, 1, 1, True, False, 2)
    assert p == xp.ProtocolParams(6, 1, 1, 1, 1, 0, 2)
    assert all(type(v) is int for v in asdict(p).values())


def test_theta_enters_gen_queries_through_index():
    """``gen_queries(2.0, ...)`` used to fail on list indexing deep in ``code_queries``."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    f = xp.default_field(p)
    pts, noise = xp.default_points(p, f), xp.QueryNoise.random(f, p, Random(0))
    for bad in (2.0, "2"):
        with pytest.raises(TypeError, match="interpreted as an integer"):
            xp.gen_queries(bad, noise, pts, p)
    assert xp.gen_queries(True, noise, pts, p) == xp.gen_queries(1, noise, pts, p)


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
            pos = p.layers * (k - 1) + l - 1
            assert vec == [m[pos] for m in msgs.messages]
    with pytest.raises(ValueError):
        layer_vector(msgs, 0, 1)
    with pytest.raises(ValueError):
        layer_vector(msgs, 1, p.code_dim + 1)


def test_message_set_shape_checked():
    f = xp.PrimeField(5)
    with pytest.raises(ValueError):
        xp.MessageSet(f, 1, 2, ((1, 2, 3),))  # ell = 2, got 3 symbols


def test_caller_data_enters_as_residues():
    """``MessageSet``, the three noise objects, ``EvaluationPoints`` and
    ``FieldMatrix(...)`` reduce int-likes (bools too) mod q, and refuse a float,
    which ``%`` would keep, or a str."""
    f = xp.PrimeField(5)
    assert xp.MessageSet(f, 1, 2, ((True, 7), (-1, 4))).messages == ((1, 2), (4, 4))
    assert xp.StorageNoise(f, (True, 7, -1, 4)).z == (1, 2, 4, 4)
    assert xp.QueryNoise(f, (9, -6)).zp == (4, 4)
    assert pm.PsdmmNoise(f, (6,), (-1,), (True,)) == pm.PsdmmNoise(f, (1,), (4,), (1,))
    assert EvaluationPoints(f, (True,), (7, -2)) == EvaluationPoints(f, (1,), (2, 3))
    assert FieldMatrix(f, [[9, False]]).flat == [4, 0]
    for bad in (1.5, 2.0, "3"):
        with pytest.raises(TypeError):
            xp.MessageSet(f, 1, 2, ((bad, 2), (3, 4)))
        with pytest.raises(TypeError):  # at K < N a float used to reach the shares
            xp.StorageNoise(f, (bad, 2))
        with pytest.raises(TypeError):
            xp.QueryNoise(f, (1, 2, bad, 4))
        for a, b, qn in (((bad,), (), ()), ((), (bad,), ()), ((), (), (bad,))):
            with pytest.raises(TypeError):
                pm.PsdmmNoise(f, a, b, qn)
        with pytest.raises(TypeError):
            EvaluationPoints(f, (bad,), (2, 3))
        with pytest.raises(TypeError):
            EvaluationPoints(f, (1,), (2, bad))
        with pytest.raises(TypeError):
            FieldMatrix(f, [[bad, 1], [2, 3]])


# ------------------------------------------------------------------- storage


def test_encode_storage_frozen_example():
    """q=5, f=1, alpha=(2,3,4,0): S_n = W11/d^2 + W12/d + Z11 by hand."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    f = xp.PrimeField(5)
    pts = xp.default_points(p, f)
    msgs = xp.MessageSet(f, 1, 2, ((1, 3), (2, 4)))  # W11=(1,2), W12=(3,4)
    zn = xp.StorageNoise(f, (0, 1))
    storages = xp.encode_storage(msgs, zn, pts, p)
    assert [s.shares.data[0] for s in storages] == [[3, 4], [0, 2], [3, 1], [4, 2]]


def test_encode_storage_without_noise_layers():
    """X=0 gives a pure Cauchy combination of the message columns."""
    p = xp.derive_params(4, 2, 0, 1, num_messages=2)  # L = 2
    f = xp.default_field(p)
    pts = xp.default_points(p, f)
    msgs = xp.MessageSet.random(f, p, Random(1))
    zn = xp.StorageNoise(f, ())
    storages = xp.encode_storage(msgs, zn, pts, p)
    q = f.q
    for s in storages:
        for l in range(1, p.layers + 1):
            d = diff(pts, l, s.server)
            want = [
                sum(
                    pow(d, (q - 2) * (p.code_dim - k + 1), q) * layer_vector(msgs, l, k)[j]
                    for k in range(1, p.code_dim + 1)
                )
                % q
                for j in range(2)
            ]
            assert s.shares.data[l - 1] == want


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
    bad_noise = xp.StorageNoise(f, (1, 1, 2, 2))  # X=2 layers, expected 1
    with pytest.raises(ValueError):
        xp.encode_storage(msgs, bad_noise, pts, p)
    other = xp.derive_params(4, 2, 1, 1, num_messages=3)
    msgs3 = xp.MessageSet.random(f, other, Random(0))
    with pytest.raises(ValueError):
        xp.encode_storage(msgs3, xp.StorageNoise.random(f, p, Random(0)), pts, p)


def test_noise_from_another_field_is_refused():
    """GF(7) noise at GF(5) points: its residues taken mod 5 are not uniform."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    f, g = xp.PrimeField(5), xp.PrimeField(7)
    pts = xp.default_points(p, f)
    msgs = xp.MessageSet.random(f, p, Random(0))
    with pytest.raises(ValueError, match="different fields"):
        xp.encode_storage(msgs, xp.StorageNoise.random(g, p, Random(0)), pts, p)
    with pytest.raises(ValueError, match="different fields"):
        xp.gen_queries(1, xp.QueryNoise.random(g, p, Random(0)), pts, p)


def test_queries_and_decode_refuse_points_for_another_server_count():
    """Seven alphas for five servers, both layouts at L = 2: ``gen_queries``
    returned seven bundles and ``decode`` read the answers at them, while
    only ``encode_storage`` checked the point counts."""
    f = xp.PrimeField(13)
    p = xp.ProtocolParams(5, 2, 1, 1, 0, 0, 2)
    pts = xp.default_points(xp.ProtocolParams(7, 2, 1, 1, 2, 0, 2), f)
    assert (len(pts.f), len(pts.alpha)) == (p.layers, 7)
    message = "^evaluation point counts do not match the parameters$"
    with pytest.raises(ValueError, match=message):
        xp.gen_queries(1, xp.QueryNoise.random(f, p, Random(0)), pts, p)
    good = xp.default_points(p, f)
    msgs = xp.MessageSet.random(f, p, Random(1))
    storages = xp.encode_storage(msgs, xp.StorageNoise.random(f, p, Random(2)), good, p)
    queries = xp.gen_queries(1, xp.QueryNoise.random(f, p, Random(3)), good, p)
    answers = [xp.server_answer(s, b) for s, b in zip(storages, queries)]
    assert xp.decode(answers, good, p) == list(msgs.messages[0])
    with pytest.raises(ValueError, match=message):
        xp.decode(answers, pts, p)


def test_query_noise_of_another_length_is_refused():
    """Query noise vectors must hold K entries (M*mu*mu for PSDMM), not one more or fewer."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    f = xp.PrimeField(5)
    pts = xp.default_points(p, f)
    for vectors in ((1, 2, 3, 4, 5, 6), (1, 4)):
        with pytest.raises(ValueError, match="query noise must be L x T x K_c vectors of 2"):
            xp.gen_queries(1, xp.QueryNoise(f, vectors), pts, p)
    pp = pm.PsdmmParams(6, 1, 1, 1, 2, 2, 2, 2, 1)
    g = pm.default_field(pp)
    noise = pm.PsdmmNoise.random(g, pp, Random(0))
    terms = oracles.psdmm_noise_terms(noise, pp)[2]
    longer = tuple(u for zl in terms for zt in zl for v in zt for u in v + v[:1])
    with pytest.raises(ValueError, match="query noise must be L x T x K_c vectors of 8"):
        pm.psdmm_query(1, replace(noise, query_noise=longer), pm.default_points(pp, g), pp)


def test_every_coder_refuses_flat_noise_one_entry_off():
    """Each coder cuts its term vectors from a flat draw of exactly the size it
    codes, and refuses one entry more or fewer, by name."""
    p = xp.derive_params(5, 2, 1, 1, num_messages=3)  # L = 2
    f = xp.default_field(p)
    pts = xp.default_points(p, f)
    msgs = xp.MessageSet.random(f, p, Random(0))
    zn, qn = xp.StorageNoise.random(f, p, Random(1)), xp.QueryNoise.random(f, p, Random(2))
    pp = pm.PsdmmParams(6, 1, 1, 1, 2, 2, 2, 2, 1)  # L = 3, M*mu*mu = 8, chi*M*mu = 8
    g = pm.default_field(pp)
    ppts = pm.default_points(pp, g)
    inst = pm.PsdmmInstance.random(g, pp, Random(3))
    noise = pm.PsdmmNoise.random(g, pp, Random(4))
    coders = [
        ("z", zn, lambda z: xp.encode_storage(msgs, z, pts, p),
         "storage noise must be L x X vectors of 3 entries"),
        ("zp", qn, lambda z: xp.gen_queries(1, z, pts, p),
         "query noise must be L x T x K_c vectors of 3 entries"),
        ("a_noise", noise, lambda z: pm.share_a(inst, z, ppts, pp),
         "storage noise must be L x X vectors of 4 entries"),
        ("b_noise", noise, lambda z: pm.share_b(inst, z, ppts, pp),
         "library noise must be L x X_B matrices of 8 entries"),
        ("query_noise", noise, lambda z: pm.psdmm_query(1, z, ppts, pp),
         "query noise must be L x T x K_c vectors of 8 entries"),
    ]
    for name, drawn, code, message in coders:
        flat = getattr(drawn, name)
        for bad in (flat[:-1], flat + flat[:1]):
            with pytest.raises(ValueError, match=f"^{message}$"):
                code(replace(drawn, **{name: bad}))
        code(drawn)


def test_nested_noise_is_refused():
    """The noise objects hold flat draws: a nested tuple, the old form, is no
    entry that ``operator.index`` takes."""
    f = xp.PrimeField(5)
    with pytest.raises(TypeError):
        xp.StorageNoise(f, (((0, 1),),))
    with pytest.raises(TypeError):
        xp.QueryNoise(f, ((((1, 2, 3), (4, 5, 6)),),))
    for a, b, qn in (([((1,),)], (), ()), ((), [((1,),)], ()), ((), (), [(((1,),),)])):
        with pytest.raises(TypeError):
            pm.PsdmmNoise(f, a, b, qn)


def test_code_storage_takes_one_column_per_message_symbol():
    """L * K_c columns in message order: one fewer or one more is refused."""
    p = xp.derive_params(5, 2, 1, 1, num_messages=2)  # L = 2, ell = 4
    f = xp.default_field(p)
    pts = xp.default_points(p, f)
    msgs = xp.MessageSet.random(f, p, Random(2))
    zn = xp.StorageNoise.random(f, p, Random(3))
    columns = list(zip(*msgs.messages))
    flats = code_storage(pts, p.code_dim, p.security, columns, zn.z)
    assert flats == [s.shares.flat for s in xp.encode_storage(msgs, zn, pts, p)]
    for count in (p.message_len - 1, p.message_len + 1):
        with pytest.raises(ValueError, match="data vectors"):
            code_storage(pts, p.code_dim, p.security, (columns * 2)[:count], zn.z)


# ------------------------------------------------------------------- queries


def test_gen_queries_frozen_example():
    """q=7, K=3, theta=2, fixed noise: vectors match the hand expansion."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=3)
    f = xp.PrimeField(7)
    pts = xp.EvaluationPoints(f, (1,), (2, 3, 4, 5))
    qn = xp.QueryNoise(f, (1, 2, 3, 4, 5, 6))  # Z'^1=(1,2,3), Z'^2=(4,5,6)
    bundles = xp.gen_queries(2, qn, pts, p)
    expected = {
        1: ((1, 1, 3), (4, 6, 6)),
        2: ((4, 6, 5), (2, 0, 3)),
        3: ((2, 1, 6), (1, 4, 5)),
        4: ((2, 0, 6), (1, 4, 5)),
    }
    for qb in bundles:
        assert qb.rounds.data == [list(v) for v in expected[qb.server]]  # L = 1: a layer per row


def test_final_round_exposes_selector_unscaled():
    """Round K_c scales the selector by d^0 = 1."""
    p = xp.derive_params(5, 2, 1, 0, num_messages=3)  # T = 0: no noise at all
    f = xp.default_field(p)
    pts = xp.default_points(p, f)
    qn = xp.QueryNoise(f, ())
    bundles = xp.gen_queries(2, qn, pts, p)
    for qb in bundles:
        first, last = qb.rounds.data[0], qb.rounds.data[-1]
        for l in range(p.layers):
            # bare scaled selector; final round unscaled
            assert last[3 * l:3 * l + 3] == [0, 1, 0]
            d = diff(pts, l + 1, qb.server)
            assert first[3 * l:3 * l + 3] == [0, d % f.q, 0]


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
            got = coded_share([[[pow(d, e, q) for e in exponents]]], [vectors], q)[0]
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
                assert coded_share([coefficients], [vectors], q) == want


# Shapes (entries per vector, outputs): the first four and (13, 14) have more
# outputs than entries and take the short path, the rest the packed path;
# (13, 14) and (14, 14) sit on both sides of that rule at N = 14.
SHAPES = [
    (1, 2), (1, 20), (2, 8), (3, 4), (3, 20), (2, 2), (3, 1), (17, 4), (13, 14), (14, 14),
]


@pytest.mark.parametrize("q", [2, 5, Q31, smallest_prime_geq(2**40), 2**64 - 59])
def test_coded_share_orientations_match_oracle_at_worst_case_carries(q):
    """The short path and the packed path equal the per-entry sum, also with
    every packed slot at terms * (q-1)^2."""
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
                assert coded_share([coefficients], [vectors], q) == want


@pytest.mark.parametrize("length, outputs", SHAPES)
def test_coded_share_reduces_caller_vectors_in_both_orientations(length, outputs):
    """Entries below 0 and at or above q still give the residues of the exact
    sums, on the short path and the packed path."""
    for q in (5, Q31):
        rng = Random(q * length + outputs)
        coefficients = [[rng.randrange(q) for _ in range(3)] for _ in range(outputs)]
        pool = [-q - 1, -1, q, 2 * q + 3, 7 * q - 1]
        vectors = [[rng.choice(pool) for _ in range(length)] for _ in range(3)]
        got = coded_share([coefficients], [vectors], q)
        assert all(_residues(share, q) for share in got)
        assert got == [
            [sum(c * v[j] for c, v in zip(row, vectors)) % q for j in range(length)]
            for row in coefficients
        ]


@pytest.mark.parametrize("outputs", [1, 6])
def test_coded_share_rejects_unequal_lengths_in_both_orientations(outputs):
    """Vectors of other lengths raise, whichever is first, rather than truncate,
    on the packed path (1 output) and the short path (6 outputs)."""
    coefficients = [[1, 2]] * outputs
    for lengths in ((3, 2), (2, 3), (1, 2), (2, 1)):
        vectors = [[1] * n for n in lengths]
        with pytest.raises(ValueError):
            coded_share([coefficients], [vectors], 7)


@pytest.mark.parametrize("outputs", [1, 6])
def test_coded_share_rejects_unmatched_coefficients_and_no_vectors_in_both_orientations(outputs):
    """A coefficient row with a coefficient too few or too many, or no vector, raises.

    Two vectors of length 2 take the packed path at 1 output and the short
    path at 6; either way zip would drop the unmatched terms.
    """
    vectors = [[1, 2], [5, 5]]
    assert coded_share([[[1, 1]] * outputs], [vectors], 7) == [[6, 0]] * outputs
    for rows in ([[1]] * outputs, [[1, 1, 1]] * outputs, [[1, 1]] * (outputs - 1) + [[1]]):
        with pytest.raises(ValueError):
            coded_share([rows], [vectors], 7)
    with pytest.raises(ValueError):
        coded_share([[[1, 1]] * (outputs + 2)], [[[1, 2]]], 7)
    for rows in ([[1]] * outputs, [[]] * outputs):
        with pytest.raises(ValueError):
            coded_share([rows], [[]], 7)


def _exact_sums(row, vectors, q):
    return [sum(c * v[j] for c, v in zip(row, vectors)) % q for j in range(len(vectors[0]))]


@pytest.mark.parametrize("q", [5, Q31])
def test_coded_share_packs_residues_as_they_are_and_reduces_the_rest(q):
    """On the packed path, one entry >= q or < 0 (also past 64 bits) sends its
    vector through the reduction; every vector gives the residues of the exact sums."""
    rng = Random(q)
    coefficients = [[rng.randrange(q) for _ in range(2)] for _ in range(3)]
    residues = [[rng.randrange(q) for _ in range(17)] for _ in range(2)]
    want = coded_share([coefficients], [residues], q)
    assert want == [_exact_sums(row, residues, q) for row in coefficients]
    for bad in (q, 2 * q + 3, 2**64 + 5, -1, -q - 1, -(2**70)):
        vectors = [residues[0], residues[1][:5] + [residues[1][5] + bad] + residues[1][6:]]
        got = coded_share([coefficients], [vectors], q)
        assert got == [_exact_sums(row, vectors, q) for row in coefficients]
        assert (got == want) == (bad % q == 0)


# (N, K_c, X, T, U, B, K): the short path (K < N) and the packed path (K >= N),
# each at T = 0 (query blocks with no noise term), at X = 0 and at K_c = 2.
CODER_SHAPES = [
    (6, 2, 1, 0, 0, 0, 3), (5, 2, 0, 0, 0, 0, 2), (6, 2, 0, 1, 0, 0, 2), (4, 1, 1, 1, 0, 0, 1),
    (5, 2, 1, 0, 0, 0, 7), (6, 2, 0, 1, 0, 0, 8), (7, 2, 1, 1, 1, 0, 9), (5, 1, 1, 1, 0, 1, 40),
]


@pytest.mark.parametrize("smallest_q", [True, False])
@pytest.mark.parametrize("shape", CODER_SHAPES)
def test_each_server_flat_matches_the_oracle_coded_vectors(shape, smallest_q):
    """Server n's storage flat is S_n1..S_nL and its query flat Q_n1k..Q_nLk
    round by round, each ``oracles.coded_share`` of that layer's terms."""
    p = xp.derive_params(*shape)
    field = xp.default_field(p) if smallest_q else xp.PrimeField(Q31)
    field, pts, msgs, zn, qn, storages, _, _ = fresh_instance(p, sum(shape), field)
    z, zp = oracles.storage_noise_terms(zn, p), oracles.query_noise_terms(qn, p)
    q, kc, layers = field.q, p.code_dim, range(1, p.layers + 1)
    storage_exponents = [-(kc - k + 1) for k in range(1, kc + 1)] + list(range(p.security))
    for theta in range(1, p.num_messages + 1):
        selector = [int(j == theta - 1) for j in range(p.num_messages)]
        for st, qb in zip(storages, xp.gen_queries(theta, qn, pts, p)):
            d = partial(diff, pts, server=st.server)
            assert st.shares.flat == [
                v for l in layers for v in oracles.coded_share(
                    d(l), storage_exponents,
                    [layer_vector(msgs, l, k) for k in range(1, kc + 1)] + list(z[l - 1]), q,
                )
            ]
            assert qb.rounds.flat == [
                v for k in range(1, kc + 1) for l in layers for v in oracles.coded_share(
                    d(l), [kc - k, *range(kc, kc + p.privacy)],
                    [selector] + [zt[k - 1] for zt in zp[l - 1]], q,
                )
            ]


@pytest.mark.parametrize(
    "shape", [(6, 2, 1, 1, 0, 0, 3), (6, 2, 1, 0, 0, 0, 2), (10, 2, 1, 1, 0, 0, 40)]
)
def test_each_server_flat_is_allocated_exactly(shape):
    """No storage or query flat over-allocates: desk's 870 transcripts per op
    keep these lists, on the short path (K < N), the zero path (T = 0) and the
    packed path."""
    p = xp.derive_params(*shape)
    *_, storages, queries, _ = fresh_instance(p, 1)
    flats = [s.shares.flat for s in storages] + [qb.rounds.flat for qb in queries]
    assert all(sys.getsizeof(flat) == sys.getsizeof([0] * len(flat)) for flat in flats)


@pytest.mark.parametrize("q", [2, 5, 11, 2**31 - 1])
def test_random_objects_equal_their_constructed_forms(q):
    """Each ``random`` equals its constructor on the reference draws, which it reduces.

    ``MessageSet.random`` wraps its residues without the constructor's
    reduction; the result must still be the constructed object.
    """
    f = PrimeField(q)

    def ref(seed):
        return partial(f.random_vector, Random(seed))

    def per_vector(draw, count, length):  # one reference call per term vector
        return tuple(v for _ in range(count) for v in draw(length))

    for args in [(2, 1, 1, 0, 0, 0, 1), (4, 2, 1, 1, 0, 0, 3), (6, 2, 1, 1, 1, 0, 5)]:
        p = xp.derive_params(*args)
        for seed in range(5):
            rows = oracles.nested((p.num_messages, p.message_len), ref(seed))
            msgs = xp.MessageSet.random(f, p, Random(seed))
            assert msgs == xp.MessageSet(f, p.layers, p.code_dim, rows)
            assert type(msgs.messages) is tuple and {type(m) for m in msgs.messages} == {tuple}
            assert xp.StorageNoise.random(f, p, Random(seed)) == xp.StorageNoise(
                f, per_vector(ref(seed), p.layers * p.security, p.num_messages))
            assert xp.QueryNoise.random(f, p, Random(seed)) == xp.QueryNoise(
                f, per_vector(ref(seed), p.layers * p.privacy * p.code_dim, p.num_messages))
    pp = pm.PsdmmParams(6, 1, 1, 1, 2, 2, 2, 2, 1)
    draw = ref(3)  # the three noises come from one stream, in this order
    wide = pp.library_size * pp.cols_b
    assert pm.PsdmmNoise.random(f, pp, Random(3)) == pm.PsdmmNoise(
        f,
        per_vector(draw, pp.layers * pp.security_a, pp.rows_a * pp.inner_dim),
        per_vector(draw, pp.layers * pp.security_b, pp.inner_dim * wide),
        per_vector(draw, pp.layers * pp.privacy * pp.code_dim, wide * pp.cols_b),
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

    zn = xp.StorageNoise(f, tuple(v for _ in range(p.layers * p.security) for v in raw()))
    qn = xp.QueryNoise(
        f, tuple(v for _ in range(p.layers * p.privacy * p.code_dim) for v in raw())
    )
    storages = xp.encode_storage(msgs, zn, pts, p)
    assert all(_residues(s.shares.flat, q) for s in storages)
    for theta in range(1, p.num_messages + 1):
        queries = xp.gen_queries(theta, qn, pts, p)
        assert all(_residues(qb.rounds.flat, q) for qb in queries)
        if not p.privacy:  # round K_c holds e_theta at exponent K_c - k = 0 alone
            k = p.num_messages
            assert all(set(qb.rounds.data[-1][theta - 1::k]) == {1} for qb in queries)
        answers = [xp.server_answer(s, qb) for s, qb in zip(storages, queries)]
        assert all(_residues(a.scalars, q) for a in answers)
        assert xp.decode(answers, pts, p) == list(msgs.messages[theta - 1])


# ------------------------------------------------------------------- answers


def test_answer_single_term_inner_product():
    f = xp.PrimeField(29)
    s = xp.ServerStorage(1, FieldMatrix(f, [[2, 3]]))
    qb = xp.QueryBundle(1, FieldMatrix(f, [[4, 5]]))
    assert xp.server_answer(s, qb).scalars == (23,)  # 2*4 + 3*5
    f5 = xp.PrimeField(5)
    assert xp.server_answer(
        xp.ServerStorage(1, FieldMatrix(f5, [[2, 3]])),
        xp.QueryBundle(1, FieldMatrix(f5, [[4, 5]])),
    ).scalars == (3,)  # reduced mod 5
    with pytest.raises(ValueError):
        xp.server_answer(xp.ServerStorage(2, FieldMatrix(f, [[2, 3]])), qb)
    with pytest.raises(ValueError):
        xp.server_answer(xp.ServerStorage(1, FieldMatrix(f, [[2, 3], [1, 1]])), qb)
    with pytest.raises(ValueError):
        xp.server_answer(xp.ServerStorage(1, FieldMatrix(f5, [[2, 3]])), qb)


def test_server_answer_refuses_bundles_that_do_not_match():
    """Another server, another field, another layer count or another K: each is refused."""
    f = PrimeField(11)

    def bundles(*args, field=f):
        p = xp.derive_params(*args)
        _, _, _, _, _, storages, queries, _ = fresh_instance(p, seed=1, field=field)
        return storages, queries

    storages, queries = bundles(4, 2, 1, 1, 0, 0, 2)  # L = 1, K = 2
    with pytest.raises(ValueError, match="^storage and query bundle belong to different servers$"):
        xp.server_answer(storages[0], queries[1])
    _, other_field = bundles(4, 2, 1, 1, 0, 0, 2, field=PrimeField(13))
    with pytest.raises(ValueError, match="^storage and queries live in different fields$"):
        xp.server_answer(storages[0], other_field[0])
    two_layers, _ = bundles(5, 2, 1, 1, 0, 0, 2)  # L = 2, K = 2
    with pytest.raises(ValueError, match="^query layer count must match stored share count$"):
        xp.server_answer(two_layers[0], queries[0])
    _, three_messages = bundles(4, 2, 1, 1, 0, 0, 3)  # L = 1, K = 3
    with pytest.raises(ValueError, match="^share and query vector lengths differ$"):
        xp.server_answer(storages[0], three_messages[0])


@pytest.mark.parametrize("q", [2, 2**31 - 1, 2**64 - 59])
@pytest.mark.parametrize("kc", [1, 2, 3])
def test_server_answer_is_each_rounds_dot_product(q, kc):
    """Round k's answer is sum_l S_nl . Q_nlk, summed entry by entry, on random shapes.

    ``test_server_answer_refuses_bundles_that_do_not_match`` covers the four refusals.
    """
    f, rng = PrimeField(q), Random(q + kc)
    for _ in range(20):
        layers, k = rng.randrange(1, 5), rng.randrange(1, 6)
        shares = [[rng.randrange(q) for _ in range(k)] for _ in range(layers)]
        rounds = [[rng.randrange(q) for _ in range(layers * k)] for _ in range(kc)]
        storage = xp.ServerStorage(3, FieldMatrix(f, shares))
        answer = xp.server_answer(storage, xp.QueryBundle(3, FieldMatrix(f, rounds)))
        expected = tuple(
            sum(shares[l][j] * row[l * k + j] for l in range(layers) for j in range(k)) % q
            for row in rounds
        )
        assert (answer.server, answer.scalars) == (3, expected)


def test_answer_four_term_decomposition():
    """A_n1 = W11Qt/d + I1 + d*I2 + d^2*I3 with the documented I terms."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=3)
    theta = 2
    f, pts, msgs, zn, qn, storages, queries, answers = fresh_instance(
        p, seed=3, theta=theta
    )
    q = f.q
    w11, w12 = layer_vector(msgs, 1, 1), layer_vector(msgs, 1, 2)
    z11 = oracles.storage_noise_terms(zn, p)[0][0]
    zq1 = oracles.query_noise_terms(qn, p)[0][0][0]
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
        1, FieldMatrix(f, [[rng.randrange(q) for _ in row] for row in s1.shares.data])
    )
    s_sum = xp.ServerStorage(
        1,
        FieldMatrix(f, [
            [(a + b) % q for a, b in zip(r1, r2)]
            for r1, r2 in zip(s1.shares.data, s2.shares.data)
        ]),
    )
    qb = queries[0]
    a1, a2 = xp.server_answer(s1, qb), xp.server_answer(s2, qb)
    a_sum = xp.server_answer(s_sum, qb)
    assert a_sum.scalars == tuple(
        (u + v) % q for u, v in zip(a1.scalars, a2.scalars)
    )
    # linear in the query side too
    qb2 = xp.QueryBundle(
        1, FieldMatrix(f, [[rng.randrange(q) for _ in row] for row in qb.rounds.data])
    )
    qb_sum = xp.QueryBundle(
        1,
        FieldMatrix(f, [
            [(a + b) % q for a, b in zip(r1, r2)]
            for r1, r2 in zip(qb.rounds.data, qb2.rounds.data)
        ]),
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
    erasure too: 0, N + 1, a string, None, a bool or an unhashable list; so
    is a bundle with no scalars, and an entry that is no bundle at all (None,
    an int, a bare (server, scalars) pair), also as a dict value.
    Beside the six it is ignored, also twice over, and with only servers
    1..4 it leaves too few answers.  A second bundle for server 3, before or
    after its own, conflicting, malformed or identical, erases server 3; beside
    servers 2..6 only, that leaves too few answers.
    """
    p = xp.derive_params(6, 2, 1, 1, max_unresponsive=1, num_messages=2)
    f, pts, msgs, _, _, _, _, answers = fresh_instance(p, seed=4, theta=2)
    good = answers[2].scalars
    wrong = tuple((v + 1) % f.q for v in good)
    for twin in (xp.AnswerBundle(3, wrong), xp.AnswerBundle(3, None), answers[2]):
        for delivered in (answers + [twin], [twin] + answers):
            assert xp.decode(delivered, pts, p) == list(msgs.messages[1])
        with pytest.raises(DecodingFailure):
            xp.decode(answers[1:] + [twin], pts, p)
    for stray in (0, p.num_servers + 1, "7", "3", None, True, [3]):
        extra = xp.AnswerBundle(stray, good)
        assert xp.decode(answers + [extra, extra], pts, p) == list(msgs.messages[1])
        with pytest.raises(DecodingFailure):
            xp.decode(answers[:4] + [extra], pts, p)
    five = answers[:2] + answers[3:]
    for entry in (None, 7, (3, good), SimpleNamespace(server=3)):
        for delivered in (five + [entry], [entry] + five):
            assert xp.decode(delivered, pts, p) == list(msgs.messages[1])
        with pytest.raises(DecodingFailure):
            xp.decode(five[1:] + [entry], pts, p)
    by_server = {ab.server: ab for ab in five}
    assert xp.decode({3: None, **by_server}, pts, p) == list(msgs.messages[1])
    del by_server[1]
    with pytest.raises(DecodingFailure):
        xp.decode({3: None, **by_server}, pts, p)
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
