"""Error decoding: planted errors, budget exhaustion, uniqueness, consensus parity."""

from itertools import combinations
from random import Random

import pytest

from oracles import consensus_decode, solve, solve_column
from xstpir import sim
from xstpir.field import PrimeField, smallest_prime_geq
from xstpir.linalg import EvaluationPoints, build_decoding_matrix
from xstpir.protocol import derive_params
from xstpir.robust import DecodingFailure, RobustDecoder, decoder_for


def tall_matrix(q=13, rows=6, width=4, layers=2, seed=3):
    rng = Random(seed)
    f = PrimeField(q)
    pool = rng.sample(range(q), layers + rows)
    pts = EvaluationPoints(f, tuple(pool[:layers]), tuple(pool[layers:]))
    return build_decoding_matrix(pts, tuple(range(1, rows + 1)), layers, width)


def test_zero_error_is_plain_solve():
    m = tall_matrix()
    rng = Random(1)
    x = [rng.randrange(13) for _ in range(4)]
    y = m.matrix().matvec(x)
    assert solve_column(decoder_for(m), y, 0) == x


def test_single_planted_error_at_every_position():
    m = tall_matrix()
    rng = Random(2)
    x = [rng.randrange(13) for _ in range(4)]
    y = m.matrix().matvec(x)
    for pos in range(6):
        corrupted = y[:]
        corrupted[pos] = (corrupted[pos] + rng.randrange(1, 13)) % 13
        assert solve_column(decoder_for(m), corrupted, 1) == x


def test_two_errors_exceed_budget():
    m = tall_matrix()
    rng = Random(4)
    x = [rng.randrange(13) for _ in range(4)]
    y = m.matrix().matvec(x)
    failures = 0
    trials = 40
    for _ in range(trials):
        i, j = rng.sample(range(6), 2)
        corrupted = y[:]
        corrupted[i] = (corrupted[i] + rng.randrange(1, 13)) % 13
        corrupted[j] = (corrupted[j] + rng.randrange(1, 13)) % 13
        try:
            got = solve_column(decoder_for(m), corrupted, 1)
        except DecodingFailure:
            failures += 1
        else:
            # a mis-decode is allowed, but only to a codeword within the budget
            agree = sum(e == c for e, c in zip(m.matrix().matvec(got), corrupted))
            assert agree >= 6 - 1
    assert failures > trials // 2  # generic double corruptions mostly fail loudly


def test_error_bound_vs_rows_guard():
    m = tall_matrix(rows=6, width=4)  # 2B = 2 -> B <= 1
    y = m.matrix().matvec([1, 2, 3, 4])
    with pytest.raises(ValueError):
        solve_column(decoder_for(m), y, 2)
    with pytest.raises(ValueError):
        solve_column(decoder_for(m), y, -1)


def test_observed_length_checked():
    m = tall_matrix()
    with pytest.raises(ValueError):
        solve_column(decoder_for(m), [1, 2, 3], 0)
    with pytest.raises(ValueError):
        solve_column(decoder_for(m), [1, 2, 3], 1)


def test_exhaustive_subsets_with_random_corruptions():
    """All error positions x 50 corruption draws recover the plant (N <= 8)."""
    rng = Random(9)
    for rows, width, layers, q in ((6, 4, 2, 13), (8, 6, 3, 17)):
        m = tall_matrix(q=q, rows=rows, width=width, layers=layers, seed=rows)
        b = (rows - width) // 2
        x = [rng.randrange(q) for _ in range(width)]
        y = m.matrix().matvec(x)
        for bad in combinations(range(rows), b):
            for _ in range(50):
                corrupted = y[:]
                for pos in bad:
                    corrupted[pos] = (corrupted[pos] + rng.randrange(1, q)) % q
                assert solve_column(decoder_for(m), corrupted, b) == x


def test_candidate_uniqueness_within_budget():
    """Every width-subset reaching the threshold decodes to the same vector."""
    rng = Random(12)
    m = tall_matrix(q=17, rows=7, width=5, layers=2, seed=6)
    dec = RobustDecoder(m)
    x = [rng.randrange(17) for _ in range(5)]
    y = m.matrix().matvec(x)
    for trial in range(30):
        corrupted = y[:]
        pos = rng.randrange(7)
        corrupted[pos] = (corrupted[pos] + rng.randrange(1, 17)) % 17
        winners = {
            tuple(sol)
            for _, sol, agree in dec.candidates(corrupted)
            if agree >= 7 - 1
        }
        assert winners == {tuple(x)}


def test_b0_equals_erasure_equals_square_solve():
    m = tall_matrix(q=19, rows=7, width=5, layers=2, seed=8)
    rng = Random(3)
    x = [rng.randrange(19) for _ in range(5)]
    y = m.matrix().matvec(x)
    assert solve_column(decoder_for(m), y, 0) == x
    for subset in combinations(range(7), 5):
        sub = m.matrix().row_submatrix(subset)
        assert solve(sub, [y[i] for i in subset]) == x


def test_decoder_cache_returns_same_instance():
    m = tall_matrix()
    assert decoder_for(m) is decoder_for(m)


def _default_matrix(q, rows, width, layers):
    pts = EvaluationPoints.default(PrimeField(q), layers, rows)
    return build_decoding_matrix(pts, tuple(range(1, rows + 1)), layers, width)


# (rows, width, layers).  L + rows is prime except at (6, 2, 2), (8, 4, 2) and
# (8, 2, 1), so the smallest field usually wraps the last alpha to 0;
# (5, 2, 2), (7, 4, 4) and (8, 5, 5) have no Vandermonde column, and slack
# rows beyond 2b (as at (8, 2, 1) with b < 3) must not widen acceptance.
PARITY_SHAPES = (
    (4, 2, 1), (5, 3, 2), (5, 2, 2), (6, 4, 1), (6, 2, 2),
    (7, 5, 4), (7, 4, 4), (8, 6, 3), (8, 4, 2), (8, 2, 1), (8, 5, 5),
)


@pytest.mark.parametrize("rows,width,layers", PARITY_SHAPES)
def test_solve_matches_subset_consensus(rows, width, layers):
    """Same vector as subset consensus, or DecodingFailure exactly where it has none."""
    rng = Random(rows * 100 + width * 10 + layers)
    for q in sorted({smallest_prime_geq(layers + rows), 13, 2**31 - 1}):
        m = _default_matrix(q, rows, width, layers)
        dec = decoder_for(m)
        for b in range(1, (rows - width) // 2 + 1):
            x = [rng.randrange(q) for _ in range(width)]
            y = m.matrix().matvec(x)
            cases = [[rng.randrange(q) for _ in range(rows)] for _ in range(20)]
            for count in range(b + 2):
                for bad in combinations(range(rows), count):
                    corrupted = y[:]
                    for pos in bad:
                        corrupted[pos] = (corrupted[pos] + rng.randrange(1, q)) % q
                    cases.append(corrupted)
            for observed in cases:
                expected = consensus_decode(m, observed, b)
                if expected is None:
                    with pytest.raises(DecodingFailure):
                        solve_column(dec, observed, b)
                else:
                    assert solve_column(dec, observed, b) == expected


def _liars_session(liars: int, strict: bool):
    params = derive_params(30, 1, 1, 1, 0, 8, 2)
    adversary = sim.AdversaryConfig(byzantine=tuple(range(1, liars + 1)), seed=5)
    return sim.run_session(params, adversary, 2, 11, PrimeField(2**31 - 1), strict=strict)


def test_thirty_servers_eight_liars_decode_in_polynomial_time():
    """N=30, B=8: subset consensus would face C(30, 14) ~ 1.45e8 candidates."""
    t = _liars_session(8, strict=True)
    assert t.ok and t.decoded == t.messages[1]
    over = _liars_session(9, strict=False)
    assert not over.ok and over.failure.startswith("decoding failure")
