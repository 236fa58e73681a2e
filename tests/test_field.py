"""The prime field: modulus checks, primality helpers, random vectors, inverses."""

from random import Random

import pytest

from xstpir.field import PrimeField, is_prime, smallest_prime_geq
from xstpir.linalg import EvaluationPoints
from xstpir.protocol import coefficient_table

from oracles import brute_force_inverse

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_primality():
    def sieve_prime(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(-2, 300):
        assert is_prime(n) == sieve_prime(n)


def test_primality_matches_a_sieve_below_20000():
    limit = 20000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [is_prime(n) for n in range(limit)] == sieve


def test_primality_of_pseudoprimes_and_word_sized_primes():
    # strong pseudoprimes to the bases 2..7 and 2..31 (only the twelfth base,
    # 37, exposes the second), and a Carmichael number
    for n in (3215031751, 3825123056546413051, 561):
        assert not is_prime(n)
    for n in (2**61 - 1, 2**64 - 59):
        assert is_prime(n)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_modulus_must_fit_a_word():
    assert PrimeField(2**64 - 59).q == 2**64 - 59
    with pytest.raises(ValueError, match="2\\^64"):
        PrimeField(2**64 + 13)  # prime, but above the bound


def test_nonprime_modulus_rejected():
    for q in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(q)


def test_smallest_prime_geq():
    assert smallest_prime_geq(5) == 5
    assert smallest_prime_geq(6) == 7
    assert smallest_prime_geq(8) == 11
    assert smallest_prime_geq(10) == 11
    assert smallest_prime_geq(1) == 2


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_inv_matches_brute_force(q):
    """The coefficient table's d^-1 is the exhaustive-search inverse."""
    for a in range(1, q):
        pts = EvaluationPoints(PrimeField(q), (a,), (0,))  # d = a - 0
        assert coefficient_table(pts, (-1,))[0][0] == (brute_force_inverse(q, a),)


def test_fields_compare_by_modulus():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))


def test_random_vector_is_seed_deterministic():
    f = PrimeField(11)
    assert f.random_vector(Random(3), 6) == f.random_vector(Random(3), 6)


@pytest.mark.parametrize("q", [2, 5, 7, 11, 2**31 - 1])
def test_random_vector_is_the_randrange_stream(q):
    """Same values as n calls of randrange(q), and the generator left in the same state."""
    f = PrimeField(q)
    for n in (0, 1, 2, 3, 17):
        for seed in range(50):
            rng, ref = Random(seed), Random(seed)
            assert f.random_vector(rng, n) == [ref.randrange(q) for _ in range(n)]
            assert rng.random() == ref.random()


@pytest.mark.parametrize("q", [2, 5, 11, 2**31 - 1])
def test_random_vector_splits_into_consecutive_calls(q):
    """One call for a + b residues draws what a call for a and then one for b draw.

    Every noise object is one such call, which its coder cuts into term
    vectors.  Small q rejects often (5/16 to 1/2 of all draws at q <= 11), so
    a call that took a draw too many or too few would shift the second part
    and the generator state; a size of 0 must draw nothing.
    """
    f = PrimeField(q)
    sizes = (0, 1, 2, 3, 5, 12, 30)
    for a in sizes:
        for b in sizes:
            for seed in range(8):
                rng, ref = Random(seed), Random(seed)
                whole = f.random_vector(rng, a + b)
                assert whole == f.random_vector(ref, a) + f.random_vector(ref, b)
                assert rng.getstate() == ref.getstate()
