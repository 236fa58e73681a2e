"""Prime field arithmetic: exhaustive axiom checks at tiny sizes."""

import pytest

from xstpir.field import PrimeField, is_prime, smallest_prime_geq

from oracles import brute_force_inverse

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_primality():
    def sieve_prime(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(-2, 300):
        assert is_prime(n) == sieve_prime(n)


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


def test_basic_examples():
    f5, f7 = PrimeField(5), PrimeField(7)
    assert f5.add(3, 4) == 2
    assert f7.mul(3, 5) == 1
    assert f5.neg(0) == 0
    assert f5.inv(2) == 3
    assert f7.inv(4) == 2
    assert f7.inv(1) == 1
    assert f5.pow(2, 3) == 3
    assert f7.pow(3, 0) == 1
    assert f7.pow(0, 4) == 0
    assert f7.pow(0, 0) == 1


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_field_axioms_exhaustive(q):
    """Associativity, commutativity, distributivity, identities, inverses."""
    f = PrimeField(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_inv_matches_brute_force(q):
    f = PrimeField(q)
    for a in range(1, q):
        assert f.inv(a) == brute_force_inverse(q, a)


def test_fields_compare_by_modulus():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))


def test_random_vector_is_seed_deterministic():
    from random import Random

    f = PrimeField(11)
    assert f.random_vector(Random(3), 6) == f.random_vector(Random(3), 6)
