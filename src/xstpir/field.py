"""Exact arithmetic in a prime finite field GF(q).

Every residue is a plain int in [0, q).  ``PrimeField`` carries the modulus
and does the scalar arithmetic; the rest of the package works on raw residues
(and flat int vectors) with an explicit ``PrimeField``.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Trial-division primality test; q is desk-scale and fits a machine word."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def smallest_prime_geq(n: int) -> int:
    """Smallest prime >= n (>= 2)."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


class PrimeField:
    """GF(q) for a prime modulus q.

    All methods take and return fully reduced residues (ints in [0, q)).
    Instances are immutable, compare by modulus, and are safe to share.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"field modulus must be prime, got {q}")
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"

    def reduce(self, v: int) -> int:
        return v % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem."""
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return pow(a, self.q - 2, self.q)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e with pow(a, 0) == 1 for every a, including a == 0."""
        if e < 0:
            raise ValueError("negative exponent; use inv() first")
        return pow(a, e, self.q)

    def random(self, rng) -> int:
        """Uniform residue drawn from an explicit rng (random.Random)."""
        return rng.randrange(self.q)

    def random_vector(self, rng, n: int) -> list[int]:
        rr = rng.randrange
        q = self.q
        return [rr(q) for _ in range(n)]

