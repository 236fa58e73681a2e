"""The prime field GF(q) and the residue contract of the package.

Every residue is a plain int in [0, q).  ``PrimeField`` carries the modulus
and draws uniform random vectors; the rest of the package does its arithmetic
on raw ints and flat int vectors, with Python's ``%`` and ``pow``.

Residue contract: every kernel returns residues in [0, q) (``coded_share`` and
everything built from it, the e_theta update of the queries, server answers,
matrix products and decodes), so nothing downstream reduces them again.
Caller data is reduced once, where it enters the library: ``MessageSet``,
``EvaluationPoints``, ``FieldMatrix(...)``, and the answers that
``protocol.decode_rounds`` receives.
"""

from __future__ import annotations

from itertools import repeat


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

    def random_vector(self, rng, n: int) -> list[int]:
        """n uniform residues: the values, and the rng state after, of n ``rng.randrange(q)``.

        ``randrange(q)`` draws ``getrandbits(q.bit_length())`` until a value is
        below q.  The first n draws are made at once and the rejected ones
        dropped; one draw at a time then tops the vector up, so no draw is made
        that ``randrange`` would not make.
        """
        q = self.q
        k = q.bit_length()
        draw = rng.getrandbits
        out = [v for v in map(draw, repeat(k, n)) if v < q]
        while len(out) < n:
            v = draw(k)
            if v < q:
                out.append(v)
        return out

