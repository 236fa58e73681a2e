"""The prime field GF(q) and the residue contract of the package.

Every residue is a plain int in [0, q).  ``PrimeField`` carries the modulus
and draws uniform random vectors; the rest of the package does its arithmetic
on raw ints and flat int vectors, with Python's ``%`` and ``pow``.

Residue contract: q < 2^64, so every residue fits one 64-bit word, and the
contract has two owners.  ``PrimeField.residues`` reduces what enters: caller
data is reduced once, where it enters the library (``MessageSet``, the noise
objects ``StorageNoise``, ``QueryNoise`` and ``PsdmmNoise``,
``EvaluationPoints`` and ``FieldMatrix(...)``), through ``operator.index``,
so an int-like (a bool) enters and a float or a str raises ``TypeError``.
``linalg`` packs, reduces and reads back every product: ``_word_slots`` is
the one word-slot layout and exact reduction behind both packed kernels,
``FieldMatrix.mul`` and ``coded_share``.  Every kernel returns residues in
[0, q) (``coded_share``, and everything built from it, the selector update
of the queries, server answers, matrix products and decodes), so nothing
downstream reduces them again.  Residues the package makes are not caller
data: the ``random`` draws of the messages, the noise objects and the
matrices, and the audits' 0/1 unit noise vectors, are wrapped as they are.
Caller answers are checked, not reduced: ``protocol.decode`` erases every
bundle holding anything but residues.
"""

from __future__ import annotations

from itertools import repeat
from operator import index


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 primes as bases.

    These bases decide every n < 3.18 * 10^23 exactly, which covers every
    modulus that ``PrimeField`` accepts (q < 2^64); above that a composite
    could pass.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_geq(n: int) -> int:
    """Smallest prime >= n (>= 2)."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


class PrimeField:
    """GF(q) for a prime modulus q, taken through ``operator.index``.

    Instances are immutable, compare by modulus, and are safe to share.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        q = index(q)  # a float raises TypeError
        if q >= 1 << 64:  # the residue contract above
            raise ValueError(f"field modulus must be below 2^64, got {q}")
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

    def residues(self, data, depth: int) -> tuple:
        """``data``, nested ``depth`` deep, as tuples of residues, each entry taken
        through ``operator.index``: caller data enters here, and a float or a
        str raises ``TypeError``."""
        if depth == 1:
            q = self.q
            return tuple(index(v) % q for v in data)
        return tuple(self.residues(part, depth - 1) for part in data)

    def random_vector(self, rng, n: int) -> list[int]:
        """n uniform residues: the values, and the rng state after, of n ``rng.randrange(q)``.

        ``randrange(q)`` draws ``getrandbits(q.bit_length())`` until a value is
        below q.  The first n draws are made at once and the rejected ones
        dropped; one draw at a time then tops the vector up, so no draw is made
        that ``randrange`` would not make.  The stream is consumed up to its
        n-th accepted value, so one call for n1 + n2 residues gives the values,
        and leaves the state, of a call for n1 followed by one for n2: callers
        draw a whole object in one call (each noise object is one flat draw).
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

