"""Vectors and matrices over GF(q), and the Cauchy-Vandermonde decoding matrices.

A decoding matrix row for server n reads

    [ 1/(f_1 - a_n), ..., 1/(f_L - a_n), 1, a_n, a_n^2, ..., a_n^(width-L-1) ]

with the f's and a's drawn from one pool of pairwise distinct field elements.
Every width-row square submatrix of such a matrix is invertible, which is what
makes both plain and error-tolerant decoding work.

A ``FieldMatrix`` stores its residues as one flat row-major list, ``flat``,
the layout of the package's coded vectors; ``data`` derives fresh row lists
from it.  ``FieldMatrix(...)`` reduces caller entries on construction; every
product, inverse and submatrix is already a residue matrix and is wrapped as
it is, without a copy.
``row_reduce`` is the package's one Gauss-Jordan elimination, behind
``FieldMatrix.inverse`` (the decoders' square solves and Gao's tables in
``robust``) and the audits' ranks; it uses first-nonzero pivoting, since
arithmetic is exact and pivot magnitude is irrelevant, and inverts each pivot
by ``pow(x, -1, q)``, as ``build_decoding_matrix`` does each Cauchy entry.

Every packed product lives here.  ``_word_slots`` is the one slot layout:
each entry gets a slot of whole 64-bit words in native order, and it hands
out ``pack`` (a vector into the slots, as it is when it holds residues, else
reduced), ``reduce`` (one Barrett step for every slot of a packed sum) and
``read`` (the residues of reduced bytes, joined).  Its two kernels each have
a shape rule.  ``FieldMatrix.mul``, the package's one product, sends a
one-column right operand (a decoding round's stream) to ``matvec``'s dot
products, at decoder sizes a third to a fifth of the time of packing it;
any other shape packs each right row into one int of byte slots as long as
``inner * (q - 1)**2``, the largest sum of ``inner`` products of residues,
so a left row (a slice of ``flat``) times the packed rows carries out of no
slot, and strided copies of byte planes take entries in and outputs out to
``_word_slots``.  ``coded_share``, the coder of storage and queries, packs
each term vector no shorter than the number of outputs (bulk, byzantine,
PSDMM) once, so an output is one big-int product per term and one
``reduce`` per block, read back in one piece; shorter vectors (the desk
scale, K <= 3 < N) would pay that reduction on 1 to 3 entries, so theirs
are plain dot products per entry.  The widths follow q: any prime q works.
The kernels are pure Python on purpose: importing numpy next to the package
raises a process's peak resident memory from about 20 MB to about 33 MB
(``ru_maxrss``, Python 3.11, numpy 2.4), half again the peak of a whole
Byzantine retrieval session.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul

from .field import PrimeField

_ORDER = sys.byteorder  # the byte order of ``array`` words


def _byte(j: int, width: int) -> int:
    """Offset of the j-th least significant byte of a ``width``-byte field in native order."""
    return j if _ORDER == "little" else width - 1 - j


@lru_cache(maxsize=256)
def _word_slots(q: int, terms: int, length: int):
    """The package's one slot layout: ``length`` slots of sums of ``terms`` products.

    Returns (words, zero, pack, reduce, read).  Each entry gets a slot of
    ``words`` 64-bit words in native order, the low one at word ``lo`` of the
    slot; ``zero`` is an empty array("Q") of all the slots.  ``pack(vec)`` is
    the int of the ``length`` entries of ``vec`` (reduced unless residues) in
    a copy of ``zero``.  For an int x of such slots, each at most
    top = terms * (q-1)^2, ``reduce(x)`` is the bytes of every slot mod q,
    and ``read(chunks)`` the residues of such bytes, joined.

    ``reduce`` is one round-up Barrett step for all slots at once:
    r = x - (((x * m) >> s) & mask) * q with s = bit_length(top) +
    bit_length(q) and m = ceil(2^s / q).  For 0 <= x <= top < 2^(s - bit_length(q)),
    floor(x * m / 2^s) = floor(x / q) exactly, because the error term
    x * (m - 2^s/q) / 2^s is below 2^-bit_length(q) < 1/q.  The quotient is
    at most top // q, so ``mask`` keeps the low bit_length(top // q) bits of
    each slot.  A slot is the fewest whole words that hold top * m, the
    largest product, so x * m carries out of no slot; the shift moves the
    next slot's low bits to bit 64 * words - s and up, and since
    floor(top * m / 2^s) >= top // q, the masked bits lie below them.  Each
    slot's subtrahend is at most its x, so the subtraction borrows across no
    slot.  Residues fit one word, so q < 2^64 (``PrimeField`` enforces it).
    At q = 2^31 - 1 this gives two words for up to 4 terms, three for 5.
    """
    top = terms * (q - 1) ** 2
    s = top.bit_length() + q.bit_length()
    m = -(-(1 << s) // q)
    words = -(-(top * m).bit_length() // 64)
    lo = 0 if _ORDER == "little" else words - 1
    size = 8 * words * length
    slot_mask = ((1 << (top // q).bit_length()) - 1).to_bytes(8 * words, _ORDER)
    mask = int.from_bytes(slot_mask * length, _ORDER)
    zero = array("Q", bytes(size))

    def pack(vec) -> int:
        slots = zero[:]
        try:  # a negative entry raises OverflowError
            slots[lo::words] = array("Q", vec if max(vec, default=0) < q else [v % q for v in vec])
        except OverflowError:
            slots[lo::words] = array("Q", [v % q for v in vec])
        return int.from_bytes(slots, _ORDER)

    def reduce(x: int) -> bytes:
        return (x - (((x * m) >> s) & mask) * q).to_bytes(size, _ORDER)

    def read(chunks) -> list[int]:
        joined = b"".join(chunks)
        del chunks  # the caller's list dies here, so the parts and the residues never coexist
        return memoryview(joined).cast("Q")[lo::words].tolist()

    return words, zero, pack, reduce, read


def coded_share(table, blocks, q: int) -> list[list[int]]:
    """[output]: the flat list of every block's sum_e c_e v_e mod q, block after block.

    Block b's term vectors take the rows ``table[b % len(table)]``, one per
    output, so a query's rounds cycle through the layers of one table.  All
    vectors have one length, and each row one coefficient per vector of a
    block, which holds one or more (``ValueError`` otherwise).  Any ints may
    come in: ``pack`` takes a vector of residues as it is and reduces any
    other, and each short-path sum is exact before its ``% q``.  The module
    docstring says which vectors are packed and which take dot products.
    """
    terms = set(map(len, blocks)) | set(map(len, chain.from_iterable(table)))
    lengths = set(map(len, chain.from_iterable(blocks)))
    if len(terms) != 1 or 0 in terms or len(lengths) != 1:  # zip would drop or truncate
        raise ValueError("need term vectors of one length and a coefficient per vector per row")
    (terms,), (length,), outputs = terms, lengths, len(table[0])
    rows = [table[b % len(table)] for b in range(len(blocks))]
    if 0 < length < outputs:
        entries = [(c, entry) for c, vectors in zip(rows, blocks) for entry in zip(*vectors)]
        # the copy is sized exactly, the comprehension's list is not: desk's transcripts keep them
        return [[sum(map(mul, c[n], entry)) % q for c, entry in entries][:] for n in range(outputs)]
    _, _, pack, reduce, read = _word_slots(q, terms, length)
    packed = [list(map(pack, vectors)) for vectors in blocks]
    return [
        read([reduce(sum(map(mul, c[n], ints))) for c, ints in zip(rows, packed)])
        for n in range(outputs)
    ]


class SingularMatrixError(ValueError):
    """Square matrix has no inverse."""


class FieldMatrix:
    """Dense rows x cols matrix of residues sharing one PrimeField, stored flat.

    ``flat`` holds the rows * cols residues row-major; ``data`` derives fresh
    row lists from it.  The constructor takes every entry through
    ``field.residues``: caller data enters here.  Results the package computes
    as residues are wrapped as they are through ``_of_flat``.
    """

    __slots__ = ("field", "rows", "cols", "flat")

    def __init__(self, field: PrimeField, data):
        rows = field.residues(data, 2)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.flat = [v for row in rows for v in row]

    @classmethod
    def _of_flat(cls, field: PrimeField, flat: list[int], cols: int) -> "FieldMatrix":
        """Wrap a non-empty row-major list of residues, ``cols`` per row, without copying."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.flat = field, len(flat) // cols, cols, flat
        return m

    @property
    def data(self) -> list[list[int]]:
        """Fresh row lists of the residues (also the JSON form)."""
        flat, cols = self.flat, self.cols
        return [flat[i:i + cols] for i in range(0, len(flat), cols)]

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and other.field == self.field
            and (other.rows, other.cols) == (self.rows, self.cols)
            and other.flat == self.flat
        )

    def __repr__(self):
        return f"FieldMatrix(GF({self.field.q}), {self.rows}x{self.cols})"

    def mul(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.field != self.field:
            raise ValueError("matrices live in different fields")
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        if other.cols == 1:  # a column: the dot products beat packing
            return FieldMatrix._of_flat(self.field, self.matvec(other.flat), 1)
        q = self.field.q
        rows, inner, cols = self.rows, self.cols, other.cols
        slot = ((inner * (q - 1) ** 2).bit_length() + 7) // 8  # bytes per entry
        size = slot * cols
        # strided bytearray slices copy far faster than memoryview ones
        entries = bytearray(array("Q", other.flat))
        narrow = bytearray(slot * inner * cols)
        for j in range(((q - 1).bit_length() + 7) // 8):  # the residues' byte planes
            narrow[_byte(j, slot)::slot] = entries[_byte(j, 8)::8]
        from_bytes = int.from_bytes
        packed = [from_bytes(narrow[i:i + size], _ORDER) for i in range(0, len(narrow), size)]
        left = self.flat
        sums = b"".join([
            sum(map(mul, left[i:i + inner], packed)).to_bytes(size, _ORDER)
            for i in range(0, rows * inner, inner)
        ])
        words, zero, _, reduce, read = _word_slots(q, inner, rows * cols)
        wide = bytearray(zero)
        for j in range(slot):
            wide[_byte(j, 8 * words)::8 * words] = sums[_byte(j, slot)::slot]
        flat = read([reduce(from_bytes(wide, _ORDER))])
        return FieldMatrix._of_flat(self.field, flat, cols)

    def matvec(self, vec: list[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        q = self.field.q
        entries = iter(self.flat)
        # vec goes first, so map stops before it takes an entry of the next row
        return [sum(map(mul, vec, entries)) % q for _ in range(self.rows)]

    def inverse(self) -> "FieldMatrix":
        """Gauss-Jordan inverse; raises SingularMatrixError if singular."""
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        a = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.data)]
        reduced, pivots = row_reduce(a, self.field.q)
        if pivots[-1] != n - 1:  # [A | I] has rank n; A is invertible iff A holds every pivot
            raise SingularMatrixError("singular matrix")
        return FieldMatrix._of_flat(self.field, [v for row in reduced for v in row[n:]], n)

    def row_submatrix(self, row_indices) -> "FieldMatrix":
        """The rows at ``row_indices``, in that order; each must lie in 0..rows-1."""
        flat, cols, indices = self.flat, self.cols, list(row_indices)
        if indices and not 0 <= min(indices) <= max(indices) < self.rows:  # slices would clip
            raise ValueError(f"row index out of range 0..{self.rows - 1}")
        return FieldMatrix._of_flat(
            self.field, [v for i in indices for v in flat[i * cols:(i + 1) * cols]], cols
        )


def row_reduce(rows, q: int) -> tuple[list, list[int]]:
    """Reduced row echelon form of residue ``rows`` over GF(q), and its pivot columns.

    The pivots are the leftmost maximal independent set of columns, so those in
    a leading block of columns count that block's rank.  ``rows`` is not modified.
    """
    a = list(rows)
    pivots: list[int] = []
    for col in range(len(a[0])):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = pow(a[top][col], -1, q)
        head = a[top] = [v * inv % q for v in a[top]]
        for r, row in enumerate(a):
            f = row[col]
            if f and r != top:
                a[r] = [(u - f * v) % q for u, v in zip(row, head)]
        pivots.append(col)
    return a, pivots


@dataclass(frozen=True)
class EvaluationPoints:
    """The L + N pairwise distinct constants: f_1..f_L and alpha_1..alpha_N."""

    field: PrimeField
    f: tuple[int, ...]
    alpha: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "f", self.field.residues(self.f, 1))
        object.__setattr__(self, "alpha", self.field.residues(self.alpha, 1))
        pts = self.f + self.alpha
        if len(set(pts)) != len(pts):
            raise ValueError("evaluation points must be pairwise distinct")

    @classmethod
    def default(cls, field: PrimeField, layers: int, num_servers: int) -> "EvaluationPoints":
        """f_l = l and alpha_n = L + n; when q == L + N the last alpha wraps to 0."""
        if field.q < layers + num_servers:
            raise ValueError(
                f"field size {field.q} < L + N = {layers + num_servers}"
            )
        f = tuple(range(1, layers + 1))
        alpha = tuple((layers + n) % field.q for n in range(1, num_servers + 1))
        return cls(field, f, alpha)


@dataclass(frozen=True)
class DecodingMatrix:
    """Cauchy-Vandermonde decoding matrix, one row per contributing server.

    ``width`` counts total columns: the first L are Cauchy terms, the remaining
    width - L are the shared Vandermonde span 1, a_n, ..., a_n^(width-L-1).
    Rectangular (rows > width) instances are the robust form whose extra rows
    buy error correction.
    """

    points: EvaluationPoints
    row_servers: tuple[int, ...]
    cauchy_cols: int
    width: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.row_servers)

    @property
    def field(self) -> PrimeField:
        return self.points.field

    def matrix(self) -> FieldMatrix:
        return FieldMatrix._of_flat(
            self.points.field, [v for row in self.entries for v in row], self.width
        )


@lru_cache(maxsize=4096)
def build_decoding_matrix(
    points: EvaluationPoints,
    row_servers: tuple[int, ...],
    cauchy_cols: int,
    width: int,
) -> DecodingMatrix:
    """Build the rows x width decoding matrix for the given servers.

    Requires 1 <= cauchy_cols <= rows - 1 (the guaranteed-invertibility
    domain) and cauchy_cols <= width <= rows.  Memoized: a repeated
    (points, servers, L, width) returns the same immutable matrix.  Each
    Cauchy entry is ``pow(f_l - a_n, -1, q)``; the points are pairwise
    distinct, so no difference is 0.
    """
    servers = tuple(row_servers)
    rows = len(servers)
    field = points.field
    q = field.q
    if cauchy_cols != len(points.f):
        raise ValueError("cauchy_cols must match the number of f points")
    if not 1 <= cauchy_cols <= rows - 1:
        raise ValueError(f"need 1 <= L <= rows-1, got L={cauchy_cols}, rows={rows}")
    if not cauchy_cols <= width <= rows:
        raise ValueError(f"need L <= width <= rows, got width={width}")
    if any(not 1 <= n <= len(points.alpha) for n in servers):
        raise ValueError("server index out of range")
    ent = []
    for n in servers:
        a_n = points.alpha[n - 1]
        row = [pow((fl - a_n) % q, -1, q) for fl in points.f]
        v = 1
        for _ in range(width - cauchy_cols):
            row.append(v)
            v = (v * a_n) % q
        ent.append(tuple(row))
    return DecodingMatrix(points, servers, cauchy_cols, width, tuple(ent))
