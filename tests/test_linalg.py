"""Exact GF(q) linear algebra and the decoding-matrix invertibility property."""

from itertools import combinations
from random import Random

import pytest

from xstpir.field import PrimeField, is_prime, smallest_prime_geq
from xstpir.linalg import (
    _ORDER,
    EvaluationPoints,
    FieldMatrix,
    SingularMatrixError,
    _word_slots,
    build_decoding_matrix,
    coded_share,
)

from oracles import det, matmul


def random_invertible(field, n, rng):
    while True:
        m = FieldMatrix(field, [field.random_vector(rng, n) for _ in range(n)])
        if det(m) != 0:
            return m


def identity(field, n):
    return FieldMatrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def test_identity_inverse():
    f = PrimeField(5)
    eye = identity(f, 3)
    assert eye.inverse() == eye


def test_singular_rejected():
    f = PrimeField(5)
    zeros = FieldMatrix(f, [[0, 0], [0, 0]])
    with pytest.raises(SingularMatrixError):
        zeros.inverse()


def test_shape_errors():
    f = PrimeField(5)
    m = FieldMatrix(f, [[1, 2, 3], [4, 0, 1]])
    with pytest.raises(ValueError):
        m.inverse()
    with pytest.raises(ValueError):
        m.matvec([1, 2])
    with pytest.raises(ValueError):
        m.mul(m)
    with pytest.raises(ValueError):
        m.mul(FieldMatrix(PrimeField(7), [[1], [2], [3]]))


def test_matmul_and_scale():
    f = PrimeField(7)
    a = FieldMatrix(f, [[1, 2], [3, 4]])
    b = FieldMatrix(f, [[5, 6], [0, 1]])
    assert a.mul(b).data == [[5, 1], [1, 1]]  # mod 7
    three = FieldMatrix(f, [[3, 0], [0, 3]])
    assert a.mul(three).data == [[3, 6], [2, 5]]  # scaling is a product


def test_plant_then_solve():
    rng = Random(11)
    f = PrimeField(7)
    for _ in range(25):
        m = random_invertible(f, 4, rng)
        x = f.random_vector(rng, 4)
        assert m.inverse().matvec(m.matvec(x)) == x


def test_inverse_multiplies_back():
    rng = Random(5)
    for q in (5, 7, 11):
        f = PrimeField(q)
        for n in (2, 3, 5):
            m = random_invertible(f, n, rng)
            assert m.mul(m.inverse()) == identity(f, n)
            assert m.inverse().mul(m) == identity(f, n)


def test_products_sums_and_inverses_are_residues():
    """mul and inverse return row lists of residues, also from unreduced input."""
    rng = Random(9)
    for q in (2, 5, 2**31 - 1):
        f = PrimeField(q)
        for n in (1, 3, 4):
            a = random_invertible(f, n, rng)
            unreduced = [[rng.randrange(-3 * q, 3 * q) for _ in range(n)] for _ in range(n)]
            b = FieldMatrix(f, unreduced)
            for m in (a.mul(b), b.mul(a), a.inverse()):
                assert all(isinstance(row, list) for row in m.data)
                assert all(0 <= v < q for row in m.data for v in row)


@pytest.mark.parametrize("q", [2, 5, 257, 2**31 - 1, smallest_prime_geq(2**40), 2**64 - 59])
def test_mul_matches_oracle_at_worst_case_carries(q):
    """Packed products equal the triple loop, with every entry q-1 and at random.

    All-(q-1) operands make every output sum inner*(q-1)^2, the most a slot
    must hold; inner dimensions 255..257 and 300 cross a byte of slot width
    at q = 2.  A residue of q <= 257 takes fewer bytes than its slot, one of
    2^64 - 59 all eight bytes of a word, and its Barrett slots five words.
    16x64 by 64x32 and 16x80 by 80x32 are the products of a psdmm answer;
    13x7, 13x5, 8x4 and 4x4 by one column are decoders' one-stream solves
    and offsets, which go through ``matvec``.
    """
    f = PrimeField(q)
    rng = Random(q)
    shapes = [(1, 1, 1), (2, 1, 3), (17, 1, 17), (3, 4, 2), (16, 64, 32), (16, 80, 32)]
    shapes += [(13, 7, 1), (13, 5, 1), (8, 4, 1), (4, 4, 1)]
    shapes += [(1, n, 1) for n in (2, 17, 255, 256, 257, 300)]
    shapes += [(3, n, 4) for n in (64, 255, 256, 300)]
    for rows, inner, cols in shapes:
        for entry in (lambda: q - 1, lambda: rng.randrange(q)):
            a = [[entry() for _ in range(inner)] for _ in range(rows)]
            b = [[entry() for _ in range(cols)] for _ in range(inner)]
            assert FieldMatrix(f, a).mul(FieldMatrix(f, b)).data == matmul(a, b, q)


def largest_prime_below(n: int) -> int:
    c = n - 1
    while not is_prime(c):
        c -= 1
    return c


def test_word_slots_are_the_fewest_words_that_hold_the_largest_product():
    """At q = 2^31 - 1, 4 terms fit two words (by less than 2^99), 5 need three."""
    q = 2**31 - 1
    assert [_word_slots(q, t, 1)[0] for t in range(1, 6)] == [2, 2, 2, 2, 3]
    top = 4 * (q - 1) ** 2
    s = top.bit_length() + q.bit_length()
    assert 0 < 2**128 - top * -(-(1 << s) // q) < 2**99


@pytest.mark.parametrize(
    "q", [largest_prime_below(2**k) for k in (31, 32, 62, 63)] + [2**64 - 59]
)
def test_word_slots_reduce_all_max_and_random_slots(q):
    """``reduce`` takes every slot up to terms * (q-1)^2 to its residue.

    All-max slots make every product top * m, the most a slot must hold, next
    to each other, where a slot one bit short would carry into its neighbour.
    """
    rng = Random(q)
    for terms in range(1, 9):
        top = terms * (q - 1) ** 2
        values = [top, top, 0, top, q, q - 1] + [rng.randrange(top + 1) for _ in range(30)]
        words, zero, pack, reduce, read = _word_slots(q, terms, len(values))
        assert len(zero) == words * len(values)
        x = int.from_bytes(b"".join(v.to_bytes(8 * words, _ORDER) for v in values), _ORDER)
        empty = int.from_bytes(zero, _ORDER)
        for x, want in ((x, [v % q for v in values]), (empty, [0] * len(values))):
            assert read([reduce(x)]) == want


@pytest.mark.parametrize("q", [2, 2**31 - 1, 2**64 - 59])
@pytest.mark.parametrize("length, outputs", [(3, 5), (5, 3), (6, 6)])
def test_coded_share_and_mul_agree(q, length, outputs):
    """``coded_share([rows], [vectors], q)`` is ``FieldMatrix(rows).mul(FieldMatrix(vectors))``.

    Both kernels reduce and read back through ``_word_slots``, so a slip in
    its layout shows in one against the other.  Entries all q - 1 give the
    worst-case carries; ``length`` below ``outputs`` takes ``coded_share``'s
    dot products, the rest its packed path, and ``mul`` packs every case.
    """
    rng, field = Random(q * length), PrimeField(q)
    for terms in (1, 2, 5):
        for draw in (lambda: q - 1, lambda: rng.randrange(q)):
            rows = [[draw() for _ in range(terms)] for _ in range(outputs)]
            vectors = [[draw() for _ in range(length)] for _ in range(terms)]
            want = FieldMatrix(field, rows).mul(FieldMatrix(field, vectors)).data
            assert coded_share([rows], [vectors], q) == want


def test_evaluation_points_distinctness():
    f = PrimeField(5)
    with pytest.raises(ValueError):
        EvaluationPoints(f, (1,), (2, 3, 1))
    with pytest.raises(ValueError):
        EvaluationPoints(f, (1, 6), (2,))  # 6 = 1 mod 5


def test_default_points_wrap_to_zero_at_minimum_q():
    f = PrimeField(5)
    pts = EvaluationPoints.default(f, 1, 4)
    assert pts.f == (1,) and pts.alpha == (2, 3, 4, 0)
    with pytest.raises(ValueError):
        EvaluationPoints.default(f, 2, 4)  # q < L + N


def test_decoding_matrix_gf5_example():
    """q=5, f=(1), alpha=(2,3,4,0): first column is (4, 2, 3, 1)."""
    f = PrimeField(5)
    pts = EvaluationPoints(f, (1,), (2, 3, 4, 0))
    m = build_decoding_matrix(pts, (1, 2, 3, 4), 1, 4)
    assert [row[0] for row in m.entries] == [4, 2, 3, 1]
    # Vandermonde block: 1, alpha, alpha^2
    assert [list(row) for row in m.entries] == [
        [4, 1, 2, 4],
        [2, 1, 3, 4],
        [3, 1, 4, 1],
        [1, 1, 0, 0],
    ]
    assert det(m.matrix()) != 0
    # memoized: an equal (points, servers, L, width) returns the same matrix
    assert build_decoding_matrix(EvaluationPoints(f, (1,), (2, 3, 4, 0)), (1, 2, 3, 4), 1, 4) is m


def test_decoding_matrix_gf7_two_cauchy_columns():
    """q=7, f=(1,2), alpha=(3,4,5,6,0): the 5x5 matrix is invertible."""
    f = PrimeField(7)
    pts = EvaluationPoints(f, (1, 2), (3, 4, 5, 6, 0))
    m = build_decoding_matrix(pts, (1, 2, 3, 4, 5), 2, 5)
    fm = m.matrix()
    assert det(fm) != 0
    for n, row in zip((1, 2, 3, 4, 5), fm.data):
        a = pts.alpha[n - 1]
        assert row[0] == pow((1 - a) % 7, 5, 7)  # 1/(f1 - a)
        assert row[1] == pow((2 - a) % 7, 5, 7)
        assert row[2:] == [1, a, (a * a) % 7]


def test_build_validations():
    f = PrimeField(11)
    pts = EvaluationPoints(f, (1, 2), (3, 4, 5, 6))
    with pytest.raises(ValueError):
        build_decoding_matrix(pts, (1, 2, 3, 4), 1, 4)  # L != len(f)
    with pytest.raises(ValueError):
        build_decoding_matrix(pts, (1, 2), 2, 2)  # L > rows - 1
    with pytest.raises(ValueError):
        build_decoding_matrix(pts, (1, 2, 3), 2, 4)  # width > rows
    with pytest.raises(ValueError):
        build_decoding_matrix(pts, (1, 2, 9), 2, 3)  # bad server index
    with pytest.raises(ValueError):
        EvaluationPoints(f, (1, 3), (3, 4))  # repeated point


def test_invertibility_500_random_draws():
    """Square decoding matrices over random primes 11..101 are never singular."""
    rng = Random(2024)
    primes = [p for p in range(11, 102) if is_prime(p)]
    for _ in range(500):
        q = rng.choice(primes)
        f = PrimeField(q)
        n = rng.randrange(2, 9)
        layers = rng.randrange(1, min(n, q - n + 1))
        pts_pool = rng.sample(range(q), layers + n)
        pts = EvaluationPoints(f, tuple(pts_pool[:layers]), tuple(pts_pool[layers:]))
        m = build_decoding_matrix(pts, tuple(range(1, n + 1)), layers, n)
        assert det(m.matrix()) != 0


def test_all_row_subsets_of_robust_matrix_invertible():
    """Exhaustive at desk scale: every width-subset of a tall matrix inverts."""
    rng = Random(7)
    for q, rows, width, layers in ((13, 6, 4, 2), (17, 8, 5, 3), (23, 10, 6, 2)):
        f = PrimeField(q)
        pool = rng.sample(range(q), layers + rows)
        pts = EvaluationPoints(f, tuple(pool[:layers]), tuple(pool[layers:]))
        m = build_decoding_matrix(pts, tuple(range(1, rows + 1)), layers, width)
        fm = m.matrix()
        for subset in combinations(range(rows), width):
            assert det(fm.row_submatrix(subset)) != 0


def test_row_submatrix_rejects_rows_outside_the_matrix():
    """Every index must name a row; a slice of ``flat`` would clip or wrap it silently."""
    f = PrimeField(7)
    m = FieldMatrix(f, [[1, 2], [3, 4], [5, 6]])
    assert m.row_submatrix([2, 0]) == FieldMatrix(f, [[5, 6], [1, 2]])
    assert m.row_submatrix(range(3)) == m
    for indices in ([5], [-1], [0, 3], [3], range(4)):
        with pytest.raises(ValueError):
            m.row_submatrix(indices)


def test_equality_compares_shape_not_only_entries():
    f = PrimeField(5)
    entries = [[1, 2, 3], [4, 0, 1]]
    wide, tall = FieldMatrix(f, entries), FieldMatrix(f, [[1, 2], [3, 4], [0, 1]])
    assert wide.flat == tall.flat and wide != tall
    assert wide == FieldMatrix(f, [[6, 2, 3], [4, 5, 1]])  # reduced on construction
    assert wide != FieldMatrix(PrimeField(7), entries)


def test_data_is_a_fresh_copy():
    f = PrimeField(5)
    m = FieldMatrix(f, [[1, 2], [3, 4]])
    rows = m.data
    rows[0][0] = 0
    rows.append([1, 1])
    assert m.data == [[1, 2], [3, 4]] and m.flat == [1, 2, 3, 4] and m.rows == 2
    with pytest.raises(AttributeError):  # read-only: derived from flat
        m.data = [[0, 0], [0, 0]]


def test_matrix_json_form():
    import json

    f = PrimeField(5)
    m = FieldMatrix(f, [[1, 2], [3, 4]])
    assert json.loads(json.dumps(m.data)) == [[1, 2], [3, 4]]
