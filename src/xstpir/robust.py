"""Error-and-erasure decoding for the rectangular Cauchy-Vandermonde code.

A rows x width decoding matrix with rows - width = 2B generates an
MDS(rows, width) code: any width rows form an invertible square system, so the
minimum distance is 2B + 1 and up to B corrupted observations are correctable.

The code is a generalized Reed-Solomon code.  Row n of the matrix is
[1/(f_l - a_n)]_l ++ [a_n^j]_j; scaled by P(a_n) = prod_l (f_l - a_n) it is the
evaluation at a_n of the basis prod_{l' != l}(f_l' - x), P(x) x^j of the
polynomials of degree < width.  So for observations y the scaled values
z_n = P(a_n) y_n are, up to the corruptions, the evaluations of one polynomial
g(x) = sum_l c_l prod_{l' != l}(f_l' - x) + P(x) V(x) of degree < width.

With errors allowed, Gao's algorithm (S. Gao, "A new algorithm for decoding
Reed-Solomon codes", 2003) corrects the observations: interpolate g0 through
the z_n, run the extended Euclidean algorithm on (G, g0) with
G(x) = prod_n (x - a_n) until the remainder r has degree < (rows + width)/2,
and take g = r / v, which must divide exactly with degree < width.  The
corrected codeword is y'_n = g(a_n) / P(a_n).  The solution is the square
solve of the first width rows on its first width entries (on the observations
themselves when no errors are allowed).  This is the cross-subspace-alignment
view of Jia and Jafar (CSA codes).

The corrected codeword must agree with at least rows - num_errors
observations, or DecodingFailure is raised.  Any such codeword is the unique
one within distance num_errors of the observations (by the minimum distance),
and Gao's algorithm finds every codeword within (rows - width)/2 >= num_errors,
so the output equals that of subset consensus (solve every width-row square
system, re-encode, accept a candidate agreeing on rows - num_errors rows; kept
as ``RobustDecoder.candidates``) on every input, in polynomial time.

``RobustDecoder.solve`` is the one solve: its observations are a rows x S
residue matrix, one column per stream (S = 1 for retrieval, lambda*mu for
PSDMM), each column corrected on its own and all of them solved with one
product by the square inverse.  Whether that product is one ``matvec`` or a
packed product is ``FieldMatrix.mul``'s choice, by the operand's shape.

Everything a decoder needs besides the observations is a per-matrix
constant, built once and kept on the memoized ``RobustDecoder``: the square
inverse, Gao's interpolation and codeword tables, and the offset matrices
O_k of ``protocol.decode_rounds`` (round k+1's known contribution of the
earlier rounds, read off the matrix's Cauchy entries).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, zip_longest
from math import prod
from operator import eq, mul

from .linalg import DecodingMatrix, FieldMatrix


class DecodingFailure(ValueError):
    """More than B corruptions (no codeword met the agreement threshold), or
    fewer well-formed answers than the decoder needs."""


def _trim(p: list[int]) -> list[int]:
    """Drop high zero coefficients; the zero polynomial is []."""
    while p and not p[-1]:
        p.pop()
    return p


def _product(factors, q: int) -> list[int]:
    """Coefficients (low to high) of the product of linear polynomials c0 + c1 x."""
    p = [1]
    for c0, c1 in factors:
        p = [(c0 * lo + c1 * hi) % q for lo, hi in zip(p + [0], [0] + p)]
    return p


def _evaluate(p: list[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % q
    return acc


def _sub(a: list[int], b: list[int], q: int) -> list[int]:
    return _trim([(u - v) % q for u, v in zip_longest(a, b, fillvalue=0)])


def _mul(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return [c % q for c in out]


def _divmod(num: list[int], den: list[int], q: int) -> tuple[list[int], list[int]]:
    """Polynomial quotient and remainder over GF(q); den must be trimmed and nonzero."""
    rem = num[:]
    dd = len(den) - 1
    inv = pow(den[-1], q - 2, q)
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dd] * inv % q
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                rem[i + j] = (rem[i + j] - c * d) % q
    return _trim(quot), _trim(rem[:dd])


class RobustDecoder:
    """Reusable decoder for one DecodingMatrix, with its per-matrix constants."""

    def __init__(self, matrix: DecodingMatrix):
        self.matrix = matrix
        self._full = matrix.matrix()
        self._inverse = self._full.row_submatrix(range(matrix.width)).inverse()
        self._offsets: dict[int, FieldMatrix] = {}
        if matrix.rows > matrix.width:  # a square matrix corrects no errors
            self._init_gao()

    def _init_gao(self):
        m = self.matrix
        q = m.field.q
        alphas = [m.points.alpha[n - 1] for n in m.row_servers]
        self._locator = _product([(-a, 1) for a in alphas], q)  # G(x)
        # g0 = sum_n y_n P(a_n) w_n G(x)/(x - a_n) with Lagrange weight
        # w_n = 1/prod_{m != n}(a_n - a_m): one row per coefficient of g0.
        # Row n of the codeword table evaluates g at a_n and divides by P(a_n).
        columns = []
        self._codeword = []
        for a in alphas:
            basis, _ = _divmod(self._locator, [-a % q, 1], q)
            p_a = prod(f - a for f in m.points.f) % q
            c = pow(_evaluate(basis, a, q), q - 2, q) * p_a % q
            columns.append([c * v % q for v in basis])
            inv_p = pow(p_a, q - 2, q)
            self._codeword.append([pow(a, j, q) * inv_p % q for j in range(m.width)])
        self._interp = list(zip(*columns))

    def candidates(self, observed):
        """Yield (subset, solution, agreement count) for every width-subset.

        The subset-consensus reference: not used by ``solve``.
        """
        m = self.matrix
        data = self._full.data
        q = m.field.q
        for subset in combinations(range(m.rows), m.width):
            x = self._full.row_submatrix(subset).inverse().matvec(
                [observed[i] for i in subset]
            )
            agree = sum(
                1
                for i, row in enumerate(data)
                if sum(a * b for a, b in zip(row, x)) % q == observed[i]
            )
            yield subset, x, agree

    def offsets(self, rounds: int) -> FieldMatrix:
        """O_k at k = ``rounds`` >= 1: the rows x L*k matrix of (1/(f_l - a_n))^(k-j+1).

        Entry [n][L*j + l] weighs the earlier round j+1's desired symbol of
        layer l+1 in row n's round-(k+1) observation.  Built once per k from
        the matrix's Cauchy entries (no new inverse) and kept.
        """
        o = self._offsets.get(rounds)
        if o is None:
            m = self.matrix
            q, layers = m.field.q, m.cauchy_cols
            flat = [
                pow(inv, rounds - j + 1, q)
                for row in m.entries
                for j in range(rounds)
                for inv in row[:layers]
            ]
            o = self._offsets[rounds] = FieldMatrix._of_flat(m.field, flat, layers * rounds)
        return o

    def solve(self, observed: FieldMatrix, num_errors: int) -> FieldMatrix:
        """The width x S coefficients of rows x S residue observations.

        Each column is one stream with <= num_errors corrupted rows.  With
        errors allowed, Gao's ``_correct`` corrects each column on its own;
        then one product of the square inverse by the first width rows solves
        every column (``FieldMatrix.mul`` takes ``matvec`` for one).
        """
        m = self.matrix
        if observed.rows != m.rows:
            raise ValueError("one observation per matrix row required")
        if num_errors < 0:
            raise ValueError("error bound must be non-negative")
        if m.rows - m.width < 2 * num_errors:
            raise ValueError(
                f"{m.rows} rows at width {m.width} cannot correct {num_errors} errors"
            )
        flat, streams = observed.flat, observed.cols
        if num_errors:
            flat = flat[:]
            for j in range(streams):
                flat[j::streams] = self._correct(flat[j::streams], num_errors)
        top = FieldMatrix._of_flat(observed.field, flat[:m.width * streams], streams)
        return self._inverse.mul(top)

    def _correct(self, observed, num_errors: int) -> list[int]:
        """The codeword Gao's algorithm finds within num_errors of the observations."""
        m = self.matrix
        q = m.field.q
        r0, r1 = self._locator, _trim(
            [sum(map(mul, col, observed)) % q for col in self._interp]
        )
        v0, v1 = [], [1]
        while 2 * (len(r1) - 1) >= m.rows + m.width:
            quot, rem = _divmod(r0, r1, q)
            r0, r1 = r1, rem
            v0, v1 = v1, _sub(v0, _mul(quot, v1, q), q)
        g, rem = _divmod(r1, v1, q)
        threshold = m.rows - num_errors
        if not rem and len(g) <= m.width:
            codeword = [sum(map(mul, row, g)) % q for row in self._codeword]
            if sum(map(eq, codeword, observed)) >= threshold:
                return codeword
        raise DecodingFailure(
            f"no candidate agreed on >= {threshold} of {m.rows} rows; "
            f"more than {num_errors} corrupted answers"
        )


@lru_cache(maxsize=4096)
def decoder_for(matrix: DecodingMatrix) -> RobustDecoder:
    """Memoized decoder lookup; DecodingMatrix is immutable and hashable."""
    return RobustDecoder(matrix)

