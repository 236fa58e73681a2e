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
system, re-encode, accept a candidate agreeing on rows - num_errors rows) on
every input, in polynomial time.

``RobustDecoder.decode_rounds`` is the one round decoder (successive decoding
with interference cancellation), for retrieval and PSDMM alike: each round is
a rows x S residue matrix, one column per stream (S = 1 for retrieval,
lambda*mu for PSDMM), and ``RobustDecoder.solve`` corrects each column on its
own and solves all of them with one product by the square inverse.  Whether
that product is one ``matvec`` or a packed product is ``FieldMatrix.mul``'s
choice, by the operand's shape.

Everything a decoder needs besides the observations is a per-matrix
constant, built once and kept on the memoized ``RobustDecoder``: the square
inverse, Gao's locator, interpolation and codeword tables (read off the
Vandermonde matrix of the row points and its one inverse), and the offset
matrices O_k (round k+1's known contribution of the earlier rounds, read off
the matrix's Cauchy entries).
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
        self._inverse = matrix.matrix().row_submatrix(range(matrix.width)).inverse()
        self._offsets: dict[int, FieldMatrix] = {}
        if matrix.rows > matrix.width:  # a square matrix corrects no errors
            self._init_gao()

    def _init_gao(self):
        m = self.matrix
        q, rows = m.field.q, m.rows
        # V[n][j] = a_n^j (j <= rows): its square part evaluates polynomials of
        # degree < rows at the row points a_n, and its one inverse interpolates
        alphas = [m.points.alpha[n - 1] for n in m.row_servers]
        vander = [[pow(a, j, q) for j in range(rows + 1)] for a in alphas]
        square = [v for row in vander for v in row[:rows]]
        inverse = FieldMatrix._of_flat(m.field, square, rows).inverse().data
        # G(x) = prod_n (x - a_n) is x^rows minus the interpolant of the a_n^rows
        top = [row[rows] for row in vander]
        self._locator = [-sum(map(mul, row, top)) % q for row in inverse] + [1]
        # row j of the interpolation table gives coefficient j of g0 through the
        # z_n = P(a_n) y_n; codeword row n evaluates g at a_n, divided by P(a_n)
        scale = [prod(f - a for f in m.points.f) % q for a in alphas]
        self._interp = [[v * p % q for v, p in zip(row, scale)] for row in inverse]
        unscale = [pow(p, q - 2, q) for p in scale]
        self._codeword = [[v * u % q for v in row[:m.width]] for row, u in zip(vander, unscale)]

    def candidates(self, observed):
        """Yield (subset, solution, agreement count) for every width-subset.

        Used by no decode; kept because ``perfbench/tracing.py`` patches it.
        """
        m = self.matrix
        full = m.matrix()
        data, q = full.data, m.field.q
        for subset in combinations(range(m.rows), m.width):
            x = full.row_submatrix(subset).inverse().matvec(
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
        layer l+1 in row n's round-(k+1) observation, the row order of
        ``decode_rounds``'s symbols.  Built once per k from the matrix's
        Cauchy entries (no new inverse) and kept.
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

    def decode_rounds(self, rounds, num_errors: int) -> FieldMatrix:
        """The L*K_c x S desired symbols, row L*k + l for round k+1, layer l+1.

        ``rounds[k]`` is round k+1's rows x S residue matrix, one column per
        stream.  Round k+1 subtracts the earlier rounds' known contribution,
        sum_l sum_(j<k) c_lj / (f_l - a_n)^(k-j+1), as one product of
        ``offsets(k)`` by the symbols decoded so far, then keeps the first L
        rows of one ``solve``, up to num_errors corrupted rows per stream.
        """
        m = self.matrix
        field, streams = m.field, rounds[0].cols if rounds else 0
        if not rounds or any((r.rows, r.cols, r.field) != (m.rows, streams, field) for r in rounds):
            raise ValueError(f"need one or more rounds, each {m.rows} x S over GF({field.q})")
        q, keep = field.q, m.cauchy_cols * streams
        decoded = self.solve(rounds[0], num_errors).flat[:keep]
        for k in range(1, len(rounds)):
            known = self.offsets(k).mul(FieldMatrix._of_flat(field, decoded, streams))
            observed = FieldMatrix._of_flat(
                field, [(y - o) % q for y, o in zip(rounds[k].flat, known.flat)], streams
            )
            decoded += self.solve(observed, num_errors).flat[:keep]
        return FieldMatrix._of_flat(field, decoded, streams)

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

