"""Host-speed reference: fixed pure-Python work timed next to every op.

The speed of a shared vCPU is not constant: on the 2-vCPU VM these figures
come from, fixed Python code runs up to 1.6x slower for anything from a
fraction of a second to minutes, when the host is busy elsewhere.  An op's
wall time mixes the program's cost with the share of the run the host spent
slow, and that share differs from run to run.

So every timed section is followed by reference chunks: fixed work of the
kinds the program does (see ``reference_chunk``), which no change to
``xstpir`` can touch.  The chunks take half as long as the section they
follow.  A section's normalised time is its wall time divided by the mean
chunk time measured just before and just after it, counted so that one chunk
is 2 ms, about its wall time when the host is in its fast state.  The host's
slow spells stretch the section and its neighbouring chunks alike, and
cancel out.  The same code on a uniformly faster host gives the same
normalised time; a faster program gives a smaller one.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

CHUNK_REF_S = 2e-3
SHARE = 0.5
_Q = 2**31 - 1
_M = 2**31 - 19
_P = 257
_ROW = list(range(1, 8001))


@dataclass(frozen=True)
class _Point:
    x: int
    weight: int


def _inverse_mod_p(m: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan inverse of an invertible matrix over GF(257)."""
    n = len(m)
    a = [row[:] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c])
        a[c], a[pivot] = a[pivot], a[c]
        k = pow(a[c][c], -1, _P)
        a[c] = [x * k % _P for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % _P for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def reference_chunk() -> int:
    """One reference chunk: a fixed mix of the kinds of work ``xstpir`` does.

    A scalar loop of 62-bit products reduced mod 2^31-1, a list comprehension
    of the same over an 8000-element list, and three 7x7 Vandermonde inverses
    over GF(257) built from small frozen dataclasses.  Each kind slows by a
    different factor when the host is busy, so no one kind's factor sets the
    reference.
    """
    s = 0
    for i in range(2000):
        s = (s * _M + i) % _Q
    s += sum([x * _M % _Q for x in _ROW])
    for shift in range(3):
        points = [_Point(shift + i + 1, shift * i % _P) for i in range(7)]
        inv = _inverse_mod_p([[pow(p.x, j, _P) for j in range(7)] for p in points])
        s += sum(map(sum, inv)) + sum(p.weight for p in points)
    return s % _Q


class Reference:
    """Normalises wall times by the chunk times measured around them."""

    def __init__(self):
        self.chunks = 0
        self.chunk_s = 0.0
        self.last = self._run(0.02)

    def _run(self, target: float) -> float:
        """Run chunks until ``target`` seconds have passed (at least one); mean chunk time."""
        done, total = 0, 0.0
        while True:
            t0 = perf_counter()
            reference_chunk()
            total += perf_counter() - t0
            done += 1
            if total >= target:
                break
        self.chunks += done
        self.chunk_s += total
        return total / done

    def normalise(self, wall: float) -> float:
        """Reference seconds for a section that just took ``wall`` seconds."""
        before = self.last
        self.last = self._run(SHARE * wall)
        return wall / ((before + self.last) / 2) * CHUNK_REF_S
