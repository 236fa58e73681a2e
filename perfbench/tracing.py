"""Span tracing around the public functions of ``xstpir``, from outside the package.

Each traced name is patched where its callers look it up: a module-level
function on every module that imported it by name (``sim`` and ``audit`` call
``encode_storage`` through their own globals), a method or classmethod on its
class.  A span records name, start, end, parent span and op id; spans are held
in flat arrays and written out once, when the run ends.  Counts (symbols moved,
candidates scanned, exceptions raised) are taken at the same boundaries, after
the span's end time is read, so counting is never charged to the layer; a
count hook also runs when the call raised, with ``result`` None.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter

from xstpir import audit, field, linalg, protocol, psdmm, robust, sim

OP = "op"


def _count_random_vector(counts, args, result):
    counts["field.random_vector.symbols"] += args[2]


def _count_encode(counts, args, result):
    p = args[3]
    counts["protocol.encode_storage.symbols"] += p.num_servers * p.layers * p.num_messages


def _count_queries(counts, args, result):
    p = args[3]
    counts["protocol.upload_symbols"] += (
        p.num_servers * p.code_dim * p.layers * p.num_messages
    )


def _count_decode(counts, args, result):
    answers = args[0]
    bundles = answers.values() if isinstance(answers, dict) else answers
    counts["protocol.download_symbols"] += sum(len(ab.scalars) for ab in bundles)


def _count_solve(counts, args, result):
    if result is not None and args[2] > 0:
        counts["robust.consensus_solves"] += 1


def _count_states(counts, args, result):
    if result is not None:
        counts["audit.states_enumerated"] += result.states_enumerated


def _count_share_a(counts, args, result):
    p = args[3]
    counts["psdmm.upload_symbols"] += p.num_servers * p.layers * p.rows_a * p.inner_dim


def _count_psdmm_decode(counts, args, result):
    counts["psdmm.download_symbols"] += sum(m.rows * m.cols for rounds in args[0] for m in rounds)


# (span name, owners that look the name up, attribute, count hook)
TARGETS = (
    ("field.random_vector", (field.PrimeField,), "random_vector", _count_random_vector),
    ("protocol.MessageSet.random", (protocol.MessageSet,), "random", None),
    ("protocol.StorageNoise.random", (protocol.StorageNoise,), "random", None),
    ("protocol.QueryNoise.random", (protocol.QueryNoise,), "random", None),
    ("protocol.encode_storage", (protocol, sim, audit), "encode_storage", _count_encode),
    ("protocol.gen_queries", (protocol, sim, audit), "gen_queries", _count_queries),
    ("protocol.server_answer", (protocol, sim), "server_answer", None),
    ("protocol.decode", (protocol, sim), "decode", _count_decode),
    ("robust.RobustDecoder.solve", (robust.RobustDecoder,), "solve", _count_solve),
    ("linalg.build_decoding_matrix", (protocol, psdmm), "build_decoding_matrix", None),
    ("linalg.FieldMatrix.inverse", (linalg.FieldMatrix,), "inverse", None),
    ("linalg.FieldMatrix.matvec", (linalg.FieldMatrix,), "matvec", None),
    ("linalg.FieldMatrix.mul", (linalg.FieldMatrix,), "mul", None),
    ("sim.run_session", (sim,), "run_session", None),
    ("audit.audit_storage_security", (audit,), "audit_storage_security", _count_states),
    ("audit.audit_query_privacy", (audit,), "audit_query_privacy", _count_states),
    ("psdmm.PsdmmNoise.random", (psdmm.PsdmmNoise,), "random", None),
    ("psdmm.share_a", (psdmm,), "share_a", _count_share_a),
    ("psdmm.share_b", (psdmm,), "share_b", None),
    ("psdmm.psdmm_query", (psdmm,), "psdmm_query", None),
    ("psdmm.psdmm_answer", (psdmm,), "psdmm_answer", None),
    ("psdmm.psdmm_decode", (psdmm,), "psdmm_decode", _count_psdmm_decode),
)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(idx)
                if hook is not None:
                    hook(tracer.counts, args, result)
            return result

        return traced

    def _wrap_candidates(self, gen_fn):
        counts = self.counts

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts["robust.candidates_scanned"] += 1
                yield item

        return counted

    def install(self) -> None:
        for name, owners, attr, hook in TARGETS:
            for owner in owners:
                self._patch(owner, attr, lambda fn: self._wrap(name, fn, hook))
        self._patch(robust.RobustDecoder, "candidates", self._wrap_candidates)

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def totals(self) -> tuple[Counter, Counter, Counter, Counter]:
        """Per-name call count, inclusive seconds, self seconds, and self
        seconds of the spans that ran inside an op."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        op_self: Counter = Counter()
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            if self.op[i] >= 0:
                op_self[name] += dur - child[i]
        return calls, incl, self_s, op_self

    def write(self, path) -> int:
        """Write every span as gzipped tab-separated lines; returns the span count.

        Columns: name, start, end (``perf_counter`` seconds), parent (row
        index of the enclosing span, -1 for none) and op (the op index; -1 is
        set-up, -2 the audit battery).
        """
        names, nids = self.names, self.name_id
        start, end, parent, op = self.start, self.end, self.parent, self.op
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for lo in range(0, len(start), 65536):
                out.write("".join(
                    f"{names[nids[i]]}\t{start[i]!r}\t{end[i]!r}\t{parent[i]}\t{op[i]}\n"
                    for i in range(lo, min(lo + 65536, len(start)))
                ))
        return len(start)
