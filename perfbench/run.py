"""Benchmark entry point for xstpir: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in this process, single-threaded, for ``--seconds`` (or
exactly ``--ops`` ops).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, whose times are normalised to the host's speed (see
``hostspeed``); the wall-clock figures are printed and kept in the result
file.  With ``--trace 1`` the public functions of ``xstpir`` are wrapped in
spans and the last line carries the per-layer metrics, in wall time.  ``--workload all``
runs every workload untraced and traced, each in a fresh process, and prints
every metric with its unit plus the tracing overhead.  The full result,
provenance included, goes to ``perfbench/out/``.  The exit code is nonzero
when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
NAMES = ("bulk", "byzantine", "desk", "psdmm")
SETUP_REPEATS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WAIT_NOTE = "no layer waits on a queue: single-threaded, delivery is in-process"
END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _load_package():
    """Import xstpir from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "xstpir" / "__init__.py").is_file():
        sys.exit(f"perfbench: no xstpir sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import xstpir

    if Path(xstpir.__file__).resolve().parent != SRC / "xstpir":
        sys.exit(f"perfbench: imported xstpir from {xstpir.__file__}, not {SRC}")


def tail_ms(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1] * 1e3, 100.0
    return ordered[n - 11] * 1e3, 100.0 * (n - 10) / n


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(wl, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": wl.describe(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, totals, cache_delta, ops_per_s, audit_s) -> dict:
    """Every per-layer metric of a traced run, as name -> (value, unit)."""
    from tracing import OP, TARGETS

    calls, incl, self_s, _ = totals
    counts = tracer.counts
    m = {}
    for name, *_ in TARGETS:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (incl[name], "s")
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in (
        "field.random_vector.symbols", "protocol.encode_storage.symbols",
        "protocol.upload_symbols", "protocol.download_symbols",
        "psdmm.upload_symbols", "psdmm.download_symbols",
        "robust.candidates_scanned", "audit.states_enumerated",
    ):
        m[name] = (counts[name], "count")
    m["robust.useful_ratio"] = (
        _ratio(counts["robust.consensus_solves"], counts["robust.candidates_scanned"]), "ratio")
    m["robust.decoding_failures"] = (
        counts["robust.RobustDecoder.solve.raised.DecodingFailure"], "count")
    hits, misses = cache_delta
    m["robust.decoder_cache.hits"] = (hits, "count")
    m["robust.decoder_cache.misses"] = (misses, "count")
    m["robust.decoder_cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    audit_total = incl["audit.audit_storage_security"] + incl["audit.audit_query_privacy"]
    m["audit.us_per_state"] = (_ratio(audit_total * 1e6, counts["audit.states_enumerated"]), "us")
    m["audit_set_s"] = (audit_s, "s")
    m["trace.ops_per_s"] = (ops_per_s, "op/s")
    m["trace.coverage"] = (_ratio(incl[OP] - self_s[OP], incl[OP]), "ratio")
    m["trace.spans"] = (len(tracer.start), "count")
    return m


def timing_metrics(durations: list[float], setups: list[float]) -> dict:
    """``ops_per_s``, ``op_ms_tail`` and ``setup_s`` from op and set-up times."""
    return {
        "ops_per_s": len(durations) / sum(durations),
        "op_ms_tail": tail_ms(durations)[0],
        "setup_s": statistics.median(setups),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, ops: int | None) -> dict:
    """Set up, run the closed loop, check every output; return the full result."""
    _load_package()
    from xstpir import robust
    import workloads
    from hostspeed import Reference

    wl = workloads.WORKLOADS[name](seed)
    tracer = ref = None
    if trace:
        from tracing import OP, Tracer

        tracer = Tracer()
    else:
        ref = Reference()
    # Set-up is timed several times, spread over the run, so that its median
    # is not one sample of the host's speed at start-up.  A traced run sets
    # up once, inside the trace.
    # Without tracing, every set-up and op is followed by reference chunks and
    # its time is also kept normalised to the host's speed.
    setup_times: list[float] = []
    setup_ref: list[float] = []
    repeats = 1 if tracer is not None else SETUP_REPEATS
    marks = [k / repeats for k in range(1, repeats)]

    def timed_setup():
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
        if ref is not None:
            setup_ref.append(ref.normalise(setup_times[-1]))

    if tracer is not None:
        tracer.install()
    timed_setup()

    cache0 = robust.decoder_for.cache_info()
    durations: list[float] = []
    durations_ref: list[float] = []
    failures: list[str] = []
    loop_start = perf_counter()
    i = 0
    while (i < ops) if ops else (perf_counter() - loop_start < seconds):
        progress = i / ops if ops else (perf_counter() - loop_start) / seconds
        while marks and progress >= marks[0]:
            marks.pop(0)
            timed_setup()
        inp = wl.inputs(i)
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            out = tracer.span(OP, wl.op, inp) if tracer is not None else wl.op(inp)
        except Exception:
            t1 = perf_counter()
            problem = traceback.format_exc(limit=-3)
        else:
            t1 = perf_counter()
            problem = wl.check(inp, out)
        durations.append(t1 - t0)
        if ref is not None:
            durations_ref.append(ref.normalise(t1 - t0))
        if problem is not None:
            failures.append(f"op {i}: {problem}")
        i += 1
    attempted = i
    for _ in marks:
        timed_setup()

    audit_s = 0.0
    if isinstance(wl, workloads.Desk):
        if tracer is not None:
            tracer.op_id = -2
        verdicts = []
        t0 = perf_counter()
        for k in range(len(workloads.AUDIT_BATTERY)):
            try:
                verdicts.append(wl.audit(k))
            except Exception:
                verdicts.append(traceback.format_exc(limit=-3))
        audit_s = perf_counter() - t0
        if ref is not None:
            audit_s = ref.normalise(audit_s)
        for k, v in enumerate(verdicts):
            problem = v if isinstance(v, str) else wl.audit_problem(k, v)
            if problem is not None:
                failures.append(f"audit {k}: {problem}")
        attempted += len(verdicts)
    cache1 = robust.decoder_for.cache_info()
    if tracer is not None:
        tracer.uninstall()

    wall = timing_metrics(durations, setup_times)
    ops_per_s = wall["ops_per_s"]
    tail_pct = tail_ms(durations)[1]
    result = {
        "workload": name,
        "trace": int(trace),
        "provenance": provenance(wl, seed),
        "ops": len(durations),
        "attempted": attempted,
        "failed": len(failures),
        "failed_fraction": len(failures) / attempted,
        "failures": failures[:20],
        "tail_percentile": tail_pct,
        "tail_samples": len(durations),
        "setup_times_s": setup_times,
        "wait": WAIT_NOTE,
        "wall": {**wall, "op_ms_p50": statistics.median(durations) * 1e3},
    }
    if isinstance(wl, workloads.Desk):
        result["audit_set_s"] = audit_s
    if tracer is not None:
        cache_delta = (cache1.hits - cache0.hits, cache1.misses - cache0.misses)
        totals = tracer.totals()
        per_layer = per_layer_metrics(tracer, totals, cache_delta, ops_per_s, audit_s)
        result["per_layer"] = {k: v for k, (v, _) in per_layer.items()}
        result["units"] = {k: u for k, (_, u) in per_layer.items()}
        op_self = totals[3]
        op_wall = sum(durations)
        result["op_self_share"] = {
            k: v / op_wall for k, v in sorted(op_self.items(), key=lambda kv: -kv[1])
        }
        OUT.mkdir(exist_ok=True)
        result["spans_file"] = str(
            OUT.relative_to(ROOT) / f"{name}-seed{seed}-spans.tsv.gz")
        tracer.write(ROOT / result["spans_file"])
    else:
        result["end_to_end"] = {
            **timing_metrics(durations_ref, setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["units"] = dict(END_TO_END_UNITS)
        result["op_ms_p50"] = statistics.median(durations_ref) * 1e3
        result["reference"] = {
            "chunks": ref.chunks,
            "chunk_ms_mean": ref.chunk_s / ref.chunks * 1e3,
            "setup_times_ref_s": setup_ref,
        }
    return result


def report(result: dict) -> dict:
    """Print the human summary and return the final-line JSON object."""
    name = result["workload"]
    print(f"# {name}: {result['ops']} ops, {result['attempted']} attempted, "
          f"{result['failed']} failed; {result['wait']}")
    for msg in result["failures"]:
        print(f"# FAILED {msg}")
    if result["trace"]:
        metrics = result["per_layer"]
        top = list(result["op_self_share"].items())[:6]
        print("# op self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    else:
        metrics = result["end_to_end"]
        print(f"{name} failed_fraction {result['failed_fraction']} ratio")
        print(f"{name} tail = p{result['tail_percentile']:.2f} of {result['tail_samples']} samples")
        print(f"# wall clock; reference chunk {result['reference']['chunk_ms_mean']:.4f} ms mean")
        for k, v in result["wall"].items():
            print(f"{name} wall.{k} {v} {END_TO_END_UNITS.get(k, 'ms')}")
        print("# normalised to 2 ms per reference chunk")
        if "audit_set_s" in result:
            print(f"{name} audit_set_s {result['audit_set_s']} s")
        print(f"{name} op_ms_p50 {result['op_ms_p50']} ms")
    for k, v in metrics.items():
        print(f"{name} {k} {v} {result['units'][k]}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        finals = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            if done.returncode not in (0, 1) or not lines:
                sys.exit(f"perfbench: {name} trace={trace} exited {done.returncode}")
            finals[trace] = json.loads(lines[-1])
            combined["correct"] &= finals[trace]["correct"]
            combined["attempted"] += finals[trace]["attempted"]
            combined["failed"] += finals[trace]["failed"]
        for k, v in finals[0]["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        untraced = json.loads((OUT / f"{name}-seed{seed}-trace0.json").read_text())
        overhead = finals[1]["metrics"]["trace.ops_per_s"]["value"] / untraced["wall"]["ops_per_s"]
        print(f"{name} trace_overhead {overhead:.4f} ratio (traced / untraced wall ops_per_s)")
        combined["metrics"][f"{name}.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, help="run exactly this many ops instead of --seconds")
    args = ap.parse_args(argv)
    # Pin native thread pools before xstpir (or a numpy it may import) loads,
    # so no kernel can oversubscribe the CPUs; child processes inherit this.
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.workload == "all":
        _load_package()
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    final = report(result)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
