"""Tests of the benchmark itself: determinism of counts, seeds, and smoke runs.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

# Few enough ops to stay quick; byzantine reaches its first over-budget op (7).
SMOKE_OPS = {"bulk": 2, "byzantine": 9, "desk": 2, "psdmm": 2}
COUNT_SUFFIXES = (".calls", ".symbols", "_symbols", ".hits", ".misses")
COUNT_NAMES = {
    "audit.states_enumerated", "robust.candidates_scanned",
    "robust.decoding_failures", "trace.spans",
}


def _bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--ops", str(SMOKE_OPS[workload]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _input_digest(name: str, seed: int) -> str:
    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    return hashlib.sha256(pickle.dumps([wl.inputs(i) for i in range(8)])).hexdigest()


@pytest.mark.parametrize("name", run.NAMES)
def test_smoke_run_passes_checks_and_prints_declared_metrics(name):
    final = _bench(name, 1, 0)
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= SMOKE_OPS[name]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in final["metrics"].values())


@pytest.mark.parametrize("name", run.NAMES)
def test_counts_repeat_exactly_for_one_seed(name):
    first, second = _bench(name, 3, 1), _bench(name, 3, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _declared("per_layer")
    counts = {
        k for k in first["metrics"]
        if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES
    }
    assert any(first["metrics"][k]["value"] for k in counts)
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


@pytest.mark.parametrize("name", run.NAMES)
def test_second_seed_changes_inputs_and_still_passes(name):
    assert _input_digest(name, 1) == _input_digest(name, 1)
    assert _input_digest(name, 1) != _input_digest(name, 2)
    final = _bench(name, 2, 0)
    assert final["correct"] and final["failed"] == 0


def test_wrong_output_is_counted_and_fails_the_run(monkeypatch, capsys):
    from xstpir import sim

    real_decode = sim.decode

    def off_by_one(answers, points, params):
        out = real_decode(answers, points, params)
        return [(out[0] + 1) % points.field.q] + out[1:]

    monkeypatch.setattr(sim, "decode", off_by_one)
    assert run.main(["--workload", "desk", "--seed", "1", "--ops", "2"]) == 1
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not final["correct"] and final["failed"] == 2


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    durations = [i / 1000 for i in range(1, 101)]
    value, pct = run.tail_ms(durations)
    assert value == pytest.approx(90.0) and pct == 90.0
    assert sum(d * 1e3 > value for d in durations) == 10


def test_reference_counts_one_chunk_as_two_milliseconds():
    from hostspeed import Reference, reference_chunk

    ref = Reference()
    t0 = time.perf_counter()
    for _ in range(20):
        reference_chunk()
    # The host's speed may change between the chunks timed here and the
    # reference around them, so only the scale is checked.
    assert 0.02 < ref.normalise(time.perf_counter() - t0) < 0.08
    assert ref.chunks > 1
