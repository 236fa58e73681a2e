"""The benchmark's view of xstpir: every name it patches or calls must still work.

``perfbench/tracing.py`` and ``perfbench/workloads.py`` are imported as they
are, without running a benchmark, so a rename or deletion they depend on fails
here in seconds.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import xstpir
from xstpir import audit, linalg, protocol, psdmm, robust, sim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_where_it_is_patched():
    tracing = _load("tracing")
    targets = [(owners, attr) for _, owners, attr, _ in tracing.TARGETS]
    targets.append(((robust.RobustDecoder,), "candidates"))
    for owners, attr in targets:
        for owner in owners:
            assert attr in owner.__dict__, f"{owner.__name__} no longer binds {attr}"
    assert callable(robust.decoder_for.cache_info)


def test_every_exported_name_resolves():
    assert [name for name in xstpir.__all__ if not hasattr(xstpir, name)] == []


@pytest.mark.parametrize("name", ["bulk", "byzantine", "desk", "psdmm"])
def test_every_workload_runs_one_checked_op(name):
    workloads = _load("workloads")
    workload = workloads.WORKLOADS[name](seed=1)
    workload.setup()
    inp = workload.inputs(0)
    assert workload.check(inp, workload.op(inp)) is None
    if name != "desk":  # the derived layout stays in the provenance; desk's is text
        derived = {"layers", "block_count" if name == "psdmm" else "message_len"}
        assert derived <= set(workload.describe()["params"])
    else:  # desk also runs the audit battery, and counts a wrong verdict as a failed op
        for k in range(len(workloads.AUDIT_BATTERY)):
            assert workload.audit_problem(k, workload.audit(k)) is None


def test_desk_memos_hold_the_whole_grid():
    """A second pass over desk's ``params_grid`` misses no memo.

    Desk revisits its 435 tuples every op, so an LRU smaller than their keys
    would evict each key before its next use and miss on every lookup.
    """
    desk = _load("workloads").WORKLOADS["desk"](seed=1)
    desk.setup()
    inp = desk.inputs(0)
    memos = (
        protocol.coefficient_table, protocol._default_points, linalg._word_slots,
        audit.rate_report,
    )
    desk.op(inp)
    misses = [memo.cache_info().misses for memo in memos]
    desk.op(inp)
    assert [memo.cache_info().misses for memo in memos] == misses


def test_field_and_linalg_alone_own_the_residue_contract():
    """``field`` reduces what enters and ``linalg`` packs, reduces and reads back
    every product: no other module binds the slot layout or the caller reducer."""
    owned = {"_ORDER", "_word_slots", "_pack", "residues"}
    for module in (protocol, psdmm, audit, sim, robust):
        assert owned.isdisjoint(vars(module)), f"{module.__name__} binds {owned & set(vars(module))}"


def test_silent_servers_are_not_asked_to_answer(monkeypatch):
    """A session asks only its N - |U| responsive servers for an answer.

    A silent server's answer is never delivered and no liar replays it, so
    desk op 0's transcripts keep the digest they had when every server was asked.
    """
    desk = _load("workloads").WORKLOADS["desk"](seed=1)
    desk.setup()
    asked = []
    answer = sim.server_answer
    monkeypatch.setattr(
        sim, "server_answer", lambda s, qb: asked.append(s.server) or answer(s, qb)
    )
    transcripts = []
    for p, adv, theta, seed in desk.inputs(0):  # what ``desk.op`` runs, one session at a time
        asked.clear()
        transcripts.append(sim.run_session(p, adv, theta, seed))
        assert asked == [n for n in range(1, p.num_servers + 1) if n not in adv.unresponsive]
    digest = hashlib.sha256("\n".join(t.to_json() for t in transcripts).encode()).hexdigest()
    assert digest == "7a5940ab9e96388869c942b0e385d99f81f9ffec6749c759a913f417f209dcad"


def test_package_does_not_import_numpy():
    """Importing xstpir and every submodule, cli included, leaves numpy unloaded.

    Importing numpy raises a process's peak resident memory from about 20 MB
    to about 33 MB, which the pure-Python kernels in ``linalg`` avoid.
    """
    script = (
        "import importlib, pkgutil, sys, xstpir\n"
        "names = [m.name for m in pkgutil.iter_modules(xstpir.__path__)]\n"
        "assert 'cli' in names, names\n"
        "for name in names:\n"
        "    importlib.import_module('xstpir.' + name)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(xstpir.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src}, timeout=60,
    )
    assert out.stdout.strip() == "False"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_workload_outputs_keep_their_digests():
    """Byzantine ops 0..8 (op 7 over budget), bulk op 0 and psdmm op 0 keep their bytes.

    At seed 1, byzantine pins each transcript's JSON, bulk the answer scalars
    and the decode, psdmm the answer blocks and the decoded blocks, so a
    change meant to leave the outputs alone is held to the same sha256.
    """
    workloads = _load("workloads")
    byzantine, bulk, psdmm = (
        workloads.WORKLOADS[name](seed=1) for name in ("byzantine", "bulk", "psdmm")
    )
    for w in (byzantine, bulk, psdmm):
        w.setup()
    assert [_sha256(byzantine.op(byzantine.inputs(i)).to_json()) for i in range(9)] == [
        "5c66c0688ac958d83dc51677503170d2b58f06fe3302ff538cd56a1f88878dae",
        "357bd8b9202878137bfeb341f820c270d0a5d1091325371712e30fb33913a860",
        "3f6d46775465ffd5a29204b5f83e80f91258930c96f9d403dc0bc8f6f2e689dd",
        "e5963f30a1bb132e547a0c7f1ae5e4b1de96f8b3182944290b6e37b65af86c69",
        "4812f2f091abef57d94daadd5607b093c2ce791a85813d85cf21fac4fbae23d4",
        "c8761a26db591338e21bfa8b9f6ead293028c1f479811d22f84c81d9bfb37769",
        "bb533d7db47b98239465269460c292f384cb80da797fc4922270029d3cdcb68b",
        "388d1c9e92f1d9f3a3f8854df55d9c4f3382ab8a1070c9b932fb7f6c9be5c027",
        "8b4e3f1755b16816207b57be7132e4911f085edb26830714893b648a3359c313",
    ]
    answers, decoded = bulk.op(bulk.inputs(0))
    assert _sha256(json.dumps([[a.scalars for a in answers], decoded])) == (
        "f5ae6d5904a406d16a84256b7980b0d6f3bc961efe84a6e244b56e7ddcbb35db"
    )
    _, blocks, products = psdmm.op(psdmm.inputs(0))
    blocks = [[y.data for y in rounds] for rounds in blocks]
    assert _sha256(json.dumps([blocks, [m.data for m in products]])) == (
        "0706eb73047b61fdb0b975330e105522bb683af954055eca61d2c53380b41278"
    )


def test_workload_setups_keep_their_digests():
    """Bulk's stored shares and psdmm's library shares keep their bytes.

    At seed 1, bulk pins ``shares.flat`` of every server (the packed storage
    path with three terms) and psdmm ``.flat`` of every B-share block (the
    blocks ``share_b`` cuts), which the op digests reach only through the
    answers.
    """
    workloads = _load("workloads")
    bulk, psdmm = (workloads.WORKLOADS[name](seed=1) for name in ("bulk", "psdmm"))
    bulk.setup()
    psdmm.setup()
    assert _sha256(json.dumps([s.shares.flat for s in bulk.storages])) == (
        "a09bfd4617c0a239bb1b4b0cb9a812cc3ecb75cc617703583bf6345a7e98c18c"
    )
    assert _sha256(json.dumps([[m.flat for m in blocks] for blocks in psdmm.b_shares])) == (
        "f0650f9602b65c5b4ea325cba2bc677253ec1bf4d350ce708a02f63fa97205aa"
    )
