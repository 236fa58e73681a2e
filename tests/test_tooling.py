"""The traced benchmark patches names in xstpir; they must all still exist.

``perfbench/tracing.py`` is imported as it is, without running a benchmark,
so a rename or deletion it depends on fails here in seconds.
"""

import importlib.util
from pathlib import Path

from xstpir import robust

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_where_it_is_patched():
    tracing = _tracing()
    targets = [(owners, attr) for _, owners, attr, _ in tracing.TARGETS]
    targets.append(((robust.RobustDecoder,), "candidates"))
    for owners, attr in targets:
        for owner in owners:
            assert attr in owner.__dict__, f"{owner.__name__} no longer binds {attr}"
    assert callable(robust.decoder_for.cache_info)
