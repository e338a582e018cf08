"""The benchmark's contract with helam.

`bench/passes.py` imports names from helam and reads fields of its results.
Loading it here, without running `main`, makes renaming or deleting one of
those names fail the tests instead of the benchmark.
"""

import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

from helam.network import Exploration

PASSES = Path(__file__).resolve().parent.parent / "bench" / "passes.py"


def test_bench_passes_loads_against_helam(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_passes", PASSES)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it loads
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)  # runs every `from helam ... import`
    assert callable(module.main)


def test_exploration_has_the_fields_the_bench_reads():
    names = {f.name for f in fields(Exploration)}
    assert {"terminals", "deadlocks", "states", "complete"} <= names
