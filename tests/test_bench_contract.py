"""The benchmark's contract with helam.

`bench/passes.py` imports names from helam and reads fields of its results.
Loading it here, without running `main`, makes renaming or deleting one of
those names fail the tests instead of the benchmark.  A traced pass also
reads the network caches' `cache_info()` by name and drops a hit rate whose
cache is gone, so two short traced passes run here in full.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from helam.network import Exploration

ROOT = Path(__file__).resolve().parent.parent
PASSES = ROOT / "bench" / "passes.py"
RUN = ROOT / "bench" / "run.py"


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


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _not_strict_json(constant: str):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("workload", ["chain", "interleave"])
def test_traced_pass_reports_every_layer_metric(workload):
    """A traced pass ends with one strict-JSON line that holds every
    per-layer metric of BENCHMARK.json, finite, and no failures.  Only
    `trace.overhead_s` is left to run.py, which compares passes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # run.py gives chain passes a deep C stack; do the same
    deep_stack = _load_run().raise_stack_limit if workload == "chain" else None
    proc = subprocess.run(
        [sys.executable, str(PASSES), workload, "1", "1"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300, preexec_fn=deep_stack)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_not_strict_json)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in spec["per_layer"]
              if m["name"] != "trace.overhead_s"]
    layers = result["layers"]
    assert [name for name in wanted if name not in layers] == []
    assert [name for name in wanted if not math.isfinite(layers[name])] == []
    assert result["failures"] == []
