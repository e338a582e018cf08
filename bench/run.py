"""The helam benchmark.  Run it from the root of a checkout:

    python3 bench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Workloads: chain, interleave, acceptance, frontend (see bench/passes.py and
bench/README.md).  It repeats passes of the workload for about
--seconds seconds, at least MIN_PASSES of them.  Each pass is one process,
started after the previous one has ended, so no cache carries over between
passes and nothing runs alongside the pass being timed.  With --trace 1,
untraced and traced passes alternate; the traced ones give the per-layer
metrics, and the difference between the two gives the tracing overhead.

Times are in seconds at a nominal machine speed.  Between operations, every
pass times short chunks of reference work (reference_chunk in
bench/passes.py), and the pass's times are scaled by NOMINAL_CHUNK_S over
its median chunk time.  On the 2-vCPU machine the bounds were set on, the
speed drifted by up to 1.7x within minutes, and unscaled medians moved with
it.  The raw times are printed too.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names and units
come from BENCHMARK.json.  `correct` is false when an output missed its known
answer or when the counts (steps, messages, states, terminals, operations)
differ between passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain", "interleave", "acceptance", "frontend")
MIN_PASSES = 3        # untraced passes in a run with --trace 0
MIN_TRACED = 2        # untraced and traced passes each, with --trace 1
RUN_LIMIT_S = 170     # a run ends within 180 s, whatever --seconds says
CHAIN_STACK_BYTES = 1 << 30
NOMINAL_CHUNK_S = 0.03  # a reference chunk's time at the nominal speed
# the power of the speed scale by which a per-layer metric moves, by unit
TIME_UNITS = {"s": 1, "us": 1, "1/s": -1}


class PassFailed(RuntimeError):
    """A pass process crashed, timed out or printed no result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def raise_stack_limit() -> None:
    """Give chain passes a deep C stack; they also raise the recursion
    limit, and deep frozen-dataclass hashing recurses in C."""
    soft, hard = resource.getrlimit(resource.RLIMIT_STACK)
    if soft == resource.RLIM_INFINITY or soft >= CHAIN_STACK_BYTES:
        return
    if hard != resource.RLIM_INFINITY:
        target = min(hard, CHAIN_STACK_BYTES)
    else:
        target = CHAIN_STACK_BYTES
    resource.setrlimit(resource.RLIMIT_STACK, (target, hard))


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "passes.py"), workload, str(seed),
           "1" if traced else "0"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as err:
        raise PassFailed(f"{workload} pass timed out") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # CLOCK_MONOTONIC is system-wide on Linux, so the child's reading of it
    # at its first timed call is comparable with ours at spawn time.
    result["setup_s"] = result.pop("first_call") - spawned
    result["duration_s"] = time.monotonic() - spawned
    result["traced"] = traced
    result["scale"] = NOMINAL_CHUNK_S / statistics.median(result["chunks_s"])
    return result


def median_of(passes, key, power=1):
    """Median over the passes of a value scaled to the nominal speed."""
    return statistics.median(p[key] * p["scale"] ** power for p in passes)


def end_to_end(untraced: list[dict]) -> dict:
    """Medians over the passes; a pass's latency percentiles are taken over
    its own programs first."""
    for p in untraced:
        cuts = statistics.quantiles(p["latencies_ms"], n=100,
                                    method="inclusive")
        p["p50_ms"], p["p99_ms"] = cuts[49], cuts[98]
    times = ("setup_s", "wall_s", "check_s", "p50_ms", "p99_ms")
    out = {key: median_of(untraced, key) for key in times}
    out["program_p50_ms"] = out.pop("p50_ms")
    out["program_p99_ms"] = out.pop("p99_ms")
    out["peak_rss_mb"] = median_of(untraced, "peak_rss_mb", power=0)
    return out


def per_layer(untraced: list[dict], traced: list[dict], units: dict) -> dict:
    out = {}
    for name in set().union(*(p["layers"] for p in traced)):
        power = TIME_UNITS.get(units.get(name), 0)
        out[name] = statistics.median(p["layers"][name] * p["scale"] ** power
                                      for p in traced if name in p["layers"])
    out["trace.overhead_s"] = (median_of(traced, "wall_s")
                               - median_of(untraced, "wall_s"))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "helam" / "__init__.py").is_file():
        print(f"bench: no helam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "chain":
        raise_stack_limit()
    minimum = MIN_TRACED if args.trace else MIN_PASSES
    started = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        try:
            result = run_pass(args.workload, args.seed, want_trace,
                              started + RUN_LIMIT_S)
        except PassFailed as err:
            print(f"bench: {err}", file=sys.stderr)
            return 1
        (traced if want_trace else untraced).append(result)
        elapsed = time.monotonic() - started
        enough = (len(untraced) >= minimum
                  and (not args.trace or len(traced) >= minimum))
        if elapsed + result["duration_s"] > RUN_LIMIT_S or (
                enough and elapsed + result["duration_s"] > args.seconds):
            break

    passes = untraced + traced
    for n, p in enumerate(passes, start=1):
        kind = "traced" if p["traced"] else "untraced"
        print(f"pass {n} ({kind}): raw setup {p['setup_s']:.3f} s, "
              f"wall {p['wall_s']:.3f} s, check {p['check_s']:.4f} s, "
              f"{len(p['latencies_ms'])} programs, speed scale "
              f"{p['scale']:.3f}")
        for failure in p["failures"]:
            print(f"  failed: {failure}", file=sys.stderr)
    fingerprint = passes[0]["counts"]
    deterministic = all(p["counts"] == fingerprint for p in passes)
    if not deterministic:
        print("bench: counts differ between passes", file=sys.stderr)
    print("counts per pass: " + json.dumps(fingerprint, sort_keys=True))
    print(f"samples: {len(untraced)} untraced passes, {len(traced)} traced, "
          f"{sum(len(p['latencies_ms']) for p in untraced)} program latencies")

    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(untraced, traced,
                           {m["name"]: m["unit"] for m in wanted})
    else:
        values, wanted = end_to_end(untraced), spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]],
                                       "unit": metric["unit"]}
        else:
            print(f"bench: {metric['name']} is absent", file=sys.stderr)
    attempted = sum(p["counts"].get("ops.attempted", 0) for p in passes)
    failed = sum(p["counts"].get("ops.failed", 0) for p in passes)
    print(json.dumps({"correct": deterministic and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
