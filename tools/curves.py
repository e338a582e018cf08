"""Scaling curves of the two steppers, of the frontend and of projection:
microseconds per step of the central `run` and of the network `simulate`,
microseconds per token of `compile_text`, microseconds per behaviour
node of `project_all`, and microseconds per node of `print_expr` on the
compiled core, over chain-n (n nested `com` hops) and let-n (n chained
`let` bindings), for n = 50, 100, 200, ... 1600; and, over
par-n (n disjoint sender/receiver pairs, 2n parties) for n = 2, 4, ... 32,
microseconds per step of `simulate` and per state of `explore`, with the
steps, messages and states of each point.  Each series also reports its
growth per doubling: the factor by which its cost per step (state, token)
grows each time n doubles, the geometric mean from its first point to its
last, a ratio within one invocation and so steadier than the raw points.

Each point runs in a fresh interpreter, so no cache or heap state carries
over from a smaller point.  The program is compiled, and for `simulate`
and `explore` projected into a `Network`, with the recursion limit raised
(the parser and projection still recurse once per nesting level); `run`,
`simulate` and `explore` are timed at the interpreter's default limit, so
a point where the stepper itself recurses too deep is recorded as an
error.  `compile`, `project` and `print` are timed at the raised limit,
since at the default one the parser fails from chain-300 on, and
`project` and `print_expr` still recurse once per nesting level; the
token count includes the closing `eof`, and the node counts, by
`node_count`, are the size of the core and of every party's behaviour as
a tree.  Before every timed run the network's caches are cleared (each
function of `helam.network` with a `cache_clear`) and the network is built
again from its behaviours, so each run steps from scratch, with no
action memoized on a party state; but every run takes the same term,
so the free-variable sets that `subst` and `local_subst` cache on its
nodes are filled by the untimed first run, and a point leaves out their
filling.  A series ends at its first error or at the first point that does
not finish within --max-seconds.

Stdlib only.  Each invocation adds (or replaces) one labelled run in the
output file, with every stage or only those named by --stage (repeatable),
so a before/after pair can be two invocations on the same machine:

    python3 tools/curves.py --label before --src OLD_CHECKOUT/src \\
        --out BENCH_x.json
    python3 tools/curves.py --label after --out BENCH_x.json

The machine's speed drifts between two invocations, so a difference of
less than about 40% per point says little that way.  With `--against
OLD_CHECKOUT/src`, one invocation times each point on both trees instead:
ROUNDS pairs of fresh interpreters, which tree goes first alternating from
pair to pair.  The point keeps this tree's fastest run, adds the other
tree's fastest under "against", and the median over the pairs of this
tree's cost over the other's as "ratio".
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from operator import itemgetter
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SIZES = {"chain": (50, 100, 200, 400, 800, 1600),
         "let": (50, 100, 200, 400, 800, 1600),
         "par": (2, 4, 8, 16, 32)}
# the series of each stage
STAGES = {"run": ("chain", "let"), "simulate": ("chain", "let", "par"),
          "compile": ("chain", "let"), "project": ("chain", "let"),
          "print": ("chain", "let"), "explore": ("par",)}
# the cost per unit of each stage, by which the growth is measured
COST = {"run": "us_per_step", "simulate": "us_per_step",
        "compile": "us_per_token", "project": "us_per_node",
        "print": "us_per_node", "explore": "us_per_state"}
COMPILE_RECURSION_LIMIT = 100_000
# A point is timed REPEATS times and for at least MIN_SECONDS; the fastest
# run is reported, as timeit does.
REPEATS = 5
MIN_SECONDS = 0.5
ROUNDS = 4  # pairs of interpreters per point with --against


def chain_text(n: int) -> str:
    """n nested `com` hops rotating over three parties."""
    names = ("alice", "bob", "carol")
    text = f"()@[{names[0]}]"
    for i in range(n):
        text = f"com[{names[i % 3]}][{names[(i + 1) % 3]}] ({text})"
    return text


def let_text(n: int) -> str:
    """n lets, each binding the previous variable."""
    lines = ["let x0 = ()@[alice];"]
    lines += [f"let x{i + 1} = x{i};" for i in range(n)]
    return "\n".join(lines) + f"\nx{n}"


def par_text(n: int) -> str:
    """n disjoint pairs, each sending one value from p{2i} to p{2i+1}."""
    lines = [f"let x{i} = com[p{2 * i}][p{2 * i + 1}] ()@[p{2 * i}];"
             for i in range(n)]
    everyone = ", ".join(f"p{i}" for i in range(2 * n))
    return "\n".join(lines) + f"\n()@[{everyone}]"


TEXTS = {"chain": chain_text, "let": let_text, "par": par_text}


def fastest(once, reset=lambda: None) -> float:
    """The fastest of at least REPEATS runs of `once` and MIN_SECONDS, each
    after an untimed `reset`, with the cyclic GC off."""
    best, runs, total = float("inf"), 0, 0.0
    gc.disable()
    try:
        while runs < REPEATS or total < MIN_SECONDS:
            reset()
            start = time.perf_counter()
            once()
            took = time.perf_counter() - start
            best, runs, total = min(best, took), runs + 1, total + took
    finally:
        gc.enable()
    return best


def steps_to_value(core) -> int:
    """The contractions `run` makes on core, counted by driving `step` to a
    value.  `run`'s trace prints each redex, and a let's redex holds the
    rest of the program, which `print_expr` recurses through; each let is
    contracted at the root, so the steps cost no descent."""
    from helam.semantics import Stepped, step

    steps = 0
    while isinstance(result := step(core), Stepped):
        core, steps = result.expr, steps + 1
    return steps


def measure_point(series: str, n: int, stage: str = "run") -> dict:
    """Time one stage on one program in this interpreter."""
    from helam import network
    from helam.network import Network, explore, simulate
    from helam.projection import project_all
    from helam.semantics import run
    from helam.surface import compile_text, tokenize
    from helam.syntax import node_count, print_expr

    text = TEXTS[series](n)
    default_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(COMPILE_RECURSION_LIMIT)
    try:
        if stage == "compile":
            tokens = len(tokenize(text))
            compile_text(text)  # warms up
            best = fastest(lambda: compile_text(text))
            return {"n": n, "tokens": tokens, "compile_s": best,
                    "us_per_token": 1e6 * best / tokens}
        core = compile_text(text).core
        if stage == "print":
            print_expr(core)  # warms up
            count = node_count(core)
            best = fastest(lambda: print_expr(core))
            return {"n": n, "nodes": count, "print_s": best,
                    "us_per_node": 1e6 * best / count}
        if stage == "project":
            procs = project_all(core)  # warms up
            count = sum(map(node_count, procs.values()))
            best = fastest(lambda: project_all(core))
            return {"n": n, "behavior_nodes": count, "project_s": best,
                    "us_per_node": 1e6 * best / count}
        if stage in ("simulate", "explore"):
            procs = project_all(core)
    finally:
        sys.setrecursionlimit(default_limit)
    caches = [f for f in vars(network).values() if hasattr(f, "cache_clear")]
    nets = []

    def reset() -> None:
        for cache in caches:
            cache.cache_clear()
        if stage in ("simulate", "explore"):
            nets[:] = [Network(procs)]

    reset()

    def counts() -> dict:
        if stage == "simulate":
            out = simulate(nets[0])
            return {"steps": len(out.trace), "messages": out.messages}
        if stage == "explore":
            return {"states": explore(nets[0]).states}
        if series == "let":
            return {"steps": steps_to_value(core)}
        trace: list = []  # a hop's redex prints in a few characters
        run(core, trace=trace)
        return {"steps": len(trace)}

    once = {"simulate": lambda: simulate(nets[0]),
            "explore": lambda: explore(nets[0]),
            "run": lambda: run(core)}[stage]
    try:
        point = {"n": n, **counts()}  # untimed: counts, warms up
    except RecursionError as err:
        return {"n": n, "error": f"RecursionError in {stage}: {err}"}
    best = fastest(once, reset)
    unit = "states" if stage == "explore" else "steps"
    point[f"{stage}_s"] = best
    point[COST[stage]] = 1e6 * best / point[unit]
    return point


def growth_per_doubling(stage: str, points: list[dict]) -> Optional[float]:
    """The factor by which the cost per unit grows each time n doubles,
    from the first timed point to the last: (last / first) ** (1 /
    doublings).  None with fewer than two timed points."""
    timed = [p for p in points if COST[stage] in p]
    if len(timed) < 2:
        return None
    first, last = timed[0], timed[-1]
    doublings = math.log2(last["n"] / first["n"])
    return (last[COST[stage]] / first[COST[stage]]) ** (1 / doublings)


def fresh_point(stage: str, series: str, n: int, src: Path,
                max_seconds: float) -> dict:
    """One point measured in a fresh interpreter that imports `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, __file__, "--point", stage, series, str(n)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max_seconds)
    except subprocess.TimeoutExpired:
        return {"n": n, "error": f"over {max_seconds:g} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"n": n, "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout)


def paired_point(stage: str, series: str, n: int, src: Path, against: Path,
                 max_seconds: float) -> dict:
    """One point on `src` and on `against`, in ROUNDS pairs of fresh
    interpreters; the tree that goes first alternates, so a drift in the
    machine's speed weighs on both alike.  This tree's fastest point, with
    the other's fastest and the median ratio of their costs."""
    cost = COST[stage]
    mine, theirs, ratios = [], [], []
    for i in range(ROUNDS):
        if i % 2:
            ours = fresh_point(stage, series, n, src, max_seconds)
            other = fresh_point(stage, series, n, against, max_seconds)
        else:
            other = fresh_point(stage, series, n, against, max_seconds)
            ours = fresh_point(stage, series, n, src, max_seconds)
        if "error" in ours or "error" in other:
            return {**ours, "against": other}
        mine.append(ours)
        theirs.append(other)
        ratios.append(ours[cost] / other[cost])
    key = itemgetter(cost)
    return {**min(mine, key=key), "against": min(theirs, key=key),
            "ratio": statistics.median(ratios)}


def curve(stage: str, series: str, src: Path, max_seconds: float,
          against: Optional[Path] = None) -> list[dict]:
    points = []
    for n in SIZES[series]:
        if against is None:
            point = fresh_point(stage, series, n, src, max_seconds)
        else:
            point = paired_point(stage, series, n, src, against, max_seconds)
        points.append(point)
        print(stage, series, json.dumps(point), file=sys.stderr)
        if "error" in point or "error" in point.get("against", {}):
            break
    return points


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", help="name of this run in the output")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the helam source tree to measure")
    parser.add_argument("--against", type=Path, metavar="OLD_SRC",
                        help="a second source tree to time each point "
                             "against, in alternating interpreters")
    parser.add_argument("--out", type=Path, help="JSON file to add the run to")
    parser.add_argument("--note", default="", help="recorded with the run")
    parser.add_argument("--max-seconds", type=float, default=60.0,
                        help="cap on one point, compile and runs included")
    parser.add_argument("--stage", action="append", choices=list(STAGES),
                        help="time only this stage (repeatable; default: "
                             "every stage)")
    parser.add_argument("--point", nargs=3, metavar=("STAGE", "SERIES", "N"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        stage, series, n = args.point
        print(json.dumps(measure_point(series, int(n), stage)))
        return 0
    if not args.label or not args.out:
        parser.error("--label and --out are required")
    record = {
        "note": args.note,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "recursion_limit": sys.getrecursionlimit(),
        "timing": f"fastest of at least {REPEATS} runs and {MIN_SECONDS} s,"
                  " gc off",
    }
    against = args.against and args.against.resolve()
    if against:
        record["against"] = str(args.against)
        record["timing"] += (f"; {ROUNDS} pairs of interpreters alternating "
                             "with the other tree, fastest of each side, "
                             "ratio the median of the pairs")
    record["series"] = {
        stage: {s: curve(stage, s, args.src.resolve(), args.max_seconds,
                         against) for s in STAGES[stage]}
        for stage in args.stage or STAGES}
    record["growth_per_doubling"] = {
        stage: {s: growth_per_doubling(stage, points)
                for s, points in by_series.items()}
        for stage, by_series in record["series"].items()}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
