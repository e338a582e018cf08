"""Scaling curves of the two steppers and of the frontend: microseconds per
step of the central `run` and of the network `simulate`, and microseconds
per token of `compile_text`, over chain-n (n nested `com` hops) and let-n
(n chained `let` bindings), for n = 50, 100, 200, ... 1600.

Each point runs in a fresh interpreter, so no cache or heap state carries
over from a smaller point.  The program is compiled, and for `simulate`
projected into a `Network`, with the recursion limit raised (the parser
and projection still recurse once per nesting level); `run` and `simulate`
are timed at the interpreter's default limit, so a point where the stepper
itself recurses too deep is recorded as an error.  `compile` is timed at
the raised limit, since at the default one the parser fails from chain-300
on; its token count includes the closing `eof`.  The network's step caches
are cleared before every timed run, so each one steps from scratch.  A
series ends at its first error or at the first point that does not finish
within --max-seconds.

Stdlib only.  Each invocation adds (or replaces) one labelled run in the
output file, so a before/after pair is two invocations on the same machine:

    python3 tools/curves.py --label before --src OLD_CHECKOUT/src \\
        --out BENCH_x.json
    python3 tools/curves.py --label after --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (50, 100, 200, 400, 800, 1600)
SERIES = ("chain", "let")
STAGES = ("run", "simulate", "compile")
COMPILE_RECURSION_LIMIT = 100_000
# A point is timed REPEATS times and for at least MIN_SECONDS; the fastest
# run is reported, as timeit does.
REPEATS = 5
MIN_SECONDS = 0.5


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


TEXTS = {"chain": chain_text, "let": let_text}


def fastest(once, caches=()) -> float:
    """The fastest of at least REPEATS runs of `once` and MIN_SECONDS, with
    the caches cleared before each run and the cyclic GC off."""
    best, runs, total = float("inf"), 0, 0.0
    gc.disable()
    try:
        while runs < REPEATS or total < MIN_SECONDS:
            for cache in caches:
                cache.cache_clear()
            start = time.perf_counter()
            once()
            took = time.perf_counter() - start
            best, runs, total = min(best, took), runs + 1, total + took
    finally:
        gc.enable()
    return best


def measure_point(series: str, n: int, stage: str = "run") -> dict:
    """Time one stage on one program in this interpreter."""
    from helam import network
    from helam.network import Network, simulate
    from helam.projection import project_all
    from helam.semantics import run
    from helam.surface import compile_text, tokenize

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
        if stage == "simulate":
            net = Network(project_all(core))
    finally:
        sys.setrecursionlimit(default_limit)
    caches = [f for f in vars(network).values() if hasattr(f, "cache_clear")]

    def steps_taken() -> int:
        if stage == "simulate":
            return len(simulate(net).trace)
        trace: list = []
        run(core, trace=trace)
        return len(trace)

    if stage == "simulate":
        def once():
            simulate(net)
    else:
        def once():
            run(core)

    try:
        steps = steps_taken()  # untimed: counts the steps, warms up
    except RecursionError as err:
        return {"n": n, "error": f"RecursionError in {stage}: {err}"}
    best = fastest(once, caches)
    return {"n": n, "steps": steps, f"{stage}_s": best,
            "us_per_step": 1e6 * best / steps}


def curve(stage: str, series: str, src: Path,
          max_seconds: float) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    points = []
    for n in SIZES:
        cmd = [sys.executable, __file__, "--point", stage, series, str(n)]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  text=True, timeout=max_seconds)
        except subprocess.TimeoutExpired:
            points.append({"n": n, "error": f"over {max_seconds:g} s"})
            break
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            points.append({"n": n, "error": f"exit {proc.returncode}: "
                                             f"{tail[0]}"})
            break
        point = json.loads(proc.stdout)
        points.append(point)
        print(stage, series, json.dumps(point), file=sys.stderr)
        if "error" in point:
            break
    return points


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", help="name of this run in the output")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the helam source tree to measure")
    parser.add_argument("--out", type=Path, help="JSON file to add the run to")
    parser.add_argument("--note", default="", help="recorded with the run")
    parser.add_argument("--max-seconds", type=float, default=60.0,
                        help="cap on one point, compile and runs included")
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
        "series": {stage: {s: curve(stage, s, args.src.resolve(),
                                    args.max_seconds) for s in SERIES}
                   for stage in STAGES},
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
