"""Scaling curves of the central evaluator: `run` microseconds per step
over chain-n (n nested `com` hops) and let-n (n chained `let` bindings),
for n = 50, 100, 200, ... 1600.

Each point runs in a fresh interpreter, so no cache or heap state carries
over from a smaller point.  The program is compiled with the recursion limit
raised (the parser still recurses once per nesting level); `run` is timed at
the interpreter's default limit, so a point where `run` itself recurses too
deep is recorded as an error.  A series ends at its first error or at the
first point that does not finish within --max-seconds.

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


def measure_point(series: str, n: int) -> dict:
    """Time `run` on one program in this interpreter."""
    from helam.semantics import run
    from helam.surface import compile_text

    default_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(COMPILE_RECURSION_LIMIT)
    try:
        core = compile_text(TEXTS[series](n)).core
    finally:
        sys.setrecursionlimit(default_limit)
    trace: list = []
    try:
        run(core, trace=trace)  # untimed: counts the steps, warms up
    except RecursionError as err:
        return {"n": n, "error": f"RecursionError in run: {err}"}
    best, runs, total = float("inf"), 0, 0.0
    gc.disable()
    try:
        while runs < REPEATS or total < MIN_SECONDS:
            start = time.perf_counter()
            run(core)
            took = time.perf_counter() - start
            best, runs, total = min(best, took), runs + 1, total + took
    finally:
        gc.enable()
    return {"n": n, "steps": len(trace), "run_s": best,
            "us_per_step": 1e6 * best / len(trace)}


def curve(series: str, src: Path, max_seconds: float) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    points = []
    for n in SIZES:
        cmd = [sys.executable, __file__, "--point", series, str(n)]
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
        print(series, json.dumps(point), file=sys.stderr)
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
    parser.add_argument("--point", nargs=2, metavar=("SERIES", "N"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        series, n = args.point
        print(json.dumps(measure_point(series, int(n))))
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
        "series": {s: curve(s, args.src.resolve(), args.max_seconds)
                   for s in SERIES},
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
