"""Counts of every registered cache (`helam.caches`) over one pass of each
benchmark workload, written to a JSON file:

    python3 tools/cache_counts.py --out BENCH_caches.json

Each workload runs untraced in a fresh interpreter, with seed SEED and
string hashing fixed, through the set-up and body of `bench/passes.py` as
they are.  Sizes, bounds and the lrus' hits
and misses are `caches.counts()` at the end of the pass.  The lookups a
cache does not count itself are counted from outside the library with
`sys.setprofile`: each call of `network.focus`, `Focus.action`,
`Focus.offer`, the `PartySet` constructor and its `intersect`, `union` and
`issubset` is a lookup, and a hit when the table or memo it reads is as it
was after the call.  A run reads one link per step it takes (`simulate`)
or state it reaches (`explore`), and a link `_after` makes is a miss.  The
profiler slows a pass several times over, so no time is recorded.
Stdlib only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chain", "interleave", "acceptance", "frontend")
SEED = 1


def _bench(name: str):
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_pass(workload: str, seed: int) -> dict:
    """One untraced pass of workload in this interpreter, and the counts of
    every cache after it, lookups included."""
    from helam import caches, network, syntax

    passes = _bench("passes")
    if workload == "chain":
        sys.setrecursionlimit(passes.CHAIN_RECURSION_LIMIT)
    setup, body = passes.WORKLOADS[workload]
    rec = passes.Recorder(False)
    inputs = setup(seed, rec)

    def offers(frame):
        held = frame.f_locals["self"]._offers
        return held if held is None else (id(held), len(held))

    # per function: the cache and count it serves, and the state of what it
    # reads, which a miss changes
    watched = {
        network.focus.__code__:
            ("network.foci", "", lambda f: len(network._foci)),
        network.Focus.action.__code__:
            ("network.foci", "action_",
             lambda f: f.f_locals["self"]._action is network._UNSET),
        network.Focus.offer.__code__: ("network.foci", "offer_", offers),
        syntax.PartySet.__new__.__code__:
            ("syntax.party_sets", "", lambda f: len(syntax._INTERNED)),
        network._after.__code__:
            ("network.links", "made_", lambda f: len(network._linked)),
    }
    for method, memo in (("intersect", "_meets"), ("union", "_joins"),
                         ("issubset", "_subsets")):
        watched[getattr(syntax.PartySet, method).__code__] = (
            "syntax.party_sets", "memo_",
            lambda f, memo=memo: len(getattr(f.f_locals["self"], memo)))
    walked = {network.simulate.__code__: lambda out: len(out.trace),
              network.explore.__code__: lambda out: out.states - 1}
    tally = Counter({(name, prefix + count): 0
                     for name, prefix, _ in watched.values()
                     for count in ("lookups", "hits")})
    tally["network.links", "lookups"] = 0
    open_calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            open_calls.append((frame, watched[frame.f_code][2](frame)))
        elif event == "return":
            if open_calls and open_calls[-1][0] is frame:
                _, before = open_calls.pop()
                name, prefix, state = watched[frame.f_code]
                tally[name, prefix + "lookups"] += 1
                tally[name, prefix + "hits"] += state(frame) == before
            elif frame.f_code in walked and arg is not None:
                tally["network.links", "lookups"] += walked[frame.f_code](arg)

    sys.setprofile(profile)
    try:
        body(inputs, rec, seed)
    finally:
        sys.setprofile(None)
    counts = caches.counts()
    for name in ("network.next_action", "network.enumerate"):
        counts[name]["lookups"] = counts[name]["hits"] + counts[name]["misses"]
    for (name, count), value in sorted(tally.items()):
        counts[name][count] = value
    links = counts["network.links"]
    links["hits"] = links["lookups"] - links.pop("made_lookups")
    del links["made_hits"]
    return {"caches": counts, "attempted": rec.counts["ops.attempted"],
            "failed": rec.counts["ops.failed"]}


def fresh_pass(workload: str, seed: int) -> dict:
    """`count_pass` in a fresh interpreter that imports this tree's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # a party set is interned under every spelling a caller builds it from,
    # and some callers spell it in a set's order, which string hashing sets
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, __file__, "--pass", workload,
                           str(seed)], env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload}: {proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--pass", nargs=2, dest="one",
                        metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(count_pass(args.one[0], int(args.one[1]))))
        return 0
    if not args.out:
        parser.error("--out is required")
    _bench("run").raise_stack_limit()  # chain passes recurse deep
    record = {
        "tool": "tools/cache_counts.py",
        "seed": SEED,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "workloads": {w: fresh_pass(w, SEED) for w in WORKLOADS},
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
