"""One timed pass of a helam benchmark workload, in a fresh interpreter.

`run.py` starts this file once per pass, so no module-level cache in helam
(the `lru_cache`s of the network layer) carries over from one pass to the
next:

    PYTHONPATH=src python3 bench/passes.py <workload> <seed> <traced: 0|1>

A pass builds the workload's inputs from the seed (set-up), then feeds them
one program at a time through helam's public functions: a closed loop with
one client.  Every call into a layer is timed from outside the library, and
every output is checked against a known answer whose reference does not come
from the stage being timed.  A failed check or an exception counts as one
failed operation and the pass carries on.  The pass prints one JSON object.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import sys
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from time import monotonic, perf_counter

from helam import (
    Network, TypeErr, compile_text, explore, floor, format_trace,
    project, project_all, roles, run, simulate, step, typecheck,
)
from helam import network as network_layer
from helam.generate import GenConfig, gen_instance
from helam.metatheory import EXHAUSTIVE_STEP_LIMIT, masking_laws
from helam.semantics import IsValue, Stepped, Stuck
from helam.surface import tokenize
from helam.syntax import Span, Val, canonical_print, node_count, print_expr
from helam.typecheck import TypeEnv, check

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# Party names that the seed draws from; renaming changes no program's cost.
PARTY_POOL = ("alice", "bob", "carol", "dave", "erin", "frank", "grace",
              "heidi")

# chain: nested `com` hops.  The nesting depth is the hop count, and at the
# default recursion limit chain-250 dies in `simulate`, so run.py raises the
# limit and the stack for this workload only.  chain-200 alone simulates in
# 5.5-7 s, which leaves too few passes in a run for a steady median.
CHAIN_SIZES = (50, 100, 150)
CHAIN_RECURSION_LIMIT = 20_000

# interleave: par-4 takes about a minute to explore, so par-3 is the
# largest par-n that fits in a pass.
PAR_SIZES = (2, 3)
HOPS = (2, 4)  # pairs, hops per pair
INTERLEAVE_CORPUS = ("kvs_put", "kvs_get", "delegation_pick_alice",
                     "delegation_pick_bob", "multicast")
GOLDEN = {"kvs_put", "multicast"}  # corpus/golden/<name>.seed0.trace
MESSAGES = {"kvs_put": 4, "kvs_get": 3}

# acceptance: the first ACCEPTANCE_INSTANCES instances of the acceptance
# suite's generator.  Their cost is heavy-tailed (one instance in a few
# hundred costs a second), so a draw that changed with the seed would move
# wall_s by more than any bound; the seed picks the scheduler seeds and the
# masking pairs instead.
ACCEPTANCE_CFG = GenConfig(max_parties=4, max_depth=6)
ACCEPTANCE_INSTANCES = 120
SCHEDULER_SEEDS = 100
MASKING_PAIRS = 2000

# frontend: generated programs printed to text, the corpus, and let-chains.
FRONTEND_GENERATED = 1000
LET_DEPTHS = (200, 300, 400)
# Known defect: at the default recursion limit the depth-300 chain fails in
# `typecheck` and the depth-400 chain in `compile_text`.  They are counted
# as probes (probes.depth_failed), not as failed operations.
DEPTH_PROBES = (300, 400)
BAD_KOC = ("MaskUndefined", 5, 3)  # kind, line, column of its diagnostic

# Spans whose time is the time to a typing verdict (end-to-end check_s).
CHECK_SPANS = ("surface.compile", "typecheck.check")


class Mismatch(Exception):
    """An output differs from its known answer."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def nodes(term) -> int:
    """AST or behaviour nodes, types included, spans not.  Iterative, since
    chain terms nest deeper than the default recursion limit."""
    count, stack = 0, [term]
    while stack:
        t = stack.pop()
        if isinstance(t, tuple):
            stack.extend(t)
        elif is_dataclass(t) and not isinstance(t, Span):
            count += 1
            stack.extend(getattr(t, f.name) for f in fields(t))
    return count


# ---------------------------------------------------------------------------
# machine speed

# The machine's speed drifts: the same interleave pass took 1.4 s and 2.7 s
# minutes apart, with no steal time.  So between operations, once SEGMENT_S
# of work has gone by, a pass times a chunk of reference work; run.py scales
# the pass's times by its median chunk time.
CHUNK_ROUNDS = 40
SEGMENT_S = 0.25


@dataclass(frozen=True)
class _Leaf:
    name: str


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _rebuild(t):
    match t:
        case _Node(op, left, right):
            return _Node(op, _rebuild(left), right)
    return t


def reference_work(rounds: int) -> None:
    """A fixed amount of work of the kind helam does: frozen dataclasses
    built, matched, hashed and compared, and dicts filled."""
    seen = {}
    for r in range(rounds):
        a = _Leaf(f"x{r % 5}")
        for i in range(120):
            a = _Node("app" if i % 2 else "com", a, _Leaf(f"p{i % 3}"))
        b = _rebuild(a)
        seen[a] = a == b
        seen[(r, hash(_rebuild(b)))] = r


def reference_chunk() -> float:
    """Seconds taken by one chunk of reference work, with the cyclic GC off:
    its passes would cost more the bigger helam's own heap is."""
    gc.disable()
    try:
        start = perf_counter()
        reference_work(CHUNK_ROUNDS)
        return perf_counter() - start
    finally:
        gc.enable()


class Recorder:
    """Times calls into helam's layers from outside the library.

    Untraced, it keeps only what the end-to-end metrics need: per-program
    latency and the time to a typing verdict.  Traced, it also keeps one span
    per layer call in memory (program, layer, duration) and the counts that
    cost extra work to take.  `counts` is filled the same way in both modes,
    so traced and untraced passes can be compared for determinism.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple[str, str, float]] = []
        self.check_s = 0.0
        self.gc_s = 0.0
        self.gc_start = 0.0
        gc.callbacks.append(self.on_gc)
        self.latencies_ms: list[float] = []
        self.chunks: list[float] = []
        self.chunk_end = 0.0
        self.counts: Counter = Counter()
        self.extra: Counter = Counter()
        self.failures: list[str] = []
        self.program = "setup"

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self.gc_start

    def call(self, layer: str, fn, *args):
        """Time one call into a layer.  A pass of the cyclic GC scans the
        whole heap, most of it the network caches, so it is left out of the
        span it happens to land in; wall time and latency keep it."""
        start, gc_before = perf_counter(), self.gc_s
        try:
            return fn(*args)
        finally:
            took = perf_counter() - start - (self.gc_s - gc_before)
            if layer in CHECK_SPANS:
                self.check_s += took
            if self.traced:
                self.spans.append((self.program, layer, took))

    def operation(self, name: str, body, *args) -> None:
        """One program's full pass, timed as one latency sample."""
        self.program = name
        self.counts["ops.attempted"] += 1
        start = perf_counter()
        try:
            body(self, *args)
        except Exception as err:  # a failure of the code under test
            self.fail(name, err)
        end = perf_counter()
        self.latencies_ms.append((end - start) * 1e3)
        if end - self.chunk_end >= SEGMENT_S:
            self.sample_speed()

    def sample_speed(self) -> None:
        self.chunks.append(reference_chunk())
        self.chunk_end = perf_counter()

    def probe(self, name: str, body, *args) -> None:
        """A known-defect probe: a RecursionError is expected at the seed."""
        self.program = name
        try:
            body(self, *args)
        except RecursionError:
            self.counts["probes.depth_failed"] += 1
        except Exception as err:  # any other failure is a real one
            self.counts["ops.attempted"] += 1
            self.fail(name, err)

    def fail(self, name: str, err: Exception) -> None:
        self.counts["ops.failed"] += 1
        if len(self.failures) < 5:
            self.failures.append(f"{name}: {type(err).__name__}: {err}"[:300])

    def typecheck(self, theta, core, target=None):
        self.counts["typecheck.calls"] += 1
        try:
            return self.call("typecheck.check", typecheck, theta, core, target)
        except TypeErr:
            self.counts["typecheck.rejections"] += 1
            raise

    def compile(self, text: str, theta=None):
        prog = self.call("surface.compile", compile_text, text, theta)
        if self.traced:
            self.extra["surface.core_nodes"] += nodes(prog.core)
        return prog

    def span_s(self, layer: str, program: str | None = None) -> float:
        return sum(took for prog, name, took in self.spans
                   if name == layer and program in (None, prog))


# ---------------------------------------------------------------------------
# shared pipeline pieces

def count_tokens(rec: Recorder, texts) -> None:
    """Tokens of the source texts, counted at set-up of a traced pass."""
    if rec.traced:
        rec.extra["surface.tokens"] += sum(len(tokenize(t)) for t in texts)


def central(rec: Recorder, core):
    """Central evaluation with `run`; traced, the steps are counted by
    driving `step` to a value (outside the timed span)."""
    value = rec.call("semantics.run", run, core)
    if rec.traced:
        steps, result = 0, step(core)
        while isinstance(result, Stepped):
            result = step(result.expr)
            steps += 1
        rec.extra["semantics.steps"] += steps
        rec.extra[f"semantics.steps.{rec.program}"] += steps
    return value


def goal_network(members, value) -> Network:
    """The reference a network run must reach: the projection of the
    central result."""
    return Network({p: project(Val(value), p) for p in members})


def build_network(rec: Recorder, core, members) -> Network:
    procs = rec.call("projection.project", project_all, core, members)
    if rec.traced:
        for behavior in procs.values():
            rec.extra["projection.behavior_nodes"] += nodes(behavior)
            rec.call("projection.floor", floor, behavior)
    rec.counts["network.networks"] += 1
    return rec.call("network.build", Network, procs)


def simulate_to_goal(rec: Recorder, net: Network, seed: int, goal: Network):
    out = rec.call("network.simulate", simulate, net, seed)
    rec.counts["network.simulations"] += 1
    rec.counts["network.steps"] += len(out.trace)
    rec.counts["network.messages"] += out.messages
    rec.counts["network.rendezvous_steps"] += out.rendezvous_steps
    if rec.traced:
        rec.extra[f"network.steps.{rec.program}"] += len(out.trace)
    expect(out.deadlock is None, f"deadlock at scheduler seed {seed}")
    expect(out.network == goal,
           f"network differs from the central result at seed {seed}")
    return out


def first_simulation(rec: Recorder, net: Network, seed: int, goal: Network):
    out = simulate_to_goal(rec, net, seed, goal)
    rec.counts["network.nondeterministic"] += out.nondeterministic
    return out


def explore_to_goal(rec: Recorder, net: Network, goal: Network,
                    require_complete: bool) -> None:
    result = rec.call("network.explore", explore, net)
    rec.counts["network.explorations"] += 1
    rec.counts["network.states"] += result.states
    if rec.traced:
        rec.extra[f"network.states.{rec.program}"] += result.states
    rec.counts["network.terminals"] += len(result.terminals)
    rec.counts["network.incomplete"] += not result.complete
    expect(not result.deadlocks, "explore found a deadlock")
    expect(result.complete or not require_complete, "explore is incomplete")
    expect(not result.complete or result.terminals == {goal},
           "explored terminals differ from {goal}")


# ---------------------------------------------------------------------------
# chain

def chain_text(n: int, names) -> str:
    """n nested `com` hops rotating over three parties: one interleaving."""
    text = f"()@[{names[0]}]"
    for i in range(n):
        text = f"com[{names[i % 3]}][{names[(i + 1) % 3]}] ({text})"
    return text


def setup_chain(seed: int, rec: Recorder):
    names = random.Random(seed).sample(PARTY_POOL, 3)
    inputs = [(f"chain-{n}", chain_text(n, names), n, names[n % 3])
              for n in CHAIN_SIZES]
    count_tokens(rec, [text for _, text, _, _ in inputs])
    return inputs


def chain_program(rec: Recorder, text: str, n: int, last: str) -> None:
    prog = rec.compile(text)
    expected = f"()@[{last}]"
    expect(canonical_print(rec.typecheck(prog.theta, prog.core)) == expected,
           "wrong type")
    value = central(rec, prog.core)
    expect(canonical_print(value) == expected, "wrong central result")
    members = roles(prog.core)
    net = build_network(rec, prog.core, members)
    out = first_simulation(rec, net, 0, goal_network(members, value))
    expect(not out.nondeterministic, "more than one interleaving")
    expect(len(out.trace) == n and out.messages == n,
           f"{len(out.trace)} steps and {out.messages} messages, not {n}")


def run_chain(inputs, rec: Recorder, seed: int) -> None:
    for name, text, n, last in inputs:
        rec.operation(name, chain_program, text, n, last)


# ---------------------------------------------------------------------------
# interleave

def par_text(n: int, names) -> str:
    """n disjoint sender/receiver pairs."""
    lines = [f"let x{i} = com[{names[2 * i]}][{names[2 * i + 1]}] "
             f"()@[{names[2 * i]}];" for i in range(n)]
    return "\n".join(lines) + f"\n()@[{', '.join(names[:2 * n])}]"


def hops_text(pairs: int, hops: int, names) -> str:
    """Disjoint pairs, each passing a value back and forth `hops` times."""
    lines = []
    for i in range(pairs):
        a, b = names[2 * i], names[2 * i + 1]
        prev = f"()@[{a}]"
        for j in range(hops):
            src, dst = (a, b) if j % 2 == 0 else (b, a)
            lines.append(f"let y{i}_{j} = com[{src}][{dst}] {prev};")
            prev = f"y{i}_{j}"
    return "\n".join(lines) + f"\n()@[{', '.join(names[:2 * pairs])}]"


def setup_interleave(seed: int, rec: Recorder):
    rng = random.Random(seed)
    inputs = [(f"par-{n}", par_text(n, rng.sample(PARTY_POOL, 2 * n)))
              for n in PAR_SIZES]
    pairs, hops = HOPS
    inputs.append((f"hops-{pairs}x{hops}",
                   hops_text(pairs, hops, rng.sample(PARTY_POOL, 2 * pairs))))
    inputs += [(name, (CORPUS / f"{name}.hll").read_text(encoding="utf-8"))
               for name in INTERLEAVE_CORPUS]
    golden = {name: (CORPUS / "golden" / f"{name}.seed0.trace").read_text(
        encoding="utf-8") for name in GOLDEN}
    count_tokens(rec, [text for _, text in inputs])
    return inputs, golden


def interleave_program(rec: Recorder, text: str, seed: int, golden) -> None:
    name = rec.program
    prog = rec.compile(text)
    rec.typecheck(prog.theta, prog.core)
    value = central(rec, prog.core)
    members = roles(prog.core)
    goal = goal_network(members, value)
    net = build_network(rec, prog.core, members)
    out = first_simulation(rec, net, 0 if name in golden else seed, goal)
    if name in golden:
        expect(format_trace(out.trace) == golden[name],
               "seed-0 trace differs from the golden trace")
    if name in MESSAGES:
        expect(out.messages == MESSAGES[name],
               f"{out.messages} messages, not {MESSAGES[name]}")
    explore_to_goal(rec, net, goal, require_complete=True)


def run_interleave(inputs, rec: Recorder, seed: int) -> None:
    programs, golden = inputs
    for name, text in programs:
        rec.operation(name, interleave_program, text, seed, golden)


# ---------------------------------------------------------------------------
# acceptance

def setup_acceptance(seed: int, rec: Recorder):
    instances = rec.call("generate.gen", lambda: [
        gen_instance(ACCEPTANCE_CFG, i) for i in range(ACCEPTANCE_INSTANCES)])
    rec.extra["generate.instances"] += len(instances)
    return instances


def acceptance_instance(rec: Recorder, inst, seed: int) -> None:
    rec.typecheck(inst.theta, inst.expr, inst.target)
    # the central run, re-checking every intermediate state
    current = inst.expr
    for _ in range(10 * node_count(inst.expr) + 1):
        result = rec.call("semantics.run", step, current)
        if isinstance(result, IsValue):
            break
        expect(not isinstance(result, Stuck), "central run is stuck")
        current = result.expr
        rec.counts["semantics.steps"] += 1
        rec.counts["typecheck.calls"] += 1
        rec.call("typecheck.check", check, TypeEnv(inst.theta), current,
                 inst.target)
    else:
        raise Mismatch("central run did not reach a value")
    members = roles(inst.expr)
    goal = goal_network(members, current.value)
    net = build_network(rec, inst.expr, members)
    first = first_simulation(rec, net, 0, goal)
    if first.nondeterministic:
        for k in range(1, SCHEDULER_SEEDS):
            simulate_to_goal(rec, net, seed * SCHEDULER_SEEDS + k, goal)
    if len(first.trace) <= EXHAUSTIVE_STEP_LIMIT:
        explore_to_goal(rec, net, goal, require_complete=False)


def run_acceptance(instances, rec: Recorder, seed: int) -> None:
    for inst in instances:
        rec.operation(f"instance-{inst.seed}", acceptance_instance, inst, seed)
    rec.program = "masking"
    report = rec.call("masking.mask", masking_laws, ACCEPTANCE_CFG,
                      MASKING_PAIRS, seed)
    rec.counts["masking.pairs"] += report.instances
    rec.counts["ops.attempted"] += report.instances
    for failure in report.failures:
        rec.fail("masking", Mismatch(str(failure)))


# ---------------------------------------------------------------------------
# frontend

def let_chain_text(depth: int, party: str) -> str:
    lines = [f"let x0 = ()@[{party}];"]
    lines += [f"let x{i + 1} = x{i};" for i in range(depth)]
    return "\n".join(lines) + f"\nx{depth}"


def setup_frontend(seed: int, rec: Recorder):
    rng = random.Random(seed)
    programs = [(path.stem, path.read_text(encoding="utf-8"), None, None)
                for path in sorted(CORPUS.glob("*.hll"))]
    instances = rec.call("generate.gen", lambda: [
        gen_instance(ACCEPTANCE_CFG, seed * 1_000_003 + i)
        for i in range(FRONTEND_GENERATED)])
    rec.extra["generate.instances"] += len(instances)
    programs += [(f"generated-{inst.seed}", print_expr(inst.expr), inst.theta,
                  inst.target) for inst in instances]
    party = rng.choice(PARTY_POOL)
    chains = [(f"let-{d}", let_chain_text(d, party)) for d in LET_DEPTHS]
    count_tokens(rec, [p[1] for p in programs] + [c[1] for c in chains])
    return programs, chains


def frontend_program(rec: Recorder, text: str, theta, target) -> None:
    prog = rec.compile(text, theta)
    if rec.program == "bad_koc":
        try:
            rec.typecheck(prog.theta, prog.core)
        except TypeErr as err:
            got = (err.kind, err.span and err.span.line,
                   err.span and err.span.col)
            expect(got == BAD_KOC, f"rejected with {got}, not {BAD_KOC}")
        else:
            raise Mismatch("bad_koc was accepted")
    else:
        rec.typecheck(prog.theta, prog.core, target)
    printed = rec.call("syntax.print", print_expr, prog.core)
    again = rec.call("syntax.reparse", compile_text, printed, prog.theta)
    # compared by print, not by `==`: dataclass equality recurses once per
    # nesting level and fails on the let-chains before the code under test
    expect(print_expr(again.core) == printed,
           "print then parse does not give the program back")


def run_frontend(inputs, rec: Recorder, seed: int) -> None:
    programs, chains = inputs
    for name, text, theta, target in programs:
        rec.operation(name, frontend_program, text, theta, target)
    for name, text in chains:
        depth = int(name.split("-")[1])
        if depth in DEPTH_PROBES:
            rec.probe(name, frontend_program, text, None, None)
        else:
            rec.operation(name, frontend_program, text, None, None)


WORKLOADS = {
    "chain": (setup_chain, run_chain),
    "interleave": (setup_interleave, run_interleave),
    "acceptance": (setup_acceptance, run_acceptance),
    "frontend": (setup_frontend, run_frontend),
}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass

def cache_hit_rate(fn_name: str):
    """Hit rate of a network-layer cache, or None once the cache is gone."""
    info = getattr(getattr(network_layer, fn_name, None), "cache_info", None)
    if info is None:
        return None
    stats = info()
    lookups = stats.hits + stats.misses
    return stats.hits / lookups if lookups else 0.0


def per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def layer_metrics(rec: Recorder) -> dict:
    c, x, s = rec.counts, rec.extra, rec.span_s
    m = {
        "surface.compile_s": s("surface.compile"),
        "surface.tokens_per_s": per_second(x["surface.tokens"],
                                           s("surface.compile")),
        "surface.core_nodes": x["surface.core_nodes"],
        "syntax.roundtrip_s": s("syntax.print") + s("syntax.reparse"),
        "typecheck.check_s": s("typecheck.check"),
        "typecheck.calls": c["typecheck.calls"],
        "typecheck.rejections": c["typecheck.rejections"],
        "semantics.run_s": s("semantics.run"),
        "semantics.steps": c["semantics.steps"] + x["semantics.steps"],
        "masking.mask_s": s("masking.mask"),
        "masking.pairs": c["masking.pairs"],
        "projection.project_s": s("projection.project"),
        "projection.behavior_nodes": x["projection.behavior_nodes"],
        "projection.floor_s": s("projection.floor"),
        "network.build_s": s("network.build"),
        "network.simulate_s": s("network.simulate"),
        "network.steps": c["network.steps"],
        "network.messages": c["network.messages"],
        "network.rendezvous_steps": c["network.rendezvous_steps"],
        "network.explore_s": s("network.explore"),
        "network.states": c["network.states"],
        "network.incomplete": c["network.incomplete"],
        "network.nondet_share": (c["network.nondeterministic"]
                                 / max(1, c["network.networks"])),
        "generate.gen_s": s("generate.gen"),
        "gc.pause_s": rec.gc_s,
        "generate.instances": x["generate.instances"],
        "probes.depth_failed": c["probes.depth_failed"],
    }
    for n in CHAIN_SIZES:
        name = f"chain-{n}"
        m[f"semantics.us_per_step.{name}"] = 1e6 * per_second(
            s("semantics.run", name), x[f"semantics.steps.{name}"])
        m[f"network.us_per_step.{name}"] = 1e6 * per_second(
            s("network.simulate", name), x[f"network.steps.{name}"])
    pairs, hops = HOPS
    for name in ([f"par-{n}" for n in PAR_SIZES] + [f"hops-{pairs}x{hops}"]
                 + list(INTERLEAVE_CORPUS)):
        m[f"network.us_per_state.{name}"] = 1e6 * per_second(
            s("network.explore", name), x[f"network.states.{name}"])
    for metric, fn_name in (("network.next_action.hit_rate", "next_action"),
                            ("network.enumerate.hit_rate",
                             "_enumerate_cached")):
        rate = cache_hit_rate(fn_name)
        if rate is not None:
            m[metric] = rate
    return m


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    if workload == "chain":
        sys.setrecursionlimit(CHAIN_RECURSION_LIMIT)
    setup, body = WORKLOADS[workload]
    rec = Recorder(traced)
    inputs = setup(seed, rec)
    first_call = monotonic()
    rec.sample_speed()
    start = perf_counter()
    body(inputs, rec, seed)
    wall = perf_counter() - start - sum(rec.chunks[1:])
    rec.sample_speed()
    out = {
        "first_call": first_call,
        "chunks_s": rec.chunks,
        "wall_s": wall,
        "check_s": rec.check_s,
        "latencies_ms": rec.latencies_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "counts": dict(rec.counts),
        "failures": rec.failures,
    }
    if traced:
        out["layers"] = layer_metrics(rec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
