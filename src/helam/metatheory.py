"""Differential and property drivers for the language's guarantees.

Each driver runs over generated well-typed instances and reports failures
with the seed and canonical print needed to reproduce them.  A correct
implementation reports zero failures on every property; any failure is an
implementation bug, never expected noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .generate import (
    ExprGen, GenConfig, Instance, gen_instance, gen_type, gen_value,
)
from .masking import mask_type, mask_value
from .network import NetStep, Network, enumerate_net_steps, explore, simulate
from .projection import project, project_all, roles
from .semantics import IsValue, Stuck, run, step, subst
from .syntax import (
    Behavior, ChorExpr, DataTy, PartySet, Val, node_count, print_expr,
    print_type,
)
from .typecheck import TypeEnv, TypeErr, check, typecheck

# Read only by `bench/passes.py`, which explores just the acceptance
# instances that finish within this many steps; helam explores every one.
EXHAUSTIVE_STEP_LIMIT = 12
EXPLORE_BUDGET = 100_000


@dataclass
class Failure:
    seed: int
    detail: str
    printed: str

    def __str__(self) -> str:
        return f"seed {self.seed}: {self.detail} in {self.printed}"


@dataclass
class PropertyReport:
    name: str
    instances: int = 0
    failures: list[Failure] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def note(self, inst: Instance, detail: str) -> None:
        self.failures.append(
            Failure(inst.seed, detail, print_expr(inst.expr)))

    def __str__(self) -> str:
        status = "ok" if self.ok() else f"{len(self.failures)} FAILED"
        return f"{self.name}: {self.instances} instances, {status}"


# ---------------------------------------------------------------------------
# central-semantics properties

def central_trajectory(inst: Instance,
                       report_pres: PropertyReport,
                       report_prog: PropertyReport) -> list[ChorExpr]:
    """Walk the central run; check type stability and that non-values step."""
    states = [inst.expr]
    current = inst.expr
    fuel = 10 * node_count(inst.expr)
    for _ in range(fuel + 1):
        result = step(current)
        if isinstance(result, IsValue):
            return states
        if isinstance(result, Stuck):
            report_prog.note(inst, f"stuck: {result.reason}")
            return states
        current = result.expr
        try:
            check(TypeEnv(inst.theta), current, inst.target)
        except TypeErr as err:
            report_pres.note(
                inst, f"type not preserved after {result.rule}: {err}")
            return states
        states.append(current)
    report_prog.note(inst, "fuel exhausted")
    return states


def substitution_property(inst: Instance, cfg: GenConfig,
                          report: PropertyReport) -> None:
    """Substituting a well-typed value for a variable preserves the type."""
    rng = random.Random(inst.seed ^ 0x5EED)
    gen = ExprGen(rng)
    tx = gen_type(rng, inst.theta, 1)
    x = "subject$"
    env = TypeEnv(inst.theta).bind(x, tx)
    m = gen.expr(env, inst.target, min(cfg.max_depth, 4))
    v = gen_value(rng, inst.theta, tx, gen.fresh)
    try:
        check(env, m, inst.target)
    except TypeErr as err:
        report.failures.append(Failure(
            inst.seed, f"generated open term does not check: {err}",
            print_expr(m)))
        return
    out = subst(m, x, v)
    try:
        check(TypeEnv(inst.theta), out, inst.target)
    except TypeErr as err:
        report.failures.append(Failure(
            inst.seed, f"substitution broke typing: {err}", print_expr(out)))


# ---------------------------------------------------------------------------
# projection / network properties

def _network_reaches(start: Network, goal: Network, max_depth: int) -> bool:
    frontier = {start}
    seen = {start}
    for _ in range(max_depth + 1):
        if goal in frontier:
            return True
        nxt = set()
        for net in frontier:
            for net2, _ in enumerate_net_steps(net):
                if net2 not in seen:
                    seen.add(net2)
                    nxt.add(net2)
        if not nxt:
            break
        frontier = nxt
    return goal in frontier


def completeness_property(inst: Instance, states: list[ChorExpr],
                          report: PropertyReport) -> None:
    """Every central step is matched by real network steps to the stepped
    projection."""
    members = roles(inst.expr)
    depth = len(members) + 2
    for before, after in zip(states, states[1:]):
        net_before = Network(project_all(before, members))
        net_after = Network(project_all(after, members))
        if not _network_reaches(net_before, net_after, depth):
            report.note(inst,
                        f"network cannot follow central step from "
                        f"{print_expr(before)}")
            return


def agreement_property(inst: Instance, report_agree: PropertyReport,
                       report_deadlock: PropertyReport,
                       seeds: int = 20) -> None:
    """Seeded runs and an exhaustive exploration all end with every party
    holding its view of the central result.

    The exploration is partial-order reduced (`network.explore`), so it
    covers every interleaving of every instance in time linear in its
    steps; one stopped at `EXPLORE_BUDGET` counts as a failure."""
    members = roles(inst.expr)
    final = run(inst.expr)
    goal = Network({p: project(final, p) for p in members})
    net = Network(project_all(inst.expr, members))

    outcome = simulate(net, seed=0)
    if outcome.deadlock is not None:
        report_deadlock.note(inst, str(outcome.deadlock))
        return
    if outcome.network != goal:
        report_agree.note(inst, "seed 0 final network disagrees")
        return
    if outcome.nondeterministic:
        for seed in range(1, seeds):
            out = simulate(net, seed=seed)
            if out.deadlock is not None:
                report_deadlock.note(inst, f"seed {seed}: {out.deadlock}")
                return
            if out.network != goal:
                report_agree.note(inst, f"seed {seed} final network disagrees")
                return
    exploration = explore(net, EXPLORE_BUDGET)
    if exploration.deadlocks:
        report_deadlock.note(inst, "exhaustive exploration found deadlock")
    elif not exploration.complete:
        report_agree.note(inst, f"exhaustive exploration stopped at its "
                          f"budget of {EXPLORE_BUDGET} states")
    elif exploration.terminals != {goal}:
        report_agree.note(inst, "exhaustive terminals disagree")


def _successor(net: Network, wanted: NetStep) -> Optional[Network]:
    """The network that step `wanted` reaches from net, if it is enabled."""
    for nxt, info in enumerate_net_steps(net):
        if info == wanted:
            return nxt
    return None


def party_histories(net: Network,
                    trace: list[NetStep]) -> dict[str, list[Behavior]]:
    """Each party's behaviors along a recorded trace from net, starting
    with its first; a step adds a participant's behavior only if it
    changed."""
    histories = {p: [net[p]] for p in net.parties()}
    for taken in trace:
        nxt = _successor(net, taken)
        for p in (taken.origin, *taken.recipients):
            if nxt[p] != net[p]:
                histories[p].append(nxt[p])
        net = nxt
    return histories


def scheduling_property(inst: Instance, report: PropertyReport) -> None:
    """A party passes through the same behaviors whatever the interleaving."""
    members = roles(inst.expr)
    net = Network(project_all(inst.expr, members))
    a = simulate(net, seed=1)
    if not a.nondeterministic:
        return
    b = simulate(net, seed=2)
    if party_histories(net, a.trace) != party_histories(net, b.trace):
        report.note(inst, "per-party behavior sequences differ across seeds")


def parallelism_property(inst: Instance, report: PropertyReport) -> None:
    """Enabled steps commute: at every state of seed 0's run, each pair of
    enabled steps stays enabled after the other, and both orders reach the
    same network.  This is the premise `network.explore` rests on."""
    members = roles(inst.expr)
    net = Network(project_all(inst.expr, members))
    trace = simulate(net, seed=0).trace
    for n, taken in enumerate(trace):
        steps = enumerate_net_steps(net)
        for i, (after_a, a) in enumerate(steps):
            for after_b, b in steps[i + 1:]:
                ab = _successor(after_a, b)
                ba = _successor(after_b, a)
                if ab is None or ba is None:
                    report.note(inst, f"at state {n}, one of the steps of "
                                f"{a.origin} and {b.origin} disables the other")
                    return
                if ab != ba:
                    report.note(inst, f"at state {n}, the steps of {a.origin} "
                                f"and {b.origin} do not commute")
                    return
        net = _successor(net, taken)


# ---------------------------------------------------------------------------
# masking laws

def masking_laws(cfg: GenConfig, pairs: int,
                 seed: int = 0) -> PropertyReport:
    """Idempotence, restriction of data values to owner subsets, and
    maskability of well-typed values whenever their type masks."""
    report = PropertyReport("masking-laws")
    rng = random.Random(seed)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"m{counter[0]}"

    for n in range(pairs):
        report.instances += 1
        k = rng.randint(2, cfg.max_parties)
        theta = PartySet(rng.sample(("p", "q", "r", "s"), k))
        t = gen_type(rng, theta, 2)
        v = gen_value(rng, theta, t, fresh)
        sub = PartySet(rng.sample(theta.members,
                                  rng.randint(1, len(theta))))

        def fail(detail: str) -> None:
            report.failures.append(Failure(n, detail, print_type(t)))

        masked_t = mask_type(t, sub)
        if masked_t is not None:
            if mask_type(masked_t, sub) != masked_t:
                fail("type masking is not idempotent")
            masked_v = mask_value(v, sub)
            if masked_v is None:
                fail("value failed to mask although its type does")
            else:
                if mask_value(masked_v, sub) != masked_v:
                    fail("value masking is not idempotent")
                try:
                    # enclave: the masked value checks under the smaller set
                    check(TypeEnv(sub), Val(masked_v), masked_t)
                except TypeErr as err:
                    fail(f"masked value no longer checks: {err}")
        if isinstance(t, DataTy):
            inner = PartySet(rng.sample(t.owners.members,
                                        rng.randint(1, len(t.owners))))
            if mask_type(t, inner) != DataTy(t.shape, inner):
                fail("data type failed to restrict to an owner subset")
            restricted = mask_value(v, inner)
            if restricted is None:
                fail("data value failed to restrict to an owner subset")
            else:
                try:
                    check(TypeEnv(theta), Val(restricted),
                          DataTy(t.shape, inner))
                except TypeErr as err:
                    fail(f"restricted data value no longer checks: {err}")
    return report


# ---------------------------------------------------------------------------
# whole-suite driver

PROPERTY_NAMES = (
    "preservation", "progress", "substitution", "epp-completeness",
    "epp-agreement", "deadlock-freedom", "scheduling-independence",
    "parallelism",
)


def check_metatheory(instances: int = 200, seed: int = 0,
                     masking_pairs: int = 1000) -> dict[str, PropertyReport]:
    cfg = GenConfig()
    reports = {name: PropertyReport(name) for name in PROPERTY_NAMES}
    for n in range(instances):
        inst = gen_instance(cfg, seed * 1_000_003 + n)
        try:
            typecheck(inst.theta, inst.expr, inst.target)
        except TypeErr as err:
            reports["preservation"].note(inst, f"generator unsound: {err}")
            continue
        for name in PROPERTY_NAMES:
            reports[name].instances += 1
        states = central_trajectory(inst, reports["preservation"],
                                    reports["progress"])
        substitution_property(inst, cfg, reports["substitution"])
        completeness_property(inst, states, reports["epp-completeness"])
        agreement_property(inst, reports["epp-agreement"],
                           reports["deadlock-freedom"])
        scheduling_property(inst, reports["scheduling-independence"])
        parallelism_property(inst, reports["parallelism"])
    reports["masking-laws"] = masking_laws(cfg, masking_pairs, seed)
    return reports
