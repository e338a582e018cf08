"""Acceptance suite: one test per criterion, at full scale.

Each test prints a single PASS line with the numbers it verified; run with
`pytest tests/test_acceptance.py -s` to see them.
"""

import time

import pytest

from helam.generate import GenConfig, gen_instance
from helam.metatheory import (
    PropertyReport, central_trajectory, masking_laws, parallelism_property,
    substitution_property,
)
from helam.network import Network, enumerate_net_steps, explore, simulate
from helam.projection import project, project_all, roles
from helam.semantics import run
from helam.surface import desugar, parse
from helam.syntax import (
    App, BApp, BOTTOM, Com, Inl, Inr, LUnit, Recv, Send, Unit, Val, Vec,
    parties, print_expr,
)
from helam.typecheck import TypeErr, typecheck

N_INSTANCES = 1000
N_SEEDS = 100
N_MASK_PAIRS = 10_000

CFG = GenConfig(max_parties=4, max_depth=6)


@pytest.fixture(scope="module")
def instances():
    return [gen_instance(CFG, seed) for seed in range(N_INSTANCES)]


@pytest.fixture(scope="module")
def simulations(instances):
    """Criterion 2/3 workhorse: central result vs every sampled interleaving.

    Deterministic networks (a single enabled step throughout) are pinned by
    their seed-0 run, so further seeds are provably identical and skipped.
    """
    disagreements = []
    deadlocks = []
    exhaustive_checked = 0
    sampled_runs = 0
    for inst in instances:
        members = roles(inst.expr)
        value = run(inst.expr)
        goal = Network({p: project(Val(value), p) for p in members})
        net = Network(project_all(inst.expr, members))
        first = simulate(net, seed=0)
        sampled_runs += 1
        outs = [first]
        if first.nondeterministic:
            for seed in range(1, N_SEEDS):
                outs.append(simulate(net, seed=seed))
                sampled_runs += 1
        for out in outs:
            if out.deadlock is not None:
                deadlocks.append((inst.seed, out.deadlock))
            elif out.network != goal:
                disagreements.append(inst.seed)
        result = explore(net)
        exhaustive_checked += 1
        if result.deadlocks:
            deadlocks.append((inst.seed, result.deadlocks[0]))
        elif not result.complete or result.terminals != {goal}:
            disagreements.append(inst.seed)
    return {
        "disagreements": disagreements,
        "deadlocks": deadlocks,
        "exhaustive": exhaustive_checked,
        "sampled": sampled_runs,
    }


def test_criterion_1_metatheory_suite(instances):
    """Preservation, progress, and substitution on 1000 instances in <60s."""
    started = time.time()
    pres = PropertyReport("preservation")
    prog = PropertyReport("progress")
    sub = PropertyReport("substitution")
    for inst in instances:
        typecheck(inst.theta, inst.expr, inst.target)
        central_trajectory(inst, pres, prog)
        substitution_property(inst, CFG, sub)
    elapsed = time.time() - started
    assert pres.ok(), pres.failures[:3]
    assert prog.ok(), prog.failures[:3]
    assert sub.ok(), sub.failures[:3]
    assert elapsed < 60, f"metatheory suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: {len(instances)} instances, preservation/"
          f"progress/substitution clean in {elapsed:.1f}s")


def test_criterion_2_epp_agreement(simulations):
    """Central results match every sampled and exhaustively explored
    interleaving."""
    assert simulations["disagreements"] == []
    print(f"\nPASS criterion 2: {simulations['sampled']} sampled runs and "
          f"{simulations['exhaustive']} exhaustive explorations agree with "
          f"the central results")


def test_criterion_3_deadlock_freedom(simulations):
    """No projected run deadlocks; a broken network is still detected."""
    assert simulations["deadlocks"] == []
    broken = Network({"s": BApp(Send(("r",)), LUnit()), "r": LUnit()})
    out = simulate(broken, seed=0)
    assert out.deadlock is not None, "detector failed to fire"
    print("\nPASS criterion 3: zero deadlocks across criterion-2 runs; "
          "mutation fixture detected")


def test_criterion_4_corpus(corpus):
    """The case-study transcriptions behave exactly as hand-counted."""
    client = parties("client")
    checked = []
    for name in ("kvs", "kvs_replicated", "bookseller", "delegation",
                 "cache_flags", "cache_flags_full"):
        prog = corpus(name)
        typecheck(prog.theta, prog.core)
        out = simulate(Network(project_all(prog.core)), seed=0)
        assert out.deadlock is None, name
        checked.append(name)

    def messages(prog, *args):
        e = prog.core
        for arg in args:
            e = App(e, Val(arg))
        typecheck(prog.theta, e)
        members = roles(e)
        value = run(e)
        out = simulate(Network(project_all(e, members)), seed=0)
        assert out.deadlock is None
        assert out.network == Network({p: project(Val(value), p)
                                       for p in members})
        return out

    kvs = corpus("kvs")
    assert messages(kvs, Inl(Unit(client))).messages == 4
    assert messages(kvs, Inr(Unit(client))).messages == 3
    replicated = corpus("kvs_replicated")
    assert messages(replicated, Inl(Unit(client))).messages == 3
    assert messages(replicated, Inr(Unit(client))).messages == 3

    delegation = corpus("delegation")
    alice, bob = parties("alice"), parties("bob")

    def bob_to_alice(choice):
        inputs = Vec((choice, Unit(bob), Unit(alice)))
        out = messages(delegation, inputs)
        return any(s.origin == "bob" and "alice" in s.recipients
                   for s in out.trace)

    assert bob_to_alice(Inl(Unit(alice)))
    assert not bob_to_alice(Inr(Unit(alice)))
    print(f"\nPASS criterion 4: {', '.join(checked)} typecheck, project and "
          "simulate deadlock-free; KVS put=4/get=3, replicated variant=3, "
          "delegation routes bob's query only on the first branch")


def test_criterion_5_koc_rejection(corpus):
    """Branching without knowledge of choice is a masking failure at the
    guard; one multicast fixes it."""
    bad = corpus("bad_koc")
    with pytest.raises(TypeErr) as exc:
        typecheck(bad.theta, bad.core)
    assert exc.value.kind == "MaskUndefined"
    assert exc.value.span is not None
    good = corpus("good_koc")
    typecheck(good.theta, good.core)
    print("\nPASS criterion 5: guard owned by one party rejected "
          f"({exc.value.kind}); the com-mended program accepted")


def test_criterion_6_single_step_golden():
    """One multicast crosses the whole network in exactly one real step."""
    e = App(Val(Com("s", parties("p", "q"))), Val(Unit(parties("s"))))
    typecheck(parties("p", "q", "s"), e)
    net = Network(project_all(e))
    assert net == Network({
        "s": BApp(Send(("p", "q")), LUnit()),
        "p": BApp(Recv("s"), BOTTOM),
        "q": BApp(Recv("s"), BOTTOM),
    })
    steps = enumerate_net_steps(net)
    assert len(steps) == 1
    after, info = steps[0]
    assert info.rule == "NCOM" and info.recipients == ("p", "q")
    assert after.all_values()
    assert after == Network({"s": BOTTOM, "p": LUnit(), "q": LUnit()})
    print("\nPASS criterion 6: three-party projection reaches all-values in "
          "exactly one real step")


def test_criterion_7_masking_laws():
    """Idempotence, owner-subset restriction, and maskability on 10k pairs
    in <10s."""
    started = time.time()
    report = masking_laws(CFG, pairs=N_MASK_PAIRS, seed=0)
    elapsed = time.time() - started
    assert report.instances == N_MASK_PAIRS
    assert report.ok(), report.failures[:3]
    assert elapsed < 10, f"masking laws took {elapsed:.1f}s"
    print(f"\nPASS criterion 7: {N_MASK_PAIRS} pairs satisfy the masking "
          f"laws in {elapsed:.1f}s")


def test_criterion_8_round_trip(instances, corpus, corpus_dir):
    """parse after print is the identity on the corpus and 1000 generated
    terms."""
    mismatches = 0
    for path in sorted(corpus_dir.glob("*.hll")):
        prog = corpus(path.stem)
        text = print_expr(prog.core)
        again, _ = desugar(parse(text), theta=prog.theta)
        if again != prog.core or print_expr(again) != text:
            mismatches += 1
    for inst in instances:
        text = print_expr(inst.expr)
        again, _ = desugar(parse(text), theta=inst.theta)
        if again != inst.expr or print_expr(again) != text:
            mismatches += 1
    assert mismatches == 0
    print(f"\nPASS criterion 8: {len(instances)} generated terms and the "
          f"corpus round-trip with zero mismatches")


def test_criterion_9_enabled_steps_commute(instances):
    """The premise partial-order exploration rests on: at every state of
    each instance's seed-0 run, every pair of enabled steps commutes."""
    started = time.time()
    report = PropertyReport("parallelism")
    for inst in instances:
        report.instances += 1
        parallelism_property(inst, report)
    elapsed = time.time() - started
    assert report.ok(), report.failures[:3]
    print(f"\nPASS criterion 9: enabled steps commute at every state of "
          f"{report.instances} instances' runs in {elapsed:.1f}s")
