"""Property drivers at development scale, plus detector-sensitivity checks.

The full-size runs live in test_acceptance; these keep the feedback loop
fast while still exercising every driver.
"""

import random

from helam.generate import GenConfig, Instance, gen_instance
from helam.metatheory import (
    PropertyReport, agreement_property, central_trajectory, check_metatheory,
    masking_laws, parallelism_property, party_histories, scheduling_property,
)
from helam.network import Network, enumerate_net_steps, simulate, successor
from helam.projection import project_all
from helam.surface import compile_text
from helam.syntax import (
    App, Com, LUnit, Send, Unit, Val, parties, print_expr,
)
from helam.typecheck import typecheck
from conftest import CORPUS_FILES


def _fresh_reports(*names):
    return tuple(PropertyReport(n) for n in names)


def test_small_metatheory_run_is_clean():
    reports = check_metatheory(instances=60, seed=0, masking_pairs=300)
    for name, report in reports.items():
        assert report.ok(), f"{name}: {report.failures[:3]}"


def test_value_only_instance_passes_vacuously():
    cfg = GenConfig(max_depth=1)
    inst = gen_instance(cfg, 5)
    pres, prog = _fresh_reports("preservation", "progress")
    states = central_trajectory(inst, pres, prog)
    assert pres.ok() and prog.ok()
    assert len(states) >= 1


def test_broken_network_is_detected():
    # a send with its matching receive ripped out must show up as a deadlock
    e = App(Val(Com("s", parties("r"))), Val(Unit(parties("s"))))
    typecheck(parties("r", "s"), e)
    net = dict(project_all(e))
    net["r"] = LUnit()  # r no longer receives
    out = simulate(Network(net), seed=0)
    assert out.deadlock is not None
    assert out.deadlock.party == "s"


def test_tampered_final_state_is_distinguishable():
    # flipping a payload must break end-to-end agreement, proving the
    # comparison is not vacuous
    e = App(Val(Com("s", parties("r"))), Val(Unit(parties("s"))))
    out = simulate(Network(project_all(e)), seed=0)
    tampered = Network({"s": out.network["s"], "r": Send(("s",))})
    assert tampered != out.network


def test_agreement_holds_on_a_known_nondeterministic_instance():
    # two disjoint multicasts can interleave either way
    cfg = GenConfig(max_depth=5)
    agree, dead = _fresh_reports("epp-agreement", "deadlock-freedom")
    hits = 0
    for seed in range(80):
        inst = gen_instance(cfg, seed)
        if "com[" not in print_expr(inst.expr):
            continue
        agreement_property(inst, agree, dead, seeds=10)
        hits += 1
    assert hits > 5
    assert agree.ok(), agree.failures[:3]
    assert dead.ok(), dead.failures[:3]


def test_exploration_stopped_at_its_budget_is_a_failure(monkeypatch):
    # a one-state budget cannot reach the multicast's terminal network
    e = App(Val(Com("s", parties("r"))), Val(Unit(parties("s"))))
    theta = parties("r", "s")
    inst = Instance(0, theta, typecheck(theta, e), e)
    agree, dead = _fresh_reports("epp-agreement", "deadlock-freedom")
    agreement_property(inst, agree, dead)
    assert agree.ok() and dead.ok()
    monkeypatch.setattr("helam.metatheory.EXPLORE_BUDGET", 1)
    agreement_property(inst, agree, dead)
    assert dead.ok()
    assert len(agree.failures) == 1
    assert "budget" in agree.failures[0].detail


def test_parallelism_detects_a_step_that_disables_another(monkeypatch):
    prog = compile_text("let a = com[s][r] ()@[s]; "
                        "let b = com[p][q] ()@[p]; ()@[p, q, r, s]")
    inst = Instance(0, prog.theta, typecheck(prog.theta, prog.core),
                    prog.core)
    start = Network(project_all(inst.expr))
    assert len(enumerate_net_steps(start)) > 1
    [report] = _fresh_reports("parallelism")
    parallelism_property(inst, report)
    assert report.ok(), report.failures
    # a broken stepper: every step from the start disables the other one
    monkeypatch.setattr(
        "helam.metatheory.successor",
        lambda net, step: successor(net, step) if net == start else None)
    parallelism_property(inst, report)
    assert len(report.failures) == 1
    assert "disables the other" in report.failures[0].detail


# The recording `simulate` once made on every step, kept only as the oracle
# for `party_histories`: the same scheduler choices, and a participant's
# behavior appended whenever a step changes it.
def simulate_with_histories(net, seed):
    rng = random.Random(seed)
    histories = {p: [net[p]] for p in net.parties()}
    while steps := enumerate_net_steps(net):
        nxt, info = steps[rng.randrange(len(steps))]
        for p in (info.origin, *info.recipients):
            if nxt[p] != net[p]:
                histories[p].append(nxt[p])
        net = nxt
    return histories


def test_replayed_histories_match_the_recorded_ones(corpus):
    cfg = GenConfig(max_parties=4, max_depth=6)
    nets = [Network(project_all(gen_instance(cfg, n).expr))
            for n in range(200)]
    nets += [Network(project_all(corpus(name).core))
             for name in CORPUS_FILES if name != "bad_koc"]
    moved = 0
    for net in nets:
        for seed in range(5):
            recorded = simulate_with_histories(net, seed)
            replayed = party_histories(net, simulate(net, seed).trace)
            assert replayed == recorded, (seed, net)
            moved += any(len(h) > 1 for h in recorded.values())
    assert moved > len(nets)  # the comparison is not over empty histories


def test_scheduling_detects_a_history_that_differs(monkeypatch):
    prog = compile_text("let a = com[s][r] ()@[s]; "
                        "let b = com[p][q] ()@[p]; ()@[p, q, r, s]")
    inst = Instance(0, prog.theta, typecheck(prog.theta, prog.core),
                    prog.core)
    [report] = _fresh_reports("scheduling-independence")
    scheduling_property(inst, report)
    assert report.ok(), report.failures
    calls = []

    def dropping(net, trace):
        # a broken replay: the second history loses one party's last entry
        histories = party_histories(net, trace)
        calls.append(trace)
        if len(calls) == 2:
            histories["s"].pop()
        return histories

    monkeypatch.setattr("helam.metatheory.party_histories", dropping)
    scheduling_property(inst, report)
    assert len(calls) == 2
    assert len(report.failures) == 1
    assert "differ across seeds" in report.failures[0].detail


def test_masking_laws_driver():
    report = masking_laws(GenConfig(), pairs=500, seed=3)
    assert report.instances == 500
    assert report.ok(), report.failures[:3]
