"""Local stepping, rendezvous matching, the scheduler, and deadlock detection."""

import pytest

import helam
from helam.generate import GenConfig, gen_instance
from helam.network import (
    DeadlockReport, NetStep, Network, RecvAction, SendAction, Silent,
    SimulationFault, _enumerate, _enumerate_cached, enumerate_net_steps,
    explore, format_trace, next_action, replay, simulate,
)
from helam.projection import floor, project, project_all, roles
from helam.semantics import run
from helam.surface import compile_text
from helam.syntax import (
    PENDING, App, BApp, BOTTOM, Com, LInl, LLam, LPair, LUnit, LVar, Recv,
    Send, SendSelf, Unit, Val, parties,
)

from conftest import CORPUS_FILES

PQ = parties("p", "q")

COM_NET = Network(project_all(App(Val(Com("s", PQ)),
                                  Val(Unit(parties("s"))))))


class TestLocalStep:
    def test_send_emits_one_annotation_per_recipient(self):
        act = next_action(BApp(Send(("p", "q")), LUnit()))
        assert act == SendAction(("p", "q"), LUnit(), BOTTOM, "LSEND")

    def test_send_to_nobody_is_silent(self):
        net = Network({"p": BApp(SendSelf(()), LUnit())})
        assert enumerate_net_steps(net) == [
            (Network({"p": LUnit()}), NetStep("p", "NPRO"))]

    def test_self_send_keeps_the_value(self):
        act = next_action(BApp(SendSelf(("q",)), LInl(LUnit())))
        assert isinstance(act, SendAction)
        assert act.result == LInl(LUnit())
        assert (act.recipients, act.payload) == (("q",), LInl(LUnit()))

    def test_receive_is_symbolic(self):
        act = next_action(BApp(Recv("s"), LUnit()))
        assert isinstance(act, RecvAction) and act.sender == "s"
        assert act.resolve(LInl(LUnit())) == LInl(LUnit())

    def test_receive_from_wrong_sender_does_not_match(self):
        net = Network({"t": BApp(Send(("r",)), LUnit()),
                       "r": BApp(Recv("s"), LUnit())})
        assert enumerate_net_steps(net) == []

    def test_receive_argument_is_ignored(self):
        act = next_action(BApp(Recv("s"), BOTTOM))
        assert act.resolve(LUnit()) == LUnit()

    def test_beta_floors_the_result(self):
        b = BApp(LLam("x", LPair(LVar("x"), LVar("x"))), LUnit())
        assert next_action(b) == Silent(LPair(LUnit(), LUnit()), "LABSAPP")

    def test_values_do_not_step(self):
        assert next_action(LUnit()) is None
        assert next_action(BOTTOM) is None

    def test_sending_a_function_is_a_fault(self):
        with pytest.raises(SimulationFault):
            next_action(BApp(Send(("q",)), LLam("x", LVar("x"))))


class TestEnumerate:
    def test_multicast_is_one_atomic_step(self):
        steps = enumerate_net_steps(COM_NET)
        assert len(steps) == 1
        net, info = steps[0]
        assert info.origin == "s"
        assert info.recipients == ("p", "q")
        assert net == Network({"s": BOTTOM, "p": LUnit(), "q": LUnit()})

    def test_all_values_means_no_steps(self):
        assert enumerate_net_steps(Network({"p": LUnit()})) == []

    def test_independent_silent_steps_commute(self):
        redex = BApp(LLam("x", LVar("x")), LUnit())
        net = Network({"p": redex, "q": redex})
        steps = enumerate_net_steps(net)
        assert sorted(info.origin for _, info in steps) == ["p", "q"]
        finals = {replay(net, [a, b]) for a, b in (("p", "q"), ("q", "p"))}
        assert len(finals) == 1

    def test_sender_blocks_until_every_recipient_is_ready(self):
        busy_recv = BApp(Recv("s"), BApp(LLam("x", LVar("x")), LUnit()))
        net = Network({"s": BApp(Send(("p",)), LUnit()), "p": busy_recv})
        [(_, info)] = enumerate_net_steps(net)
        assert info.origin == "p"  # only p's internal step is available


class TestSimulate:
    def test_multicast_completes_in_one_step(self):
        out = simulate(COM_NET, seed=0)
        assert out.deadlock is None
        assert len(out.trace) == 1
        assert out.messages == 2

    def test_mutual_waiting_is_reported(self):
        net = Network({"p": BApp(Recv("q"), BOTTOM),
                       "q": BApp(Recv("p"), BOTTOM)})
        out = simulate(net, seed=0)
        assert isinstance(out.deadlock, DeadlockReport)
        assert out.deadlock.party == "p"

    def test_unmatched_send_is_reported(self):
        net = Network({"p": BApp(Send(("q",)), LUnit()),
                       "q": LUnit()})
        out = simulate(net, seed=0)
        assert out.deadlock is not None

    def test_trace_format(self):
        out = simulate(COM_NET, seed=0)
        assert format_trace(out.trace) == "step 1: s -> [p, q] : ()\n"

    def test_empty_trace(self):
        out = simulate(Network({"p": LUnit()}), seed=0)
        assert out.trace == []
        assert format_trace(out.trace) == ""

    def test_running_out_of_fuel_raises_the_package_error(self, corpus):
        net = Network(project_all(corpus("kvs_put").core))
        with pytest.raises(helam.FuelExhausted):
            simulate(net, fuel=0)


def test_recipient_already_owning_the_value_still_rendezvouses():
    # com[s][r] of a value r co-owns: r's receive argument is its own copy,
    # which the incoming message simply replaces
    e = App(Val(Com("s", parties("r"))), Val(Unit(parties("r", "s"))))
    net = Network(project_all(e))
    assert net["r"] == BApp(Recv("s"), LUnit())
    out = simulate(net, seed=0)
    assert out.deadlock is None
    assert out.network == Network({"r": LUnit(), "s": BOTTOM})


class TestExplore:
    def test_multicast_single_terminal(self):
        result = explore(COM_NET)
        assert result.complete
        assert result.terminals == {
            Network({"s": BOTTOM, "p": LUnit(), "q": LUnit()})}
        assert not result.deadlocks

    def test_deadlock_found_exhaustively(self):
        net = Network({"p": BApp(Recv("q"), BOTTOM),
                       "q": BApp(Recv("p"), BOTTOM)})
        result = explore(net)
        assert result.deadlocks

    def test_disjoint_pairs_are_explored_in_linear_states(self):
        # four disjoint com pairs: the unreduced state space has 187,200
        # states, the reduced search one per step of a single run
        names = "abcdefgh"
        text = "".join(f"let x{i} = com[{names[2 * i]}][{names[2 * i + 1]}]"
                       f" ()@[{names[2 * i]}];\n" for i in range(4))
        text += f"()@[{', '.join(names)}]"
        net = Network(project_all(compile_text(text).core))
        result = explore(net)
        assert result.complete and not result.deadlocks
        assert result.states == len(simulate(net).trace) + 1 == 37


# The unreduced search, kept only as the oracle for `explore`'s partial-order
# reduction: a DFS over every interleaving.  None once it passes its budget.
ORACLE_BUDGET = 20_000


def explore_every_interleaving(net):
    seen, frontier = {net}, [net]
    terminals, stuck = set(), set()
    while frontier:
        cur = frontier.pop()
        steps = _enumerate(cur)
        if not steps:
            terminals.add(cur)
            if cur.stuck_parties():
                stuck.add(tuple(cur.stuck_parties()))
        for nxt, _ in steps:
            if nxt in seen:
                continue
            if len(seen) >= ORACLE_BUDGET:
                return None
            seen.add(nxt)
            frontier.append(nxt)
    return terminals, stuck


def _oracle_networks(corpus):
    cfg = GenConfig(max_parties=4, max_depth=6)
    generated = [Network(project_all(gen_instance(cfg, seed).expr))
                 for seed in range(200)]
    programs = [Network(project_all(corpus(name).core))
                for name in CORPUS_FILES if name != "bad_koc"]
    # one pending party dropped: its partners wait forever, or not at all
    perturbed = [net.replace({p: BOTTOM}) for net in generated + programs
                 for p in net.parties() if isinstance(net[p], PENDING)]
    return {"generated": generated, "corpus": programs,
            "perturbed": perturbed}


def test_reduced_exploration_matches_every_interleaving(corpus):
    deadlocking = 0
    for group, nets in _oracle_networks(corpus).items():
        skipped = 0
        for net in nets:
            full = explore_every_interleaving(net)
            if full is None:
                skipped += 1
                continue
            result = explore(net)
            assert result.complete, (group, net)
            assert result.terminals == full[0], (group, net)
            assert {d.stuck for d in result.deadlocks} == full[1], (group, net)
            deadlocking += bool(full[1])
        print(f"{group}: {len(nets) - skipped} compared, {skipped} skipped "
              f"past {ORACLE_BUDGET} states")
        assert skipped < len(nets) // 10, group
    assert deadlocking > 0  # the perturbations reach real deadlocks


class TestNetworkType:
    def test_behaviors_are_floor_normalized_on_construction(self):
        net = Network({"p": LPair(BOTTOM, BOTTOM)})
        assert net["p"] == BOTTOM

    def test_nonempty_domain_required(self):
        with pytest.raises(ValueError):
            Network({})


class TestBuiltNormal:
    """Projection and every local step build floor-normal behaviors, so
    `floor` only normalizes what enters a `Network` from outside."""

    def test_projections_and_reachable_states_are_floor_normal(self):
        cfg = GenConfig(max_parties=4, max_depth=6)
        for seed in range(50):
            procs = project_all(gen_instance(cfg, seed).expr)
            for b in procs.values():
                assert floor(b) == b
            start = Network(procs)
            seen, frontier = {start}, [start]
            while frontier and len(seen) < 300:
                for nxt, _ in enumerate_net_steps(frontier.pop()):
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    frontier.append(nxt)
                    for p in nxt.parties():
                        assert floor(nxt[p]) == nxt[p], (seed, p)

    def test_floor_is_not_called_after_construction(self, corpus,
                                                    monkeypatch):
        core = corpus("kvs_put").core
        members = roles(core)
        goal = Network({p: project(Val(run(core)), p) for p in members})
        net = Network(project_all(core, members))
        # cached steps from other tests would hide a call
        next_action.cache_clear()
        _enumerate_cached.cache_clear()

        def refuse(*args):
            raise AssertionError("floor called on a built behavior")

        for name in ("helam.projection.floor", "helam.network.floor"):
            monkeypatch.setattr(name, refuse)
        out = simulate(net, seed=0)
        assert out.deadlock is None
        assert out.network == goal
        result = explore(net)
        assert result.complete and not result.deadlocks
        assert result.terminals == {goal}
