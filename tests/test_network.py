"""Local stepping, rendezvous matching, the scheduler, and deadlock detection."""

import gc
import random
import sys
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings

import helam
from helam.generate import GenConfig, gen_instance
from helam.network import (
    DeadlockReport, Exploration, Focus, Frame, NetStep, Network, RecvAction,
    SendAction, SimOutcome, Silent, SimulationFault, _enumerate,
    _enumerate_cached, _same, enumerate_net_steps, explore, focus,
    format_trace, next_action, plug, simulate, successor, take,
)
from helam.projection import (
    bapp, bcase, floor, local_subst, project, project_all, roles,
)
from helam.semantics import run
from helam.surface import compile_text
from helam.syntax import (
    App, BApp, BCase, BOTTOM, PENDING, Com, LFst, LInl, LInr, LLam, LLookup,
    LPair, LSnd, LUnit, LVar, LVec, Recv, Send, SendSelf, Unit, Val,
    free_vars, parties,
)
from helam.typecheck import typecheck

from conftest import (
    CONGRUENCE_PROGRAMS, CORPUS_FILES, com_chain, let_chain, oracle_networks,
)
from test_projection import (
    _behaviors, reference_local_fv, reference_local_subst,
)

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
        assert next_action(BApp(Recv("s"), LUnit())) == RecvAction("s")
        net = Network({"s": BApp(Send(("r",)), LInl(LUnit())),
                       "r": BApp(Recv("s"), LUnit())})
        [(after, _)] = enumerate_net_steps(net)
        assert after["r"] == LInl(LUnit())

    def test_receive_from_wrong_sender_does_not_match(self):
        net = Network({"t": BApp(Send(("r",)), LUnit()),
                       "r": BApp(Recv("s"), LUnit())})
        assert enumerate_net_steps(net) == []

    def test_receive_argument_is_ignored(self):
        assert next_action(BApp(Recv("s"), BOTTOM)) == RecvAction("s")
        net = Network({"s": BApp(Send(("r",)), LUnit()),
                       "r": BApp(Recv("s"), BOTTOM)})
        [(after, _)] = enumerate_net_steps(net)
        assert after["r"] == LUnit()

    def test_beta_floors_the_result(self):
        b = BApp(LLam("x", LPair(LVar("x"), LVar("x"))), LUnit())
        assert next_action(b) == Silent(LPair(LUnit(), LUnit()), "LABSAPP")

    def test_values_do_not_step(self):
        assert next_action(LUnit()) is None
        assert next_action(BOTTOM) is None

    def test_sending_a_function_is_a_fault(self):
        # a self-send too, with the same message
        for keyword in (Send(("q",)), SendSelf(("q",)), SendSelf(())):
            with pytest.raises(SimulationFault) as err:
                next_action(BApp(keyword, LLam("x", LVar("x"))))
            assert str(err.value) == "cannot send non-data value fn x. x"

    def test_projections_take_their_component(self):
        pair = LPair(LInl(LUnit()), LUnit())
        vec = LVec((LUnit(), LInr(LUnit()), LUnit()))
        assert next_action(BApp(LFst(), pair)) == Silent(LInl(LUnit()),
                                                         "LPROJ1")
        assert next_action(BApp(LSnd(), pair)) == Silent(LUnit(), "LPROJ2")
        assert next_action(BApp(LLookup(2), vec)) == Silent(LInr(LUnit()),
                                                            "LPROJN")
        assert next_action(BApp(LLookup(3), vec)) == Silent(LUnit(),
                                                            "LPROJN")

    def test_a_projection_of_the_missing_value_is_missing(self):
        # a silent step each, with the projection's own rule
        for keyword, rule in ((LFst(), "LPROJ1"), (LSnd(), "LPROJ2"),
                              (LLookup(1), "LPROJN"), (LLookup(9), "LPROJN")):
            b = BApp(keyword, BOTTOM)
            assert next_action(b) == Silent(BOTTOM, rule)
            [(after, info)] = enumerate_net_steps(Network({"p": b}))
            assert info == NetStep("p", "NPRO") and info.local_rule == rule
            assert after == Network({"p": BOTTOM})

    def test_a_projection_of_the_wrong_shape_has_no_action(self):
        pair = LPair(LUnit(), LUnit())
        vec = LVec((LUnit(), LUnit()))
        fn = LLam("x", LVar("x"))
        for keyword in (LFst(), LSnd()):
            for arg in (LUnit(), vec, LInl(LUnit()), fn):
                assert next_action(BApp(keyword, arg)) is None
        for arg in (LUnit(), pair, fn):
            assert next_action(BApp(LLookup(1), arg)) is None
        assert next_action(BApp(LLookup(3), vec)) is None
        net = Network({"p": BApp(LLookup(3), vec)})
        assert enumerate_net_steps(net) == []
        out = simulate(net)
        assert out.deadlock.stuck == (("p", BApp(LLookup(3), vec)),)


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
        finals = set()
        for after_first, first in steps:
            [(final, second)] = enumerate_net_steps(after_first)
            assert second.origin != first.origin
            finals.add(final)
        assert len(finals) == 1

    def test_a_missing_function_collapses_once_it_has_stepped(self):
        # the function position sends and is then missing, and so is the
        # application of it to a finished argument
        net = Network({"p": BApp(BApp(Send(("q",)), LUnit()), LUnit()),
                       "q": BApp(Recv("p"), BOTTOM)})
        out = simulate(net, seed=0)
        assert out.deadlock is None
        assert out.network == Network({"p": BOTTOM, "q": LUnit()})

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


def test_counts_match_their_per_step_definitions():
    """`messages` and `rendezvous_steps` equal their per-step definitions on
    every trace of generated instances 0-199, seeds 0-2."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    rendezvous = 0
    for n in range(200):
        net = Network(project_all(gen_instance(cfg, n).expr))
        for seed in range(3):
            out = simulate(net, seed)
            assert out.messages == sum(s.messages() for s in out.trace), n
            assert out.rendezvous_steps == sum(
                1 for s in out.trace if s.rule == "NCOM"), n
            rendezvous += out.rendezvous_steps
    assert rendezvous > 0


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
        for nxt in (take(cur, s) for s in steps):
            if nxt in seen:
                continue
            if len(seen) >= ORACLE_BUDGET:
                return None
            seen.add(nxt)
            frontier.append(nxt)
    return terminals, stuck


def test_reduced_exploration_matches_every_interleaving(corpus):
    deadlocking = 0
    for group, nets in oracle_networks(corpus).items():
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


# The eager stepper that built every enabled step's successor at once, and
# the runs on it, kept only as the oracle for the lazy successors of
# `simulate`, `explore` and `enumerate_net_steps`.
def _reference_pairs(net):
    pairs = []
    focused = net._parties
    for p in net.parties():
        act = focused[p].action()
        match act:
            case None | RecvAction():
                continue
            case Silent(result, _):
                pairs.append((net._replace({p: result}), NetStep(p, "NPRO")))
            case SendAction(recipients, payload, result, _):
                if not recipients:
                    pairs.append((net._replace({p: result}),
                                  NetStep(p, "NPRO")))
                    continue
                updates = {p: result}
                for r in recipients:
                    recv = focused[r].action()
                    if not (isinstance(recv, RecvAction) and recv.sender == p):
                        break
                    updates[r] = focus(payload, focused[r].frame)
                else:
                    pairs.append((net._replace(updates),
                                  NetStep(p, "NCOM", recipients, payload)))
    return pairs


def _reference_simulate(net, seed=0, fuel=100_000):
    rng = random.Random(seed)
    trace = []
    nondet = False
    for _ in range(fuel + 1):
        steps = _reference_pairs(net)
        if not steps:
            stuck = net.stuck_parties()
            report = DeadlockReport(tuple(stuck)) if stuck else None
            return SimOutcome(net, trace, report, nondet)
        if len(steps) > 1:
            nondet = True
        net, info = steps[rng.randrange(len(steps))]
        trace.append(info)
    raise helam.FuelExhausted(f"network still active after {fuel} steps")


def _reference_explore(net, budget=100_000):
    states = 1
    while steps := _reference_pairs(net):
        if states >= budget:
            return Exploration(set(), [], states, False)
        net = steps[0][0]
        states += 1
    stuck = net.stuck_parties()
    deadlocks = [DeadlockReport(tuple(stuck))] if stuck else []
    return Exploration({net}, deadlocks, states, True)


def test_lazy_successors_match_the_eager_stepper():
    """On the acceptance instances, `simulate` (seeds 0-9) and `explore`
    give what the eager stepper gives, and `enumerate_net_steps` equals
    its pairs at every state those runs reach."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    compared = 0
    for n in range(120):
        net = Network(project_all(gen_instance(cfg, n).expr))
        reached = {net}
        for seed in range(10):
            lazy, eager = simulate(net, seed), _reference_simulate(net, seed)
            assert lazy.trace == eager.trace, (n, seed)
            assert lazy.network == eager.network, (n, seed)
            assert lazy.nondeterministic == eager.nondeterministic, (n, seed)
            assert lazy.deadlock == eager.deadlock, (n, seed)
            cur = net
            for taken in eager.trace:
                cur = next(nxt for nxt, info in _reference_pairs(cur)
                           if info == taken)
                reached.add(cur)
        lazy, eager = explore(net), _reference_explore(net)
        assert (lazy.states, lazy.terminals, lazy.deadlocks, lazy.complete) \
            == (eager.states, eager.terminals, eager.deadlocks,
                eager.complete), n
        cur = net
        while pairs := _reference_pairs(cur):
            cur = pairs[0][0]
            reached.add(cur)
        for state in reached:
            assert enumerate_net_steps(state) == _reference_pairs(state), n
        compared += len(reached)
    print(f"{compared} states compared")


def test_the_scheduler_draw_is_randrange():
    """`simulate` draws with `Random._randbelow`, which must give the same
    numbers as `randrange`, bits consumed included, or every recorded
    trace would move."""
    for seed in range(100):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(3):
            for n in range(1, 41):
                assert fast._randbelow(n) == slow.randrange(n), (seed, n)


def test_a_repeated_run_walks_the_cached_records(monkeypatch):
    """A run over steps already taken hashes only the network it starts
    from, to find its record, and builds no successor."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    nets = [Network(project_all(gen_instance(cfg, n).expr))
            for n in range(20)]
    first = {(n, seed): simulate(net, seed)
             for n, net in enumerate(nets) for seed in range(5)}
    calls = {"hash": 0, "take": 0}
    network_hash, network_take = Network.__hash__, helam.network.take

    def counted_hash(net):
        calls["hash"] += 1
        return network_hash(net)

    def counted_take(net, step):
        calls["take"] += 1
        return network_take(net, step)

    monkeypatch.setattr(Network, "__hash__", counted_hash)
    monkeypatch.setattr(helam.network, "take", counted_take)
    for (n, seed), out in first.items():
        calls["hash"] = 0
        again = simulate(nets[n], seed)
        assert calls["hash"] <= 1 and calls["take"] == 0, (n, seed)
        assert again.trace == out.trace and again.network == out.network


def test_links_between_records_are_bounded(monkeypatch):
    """A link keeps the network it points to alive, so links are bounded:
    the link past _MAX_LINKS drops them all.  A network the cache keeps
    then keeps at most that many others alive, and runs are unchanged."""
    text = "".join(f"let x{i} = com[u{2 * i}][u{2 * i + 1}] ()@[u{2 * i}];\n"
                   for i in range(3)) + "()@[u0, u1, u2, u3, u4, u5]"
    net = Network(project_all(compile_text(text).core))
    expected = [_reference_simulate(net, seed) for seed in range(10)]
    monkeypatch.setattr(helam.network, "_MAX_LINKS", 3)
    monkeypatch.setattr(helam.network, "_linked", [])
    _enumerate_cached.cache_clear()
    root = _enumerate_cached(net)
    for seed, out in enumerate(expected):
        again = simulate(net, seed)
        assert len(helam.network._linked) <= 3
        assert again.trace == out.trace and again.network == out.network
    _enumerate_cached.cache_clear()
    gc.collect()
    live = [o for o in gc.get_objects() if isinstance(o, Network)
            and hasattr(o, "_succ") and o.parties() == root.parties()]
    assert len(live) <= 1 + 2 * 3, len(live)


def test_the_cache_keeps_one_network_per_state():
    """`_enumerate_cached` hands back one network per state, a run ends on
    that network, and the steps and links kept on it take no part in
    equality or hashing."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    _enumerate_cached.cache_clear()
    for n in range(20):
        procs = project_all(gen_instance(cfg, n).expr)
        first, second = Network(procs), Network(procs)
        kept = _enumerate_cached(first)
        assert kept is first and _enumerate_cached(second) is kept, n
        assert hasattr(kept, "_succ") and not hasattr(second, "_succ"), n
        assert kept == second and hash(kept) == hash(second), n
        for seed in range(5):
            end = simulate(second, seed).network
            assert end is _enumerate_cached(end), (n, seed)


def test_equal_pairs_are_one_focus_while_the_table_holds_them():
    """`focus` interns: equal behaviors built apart decompose into one
    `Focus` object, until the table is emptied; one built after that is a
    new object, equal to the old and of the same hash."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    focus.cache_clear()
    for n in range(50):
        first = project_all(gen_instance(cfg, n).expr)
        second = project_all(gen_instance(cfg, n).expr)
        for p, b in first.items():
            assert focus(b) is focus(second[p]), (n, p)
    before = {n: focus(b) for n, b in enumerate(first.values())}
    focus.cache_clear()
    for n, b in enumerate(first.values()):
        after = focus(b)
        assert after is not before[n]
        assert after == before[n] and hash(after) == hash(before[n])


def _behavior_pool():
    """Small behaviors of every kind `_same` reads itself, over leaves that
    include LLookup(-1) and LLookup(-2): -1 and -2 hash alike in CPython,
    so two behaviors that differ only there have the same hash."""
    leaves = [LLookup(-1), LLookup(-2), LUnit(), BOTTOM, LVar("x")]
    pool = list(leaves)
    for a in leaves:
        pool += [LLam("x", a), LLam("y", a), LInl(a), LInr(a), LVec((a,))]
        for b in leaves:
            pool += [BApp(a, b), BCase(a, "v", b, "w", LUnit()),
                     LPair(a, b), LVec((a, b))]
    return pool


def _frame_key(frame):
    return None if frame is None else (frame.hole, frame.rest,
                                       _frame_key(frame.parent))


def test_same_is_equality_on_behaviors_frames_and_foci():
    assert hash(LLookup(-1)) == hash(LLookup(-2))
    # built twice, so that no pair is equal by identity alone
    pool, twin = _behavior_pool(), _behavior_pool()
    for a in pool:
        for b in twin:
            assert _same([(a, b)]) == (a == b), (a, b)
    frames = [None]
    for b in pool[:40]:
        frames += [Frame("fn", (b,), frames[-1]), Frame("arg", (b,), None),
                   Frame("scrut", ("v", b, "w", LUnit()), frames[-1])]
    for fa in frames[1:]:
        for fb in frames:
            rebuilt = fb and Frame(fb.hole, fb.rest, fb.parent)
            same = _frame_key(fa) == _frame_key(rebuilt)
            assert (fa == rebuilt) == same and (rebuilt == fa) == same
            assert (Focus(LUnit(), fa) == Focus(LUnit(), rebuilt)) == same
    # foci whose hashes collide at every node above where they differ
    for redex_differs in (True, False):
        one, other = (
            Focus(BApp(LLam("y", LVec((LUnit(), n if redex_differs
                                       else LUnit()))), LUnit()),
                  Frame("fn", (LInr(LUnit() if redex_differs else n),),
                        None))
            for n in (LLookup(-1), LLookup(-2)))
        assert hash(one) == hash(other)
        assert one != other and other != one
    # binder names and holes are compared even where the hashes collide,
    # which is forced here, since no two strings can be made to collide
    for one, other in ((LLam("x", LUnit()), LLam("y", LUnit())),
                       (BCase(BOTTOM, "v", LUnit(), "w", LUnit()),
                        BCase(BOTTOM, "v", LUnit(), "u", LUnit())),
                       (Frame("fn", (LUnit(),), None),
                        Frame("arg", (LUnit(),), None))):
        other._hash = one._hash
        assert not _same([(one, other)]) and not _same([(other, one)])
    assert Focus(LUnit(), None) != LUnit() and Frame("fn", (), None) != ()


def test_a_three_entry_focus_table_changes_no_run(monkeypatch):
    """With the intern table bounded at 3 entries, so that it is emptied
    every few lookups, `simulate` (seeds 0-2) and `explore` on instances
    0-199 still give what the eager stepper gives, and a network built
    before the table is emptied equals, and hashes as, one built after."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    procs = [project_all(gen_instance(cfg, n).expr) for n in range(200)]
    expected = []
    for p in procs:
        net = Network(p)
        expected.append(([_reference_simulate(net, seed) for seed in range(3)],
                         _reference_explore(net)))
    monkeypatch.setattr(helam.network, "_MAX_FOCI", 3)
    _clear_step_caches()
    try:
        for n, p in enumerate(procs):
            before = Network(p)
            focus.cache_clear()
            net = Network(p)
            assert net == before and hash(net) == hash(before), n
            runs, eager = expected[n]
            for seed, out in enumerate(runs):
                lazy = simulate(net, seed)
                assert (lazy.trace, lazy.network, lazy.deadlock,
                        lazy.nondeterministic) == (
                    out.trace, out.network, out.deadlock,
                    out.nondeterministic), (n, seed)
            lazy = explore(net)
            assert (lazy.states, lazy.terminals, lazy.deadlocks,
                    lazy.complete) == (eager.states, eager.terminals,
                                       eager.deadlocks, eager.complete), n
            assert len(helam.network._foci) <= 3
    finally:
        _clear_step_caches()


def test_each_memoized_action_is_the_one_computed_afresh(reachable):
    """At every reachable state, each party's memoized action equals its
    redex's `next_action` with the result refocused under its frames,
    computed after the intern table is emptied, so that the results are
    new objects, compared by structure."""
    foci = {id(f): f for states in reachable.values() for net in states
            for f in net._parties.values()}
    focus.cache_clear()
    fresh = 0
    for f in foci.values():
        act = next_action(f.redex)
        if isinstance(act, Silent):
            act = Silent(focus(act.result, f.frame), act.rule)
        elif isinstance(act, SendAction):
            act = SendAction(act.recipients, act.payload,
                             focus(act.result, f.frame), act.rule)
        memo = f.action()
        assert memo == act and memo is f.action()
        if isinstance(act, (Silent, SendAction)):
            assert hash(memo.result) == hash(act.result)
            fresh += memo.result is not act.result
    assert fresh > 1000


def test_each_step_keeps_its_origins_local_rule():
    """Every enabled step at every state the seed-0 runs of instances
    0-199 pass carries the rule of `next_action` on its origin's redex; a
    rendezvous is a send.  The rule is left out of equality and hashing."""
    rules = set()
    for n in range(200):
        net = _enumerate_cached(
            Network(project_all(gen_instance(GenConfig(), n).expr)))
        for taken in simulate(net, 0).trace + [None]:
            for step in net._steps:
                redex = net._parties[step.origin].redex
                assert step.local_rule == next_action(redex).rule, n
                if step.rule == "NCOM":
                    assert step.local_rule in ("LSEND", "LSENDSELF"), n
                rules.add(step.local_rule)
            if taken is not None:
                net = successor(net, taken)
    assert {"LABSAPP", "LCASEL", "LSEND", "LSENDSELF"} <= rules
    bare = NetStep("p", "NPRO")
    assert bare.local_rule is None
    assert bare == NetStep("p", "NPRO", local_rule="LABSAPP")
    assert hash(bare) == hash(NetStep("p", "NPRO", local_rule="LCASEL"))


def test_party_order_does_not_depend_on_insertion_order():
    cfg = GenConfig(max_parties=4, max_depth=6)
    for n in range(20):
        procs = project_all(gen_instance(cfg, n).expr)
        built = []
        for order in (sorted(procs), sorted(procs, reverse=True)):
            _enumerate_cached.cache_clear()
            net = Network({p: procs[p] for p in order})
            built.append((hash(net), net.parties(), enumerate_net_steps(net)))
        assert built[0] == built[1], n
        assert built[0][1] == tuple(sorted(procs)), n


class TestNetworkType:
    def test_floor_normalizes_behaviors_built_by_hand(self):
        net = Network({"p": floor(LPair(BOTTOM, BOTTOM))})
        assert net["p"] == BOTTOM
        assert net == Network({"p": BOTTOM})
        # a network takes its behaviors as they are
        assert Network({"p": LPair(BOTTOM, BOTTOM)}) != net

    def test_nonempty_domain_required(self):
        with pytest.raises(ValueError):
            Network({})


class TestBuiltNormal:
    """Projection and every local step build floor-normal behaviors, so
    `floor` only normalizes behaviors built by hand, and a `Network` takes
    its behaviors as they are."""

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
        value = run(core)
        # cached steps from other tests would hide a call
        next_action.cache_clear()
        focus.cache_clear()
        _enumerate_cached.cache_clear()

        def refuse(*args):
            raise AssertionError("floor called on a built behavior")

        monkeypatch.setattr("helam.projection.floor", refuse)
        goal = Network({p: project(Val(value), p) for p in members})
        net = Network(project_all(core, members))
        out = simulate(net, seed=0)
        assert out.deadlock is None
        assert out.network == goal
        result = explore(net)
        assert result.complete and not result.deadlocks
        assert result.terminals == {goal}

    def test_networks_of_projections_equal_their_floored_networks(
            self, corpus):
        cfg = GenConfig(max_parties=4, max_depth=6)
        exprs = [gen_instance(cfg, seed).expr for seed in range(200)]
        exprs += [corpus(name).core for name in CORPUS_FILES]
        for e in exprs:
            procs = project_all(e)
            net = Network(procs)
            floored = Network({p: floor(b) for p, b in procs.items()})
            assert net == floored and hash(net) == hash(floored), e


class TestCongruence:
    """The programs of `CONGRUENCE_PROGRAMS` reach their congruence rule."""

    @pytest.mark.parametrize("text, rule", list(CONGRUENCE_PROGRAMS.values()),
                             ids=list(CONGRUENCE_PROGRAMS))
    def test_network_steps_under_a_pending_position(self, tmp_path, text,
                                                    rule):
        source = tmp_path / "congruence.hll"
        source.write_text(text + "\n")
        prog = compile_text(source.read_text())
        typecheck(prog.theta, prog.core)
        value = run(prog.core)
        goal = Network({p: project(Val(value), p) for p in prog.theta})
        net = Network(project_all(prog.core))
        for seed in range(20):
            out = simulate(net, seed=seed)
            assert out.deadlock is None and out.network == goal, seed
        result = explore(net)
        assert result.complete and not result.deadlocks
        assert result.terminals == {goal}
        # the rules each party would take next along explore's path
        seen, cur = set(), net
        while True:
            actions = (reference_next_action(cur[p]) for p in cur.parties())
            seen |= {a.rule for a in actions if a is not None}
            steps = enumerate_net_steps(cur)
            if not steps:
                break
            cur = steps[0][0]
        assert rule in seen


# ---------------------------------------------------------------------------
# the focused stepper against the one-step relation on whole behaviors

@dataclass(frozen=True)
class ReferenceRecv:
    """A receive in the reference relation: the behavior it becomes, as a
    function of the payload that arrives."""

    sender: str
    resolve: Callable
    rule: str = "LRECV"


def reference_next_action(b):
    """The unique step of the whole behavior b, if any: `next_action`'s
    redex rules under the congruence rules, which descend into the first
    pending child, function before argument, and rebuild the node around
    the child's result.  Kept only as the oracle for the focused stepper,
    which finds the redex by `focus` instead."""
    match b:
        case BApp(fn, arg) if isinstance(fn, PENDING):
            return _wrap(reference_next_action(fn),
                         lambda f2: bapp(f2, arg), "LAPP2")
        case BApp(fn, arg) if isinstance(arg, PENDING):
            return _wrap(reference_next_action(arg),
                         lambda a2: bapp(fn, a2), "LAPP1")
        case BCase(scrut, xl, bl, xr, br) if isinstance(scrut, PENDING):
            return _wrap(reference_next_action(scrut),
                         lambda s2: bcase(s2, xl, bl, xr, br), "LCASE")
    act = next_action(b)
    if isinstance(act, RecvAction):
        return ReferenceRecv(act.sender, lambda l: l)
    return act


def _wrap(inner, ctx, rule):
    # congruence: the send/receive label is inherited, the result rebuilt
    # through a smart constructor, and the step is named for the outermost
    # rule applied
    match inner:
        case None:
            return None
        case Silent(result, _):
            return Silent(ctx(result), rule)
        case SendAction(recipients, payload, result, _):
            return SendAction(recipients, payload, ctx(result), rule)
        case ReferenceRecv(sender, resolve, _):
            return ReferenceRecv(sender, lambda l: ctx(resolve(l)), rule)


CONGRUENCE_RULES = {"fn": "LAPP2", "arg": "LAPP1", "scrut": "LCASE"}


def _outermost(frame):
    while frame.parent is not None:
        frame = frame.parent
    return frame


def _payloads(net, p):
    """What p's sender offers it in this state when p waits to receive, or
    a stand-in when it offers nothing yet: a receive takes what arrives."""
    act = net._parties[p].action()
    if not isinstance(act, RecvAction):
        return ()
    offer = net._parties.get(act.sender, focus(LUnit())).action()
    if isinstance(offer, SendAction) and p in offer.recipients:
        return (offer.payload,)
    return (LUnit(),)


def _check_focused_step(net, p, payloads):
    """Compare p's focused step with `reference_next_action` on its plugged
    behavior; the oracle's rule, or None when p has no step."""
    b = net[p]
    stored = net._parties[p]
    assert stored == focus(b) and hash(stored) == hash(focus(b))
    oracle = reference_next_action(b)
    act = stored.action()
    if oracle is None:
        assert act is None
        return None
    redex, frame = stored.redex, stored.frame
    assert act.rule == next_action(redex).rule
    if frame is None:
        assert oracle.rule == act.rule
    else:
        assert oracle.rule == CONGRUENCE_RULES[_outermost(frame).hole]
    if isinstance(oracle, ReferenceRecv):
        assert isinstance(act, RecvAction) and act.sender == oracle.sender
        # the receiver becomes the payload, refocused as `_enumerate` does
        for payload in payloads:
            assert plug(focus(payload, frame)) == oracle.resolve(payload)
    else:
        assert type(act) is type(oracle)
        assert plug(act.result) == oracle.result
    if isinstance(oracle, SendAction):
        assert act.recipients == oracle.recipients
        assert act.payload == oracle.payload
    return oracle.rule


def test_focused_steps_match_next_action(reachable):
    """At every state `explore` and `simulate` reach, each party's focused
    step agrees with `reference_next_action` on its plugged behavior: kind,
    sender, recipients, payload and result, a receive resolved with the
    payload its sender offers.  A party met again in the same focused
    state, offered the same payloads, is checked once."""
    for group, states in reachable.items():
        checked, rules = set(), set()
        for net in states:
            for p in net.parties():
                key = (p, net._parties[p], _payloads(net, p))
                if key not in checked:
                    checked.add(key)
                    rules.add(_check_focused_step(net, p, key[2]))
        print(f"{group}: {len(states)} states, {len(checked)} party states,"
              f" rules {sorted(map(str, rules))}")
        if group == "congruence":
            assert {"LAPP1", "LAPP2", "LCASE"} <= rules


@settings(max_examples=200, deadline=None)
@given(_behaviors)
def test_focused_step_matches_next_action_on_raw_behaviors(b):
    net = Network({"p": floor(b)})
    try:
        reference_next_action(net["p"])
    except SimulationFault:
        with pytest.raises(SimulationFault):
            net._parties["p"].action()
        return
    _check_focused_step(net, "p", (LUnit(), LInl(LUnit()), BOTTOM))


# ---------------------------------------------------------------------------
# local substitution against the walk that never skips a subterm

def _local_substitution(redex):
    """The body, variable and value that `next_action` substitutes for
    redex, for the rules that substitute."""
    match redex:
        case BApp(LLam(param, body), arg):
            return body, param, arg
        case BCase(LInl(payload), xl, bl, _, _):
            return bl, xl, payload
        case BCase(LInr(payload), _, _, xr, br):
            return br, xr, payload


def test_local_substitutions_match_the_reference(reachable):
    """At every reachable state, each party's substitution equals the
    reference's, and one for a variable not free is its body itself."""
    substituted = 0
    for states in reachable.values():
        for net in states:
            for party in net._parties.values():
                found = _local_substitution(party.redex)
                if found is None:
                    continue
                body, x, value = found
                assert free_vars(body) == reference_local_fv(body)
                assert local_subst(body, x, value) == \
                    reference_local_subst(body, x, value)
                assert local_subst(body, "absent", value) is body
                substituted += 1
    assert substituted > 10_000


def _clear_step_caches():
    next_action.cache_clear()
    focus.cache_clear()
    _enumerate_cached.cache_clear()


def test_simulations_are_the_reference_substitutions(monkeypatch):
    """Instances 0-999 simulate to the same traces and networks, and
    explore to the same states, with each substitution made by the walk
    that never skips."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    nets = [Network(project_all(gen_instance(cfg, n).expr))
            for n in range(1000)]

    def outcomes():
        _clear_step_caches()
        runs = [simulate(net, seed) for net in nets for seed in range(3)]
        explored = [explore(net) for net in nets]
        return ([(r.trace, r.network, r.deadlock) for r in runs],
                [(e.states, e.terminals, e.deadlocks) for e in explored])

    expected = outcomes()
    monkeypatch.setattr("helam.network.local_subst", reference_local_subst)
    try:
        assert outcomes() == expected
    finally:
        _clear_step_caches()


def test_deep_let_chain_at_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(50_000)
    try:
        procs = project_all(let_chain(800))
    finally:
        sys.setrecursionlimit(limit)
    net = Network(procs)
    _clear_step_caches()
    out = simulate(net)
    assert out.deadlock is None and len(out.trace) == 801
    assert out.network == Network({"p": LUnit()})
    _clear_step_caches()
    result = explore(net)
    assert result.complete and result.states == 802


@pytest.mark.parametrize("n", [200, 800])
def test_deep_let_chains_build_twice_and_compare_at_the_default_limit(n):
    # a second build finds the first one's foci in the intern table, and
    # a build after the table is emptied compares equal to both
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(50_000)
    try:
        procs = [project_all(let_chain(n)) for _ in range(3)]
    finally:
        sys.setrecursionlimit(limit)
    _clear_step_caches()
    first, second = Network(procs[0]), Network(procs[1])
    focus.cache_clear()
    third = Network(procs[2])
    assert first == second == third and third == first
    assert hash(first) == hash(second) == hash(third)
    other = Network({"p": BApp(LLam("y", LVar("y")), procs[2]["p"])})
    assert first != other and other != third


def test_deep_chain_steps_at_the_default_recursion_limit():
    # projection still recurses once per level; building the network and
    # stepping it do not
    e = com_chain(5000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(50_000)
    try:
        procs = project_all(e)
    finally:
        sys.setrecursionlimit(limit)
    net = Network(procs)
    goal = Network({"p": BOTTOM, "q": BOTTOM, "r": LUnit()})
    out = simulate(net, seed=0)
    assert out.deadlock is None and len(out.trace) == 5000
    assert out.network == goal
    result = explore(net, budget=10_000)
    assert result.complete and result.terminals == {goal}
