"""Substitution and central stepping, against hand-derived results, and
the refocused `step` and `run` against the recursive stepper they
replaced."""

import sys

import pytest

from helam import semantics
from helam.generate import GenConfig, gen_instance
from helam.masking import mask_value
from helam.semantics import (
    FuelExhausted, IsValue, Stepped, Stuck, StuckError, _step_case,
    _step_redex, run, step, subst,
)
from helam.syntax import (
    App, Case, Com, DUnit, DataTy, Fst, FunTy, Inl, Inr, Lam, Lookup, Pair,
    Snd, Unit, Val, Var, Vec, free_vars, node_count, parties, print_expr,
)
from conftest import CORPUS_FILES, com_chain, let_chain
from test_syntax import reference_free_vars

P = parties("p")
Q = parties("q")
PQ = parties("p", "q")
UNIT_P = DataTy(DUnit(), P)


def lam(param, ptype, body, owners):
    return Lam(param, ptype, body, owners)


class TestSubstitution:
    def test_variable_hit(self):
        assert subst(Val(Var("x")), "x", Unit(P)) == Val(Unit(P))

    def test_value_is_masked_under_a_binder(self):
        # the binder narrows the substituted unit from {p, q} to {p}
        body = Val(lam("y", UNIT_P, Val(Var("x")), P))
        out = subst(body, "x", Unit(PQ))
        assert out == Val(lam("y", UNIT_P, Val(Unit(P)), P))
        # sanity: the mask itself is what the substitution used
        assert mask_value(Unit(PQ), P) == Unit(P)

    def test_unmaskable_value_leaves_the_body_alone(self):
        body = Val(lam("y", UNIT_P, Val(Var("x")), P))
        foreign = lam("z", DataTy(DUnit(), Q), Val(Var("z")), Q)
        assert mask_value(foreign, P) is None
        assert subst(body, "x", foreign) == body

    def test_scrutinee_gets_the_unmasked_value(self):
        e = Case(P, Val(Var("x")), "a", Val(Var("a")), "b", Val(Var("b")))
        out = subst(e, "x", Inl(Unit(PQ)))
        assert out.scrutinee == Val(Inl(Unit(PQ)))

    def test_branches_get_the_masked_value(self):
        e = Case(P, Val(Unit(P)), "a", Val(Var("x")), "b", Val(Var("x")))
        out = subst(e, "x", Unit(PQ))
        assert out.left_body == Val(Unit(P))
        assert out.right_body == Val(Unit(P))

    def test_shadowing_binder_stops_substitution(self):
        body = Val(lam("x", UNIT_P, Val(Var("x")), P))
        assert subst(body, "x", Unit(PQ)) == body

    def test_keywords_are_fixed_points(self):
        e = Val(Com("p", Q))
        assert subst(e, "x", Unit(P)) == e

    def test_a_subterm_without_x_is_kept_and_not_masked(self, monkeypatch):
        # x is free only in the argument: the function, binder and mask
        # included, is passed over
        fn = Val(lam("y", UNIT_P, Val(Var("y")), P))
        e = App(fn, Val(Var("x")))
        masks = []

        def counted(v, owners):
            masks.append(owners)
            return mask_value(v, owners)

        monkeypatch.setattr(semantics, "mask_value", counted)
        out = subst(e, "x", Unit(PQ))
        assert out == App(fn, Val(Unit(PQ))) and out.fn is fn
        assert subst(e, "z", Unit(PQ)) is e
        assert masks == []


class TestStep:
    def test_multicast_relocates_unit(self):
        e = App(Val(Com("s", PQ)), Val(Unit(parties("s"))))
        out = step(e)
        assert out == Stepped(Val(Unit(PQ)), "COM1")

    def test_com_distributes_over_injections(self):
        e = App(Val(Com("s", parties("r"))), Val(Inl(Unit(parties("s")))))
        out = step(e)
        assert out == Stepped(Val(Inl(Unit(parties("r")))), "COMINL")
        e2 = App(Val(Com("s", parties("r"))), Val(Inr(Unit(parties("s")))))
        assert step(e2).expr == Val(Inr(Unit(parties("r"))))

    def test_com_distributes_over_pairs_in_one_step(self):
        s = parties("s")
        payload = Pair(Inl(Unit(s)), Unit(s))
        e = App(Val(Com("s", PQ)), Val(payload))
        out = step(e)
        assert out.rule == "COMPAIR"
        assert out.expr == Val(Pair(Inl(Unit(PQ)), Unit(PQ)))

    def test_application_masks_argument(self):
        e = App(Val(lam("x", UNIT_P, Val(Var("x")), P)), Val(Unit(PQ)))
        out = step(e)
        assert out == Stepped(Val(Unit(P)), "APPABS")

    def test_fst_masks_component(self):
        e = App(Val(Fst(P)), Val(Pair(Unit(PQ), Unit(P))))
        assert step(e) == Stepped(Val(Unit(P)), "PROJ1")

    def test_snd_and_lookup(self):
        e = App(Val(Snd(P)), Val(Pair(Unit(P), Unit(PQ))))
        assert step(e) == Stepped(Val(Unit(P)), "PROJ2")
        e2 = App(Val(Lookup(2, P)), Val(Vec((Unit(Q), Unit(PQ)))))
        assert step(e2) == Stepped(Val(Unit(P)), "PROJN")

    def test_function_position_reduces_first(self):
        inner = App(Val(lam("f", UNIT_P, Val(Var("f")), P)), Val(Unit(P)))
        e = App(inner, App(Val(Com("p", Q)), Val(Unit(P))))
        out = step(e)
        assert isinstance(out, Stepped)
        assert out.expr.fn == Val(Unit(P))  # the function stepped, not the arg

    def test_case_left_and_right(self):
        e = Case(P, Val(Inl(Unit(P))), "x", Val(Var("x")), "y", Val(Var("y")))
        assert step(e) == Stepped(Val(Unit(P)), "CASEL")
        e2 = Case(P, Val(Inr(Unit(P))), "x", Val(Var("x")), "y", Val(Var("y")))
        assert step(e2) == Stepped(Val(Unit(P)), "CASER")

    def test_values_do_not_step(self):
        assert isinstance(step(Val(Unit(P))), IsValue)

    def test_a_redex_whose_value_does_not_mask_is_stuck(self):
        pair = Val(Pair(Unit(Q), Unit(Q)))
        fn = lam("x", UNIT_P, Val(Var("x")), P)
        cases = [
            (App(Val(fn), Val(Unit(Q))),
             "argument does not mask to the function's owners"),
            (App(Val(Fst(P)), pair), "projected component does not mask"),
            (App(Val(Snd(P)), pair), "projected component does not mask"),
            (App(Val(Lookup(2, P)), Val(Vec((Unit(P), Unit(Q))))),
             "projected component does not mask"),
            (Case(P, Val(Inl(Unit(Q))), "x", Val(Var("x")), "y",
                  Val(Var("y"))), "case payload does not mask to the guards"),
            (Case(P, Val(Inr(Unit(Q))), "x", Val(Var("x")), "y",
                  Val(Var("y"))), "case payload does not mask to the guards"),
        ]
        for e, reason in cases:
            assert step(e) == Stuck(reason)

    def test_a_redex_of_the_wrong_shape_is_stuck(self):
        vec = Val(Vec((Unit(P), Unit(P))))
        pair = Val(Pair(Unit(P), Unit(P)))
        cases = [
            (App(Val(Fst(P)), vec), "fst of a non-pair"),
            (App(Val(Fst(P)), Val(Unit(P))), "fst of a non-pair"),
            (App(Val(Snd(P)), vec), "snd of a non-pair"),
            (App(Val(Snd(P)), Val(Inl(Unit(P)))), "snd of a non-pair"),
            (App(Val(Lookup(1, P)), pair),
             "lookup into a non-tuple or out of range"),
            (App(Val(Lookup(3, P)), vec),
             "lookup into a non-tuple or out of range"),
            (App(Val(Unit(P)), Val(Unit(P))), "applied a non-function value"),
            (Case(P, pair, "x", Val(Var("x")), "y", Val(Var("y"))),
             "case scrutinee is not an injection"),
        ]
        for e, reason in cases:
            assert step(e) == Stuck(reason)

    def test_ill_typed_redex_is_stuck_not_a_crash(self):
        e = App(Val(Com("s", PQ)), Val(Unit(Q)))  # sender does not own it
        assert isinstance(step(e), Stuck)

    def test_determinism(self):
        e = App(Val(lam("x", UNIT_P, Val(Var("x")), P)), Val(Unit(PQ)))
        assert step(e) == step(e)


class TestRun:
    def test_values_are_fixed_points(self):
        assert run(Val(Unit(P))) == Unit(P)

    def test_case_runs_to_branch_value(self):
        e = Case(P, Val(Inl(Unit(P))), "x", Val(Var("x")), "y", Val(Var("y")))
        assert run(e) == Unit(P)

    def test_trace_records_rules(self):
        trace = []
        e = Case(P, Val(Inl(Unit(P))), "x", Val(Var("x")), "y", Val(Var("y")))
        run(e, trace=trace)
        assert [rule for rule, _ in trace] == ["CASEL"]

    def test_stuck_propagates(self):
        with pytest.raises(StuckError):
            run(App(Val(Unit(P)), Val(Unit(P))))

    def test_fuel_bound_is_generous(self):
        # ten steps per node never exhausts on terminating programs
        e = App(Val(lam("x", UNIT_P, Val(Var("x")), P)), Val(Unit(P)))
        assert run(e, fuel=10 * node_count(e)) == Unit(P)

    def test_fuel_exhaustion_reported(self):
        e = App(Val(lam("x", UNIT_P, Val(Var("x")), P)), Val(Unit(P)))
        with pytest.raises(FuelExhausted):
            run(e, fuel=0)

    def test_fuel_counts_contractions_not_values(self):
        # fuel=0 still contracts once, and the contraction that yields the
        # value is not enough: the run raises after fuel + 1 contractions
        e = App(Val(lam("x", UNIT_P, Val(Var("x")), P)), Val(Unit(P)))
        trace = []
        with pytest.raises(FuelExhausted, match="no value after 0 steps"):
            run(e, fuel=0, trace=trace)
        assert [rule for rule, _ in trace] == ["APPABS"]
        assert run(e, fuel=1) == Unit(P)

    def test_stuck_is_reported_before_the_fuel(self):
        # one step, then a stuck redex: fuel=0 ends the run after the step,
        # fuel=1 reaches the stuck redex before the fuel is checked
        stuck = App(Val(Com("s", PQ)), Val(Unit(Q)))
        e = App(Val(lam("x", UNIT_P, stuck, P)), Val(Unit(P)))
        with pytest.raises(FuelExhausted):
            run(e, fuel=0)
        with pytest.raises(StuckError):
            run(e, fuel=1)
        with pytest.raises(StuckError):
            run(stuck, fuel=0)

    def test_deep_chain_runs_at_the_default_recursion_limit(self):
        assert run(com_chain(5000)) == Unit(parties("r"))

    def test_deep_let_chain_runs_at_the_default_recursion_limit(self):
        # a traced run would print each redex, and print_expr recurses
        assert run(let_chain(800)) == Unit(P)


# ---------------------------------------------------------------------------
# the refocused step and run against the recursive stepper they replaced

def reference_step(e):
    match e:
        case Val(_):
            return IsValue()
        case App(fn, arg):
            if not isinstance(fn, Val):
                inner = reference_step(fn)
                if isinstance(inner, Stepped):
                    return Stepped(App(inner.expr, arg, e.span), inner.rule,
                                   inner.redex)
                return inner
            if not isinstance(arg, Val):
                inner = reference_step(arg)
                if isinstance(inner, Stepped):
                    return Stepped(App(fn, inner.expr, e.span), inner.rule,
                                   inner.redex)
                return inner
            return _step_redex(fn.value, arg.value, e)
        case Case(guards, scrut, xl, ml, xr, mr):
            if not isinstance(scrut, Val):
                inner = reference_step(scrut)
                if isinstance(inner, Stepped):
                    return Stepped(
                        Case(guards, inner.expr, xl, ml, xr, mr, e.span),
                        inner.rule, inner.redex)
                return inner
            return _step_case(e)
    raise TypeError(f"not an expression: {e!r}")


def _assert_steps_agree(e):
    """`step` and `reference_step` give the same result kind, expression,
    rule, stuck reason and redex (which `Stepped` equality ignores)."""
    got, expected = step(e), reference_step(e)
    assert got == expected
    if isinstance(expected, Stepped):
        assert got.redex == expected.redex
    return got


def _generated_steps():
    """Each state of instances 0-999 of both generator configurations, and
    the result of stepping it."""
    for cfg in (GenConfig(max_parties=4, max_depth=6), GenConfig()):
        for n in range(1000):
            e = gen_instance(cfg, n).expr
            for _ in range(10 * node_count(e) + 1):
                result = step(e)
                yield e, result
                if not isinstance(result, Stepped):
                    break
                e = result.expr


class TestRefocusedStep:
    def test_every_state_of_generated_instances(self):
        states, kinds = 0, set()
        for e, result in _generated_steps():
            assert _assert_steps_agree(e) == result
            states += 1
            kinds.add(type(result))
        assert states == 7660
        assert kinds == {Stepped, IsValue}

    def test_deep_chain_steps_at_the_default_recursion_limit(self):
        e = com_chain(5000)
        got = step(e)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(50_000)
        try:
            expected = reference_step(e)
            # a bool: a failing assert would explain the 5,000-deep terms
            same = got == expected and got.redex == expected.redex
        finally:
            sys.setrecursionlimit(limit)
        assert same and got.rule == "COM1"


def _reference_run(e, fuel=None, trace=None):
    """Step from the root until a value, as `run` did before refocusing."""
    if fuel is None:
        fuel = 10 * node_count(e)
    current = e
    for _ in range(fuel + 1):
        result = reference_step(current)
        if isinstance(result, IsValue):
            assert isinstance(current, Val)
            return current.value
        if isinstance(result, Stuck):
            raise StuckError(result.reason)
        if trace is not None:
            trace.append((result.rule, print_expr(result.redex)))
        current = result.expr
    raise FuelExhausted(f"no value after {fuel} steps")


def _outcome(runner, e, fuel=None):
    """The value or the exception (type and message), with the trace."""
    trace = []
    try:
        value = runner(e, fuel, trace)
    except (StuckError, FuelExhausted) as err:
        return type(err), str(err), trace
    return value, print_expr(value), trace


def _assert_runs_agree(e, fuel=None):
    expected = _outcome(_reference_run, e, fuel)
    assert _outcome(run, e, fuel) == expected
    return expected


class TestRefocusedRun:
    def test_corpus(self, corpus):
        steps = 0
        for name in CORPUS_FILES:
            steps += len(_assert_runs_agree(corpus(name).core)[2])
        assert steps > 0

    def test_every_hole_on_terms_that_reach_values(self):
        # generated programs seldom reduce a function or a scrutinee in
        # place, so these do: the function and the argument both step, and
        # a case's scrutinee steps before the branch is taken
        ident = lam("x", UNIT_P, Val(Var("x")), P)
        fn_of_fn = lam("f", FunTy(UNIT_P, UNIT_P, P), Val(Var("f")), P)
        both = App(App(Val(fn_of_fn), Val(ident)),
                   App(Val(Com("q", P)), Val(Unit(Q))))
        scrut = App(Val(Com("q", P)), Val(Inl(Unit(Q))))
        branch = Case(P, scrut, "a", Val(Var("a")), "b", Val(Unit(PQ)))
        nested = Case(P, App(Val(fn_of_fn), scrut), "a", both,
                      "b", Val(Unit(PQ)))
        for e in (both, branch, nested, App(Val(ident), nested)):
            value, _, trace = _assert_runs_agree(e)
            assert value == Unit(P) and len(trace) > 1

    def test_stuck_terms_in_every_hole(self):
        stuck = App(Val(Unit(P)), Val(Unit(P)))
        step_then_stuck = App(Val(lam("x", UNIT_P, stuck, P)), Val(Unit(P)))
        for inner in (stuck, step_then_stuck):
            for e in (inner,
                      App(inner, Val(Unit(P))),
                      App(Val(Fst(P)), inner),
                      Case(P, inner, "x", Val(Var("x")), "y", Val(Var("y"))),
                      Case(P, Val(Unit(P)), "x", inner, "y", inner),
                      Case(Q, Val(Inl(Unit(P))), "x", inner, "y", inner)):
                assert _assert_runs_agree(e)[0] is StuckError
                _assert_steps_agree(e)

    def test_generated_instances(self):
        cfg = GenConfig(max_parties=4, max_depth=6)
        kinds = set()
        for n in range(1000):
            outcome = _assert_runs_agree(gen_instance(cfg, n).expr)
            kinds.update(rule for rule, _ in outcome[2])
        # the instances exercise every rule, so no arm goes unchecked
        assert kinds == {"APPABS", "CASEL", "CASER", "COM1", "COMPAIR",
                         "COMINL", "COMINR", "PROJ1", "PROJ2", "PROJN"}

    def test_small_fuel(self, corpus):
        cfg = GenConfig(max_parties=4, max_depth=6)
        terms = [gen_instance(cfg, n).expr for n in range(200)]
        terms += [corpus(name).core for name in CORPUS_FILES]
        exhausted = 0
        for e in terms:
            for fuel in range(4):
                outcome = _assert_runs_agree(e, fuel)
                exhausted += outcome[0] is FuelExhausted
        assert exhausted > 0

    def test_default_fuel_on_a_diverging_term(self):
        # `run` counts the default fuel as it goes; it must run out at the
        # same step as ten per node counted up front
        omega = Val(lam("x", FunTy(UNIT_P, UNIT_P, P),
                        App(Val(Var("x")), Val(Var("x"))), P))
        e = App(omega, omega)
        assert node_count(e) == 15
        kind, message, trace = _assert_runs_agree(e)
        assert (kind, message) == (FuelExhausted, "no value after 150 steps")
        assert len(trace) == 151


# ---------------------------------------------------------------------------
# substitution against the walk that never skips a subterm

def reference_subst(m, x, v):
    """m with v for x, rebuilding every node and masking at every lambda it
    passes, whether x occurs below or not: the oracle for `subst`."""
    match m:
        case Val(inner):
            return Val(reference_subst(inner, x, v), m.span)
        case App(fn, arg):
            return App(reference_subst(fn, x, v), reference_subst(arg, x, v),
                       m.span)
        case Lam(param, ptype, body, owners):
            if param == x:
                return m
            masked = mask_value(v, owners)
            if masked is None:
                return m
            return Lam(param, ptype, reference_subst(body, x, masked), owners,
                       m.span)
        case Pair(a, b):
            return Pair(reference_subst(a, x, v), reference_subst(b, x, v),
                        m.span)
        case Inl(inner):
            return Inl(reference_subst(inner, x, v), m.span)
        case Inr(inner):
            return Inr(reference_subst(inner, x, v), m.span)
        case Var(name):
            return v if name == x else m
        case Unit() | Com() | Fst() | Snd() | Lookup():
            return m
        case Case(guards, scrut, xl, ml, xr, mr):
            scrut2 = reference_subst(scrut, x, v)
            masked = mask_value(v, guards)
            if masked is None:
                return Case(guards, scrut2, xl, ml, xr, mr, m.span)
            ml2 = ml if xl == x else reference_subst(ml, x, masked)
            mr2 = mr if xr == x else reference_subst(mr, x, masked)
            return Case(guards, scrut2, xl, ml2, xr, mr2, m.span)
        case Vec(elems):
            return Vec(tuple(reference_subst(e, x, v) for e in elems), m.span)
    raise TypeError(f"not an expression or value: {m!r}")


def _substitution(redex):
    """The body, variable and masked value that contracting redex
    substitutes, for the rules that substitute."""
    match redex:
        case App(Val(Lam(param, _, body, owners)), Val(arg)):
            return body, param, mask_value(arg, owners)
        case Case(guards, Val(Inl(payload)), xl, ml, _, _):
            return ml, xl, mask_value(payload, guards)
        case Case(guards, Val(Inr(payload)), _, _, xr, mr):
            return mr, xr, mask_value(payload, guards)


def test_substitution_matches_the_reference_on_generated_instances(
        monkeypatch):
    steps = list(_generated_steps())
    substituted = 0
    for state, result in steps:
        assert free_vars(state) == reference_free_vars(state)
        if getattr(result, "rule", None) in ("APPABS", "CASEL", "CASER"):
            body, x, v = _substitution(result.redex)
            assert subst(body, x, v) == reference_subst(body, x, v)
            assert subst(body, "absent$", v) is body
            substituted += 1
    assert substituted == 4006
    # every result, rule and stuck reason, with each contraction's
    # substitution made by the walk that never skips
    monkeypatch.setattr(semantics, "subst", reference_subst)
    assert list(_generated_steps()) == steps


# ---------------------------------------------------------------------------
# totality on arbitrary syntax: ill-typed terms get Stuck, never a crash

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from strategies import (  # noqa: E402
    exprs as _exprs, names as _names, values as _values,
)


@settings(max_examples=150, deadline=None)
@given(_exprs)
def test_step_is_total(e):
    result = _assert_steps_agree(e)
    assert isinstance(result, (Stepped, IsValue, Stuck))


@settings(max_examples=150, deadline=None)
@given(_exprs)
def test_projection_is_total(e):
    from helam.projection import floor, project
    for p in ("p", "q", "elsewhere"):
        b = project(e, p)
        assert floor(b) == b


@settings(max_examples=300, deadline=None)
@given(_exprs, st.one_of(st.none(), st.integers(0, 3)))
def test_refocused_run_agrees_on_raw_terms(e, fuel):
    _assert_runs_agree(e, fuel)


@settings(max_examples=300, deadline=None)
@given(_exprs | _values, _names, _values)
def test_subst_matches_the_reference_on_raw_terms(m, x, v):
    assert subst(m, x, v) == reference_subst(m, x, v)
    if x not in reference_free_vars(m):
        assert subst(m, x, v) is m
    assert subst(m, "absent$", v) is m
