"""Endpoint projection, the floor normalizer, and role extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helam.projection import (
    EmptyRoles, floor, local_subst, project, project_all, roles,
)
from helam.syntax import (
    App, BApp, BCase, BOTTOM, Case, Com, DUnit, DataTy, Inl,
    LInl, LInr, LLam, LPair, LUnit, LVar, LVec, NO_VARS, Pair, Recv, Send,
    SendSelf, Unit, Val, Var, free_vars, parties, print_expr,
)

P = parties("p")
PQ = parties("p", "q")
UNIT_P = DataTy(DUnit(), P)

COM_EXAMPLE = App(Val(Com("s", PQ)), Val(Unit(parties("s"))))


class TestRoles:
    def test_union_of_annotations(self):
        assert roles(COM_EXAMPLE) == parties("p", "q", "s")

    def test_single_unit(self):
        assert roles(Val(Unit(P))) == P

    def test_kvs_roles(self, corpus):
        prog = corpus("kvs")
        assert roles(prog.core) == parties("backup", "client", "primary")

    def test_no_parties_is_an_error(self):
        with pytest.raises(EmptyRoles):
            roles(Val(Var("x")))


class TestFloor:
    def test_pair_of_bottoms_collapses(self):
        assert floor(LPair(BOTTOM, BOTTOM)) == BOTTOM

    def test_bottom_applied_to_value_collapses(self):
        assert floor(BApp(BOTTOM, LUnit())) == BOTTOM
        assert floor(BApp(BOTTOM, BOTTOM)) == BOTTOM

    def test_receive_of_bottom_is_preserved(self):
        b = BApp(Recv("s"), BOTTOM)
        assert floor(b) == b

    def test_bottom_applied_to_pending_work_is_preserved(self):
        pending = BApp(Send(("q",)), LUnit())
        b = BApp(BOTTOM, pending)
        assert floor(b) == BApp(BOTTOM, floor(pending))

    def test_injections_collapse(self):
        assert floor(LInl(BOTTOM)) == BOTTOM
        assert floor(LInr(BOTTOM)) == BOTTOM

    def test_all_bottom_tuple_collapses(self):
        assert floor(LVec((BOTTOM, BOTTOM))) == BOTTOM

    def test_mixed_tuple_stays(self):
        mixed = LVec((BOTTOM, LUnit()))
        assert floor(mixed) == mixed

    def test_case_collapses_only_when_everything_is_bottom(self):
        dead = BCase(BOTTOM, "x", BOTTOM, "y", BOTTOM)
        assert floor(dead) == BOTTOM
        live = BCase(LVar("s"), "x", BOTTOM, "y", BOTTOM)
        assert floor(live) == live

    def test_floor_descends_into_lambdas(self):
        b = LLam("x", LPair(BOTTOM, BOTTOM))
        assert floor(b) == LLam("x", BOTTOM)


class TestProject:
    def test_sender_not_receiving(self):
        assert project(COM_EXAMPLE, "s") == BApp(Send(("p", "q")), LUnit())

    def test_receiver_waits_on_missing_argument(self):
        assert project(COM_EXAMPLE, "p") == BApp(Recv("s"), BOTTOM)

    def test_bystander_projects_to_bottom(self):
        assert project(Val(Unit(PQ)), "r") == BOTTOM

    def test_owners_share_one_view(self):
        v = Val(Pair(Inl(Unit(PQ)), Unit(PQ)))
        at_p = project(v, "p")
        at_q = project(v, "q")
        assert at_p == at_q != BOTTOM

    def test_self_multicast_keeps_a_copy(self):
        e = App(Val(Com("p", PQ)), Val(Unit(P)))
        assert project(e, "p") == BApp(SendSelf(("q",)), LUnit())
        e2 = App(Val(Com("p", P)), Val(Unit(P)))
        assert project(e2, "p") == BApp(SendSelf(()), LUnit())

    def test_guard_member_keeps_branches(self):
        e = Case(PQ, Val(Var("g")), "x", Val(Unit(PQ)), "y", Val(Unit(PQ)))
        b = project(e, "p")
        assert isinstance(b, BCase)
        assert b.left_body == LUnit()

    def test_bystander_case_collapses_with_its_guard(self):
        e = Case(P, Val(Unit(P)), "x", Val(Unit(P)), "y", Val(Unit(P)))
        assert project(e, "q") == BOTTOM

    def test_projection_is_floor_normal(self, corpus):
        prog = corpus("kvs")
        for party, behavior in project_all(prog.core).items():
            assert floor(behavior) == behavior


class TestProjectAll:
    def test_multicast_network(self):
        net = project_all(COM_EXAMPLE)
        assert net == {
            "s": BApp(Send(("p", "q")), LUnit()),
            "p": BApp(Recv("s"), BOTTOM),
            "q": BApp(Recv("s"), BOTTOM),
        }

    def test_single_value(self):
        assert project_all(Val(Unit(P))) == {"p": LUnit()}

    def test_fixed_member_set_keeps_dropped_parties(self):
        net = project_all(Val(Unit(P)), parties("p", "q"))
        assert net["q"] == BOTTOM

    def test_kvs_primary_sends_to_itself_once(self, corpus):
        prog = corpus("kvs")
        net = project_all(prog.core)
        text = print_expr(net["primary"])
        assert text.count("send*_") == 1


class TestLocalSubst:
    def test_substitutes_into_bodies(self):
        b = BApp(LVar("x"), LUnit())
        assert local_subst(b, "x", LLam("y", LVar("y"))) == \
            BApp(LLam("y", LVar("y")), LUnit())

    def test_shadowing_stops(self):
        b = LLam("x", LVar("x"))
        assert local_subst(b, "x", LUnit()) == b

    def test_bottom_is_inert(self):
        assert local_subst(BOTTOM, "x", LUnit()) == BOTTOM


# ---------------------------------------------------------------------------
# floor laws on random behaviors

_lnames = st.sampled_from(["x", "y", "z"])
_locals = st.recursive(
    st.just(BOTTOM) | st.just(LUnit()) | st.builds(LVar, _lnames)
    | st.builds(Recv, st.sampled_from("pq"))
    | st.builds(Send, st.tuples(st.sampled_from("pq"))),
    lambda inner: st.builds(LInl, inner) | st.builds(LInr, inner)
    | st.builds(LPair, inner, inner)
    | st.builds(lambda xs: LVec(tuple(xs)),
                st.lists(inner, min_size=1, max_size=3)),
    max_leaves=6)
_behaviors = st.recursive(
    _locals,
    lambda inner: st.builds(BApp, inner, inner)
    | st.builds(BCase, inner, _lnames, inner, _lnames, inner)
    | st.builds(LLam, _lnames, inner),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_behaviors)
def test_floor_is_idempotent(b):
    once = floor(b)
    assert floor(once) == once


@settings(max_examples=150, deadline=None)
@given(_behaviors)
def test_floor_only_rewrites_toward_bottom(b):
    # flooring never grows a term
    def size(node):
        match node:
            case BApp(f, a):
                return 1 + size(f) + size(a)
            case BCase(s, _, l, _, r):
                return 1 + size(s) + size(l) + size(r)
            case LInl(i) | LInr(i):
                return 1 + size(i)
            case LPair(a, b2):
                return 1 + size(a) + size(b2)
            case LVec(es):
                return 1 + sum(size(e) for e in es)
            case LLam(_, body):
                return 1 + size(body)
            case _:
                return 1

    assert size(floor(b)) <= size(b)


def _unfloored_subst(b, x, l):
    """Substitution that collapses nothing: with `floor` after it, the
    reference for `local_subst`."""
    match b:
        case LVar(name):
            return l if name == x else b
        case BApp(f, a):
            return BApp(_unfloored_subst(f, x, l), _unfloored_subst(a, x, l))
        case BCase(s, xl, bl, xr, br):
            return BCase(_unfloored_subst(s, x, l),
                         xl, bl if xl == x else _unfloored_subst(bl, x, l),
                         xr, br if xr == x else _unfloored_subst(br, x, l))
        case LLam(param, body):
            return b if param == x else LLam(param,
                                             _unfloored_subst(body, x, l))
        case LInl(i):
            return LInl(_unfloored_subst(i, x, l))
        case LInr(i):
            return LInr(_unfloored_subst(i, x, l))
        case LPair(a, b2):
            return LPair(_unfloored_subst(a, x, l), _unfloored_subst(b2, x, l))
        case LVec(es):
            return LVec(tuple(_unfloored_subst(e, x, l) for e in es))
        case _:
            return b


def reference_local_subst(b, x, l):
    """b with l for x, rebuilding every node whether x occurs below or not,
    then floored: the oracle for `local_subst` on floor-normal b and l."""
    return floor(_unfloored_subst(b, x, l))


def reference_local_fv(b):
    """The free variables of b by recursion, caching nothing."""
    match b:
        case LVar(name):
            return frozenset({name})
        case BApp(a, c) | LPair(a, c):
            return reference_local_fv(a) | reference_local_fv(c)
        case BCase(s, xl, bl, xr, br):
            return (reference_local_fv(s) | (reference_local_fv(bl) - {xl})
                    | (reference_local_fv(br) - {xr}))
        case LLam(param, body):
            return reference_local_fv(body) - {param}
        case LInl(inner) | LInr(inner):
            return reference_local_fv(inner)
        case LVec(elems):
            return frozenset().union(*map(reference_local_fv, elems))
        case _:
            return frozenset()


@settings(max_examples=150, deadline=None)
@given(_behaviors, _locals)
def test_substitution_keeps_normal_terms_normal(b, l):
    # every name, and the missing value besides l: a drawn name and value
    # make a collapse in fewer than 1 in 100 examples, these in about 1 in 6
    b, l = floor(b), floor(l)
    assert free_vars(b) == reference_local_fv(b)
    for x in ("x", "y", "z"):
        for value in (l, BOTTOM):
            assert local_subst(b, x, value) == \
                reference_local_subst(b, x, value)
            if x not in reference_local_fv(b):
                assert local_subst(b, x, value) is b
    assert local_subst(b, "absent", l) is b


def test_local_sets_are_filled_on_first_demand():
    lam = LLam("y", BApp(LVar("y"), LVar("x")))
    b = BApp(lam, LPair(LVar("x"), LUnit()))
    assert not hasattr(b, "_fv") and not hasattr(lam, "_fv")
    assert free_vars(b) == {"x"}
    assert b._fv is lam._fv and b.arg._fv is b.arg.first._fv
    assert b.arg.second._fv is NO_VARS
