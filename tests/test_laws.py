"""Laws relating masking, substitution, projection, and stepping, checked on
generated instances."""

import random

from hypothesis import given, settings, strategies as st

from helam.generate import ExprGen, GenConfig, gen_instance, gen_type, gen_value
from helam.masking import mask_value
from helam.network import focus, plug
from helam.projection import floor, local_subst, project, project_all, roles
from helam.semantics import IsValue, Stepped, run, step, subst
from helam.surface import uniquify
from helam.syntax import (
    BOTTOM, DataTy, PartySet, Val, free_vars, parties, print_expr,
)
from helam.typecheck import TypeEnv, typecheck

from strategies import names, values
from test_projection import _behaviors, _unfloored_subst

CFG = GenConfig(max_depth=5)


def _fresh_counter():
    box = [0]

    def fresh():
        box[0] += 1
        return f"w{box[0]}"

    return fresh


def test_projections_are_floor_fixpoints():
    for seed in range(150):
        inst = gen_instance(CFG, seed)
        for p in roles(inst.expr):
            b = project(inst.expr, p)
            assert floor(b) == b


def test_outsiders_project_to_bottom():
    # parties outside the typing context never appear in the projection
    for seed in range(150):
        inst = gen_instance(CFG, seed)
        assert project(inst.expr, "outsider") == BOTTOM


def test_bottom_projections_stay_bottom_under_stepping():
    for seed in range(100):
        inst = gen_instance(CFG, seed)
        members = roles(inst.expr)
        gone = {p for p in members if project(inst.expr, p) == BOTTOM}
        cur = inst.expr
        for _ in range(200):
            result = step(cur)
            if not isinstance(result, Stepped):
                assert isinstance(result, IsValue)
                break
            cur = result.expr
            for p in gone:
                assert project(cur, p) == BOTTOM


def test_data_values_project_identically_at_every_owner():
    rng = random.Random(13)
    fresh = _fresh_counter()
    for _ in range(200):
        theta = parties(*rng.sample(("p", "q", "r"), rng.randint(2, 3)))
        t = gen_type(rng, theta, 2)
        if not isinstance(t, DataTy) or len(t.owners) < 2:
            continue
        v = gen_value(rng, theta, t, fresh)
        views = {project(v, p) for p in t.owners}
        assert len(views) == 1
        assert views.pop() != BOTTOM


def test_masking_commutes_with_projection():
    # restricting a value never changes what a surviving owner sees
    rng = random.Random(17)
    fresh = _fresh_counter()
    for _ in range(200):
        theta = parties(*rng.sample(("p", "q", "r", "s"), rng.randint(2, 4)))
        t = gen_type(rng, theta, 2)
        v = gen_value(rng, theta, t, fresh)
        sub = PartySet(rng.sample(theta.members, rng.randint(1, len(theta))))
        masked = mask_value(v, sub)
        if masked is None:
            continue
        for p in sub:
            assert project(v, p) == project(masked, p)


def test_substitution_distributes_over_projection_up_to_floor():
    for seed in range(150):
        rng = random.Random(seed)
        k = rng.randint(2, 4)
        theta = parties(*rng.sample(("p", "q", "r", "s"), k))
        gen = ExprGen(rng)
        tx = gen_type(rng, theta, 1)
        target = gen_type(rng, theta, 2)
        x = "hole$"
        env = TypeEnv(theta).bind(x, tx)
        m = gen.expr(env, target, 4)
        v = gen_value(rng, theta, tx, gen.fresh)
        whole = subst(m, x, v)
        for p in theta:
            direct = project(whole, p)
            pieced = floor(local_subst(project(m, p), x, project(v, p)))
            assert direct == pieced, (seed, p)


def test_enlarging_the_party_set_preserves_closed_typings():
    for seed in range(150):
        inst = gen_instance(CFG, seed)
        bigger = inst.theta.union(parties("zed"))
        assert typecheck(bigger, inst.expr, inst.target) == inst.target


def test_end_to_end_values_match_their_projections():
    for seed in range(100):
        inst = gen_instance(CFG, seed)
        members = roles(inst.expr)
        value = run(inst.expr)
        final = project_all(Val(value), members)
        for p in members:
            assert final[p] == project(Val(value), p)
            assert floor(final[p]) == final[p]


@settings(max_examples=150, deadline=None)
@given(values, names, values, st.sampled_from("pqr"), st.integers(0, 2))
def test_walkers_treat_a_value_as_its_wrapper(v, x, w, p, level):
    # a value is an expression: every walker gives Val(v) what it gives v
    assert free_vars(Val(v)) == free_vars(v)
    assert print_expr(Val(v), level) == print_expr(v, level)
    assert project(Val(v), p) == project(v, p)
    assert subst(Val(v), x, w) == Val(subst(v, x, w))
    assert uniquify(Val(v)) == Val(uniquify(v))


# ---------------------------------------------------------------------------
# focusing: a behavior is its next redex plugged into its frames

def _copy(b):
    """An equal behavior that shares no application, case or function node
    with b: a substitution for a name b never uses rebuilds all of them."""
    return _unfloored_subst(b, "absent", BOTTOM)


def _check_focus_laws(b1, b2):
    f1, f2 = focus(b1), focus(b2)
    assert plug(f1) == b1
    again = focus(_copy(b1))
    assert again == f1 and hash(again) == hash(f1)
    assert (f1 == f2) == (b1 == b2)
    if b1 == b2:
        assert hash(f1) == hash(f2)


@settings(max_examples=100, deadline=None)
@given(_behaviors, _behaviors)
def test_focus_decomposes_raw_behaviors(b1, b2):
    _check_focus_laws(b1, b2)
    _check_focus_laws(b1, _copy(b1))


def test_focus_decomposes_reachable_behaviors(reachable):
    behaviors = {net[p] for states in reachable.values() for net in states
                 for p in net.parties()}
    ordered = sorted(behaviors, key=hash)
    for b1, b2 in zip(ordered, ordered[1:] + ordered[:1]):
        _check_focus_laws(b1, b2)
    # distinct behaviors have distinct decompositions
    assert len({focus(b) for b in behaviors}) == len(behaviors)
