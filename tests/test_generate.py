"""The well-typed-term generator and the shrinker."""

import random

import pytest

from helam.generate import (
    GenConfig, gen_instance, gen_type, gen_value, gen_well_typed, inhabit,
    shrink,
)
from helam.syntax import (
    App, Case, Com, DSum, DUnit, DataTy, Fst, Inl, Inr, Lam, Lookup, Pair,
    Snd, Unit, Val, Var, Vec, nodes, parties, print_expr,
)
from helam.typecheck import TypeEnv, check, typecheck

P = parties("p")


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_parties=5)
    with pytest.raises(ValueError):
        GenConfig(max_depth=0)


def test_minimal_depth_yields_the_literal():
    cfg = GenConfig(max_depth=1)
    e = gen_well_typed(cfg, P, DataTy(DUnit(), P))
    assert e == Val(Unit(P))


def test_target_parties_must_be_available():
    with pytest.raises(ValueError):
        gen_well_typed(GenConfig(), P, DataTy(DUnit(), parties("q")))


def test_generated_instances_all_typecheck():
    cfg = GenConfig(max_depth=5)
    for seed in range(300):
        inst = gen_instance(cfg, seed)
        assert typecheck(inst.theta, inst.expr, inst.target) == inst.target


def test_instances_reproduce_from_their_seed():
    cfg = GenConfig(max_depth=5)
    for seed in (0, 17, 99):
        assert gen_instance(cfg, seed) == gen_instance(cfg, seed)


def test_com_production_can_relocate_toward_the_target():
    # with enough depth the generator reaches a multicast whose result set
    # is exactly the target's owners
    cfg = GenConfig(max_depth=3)
    theta = parties("r", "s")
    target = DataTy(DUnit(), parties("r"))
    found = False
    for seed in range(50):
        e = gen_well_typed(cfg, theta, target, rng=random.Random(seed))
        assert typecheck(theta, e, target) == target
        if "com[s][r]" in print_expr(e):
            found = True
    assert found


def test_communication_and_branching_are_generated():
    cfg = GenConfig(max_depth=5)
    texts = [print_expr(gen_instance(cfg, seed).expr) for seed in range(120)]
    assert any("com[" in t for t in texts)
    assert any("case[" in t for t in texts)


# the nodes that each carry a typing rule of their own; in a well-typed
# term every such node is typed by its rule
RULE_NODES = (Lam, Var, App, Case, Unit, Pair, Vec, Inl, Inr, Fst, Snd,
              Lookup, Com)


def test_every_typing_rule_is_exercised():
    cfg = GenConfig(max_depth=6)
    seen = set()
    for seed in range(400):
        inst = gen_instance(cfg, seed)
        typecheck(inst.theta, inst.expr, inst.target)
        seen.update(type(node) for node in nodes(inst.expr))
        if seen >= set(RULE_NODES):
            break
    missing = sorted(c.__name__ for c in set(RULE_NODES) - seen)
    assert not missing, f"rules never used: {missing}"


def test_generated_values_check_at_their_types():
    rng = random.Random(7)
    count = [0]

    def fresh():
        count[0] += 1
        return f"v{count[0]}"

    for _ in range(200):
        theta = parties(*rng.sample(("p", "q", "r"), rng.randint(2, 3)))
        t = gen_type(rng, theta, 2)
        v = gen_value(rng, theta, t, fresh)
        check(TypeEnv(theta), Val(v), t)


class TestInhabit:
    def test_leftmost_units(self):
        t = DataTy(DSum(DUnit(), DSum(DUnit(), DUnit())), P)
        assert inhabit(t) == Inl(Unit(P))

    def test_every_type_is_inhabited(self):
        rng = random.Random(11)
        for _ in range(100):
            theta = parties("p", "q")
            t = gen_type(rng, theta, 2)
            check(TypeEnv(theta), Val(inhabit(t)), t)


class TestShrink:
    def test_shrinks_to_a_minimal_com(self):
        cfg = GenConfig(max_depth=5)
        inst = next(i for i in (gen_instance(cfg, s) for s in range(200))
                    if "com[" in print_expr(i.expr)
                    and len(print_expr(i.expr)) > 60)

        def failing(e):
            return "com[" in print_expr(e)

        small = shrink(inst.expr, inst.theta, failing, inst.target)
        assert failing(small)
        assert len(print_expr(small)) <= len(print_expr(inst.expr))
        typecheck(inst.theta, small, inst.target)

    def test_already_minimal_is_unchanged(self):
        e = Val(Unit(P))
        assert shrink(e, P, lambda _: True) == e

    def test_shrunk_output_always_typechecks(self):
        cfg = GenConfig(max_depth=4)
        for seed in range(30):
            inst = gen_instance(cfg, seed)
            small = shrink(inst.expr, inst.theta, lambda _: True, inst.target)
            typecheck(inst.theta, small, inst.target)
