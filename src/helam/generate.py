"""Type-directed random generation of well-typed choreographies.

Generation inverts the typing rules: pick a production whose conclusion
matches the target type, then generate the premises.  Every generated
expression checks against its target by construction.  The productions
are drawn with the fixed `WEIGHTS`; `GenConfig` sets only the party count
and the depth bound, and a seed fixes the whole program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .masking import mask_type
from .syntax import (
    App, Case, ChorExpr, ChorType, ChorValue, Com, DProd, DSum, DUnit,
    DataTy, DataType, Fst, FunTy, Inl, Inr, Lam, Lookup, Pair, PartySet,
    Snd, TupleTy, Unit, Val, Var, Vec, type_parties,
)
from .typecheck import TypeEnv


# "value" always applies, so every production list is non-empty
WEIGHTS = {
    "value": 4.0,
    "var": 3.0,
    "bind": 3.0,
    "com": 3.0,
    "case": 2.0,
    "proj": 1.5,
}
MAX_TUPLE_LEN = 3
MAX_DATA_DEPTH = 2


@dataclass(unsafe_hash=True)
class GenConfig:
    max_parties: int = 4
    max_depth: int = 6

    def __post_init__(self):
        if not (2 <= self.max_parties <= 4):
            raise ValueError("max_parties must be between 2 and 4")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")


PARTY_POOL = ("p", "q", "r", "s")


# ---------------------------------------------------------------------------
# shapes, types, values

def gen_data(rng: random.Random, depth: int) -> DataType:
    if depth <= 0:
        return DUnit()
    pick = rng.random()
    if pick < 0.4:
        return DUnit()
    if pick < 0.7:
        return DSum(gen_data(rng, depth - 1), gen_data(rng, depth - 1))
    return DProd(gen_data(rng, depth - 1), gen_data(rng, depth - 1))


def gen_owners(rng: random.Random, universe: PartySet) -> PartySet:
    k = rng.randint(1, len(universe))
    return PartySet(rng.sample(universe.members, k))


def gen_type(rng: random.Random, universe: PartySet, depth: int) -> ChorType:
    """A type every owner set of which lies inside the universe, so masking
    to the universe is always a no-op."""
    pick = rng.random()
    if depth <= 0 or pick < 0.6:
        return DataTy(gen_data(rng, MAX_DATA_DEPTH),
                      gen_owners(rng, universe))
    if pick < 0.85:
        owners = gen_owners(rng, universe)
        arg = gen_type(rng, owners, depth - 1)
        ret = gen_type(rng, owners, depth - 1)
        return FunTy(arg, ret, owners)
    n = rng.randint(1, MAX_TUPLE_LEN)
    return TupleTy(tuple(gen_type(rng, universe, depth - 1)
                         for _ in range(n)))


def gen_value(rng: random.Random, theta: PartySet, t: ChorType,
              fresh: Callable[[], str]) -> ChorValue:
    """A closed value of the given type (owner sets taken literally, except
    pair components may spread wider as long as they meet at the target)."""
    match t:
        case DataTy():
            return _gen_data_value(rng, theta, t.shape, t.owners)
        case FunTy():
            body = Val(gen_value(rng, t.owners, t.ret, fresh))
            return Lam(fresh(), t.arg, body, t.owners)
        case TupleTy():
            return Vec(tuple(gen_value(rng, theta, e, fresh)
                             for e in t.elems))
    raise TypeError(f"not a type: {t!r}")


def _gen_data_value(rng: random.Random, theta: PartySet, shape,
                    owners: PartySet) -> ChorValue:
    match shape:
        case DUnit():
            return Unit(owners)
        case DSum():
            if rng.random() < 0.5:
                return Inl(_gen_data_value(rng, theta, shape.left, owners))
            return Inr(_gen_data_value(rng, theta, shape.right, owners))
        case DProd():
            o1, o2 = _split_owners(rng, theta, owners)
            return Pair(_gen_data_value(rng, theta, shape.left, o1),
                        _gen_data_value(rng, theta, shape.right, o2))
    raise TypeError(f"not a data shape: {shape!r}")


def _split_owners(rng: random.Random, theta: PartySet,
                  owners: PartySet) -> tuple[PartySet, PartySet]:
    """Two owner sets inside theta whose intersection is exactly `owners`."""
    spare = [p for p in theta if p not in owners]
    rng.shuffle(spare)
    extra1 = [p for p in spare if rng.random() < 0.3]
    extra2 = [p for p in spare if p not in extra1 and rng.random() < 0.3]
    return (PartySet(owners.members + tuple(extra1)),
            PartySet(owners.members + tuple(extra2)))


# ---------------------------------------------------------------------------
# expressions

class ExprGen:
    """Stateful generator: one instance shares a fresh-name counter, so
    separately generated pieces can be combined without binder collisions."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"x{self.counter}"

    def expr(self, env: TypeEnv, target: ChorType, depth: int) -> ChorExpr:
        names = ["value"]
        if self._matching_vars(env, target):
            names.append("var")
        if depth > 1:
            names.append("bind")
            if isinstance(target, DataTy):
                names += ["com", "case", "proj"]
        choice = self.rng.choices(names, [WEIGHTS[n] for n in names])[0]
        return getattr(self, f"_gen_{choice}")(env, target, depth)

    def _matching_vars(self, env: TypeEnv, target: ChorType) -> list[str]:
        return [x for x, t in env.bindings
                if mask_type(t, env.theta) == target]

    def _gen_value(self, env: TypeEnv, target: ChorType, depth: int):
        return Val(gen_value(self.rng, env.theta, target, self.fresh))

    def _gen_var(self, env: TypeEnv, target: ChorType, depth: int):
        return Val(Var(self.rng.choice(self._matching_vars(env, target))))

    def _gen_bind(self, env: TypeEnv, target: ChorType, depth: int):
        # let-shaped: bind a fresh variable and continue toward the target
        tx = gen_type(self.rng, env.theta, 1)
        bound = self.expr(env, tx, depth - 1)
        x = self.fresh()
        body = self.expr(env.bind(x, tx), target, depth - 1)
        return App(Val(Lam(x, tx, body, env.theta)), bound)

    def _gen_com(self, env: TypeEnv, target: DataTy, depth: int):
        rng = self.rng
        sender = rng.choice(env.theta.members)
        extra = [p for p in env.theta if rng.random() < 0.4]
        arg_owners = PartySet((sender, *extra))
        arg = self.expr(env, DataTy(target.shape, arg_owners), depth - 1)
        return App(Val(Com(sender, target.owners)), arg)

    def _gen_case(self, env: TypeEnv, target: ChorType, depth: int):
        rng = self.rng
        base = PartySet(type_parties(target))
        guards = _grow(rng, base, env.theta)
        scrut_owners = _grow(rng, guards, env.theta)
        dl = gen_data(rng, 1)
        dr = gen_data(rng, 1)
        scrut_ty = DataTy(DSum(dl, dr), scrut_owners)
        x = self.fresh()
        inner = env.with_theta(guards)
        xl, xr = self.fresh(), self.fresh()
        left = self.expr(inner.bind(xl, DataTy(dl, guards)), target, depth - 1)
        right = self.expr(inner.bind(xr, DataTy(dr, guards)), target,
                          depth - 1)
        body = Case(guards, Val(Var(x)), xl, left, xr, right)
        scrut_val = Val(gen_value(rng, env.theta, scrut_ty, self.fresh))
        return App(Val(Lam(x, scrut_ty, body, env.theta)), scrut_val)

    def _gen_proj(self, env: TypeEnv, target: DataTy, depth: int):
        rng = self.rng
        owners = target.owners
        holder = _grow(rng, owners, env.theta)
        kind = rng.choice(("fst", "snd", "lookup"))
        x = self.fresh()
        if kind in ("fst", "snd"):
            other = gen_data(rng, 1)
            if kind == "fst":
                shape = DProd(target.shape, other)
                keyword: ChorValue = Fst(owners)
            else:
                shape = DProd(other, target.shape)
                keyword = Snd(owners)
            arg_ty: ChorType = DataTy(shape, holder)
        else:
            n = rng.randint(1, MAX_TUPLE_LEN)
            index = rng.randint(1, n)
            elems = [gen_type(rng, owners, 0) for _ in range(n)]
            elems[index - 1] = target
            arg_ty = TupleTy(tuple(elems))
            keyword = Lookup(index, owners)
        body = App(Val(keyword), Val(Var(x)))
        bound = Val(gen_value(rng, env.theta, arg_ty, self.fresh))
        return App(Val(Lam(x, arg_ty, body, env.theta)), bound)


def _grow(rng: random.Random, base: PartySet, theta: PartySet) -> PartySet:
    extra = [p for p in theta if p not in base and rng.random() < 0.4]
    return PartySet(base.members + tuple(extra))


def gen_well_typed(cfg: GenConfig, theta: PartySet, target: ChorType,
                   rng: Optional[random.Random] = None) -> ChorExpr:
    """A closed expression that checks at the target type under theta."""
    if not type_parties(target) <= set(theta):
        raise ValueError("the target type mentions parties outside theta")
    gen = ExprGen(rng or random.Random(0))
    return gen.expr(TypeEnv(theta), target, cfg.max_depth)


@dataclass(unsafe_hash=True)
class Instance:
    seed: int
    theta: PartySet
    target: ChorType
    expr: ChorExpr


def gen_instance(cfg: GenConfig, seed: int) -> Instance:
    rng = random.Random(seed)
    k = rng.randint(2, cfg.max_parties)
    theta = PartySet(rng.sample(PARTY_POOL, k))
    target = gen_type(rng, theta, 2)
    expr = gen_well_typed(cfg, theta, target, rng=rng)
    return Instance(seed, theta, target, expr)
