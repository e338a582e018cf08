"""Shared hypothesis strategies for raw (possibly ill-typed) syntax."""

from hypothesis import strategies as st

from helam.syntax import (
    App, Case, Com, DProd, DSum, DUnit, DataTy, Fst, FunTy, Inl, Inr, Lam,
    Lookup, Pair, PartySet, Snd, TupleTy, Unit, Val, Var, Vec,
)

names = st.sampled_from(["x", "y", "z", "foo", "bar"])
owners = st.builds(PartySet,
                   st.lists(st.sampled_from("pqr"), min_size=1, max_size=3))
shapes = st.recursive(
    st.just(DUnit()),
    lambda inner: st.builds(DSum, inner, inner)
    | st.builds(DProd, inner, inner),
    max_leaves=4)
types = st.recursive(
    st.builds(DataTy, shapes, owners),
    lambda inner: st.builds(FunTy, inner, inner, owners)
    | st.builds(lambda xs: TupleTy(tuple(xs)),
                st.lists(inner, min_size=1, max_size=3)),
    max_leaves=4)

atoms = (st.builds(Var, names) | st.builds(Unit, owners)
         | st.builds(Fst, owners) | st.builds(Snd, owners)
         | st.builds(Lookup, st.integers(1, 3), owners)
         | st.builds(Com, st.sampled_from("pqr"), owners))


def _values(bodies):
    """Values whose function bodies are drawn from `bodies`."""
    return st.recursive(
        atoms,
        lambda inner: st.builds(Inl, inner) | st.builds(Inr, inner)
        | st.builds(Pair, inner, inner)
        | st.builds(lambda xs: Vec(tuple(xs)),
                    st.lists(inner, min_size=1, max_size=3))
        | st.builds(Lam, names, types, bodies, owners),
        max_leaves=5)


# A function body inside an expression is drawn from the expression's own
# recursion, so `max_leaves` bounds the whole term, values included.
exprs = st.recursive(
    st.builds(Val, atoms),
    lambda inner: st.builds(Val, _values(inner))
    | st.builds(App, inner, inner)
    | st.builds(Case, owners, inner, names, inner, names, inner),
    max_leaves=12)

values = _values(exprs)
