"""The restriction operator: definedness, narrowing, and its laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helam.masking import is_noop, mask_type, mask_value
from helam.syntax import (
    Com, DProd, DSum, DUnit, DataTy, Fst, FunTy, Inl, Lam, Lookup, Pair,
    PartySet, TupleTy, Unit, Val, Var, parties,
)

P = parties("p")
Q = parties("q")
PQ = parties("p", "q")
UNIT_P = DataTy(DUnit(), P)


class TestMaskType:
    def test_data_narrows_owners(self):
        assert mask_type(DataTy(DUnit(), PQ), P) == UNIT_P

    def test_data_keeps_shape(self):
        shape = DSum(DUnit(), DProd(DUnit(), DUnit()))
        out = mask_type(DataTy(shape, PQ), Q)
        assert out == DataTy(shape, Q)

    def test_function_needs_all_owners(self):
        fun = FunTy(UNIT_P, UNIT_P, P)
        assert mask_type(fun, Q) is None
        assert mask_type(fun, PQ) == fun

    def test_identity_when_contained(self):
        assert mask_type(UNIT_P, P) == UNIT_P

    def test_disjoint_data_undefined(self):
        assert mask_type(DataTy(DUnit(), Q), P) is None

    def test_tuple_elementwise(self):
        t = TupleTy((DataTy(DUnit(), PQ), DataTy(DUnit(), PQ)))
        assert mask_type(t, P) == TupleTy((UNIT_P, UNIT_P))
        mixed = TupleTy((DataTy(DUnit(), Q), UNIT_P))
        assert mask_type(mixed, P) is None


class TestMaskValue:
    def test_unit_narrows(self):
        assert mask_value(Unit(PQ), Q) == Unit(Q)

    def test_com_kept_when_parties_present(self):
        com = Com("s", parties("r"))
        theta = parties("s", "r")
        assert mask_value(com, theta) == com
        assert mask_value(com, parties("s")) is None
        assert mask_value(com, parties("r")) is None  # the sender is absent

    def test_pair_needs_both_components(self):
        pair = Pair(Unit(P), Unit(Q))
        assert mask_value(pair, P) is None

    def test_pair_narrows_componentwise(self):
        pair = Pair(Unit(PQ), Unit(PQ))
        assert mask_value(pair, P) == Pair(Unit(P), Unit(P))

    def test_var_ignores_theta(self):
        assert mask_value(Var("x"), Q) == Var("x")

    def test_lambda_all_or_nothing(self):
        lam = Lam("x", UNIT_P, Val(Var("x")), P)
        assert mask_value(lam, PQ) == lam
        assert mask_value(lam, Q) is None

    def test_injection_recurses(self):
        assert mask_value(Inl(Unit(PQ)), P) == Inl(Unit(P))

    def test_keywords(self):
        assert mask_value(Fst(P), PQ) == Fst(P)
        assert mask_value(Lookup(1, PQ), P) is None


def test_noop_is_literal_equality():
    assert is_noop(UNIT_P, PQ)
    assert not is_noop(DataTy(DUnit(), PQ), P)


# ---------------------------------------------------------------------------
# laws on random types

_owners = st.builds(PartySet,
                    st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4))
_shapes = st.recursive(
    st.just(DUnit()),
    lambda inner: st.builds(DSum, inner, inner)
    | st.builds(DProd, inner, inner),
    max_leaves=4)
_types = st.recursive(
    st.builds(DataTy, _shapes, _owners),
    lambda inner: st.builds(FunTy, inner, inner, _owners)
    | st.builds(lambda xs: TupleTy(tuple(xs)),
                st.lists(inner, min_size=1, max_size=3)),
    max_leaves=5)


@settings(max_examples=300, deadline=None)
@given(_types, _owners)
def test_mask_type_idempotent(t, theta):
    once = mask_type(t, theta)
    if once is not None:
        assert mask_type(once, theta) == once


@settings(max_examples=300, deadline=None)
@given(_shapes, _owners, _owners)
def test_data_mask_never_changes_shape(shape, owners, theta):
    out = mask_type(DataTy(shape, owners), theta)
    if out is not None:
        assert out.shape == shape
