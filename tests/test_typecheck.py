"""Typing rules: acceptance, rejection kinds, and bidirectional checking."""

import hashlib
import sys
from collections import Counter

import pytest

from helam.generate import GenConfig, gen_instance
from helam.surface import DesugarError, ParseError, compile_text
from helam.syntax import (
    App, Case, Com, DProd, DSum, DUnit, DataTy, Fst, FunTy, Inl, Inr, Lam,
    BadPartyName, Lookup, Pair, Snd, TupleTy, Unit, Val, Var, Vec, parties,
    print_expr, print_type,
)
from helam.typecheck import (
    AMBIGUOUS_SUM, ARG_MISMATCH, GUARD_NOT_SUM, INDEX_OUT_OF_RANGE,
    MASK_UNDEFINED, NOOP_VIOLATION, NOT_A_FUNCTION, PAIR_COMPONENTS_DISJOINT,
    PARTIES_NOT_SUBSET, SENDER_NOT_OWNER, UNBOUND_VAR, TypeEnv, TypeErr,
    synth, typecheck,
)

from test_surface import one_character_edits

P = parties("p")
Q = parties("q")
PQ = parties("p", "q")
UNIT = DUnit()
BOOL = DSum(DUnit(), DUnit())


def unit_t(ps):
    return DataTy(UNIT, ps)


def expect_kind(kind, theta, expr, expected=None):
    with pytest.raises(TypeErr) as exc:
        typecheck(theta, expr, expected)
    assert exc.value.kind == kind, exc.value


class TestSynthesis:
    def test_masking_identity_application(self):
        e = App(Val(Lam("x", unit_t(P), Val(Var("x")), P)), Val(Unit(PQ)))
        assert typecheck(PQ, e) == unit_t(P)

    def test_bare_com_defaults_to_unit_from_sender(self):
        t = typecheck(parties("s", "r"), Val(Com("s", parties("r"))))
        assert t == FunTy(unit_t(parties("s")), unit_t(parties("r")),
                          parties("r", "s"))

    def test_com_application_takes_shape_from_argument(self):
        e = App(Val(Com("p", Q)), Val(Inl(Unit(P))))
        assert typecheck(PQ, e, DataTy(BOOL, Q)) == DataTy(BOOL, Q)

    def test_com_sender_must_own_argument(self):
        e = App(Val(Com("q", Q)), Val(Unit(P)))
        expect_kind(SENDER_NOT_OWNER, PQ, e)

    def test_com_parties_must_be_present(self):
        e = App(Val(Com("p", parties("r"))), Val(Unit(P)))
        expect_kind(PARTIES_NOT_SUBSET, PQ, e)

    def test_unbound_variable(self):
        expect_kind(UNBOUND_VAR, P, Val(Var("nope")))

    def test_var_masks_to_theta(self):
        env = TypeEnv(P).bind("x", unit_t(PQ))
        assert synth(env, Val(Var("x"))) == unit_t(P)

    def test_var_mask_failure(self):
        env = TypeEnv(P).bind("f", FunTy(unit_t(Q), unit_t(Q), Q))
        with pytest.raises(TypeErr) as exc:
            synth(env, Val(Var("f")))
        assert exc.value.kind == MASK_UNDEFINED

    def test_lambda_owner_not_present(self):
        lam = Lam("x", unit_t(Q), Val(Var("x")), Q)
        expect_kind(PARTIES_NOT_SUBSET, P, Val(lam))

    def test_lambda_noop_violation(self):
        lam = Lam("x", unit_t(PQ), Val(Var("x")), P)
        expect_kind(NOOP_VIOLATION, PQ, Val(lam))

    def test_pair_intersects_owners(self):
        t = typecheck(PQ, Val(Pair(Unit(PQ), Unit(P))))
        assert t == DataTy(DProd(UNIT, UNIT), P)

    def test_pair_disjoint_components(self):
        expect_kind(PAIR_COMPONENTS_DISJOINT, PQ, Val(Pair(Unit(P), Unit(Q))))

    def test_applying_a_non_function(self):
        expect_kind(NOT_A_FUNCTION, P, App(Val(Unit(P)), Val(Unit(P))))

    def test_fst_masks_the_component(self):
        e = App(Val(Fst(P)), Val(Pair(Unit(PQ), Unit(P))))
        assert typecheck(PQ, e) == unit_t(P)

    def test_lookup_result_masks(self):
        e = App(Val(Lookup(1, P)), Val(Vec((Unit(PQ), Unit(P)))))
        assert typecheck(PQ, e) == unit_t(P)

    def test_tuple_of_values(self):
        t = typecheck(PQ, Val(Vec((Unit(P), Unit(Q)))))
        assert t == TupleTy((unit_t(P), unit_t(Q)))


class TestKnowledgeOfChoice:
    def test_guard_at_all_branching_parties_required(self):
        e = Case(PQ, Val(Inl(Unit(P))),
                 "x", Val(Var("x")), "y", Val(Var("y")))
        expect_kind(MASK_UNDEFINED, PQ, e)

    def test_multicast_restores_typability(self, corpus):
        prog = corpus("good_koc")
        t = typecheck(prog.theta, prog.core)
        assert t == FunTy(DataTy(BOOL, P), unit_t(PQ), PQ)

    def test_bad_koc_fixture_rejected_at_guard(self, corpus):
        prog = corpus("bad_koc")
        with pytest.raises(TypeErr) as exc:
            typecheck(prog.theta, prog.core)
        assert exc.value.kind == MASK_UNDEFINED
        assert exc.value.span is not None

    def test_case_branches_must_agree(self):
        scrut = Lam("x", DataTy(BOOL, P), Val(Var("x")), P)
        e = Case(P, App(Val(scrut), Val(Inl(Unit(P)))),
                 "a", Val(Unit(P)), "b", Val(Pair(Unit(P), Unit(P))))
        with pytest.raises(TypeErr):
            typecheck(PQ, e)


class TestBidirectional:
    def test_checking_inl_against_a_sum(self):
        expected = DataTy(DSum(UNIT, DProd(UNIT, UNIT)), P)
        assert typecheck(P, Val(Inl(Unit(P))), expected) == expected

    def test_checking_inr_against_a_sum(self):
        expected = DataTy(BOOL, P)
        assert typecheck(P, Val(Inr(Unit(P))), expected) == expected

    def test_synthesizing_bare_inl_is_ambiguous(self):
        expect_kind(AMBIGUOUS_SUM, P, Val(Inl(Unit(P))))

    def test_wrong_injection_payload_shape(self):
        expected = DataTy(DSum(DProd(UNIT, UNIT), UNIT), P)
        expect_kind(ARG_MISMATCH, P, Val(Inl(Unit(P))), expected)

    def test_flexible_argument_with_wider_owners(self):
        # the argument types at a wider owner set and masks down to the
        # parameter, so a strict equality check would wrongly reject it
        lam = Lam("x", DataTy(BOOL, P), Val(Var("x")), P)
        e = App(Val(lam), Val(Inl(Unit(PQ))))
        assert typecheck(PQ, e) == DataTy(BOOL, P)

    def test_checking_keyword_against_function_type(self):
        expected = FunTy(DataTy(DProd(UNIT, BOOL), P), unit_t(P), P)
        assert typecheck(P, Val(Fst(P)), expected) == expected

    def test_checking_com_against_function_type(self):
        expected = FunTy(unit_t(P), unit_t(Q), PQ)
        assert typecheck(PQ, Val(Com("p", Q)), expected) == expected

    def test_flexible_branches_need_an_expectation(self):
        case = Case(PQ, Val(Var("g")),
                    "a", Val(Inl(Unit(P))), "b", Val(Inr(Unit(P))))
        e = App(Val(Lam("g", DataTy(BOOL, PQ), case, PQ)),
                Val(Inl(Unit(PQ))))
        expected = DataTy(BOOL, P)
        with pytest.raises(TypeErr) as exc:
            typecheck(PQ, e)
        assert exc.value.kind == AMBIGUOUS_SUM
        assert typecheck(PQ, e, expected) == expected

    def test_flexible_scrutinee_stays_ambiguous(self):
        # the branch payload types come from the scrutinee, so a bare
        # injection there cannot be resolved even with an expectation
        guard = App(Val(Com("p", PQ)), Val(Inl(Unit(P))))
        case = Case(PQ, guard, "a", Val(Unit(P)), "b", Val(Unit(P)))
        expect_kind(AMBIGUOUS_SUM, PQ, case, unit_t(P))

    def test_check_rejects_wrong_type(self):
        expect_kind(ARG_MISMATCH, PQ, Val(Unit(P)), unit_t(PQ))


# ---------------------------------------------------------------------------
# flexible forms: the keyword functions and bare injections, which cannot
# synthesize a type on their own, in each position an expectation reaches
# them from, accepted and rejected (TestBidirectional accepts bare fst and
# an injection as a com argument)

FST_T = FunTy(DataTy(DProd(UNIT, BOOL), P), unit_t(P), P)
SND_T = FunTy(DataTy(DProd(UNIT, BOOL), P), DataTy(BOOL, P), P)
LOOKUP_T = FunTy(TupleTy((unit_t(P), DataTy(BOOL, P))), DataTy(BOOL, P), P)
COM_T = FunTy(DataTy(BOOL, P), DataTy(BOOL, Q), PQ)
INL_P = Inl(Unit(P))


def flex_com(sender, recipients, payload):
    return App(Val(Com(sender, recipients)), Val(payload))


def apply_lam(t, owners, arg):
    """(fn f: t. f)@owners applied to arg: arg is checked against t."""
    return App(Val(Lam("f", t, Val(Var("f")), owners)), arg)


def bare_case(guards, scrut, left, right):
    return Case(guards, Val(scrut), "x", left, "y", right)


FLEX_ACCEPT = [
    ("snd-against-fun", PQ, Val(Snd(P)), SND_T, SND_T),
    ("lookup-against-fun", PQ, Val(Lookup(2, P)), LOOKUP_T, LOOKUP_T),
    ("com-against-fun", PQ, Val(Com("p", Q)), COM_T, COM_T),
    ("fst-as-argument", PQ, apply_lam(FST_T, P, Val(Fst(P))), None, FST_T),
    ("com-as-argument", PQ, apply_lam(COM_T, PQ, Val(Com("p", Q))), None,
     COM_T),
    ("lookup-literal-with-injection", PQ,
     App(Val(Lookup(1, P)), Val(Vec((INL_P, Unit(PQ))))),
     DataTy(BOOL, P), DataTy(BOOL, P)),
    ("lookup-literal-under-com", PQ,
     App(Val(Com("p", Q)), App(Val(Lookup(1, P)), Val(Vec((INL_P, Unit(P)))))),
     DataTy(BOOL, Q), DataTy(BOOL, Q)),
    ("com-of-injection-as-argument", PQ,
     apply_lam(DataTy(BOOL, Q), PQ, flex_com("p", Q, INL_P)), None,
     DataTy(BOOL, Q)),
    ("injection-in-projected-pair", PQ,
     App(Val(Fst(P)), Val(Pair(INL_P, Unit(PQ)))),
     DataTy(BOOL, P), DataTy(BOOL, P)),
    ("injection-in-snd-pair-under-com", PQ,
     App(Val(Com("p", Q)), App(Val(Snd(P)), Val(Pair(Unit(P), INL_P)))),
     DataTy(BOOL, Q), DataTy(BOOL, Q)),
    ("case-on-bare-injection", P,
     bare_case(P, INL_P, Val(Unit(P)), Val(Unit(P))), None, unit_t(P)),
    # the unconstrained sum side binds a hole, filled from the other branch
    ("case-on-bare-injection-binds-a-hole", P,
     bare_case(P, Inr(Unit(P)), Val(Var("x")), Val(Var("y"))), None,
     "()@[p]"),
]

FLEX_REJECT = [
    ("fst-against-non-product", PQ, Val(Fst(P)),
     FunTy(unit_t(P), unit_t(P), P), ARG_MISMATCH),
    ("snd-against-wrong-owners", PQ, Val(Snd(P)),
     FunTy(DataTy(DProd(UNIT, BOOL), P), DataTy(BOOL, P), PQ), ARG_MISMATCH),
    ("lookup-against-unmasked-domain", PQ, Val(Lookup(1, P)),
     FunTy(TupleTy((unit_t(PQ),)), unit_t(PQ), P), NOOP_VIOLATION),
    ("com-against-wrong-recipients", PQ, Val(Com("p", Q)),
     FunTy(DataTy(BOOL, P), DataTy(BOOL, P), PQ), ARG_MISMATCH),
    ("fst-as-argument-wrong-type", PQ,
     apply_lam(FST_T, P, Val(Snd(P))), None, ARG_MISMATCH),
    ("com-against-fun-absent-party", PQ, Val(Com("p", parties("r"))),
     FunTy(DataTy(BOOL, P), DataTy(BOOL, parties("r")), parties("p", "r")),
     PARTIES_NOT_SUBSET),
    ("com-as-argument-wrong-sender", PQ,
     apply_lam(COM_T, PQ, Val(Com("q", Q))), None, ARG_MISMATCH),
    ("lookup-literal-unmasked-element", PQ,
     App(Val(Lookup(1, P)), Val(Vec((INL_P, Unit(Q))))),
     DataTy(BOOL, P), MASK_UNDEFINED),
    ("lookup-literal-unused-slot-unbound-var", PQ,
     App(Val(Com("p", Q)), App(Val(Lookup(1, P)), Val(Vec((
         INL_P, Lam("x", unit_t(P), Val(Inl(Var("nope"))), P)))))),
     DataTy(BOOL, Q), UNBOUND_VAR),
    ("lookup-literal-under-com-out-of-range", PQ,
     App(Val(Com("p", Q)), App(Val(Lookup(3, P)), Val(Vec((INL_P, Unit(P)))))),
     DataTy(BOOL, Q), INDEX_OUT_OF_RANGE),
    ("injection-as-com-argument-wrong-sender", PQ, flex_com("q", Q, INL_P),
     DataTy(BOOL, Q), SENDER_NOT_OWNER),
    ("com-of-injection-as-argument-wrong-owners", PQ,
     apply_lam(DataTy(BOOL, P), PQ, flex_com("p", Q, INL_P)), None,
     ARG_MISMATCH),
    ("injection-in-projected-pair-not-covered", PQ,
     App(Val(Fst(PQ)), Val(Pair(INL_P, Unit(PQ)))),
     DataTy(BOOL, PQ), ARG_MISMATCH),
    ("injection-in-snd-pair-under-com-wrong-shape", PQ,
     App(Val(Com("p", Q)), App(Val(Snd(P)), Val(Pair(Unit(P), INL_P)))),
     DataTy(DSum(BOOL, UNIT), Q), ARG_MISMATCH),
    ("case-on-bare-pair", P,
     bare_case(P, Pair(INL_P, Unit(P)), Val(Unit(P)), Val(Unit(P))), None,
     GUARD_NOT_SUM),
    ("case-on-bare-injection-disjoint-pair", PQ,
     bare_case(P, Inl(Pair(Unit(P), Unit(Q))), Val(Unit(P)), Val(Unit(P))),
     None, PAIR_COMPONENTS_DISJOINT),
]


@pytest.mark.parametrize("theta, expr, expected, witness",
                         [case[1:] for case in FLEX_ACCEPT],
                         ids=[case[0] for case in FLEX_ACCEPT])
def test_flexible_form_accepted(theta, expr, expected, witness):
    got = typecheck(theta, expr, expected)
    if isinstance(witness, str):
        assert print_type(got) == witness
    else:
        assert got == witness


@pytest.mark.parametrize("theta, expr, expected, kind",
                         [case[1:] for case in FLEX_REJECT],
                         ids=[case[0] for case in FLEX_REJECT])
def test_flexible_form_rejected(theta, expr, expected, kind):
    expect_kind(kind, theta, expr, expected)


class TestCorpusAcceptance:
    def test_kvs_program_accepted(self, corpus):
        prog = corpus("kvs")
        t = typecheck(prog.theta, prog.core)
        request = DataTy(BOOL, parties("client"))
        assert t == FunTy(request, request,
                          parties("backup", "client", "primary"))

    def test_theta_override(self, corpus_dir):
        text = (corpus_dir / "identity.hll").read_text()
        prog = compile_text(text, parties("p", "q", "r"))
        assert typecheck(prog.theta, prog.core) == unit_t(P)


@pytest.mark.parametrize("applied", [False, True])
def test_a_bad_sender_name_raises_every_time(applied):
    # the sender's party set is memoized per name, but never a bad one
    com = Val(Com("9p", Q))
    e = App(com, Val(Unit(Q))) if applied else com
    for _ in range(2):
        with pytest.raises(BadPartyName):
            typecheck(PQ, e)


# ---------------------------------------------------------------------------
# totality: arbitrary (mostly ill-typed) syntax either types or raises a
# structured diagnostic, never anything else

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from strategies import exprs as _exprs, types as _types  # noqa: E402
from helam.typecheck import ALL_KINDS  # noqa: E402


@settings(max_examples=150, deadline=None)
@given(_exprs, st.one_of(st.none(), _types))
def test_typecheck_is_total(e, expected):
    theta = parties("p", "q", "r")
    try:
        typecheck(theta, e, expected)
    except TypeErr as err:
        assert err.kind in ALL_KINDS


# ---------------------------------------------------------------------------
# diagnostics that only a particular program reaches: one row per site of the
# checker, each found by tracing the lines that run

@pytest.mark.parametrize("text, record", [
    # _walk: a synthesized non-function applied
    pytest.param(
        "(fn x : ()@[p] . x x)@[p]",
        "NotAFunction\t1:18\tapplied expression of type ()@[p]",
        id="applied-expression"),
    # _walk: a tuple literal checked against a longer tuple type
    pytest.param(
        "(fn f : (()@[p] -> ((() + ())@[p], ()@[p]))@[p] . f)@[p] (fn x : "
        "()@[p] . (Inl ()@[p],))@[p]",
        "ArgMismatch\t1:75\ttuple does not fit ((() + ())@[p], ()@[p])",
        id="tuple-does-not-fit"),
    # _walk: a lambda checked against another parameter type
    pytest.param(
        "(fn f : ((() + ())@[p] -> (() + ())@[p])@[p] . f)@[p] (fn x : ()@[p] "
        ". Inl ()@[p])@[p]",
        "ArgMismatch\t1:55\tfunction literal does not fit ((() + ())@[p] -> "
        "(() + ())@[p])@[p]",
        id="function-literal"),
    # _walk: a lookup keyword checked against a function on data
    pytest.param(
        "(fn f : (()@[p] -> ()@[p])@[p] . f)@[p] lookup[1][p]",
        "ArgMismatch\t1:41\tlookup[1] does not fit (()@[p] -> ()@[p])@[p]",
        id="lookup-keyword"),
    # _walk_val: a function argument wider than the mask
    pytest.param(
        "(fn f : ((()@[p] -> (() + ())@[p])@[p, q] -> ()@[p])@[p] . f (fn x : "
        "()@[p] . Inl ()@[p])@[p])@[p]",
        "ArgMismatch\t1:62\t(()@[p] -> (() + ())@[p])@[p, q] cannot be masked "
        "to [p]",
        id="cannot-be-masked"),
    # _walk_val: a non-tuple for a tuple parameter
    pytest.param(
        "(fn t : (()@[p],) . t)@[p] (Inl ()@[p])",
        "ArgMismatch\t1:29\ttuple value expected for (()@[p],)",
        id="tuple-value-expected"),
    # _walk_val: the re-walk that finds an owner error
    pytest.param(
        "(fn y : ()@[p] . (fn x : (() + ())@[p] . x)@[p] (Inl ()@[q]))@[p]",
        "PartiesNotSubset\t1:50\tparties [q] not all present in [p]",
        id="owner-error-rewalk"),
    # _walk_val: data owned too narrowly for its parameter
    pytest.param(
        "(fn x : (() + ())@[p, q] . x)@[p, q] (Inl ()@[p])",
        "ArgMismatch\t1:39\tdata value owned by [p] does not fit (() + "
        "())@[p, q]",
        id="data-value-owned-by"),
    # _proj_app: a projection at the wrong owners
    pytest.param(
        "(fn x : ()@[p] . x)@[p, q] (fst[p, q] (Pair (Inl ()@[p, q]) ()@[p, "
        "q]))",
        "ArgMismatch\t1:29\tprojection at [p, q] cannot produce ()@[p]",
        id="projection-cannot-produce"),
    # _lookup_app: a tuple type that does not mask
    pytest.param(
        "(fn t : (()@[p], ()@[q]) . lookup[1][r] t)@[p, q, r]",
        "MaskUndefined\t1:28\t(()@[p], ()@[q]) does not mask to [r]",
        id="does-not-mask"),
    # _lookup_app: a lookup owned apart from the mask
    pytest.param(
        "(fn x : (() + ())@[p] . x)@[p] (lookup[1][q] (Inl ()@[q],))",
        "ArgMismatch\t1:33\tlookup at [q] cannot mask to (() + ())@[p]",
        id="lookup-cannot-mask"),
    # _lookup_app: an open element that does not mask
    pytest.param(
        "(fn x : (() + ())@[q] . x)@[p, q] (com[p][q] (lookup[1][q] (Inl "
        "()@[p],)))",
        "MaskUndefined\t1:47\telement owned by [p] does not mask to [q]",
        id="element-does-not-mask"),
    # _masks: an element that does not type
    pytest.param(
        "(fn x : (() + ())@[p] . x)@[p] (lookup[1][p] (Inl ()@[p], Pair "
        "()@[p] ()@[q]))",
        "MaskUndefined\t1:33\ttuple element 2 does not mask to [p]",
        id="masks-rejects-element"),
    # _masks: a nested tuple that cannot synthesize
    pytest.param(
        "(fn x : (() + ())@[p] . x)@[p] (lookup[1][p] (Inl ()@[p], (Inl "
        "()@[q],)))",
        "MaskUndefined\t1:33\ttuple element 2 does not mask to [p]",
        id="masks-tuple-element"),
    # _masks: a keyword that cannot synthesize
    pytest.param(
        "(fn x : (() + ())@[p] . x)@[p] (lookup[1][p] (Inl ()@[p], fst[q]))",
        "MaskUndefined\t1:33\ttuple element 2 does not mask to [p]",
        id="masks-keyword-element"),
    # _same and _fill: tuple branches, one with a hole
    pytest.param(
        "(case[p] Inl ()@[p] of Inl a => (a,); Inr b => (b,)) ()@[p]",
        "NotAFunction\t1:2\tapplied expression of type (()@[p],)",
        id="tuple-branches"),
    # has_hole: a let bound to a tuple
    pytest.param(
        "let t = (()@[p],); t ()@[p]",
        "NotAFunction\t1:20\tapplied expression of type (()@[p],)",
        id="tuple-let"),
    # _walk: an applied application that cannot synthesize
    pytest.param(
        "(fn x : ()@[p] . x)@[p] ((fst[p] (Pair (Inl ()@[p]) ()@[p])) ()@[p])",
        "AmbiguousSum\t1:27\tcannot determine the type; annotate it",
        id="cannot-determine"),
    # _walk: a pair checked against a non-product
    pytest.param(
        "(fn x : (() + ())@[p] . x)@[p] (Inl (Pair ()@[p] ()@[p]))",
        "ArgMismatch\t1:33\tpair checked against ()",
        id="pair-checked-against"),
    # _require_data: a function sent by com
    pytest.param(
        "com[p][q] (fn x : ()@[p] . x)@[p]",
        "ArgMismatch\t1:1\tcom argument must be data, got (()@[p] -> "
        "()@[p])@[p]",
        id="must-be-data"),
    # _walk: an injection checked against a unit parameter
    pytest.param(
        "(fn x : ()@[p] . x)@[p] (Inl ()@[p])",
        "ArgMismatch\t1:26\tinjection checked against a type that is not "
        "a sum",
        id="injection-not-a-sum"),
    # _com_app: a com checked, with no mask, against other owners
    pytest.param(
        "case[p, q] Inl ()@[p, q] of Inl a => com[p][q] (Inl ()@[p]); "
        "Inr b => ()@[p, q]",
        "ArgMismatch\t1:38\tcom to [q] cannot produce ()@[p, q]",
        id="com-cannot-produce"),
    # _proj_app: a projection of a unit
    pytest.param(
        "fst[p] ()@[p]",
        "ArgMismatch\t1:1\tfst/snd needs a product, got ()@[p]",
        id="needs-a-product"),
    # _lookup_app: a lookup into a unit
    pytest.param(
        "lookup[1][p] ()@[p]",
        "ArgMismatch\t1:1\tlookup needs a tuple, got ()@[p]",
        id="needs-a-tuple"),
])
def test_diagnostic_sites(text, record):
    prog = compile_text(text)
    with pytest.raises(TypeErr) as exc:
        typecheck(prog.theta, prog.core)
    assert exc.value.record() == record


# Nested lets in argument position, each one's argument the next let: the
# first program is well typed, each body an injection that cannot
# synthesize; in the second each body names an unbound variable and the
# innermost argument is ambiguous even against its parameter type.
_AMBIGUOUS_ARG = ("(((fn z : ()@[p] . (fn w : ()@[p] . Inl ()@[p])@[p])@[p] "
                  "()@[p]) ()@[p])")


def _nested_lets(depth, annot, inner, body):
    e = inner
    for i in range(depth):
        e = f"(let x{i} : {annot} = {e}; {body.format(i)})"
    return f"let r : {annot} = {e}; r"


@pytest.mark.parametrize("text, kind", [
    (_nested_lets(12, "(() + ())@[p]", "Inl ()@[p]", "Inl ()@[p]"), None),
    (_nested_lets(12, "()@[p]", _AMBIGUOUS_ARG, "nope{}"), UNBOUND_VAR),
], ids=["ambiguous-bodies", "unbound-bodies"])
def test_each_let_argument_is_checked_once(monkeypatch, text, kind):
    # a synthesizing caller checks an ambiguous let again against its
    # expectation; a let whose argument it had checked before the body
    # would be checked twice at every level, 2 ** 13 - 1 times in all
    checker = sys.modules[TypeErr.__module__]  # `helam.typecheck` is shadowed
    calls = []

    def counted(*args):
        calls.append(args)
        return check_arg(*args)

    check_arg = checker.check_arg
    monkeypatch.setattr(checker, "check_arg", counted)
    prog = compile_text(text)
    if kind is None:
        typecheck(prog.theta, prog.core)
    else:
        expect_kind(kind, prog.theta, prog.core)
    assert len(calls) == 13  # once per let, the outermost `r` included


# The innermost argument is ambiguous even against its parameter type, so
# the ambiguity is final: a checker that walked each let again on it made
# 2 ** (d + 1) - 1 `check_arg` calls at depth d.
_FINAL_AMBIGUITY = "AmbiguousSum\t{}\tcannot determine the type; annotate it"


@pytest.mark.parametrize("depth, span", [
    (4, "1:95"), (8, "1:171"), (10, "1:209"), (12, "1:249")])
def test_a_final_ambiguity_is_reported_where_it_arises(depth, span):
    prog = compile_text(_nested_lets(depth, "()@[p]", _AMBIGUOUS_ARG[1:-1],
                                     "x{}"))
    with pytest.raises(TypeErr) as exc:
        typecheck(prog.theta, prog.core)
    assert exc.value.record() == _FINAL_AMBIGUITY.format(span)


def test_a_final_ambiguity_checks_each_let_argument_once(monkeypatch):
    checker = sys.modules[TypeErr.__module__]
    calls = []
    check_arg = checker.check_arg
    monkeypatch.setattr(checker, "check_arg",
                        lambda *args: calls.append(args) or check_arg(*args))
    for depth in (12, 24):
        calls.clear()
        prog = compile_text(_nested_lets(depth, "()@[p]",
                                         _AMBIGUOUS_ARG[1:-1], "x{}"))
        expect_kind(AMBIGUOUS_SUM, prog.theta, prog.core)
        assert len(calls) == depth + 1


def _verdict(text):
    try:
        prog = compile_text(text)
        return "ok\t" + print_type(typecheck(prog.theta, prog.core))
    except (ParseError, DesugarError, TypeErr) as err:
        return f"{type(err).__name__}\t{err.span}\t{err}"


def verdicts(corpus_dir):
    """The verdict on each corpus file, generated program 0-999 and
    one-character edit of the corpus: a type, or a diagnostic's kind, span
    and message."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(corpus_dir.glob("*.hll"))]
    texts += [print_expr(gen_instance(cfg, n).expr) for n in range(1000)]
    texts += [edit for _, edit in one_character_edits(corpus_dir)]
    return [_verdict(text) for text in texts]


def test_final_ambiguities_change_no_verdict(corpus_dir):
    # pinned while the checker still walked a let again on every ambiguity
    found = verdicts(corpus_dir)
    kinds = Counter(line.split("\t")[0] for line in found)
    assert kinds == {"ok": 871, "TypeErr": 502, "ParseError": 341}, kinds
    digest = hashlib.sha256("\n".join(found).encode()).hexdigest()
    assert digest == ("1817849001511f3a08fa4e76ebdb6458"
                      "82a6662cb4ab5db91328aec36bf6d345")
