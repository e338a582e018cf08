"""Parsing, desugaring, uniquification, and round trips."""

import pytest

from helam.semantics import run
from helam.surface import (
    DesugarError, ParseError, compile_text, desugar, parse, uniquify,
)
from helam.syntax import (
    App, Case, Com, DSum, DUnit, DataTy, Inl, Lam, Lookup, Unit, Val, Var,
    parties, print_expr,
)
from helam.typecheck import typecheck

P = parties("p")


def compile_core(text, theta=None):
    return compile_text(text, theta).core


class TestParse:
    def test_com_annotation(self):
        core, _ = desugar(parse("com[s][r_1]"))
        assert core == Val(Com("s", parties("r_1")))

    def test_lookup_annotation(self):
        core, _ = desugar(parse("lookup[2][p_1, p_2, q]"))
        assert core == Val(Lookup(2, parties("p_1", "p_2", "q")))

    def test_comments_and_whitespace(self):
        text = "# leading comment\n ()@[p]  # trailing\n"
        assert compile_core(text) == Val(Unit(P))

    def test_application_is_left_associative(self):
        core, _ = desugar(parse("f x y"), theta=P)
        assert core == App(App(Val(Var("f")), Val(Var("x"))), Val(Var("y")))

    def test_case_scrutinee_stops_at_of(self):
        text = ("(fn g : (() + ())@[p] . "
                "case[p] g of Inl a => a; Inr b => b)@[p]")
        core = compile_core(text)
        body = core.value.body
        assert isinstance(body, Case)
        assert body.scrutinee == Val(Var("g"))

    def test_parse_error_has_span(self):
        with pytest.raises(ParseError) as exc:
            parse("()@[p] @@")
        assert exc.value.span is not None

    def test_keyword_cannot_be_a_variable(self):
        with pytest.raises(ParseError):
            parse("let case = ()@[p]; case")

    def test_unknown_alias(self):
        with pytest.raises(ParseError):
            parse("(fn x : Shrug@[p] . x)@[p]")

    def test_duplicate_alias(self):
        with pytest.raises(ParseError):
            parse("alias B = ();\nalias B = () + ();\n()@[p]")

    def test_empty_party_list(self):
        with pytest.raises(ParseError):
            parse("()@[]")


class TestDesugar:
    def test_let_becomes_applied_lambda(self):
        core, theta = desugar(parse("let v : ()@[p] = ()@[p]; v"))
        assert theta == P
        assert core == App(Val(Lam("v", DataTy(DUnit(), P),
                                   Val(Var("v")), P)),
                           Val(Unit(P)))

    def test_let_lambda_owners_are_the_ambient_parties(self):
        # the continuation must keep every participant, not only the owners
        # of the bound value
        text = ("(fn x : ()@[p] . let y = com[p][q] x; com[q][p] y)"
                "@[p, q]")
        core = compile_core(text)
        let_lam = core.value.body.fn.value
        assert let_lam.owners == parties("p", "q")
        typecheck(parties("p", "q"), core)

    def test_theta_covers_parties_only_in_an_annotation(self):
        _, theta = desugar(parse("let v : ()@[q] = ()@[p]; v"))
        assert theta == parties("p", "q")

    def test_theta_covers_a_party_only_sending(self):
        _, theta = desugar(parse("com[s][r] ()@[r]"))
        assert theta == parties("r", "s")

    def test_program_naming_no_party_is_rejected(self):
        with pytest.raises(DesugarError, match="program names no parties"):
            desugar(parse("f x"))

    def test_unannotated_let_synthesizes(self):
        core, _ = desugar(parse("let v = ()@[p]; v"))
        assert core.fn.value.param_type == DataTy(DUnit(), P)

    def test_unannotated_flexible_let_requires_annotation(self):
        with pytest.raises(DesugarError):
            desugar(parse("let v = Inl ()@[p]; v"))

    def test_constructor_argument_pulled_to_a_temporary(self):
        text = "(fn x : ()@[s] . Inl (com[s][r] x))@[r, s]"
        core = compile_core(text)
        inner = core.value.body
        assert isinstance(inner, App)
        lam = inner.fn.value
        assert lam.param == "tmp$1"
        assert lam.body == Val(Inl(Var("tmp$1")))
        assert isinstance(inner.arg, App)  # the pulled-out com application

    def test_alias_inlined(self):
        text = "alias Bool = () + ();\n(fn b : Bool@[p] . b)@[p]"
        core = compile_core(text)
        assert core.value.param_type == DataTy(DSum(DUnit(), DUnit()), P)

    def test_temporaries_cannot_capture_user_variables(self):
        # a user variable named like a temporary's stem is left alone
        text = ("(fn tmp : ()@[s] . Pair (com[s][r] tmp) (com[s][r] tmp))"
                "@[r, s]")
        core = compile_core(text)
        typecheck(parties("r", "s"), core)
        names = print_expr(core)
        assert "tmp$1" in names and "tmp$2" in names


class TestUniquify:
    def test_second_binder_renamed(self):
        text = "(fn x : ()@[p] . x)@[p] ((fn x : ()@[p] . x)@[p] ()@[p])"
        core, _ = desugar(parse(text))
        unique = uniquify(core)
        assert unique.fn.value.param == "x"
        inner = unique.arg.fn.value
        assert inner.param == "x$1"
        assert inner.body == Val(Var("x$1"))

    def test_already_unique_is_identity(self):
        core, _ = desugar(parse("(fn x : ()@[p] . x)@[p] ()@[p]"))
        assert uniquify(core) == core

    def test_shadowing_inner_binder_wins(self):
        text = "(fn x : ()@[p] . (fn x : ()@[p] . x)@[p] x)@[p]"
        core, _ = desugar(parse(text))
        unique = uniquify(core)
        inner = unique.value.body.fn.value
        assert inner.param == "x$1"
        assert inner.body == Val(Var("x$1"))
        assert unique.value.body.arg == Val(Var("x"))

    def test_preserves_typing_and_evaluation(self, corpus):
        for name in ("identity", "good_koc"):
            prog = corpus(name)
            raw, theta = desugar(parse(
                (print_expr(prog.core))))  # a let-free nontrivial source
            assert typecheck(theta, raw) == typecheck(theta, uniquify(raw))
        # a source that genuinely reuses binder names end to end
        text = ("(fn x : ()@[p] . let _ = x; let _ = x; x)@[p] ()@[p]")
        core, theta = desugar(parse(text))
        assert run(core) == run(uniquify(core))
        assert typecheck(theta, core) == typecheck(theta, uniquify(core))


class TestRoundTrip:
    def test_corpus_round_trips(self, corpus, corpus_dir):
        for path in sorted(corpus_dir.glob("*.hll")):
            prog = corpus(path.stem)
            text = print_expr(prog.core)
            reparsed, _ = desugar(parse(text), theta=prog.theta)
            assert reparsed == prog.core, path.stem
            assert print_expr(reparsed) == text, path.stem

    def test_print_is_a_fixed_point(self, corpus):
        prog = corpus("kvs")
        text = print_expr(prog.core)
        again, _ = desugar(parse(text), theta=prog.theta)
        assert print_expr(again) == text
