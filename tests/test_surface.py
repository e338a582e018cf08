"""Parsing, desugaring, uniquification, and round trips."""

import random
import re
import string
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helam.cli import main
from helam.generate import GenConfig, gen_instance
from helam.semantics import run
from helam.surface import (
    CompiledProgram, DesugarError, ParseError, Parser, SApp, SCase, SCons,
    SLam, SLet, Tokens, compile_text, desugar, parse, tokenize, uniquify,
)
from helam.syntax import (
    App, Case, Com, DProd, DSum, DUnit, DataTy, Inl, Inr, Lam, Lookup, Pair,
    Span, Unit, Val, Var, Vec, nodes, parties, print_expr, print_type,
)
from helam.typecheck import NOOP_VIOLATION, TypeErr, typecheck

from conftest import CORPUS_FILES
from strategies import exprs

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
        assert str(exc.value.span) == "1:8"

    @pytest.mark.parametrize("text, message, where", [
        ("()@[p]\n  é", "unexpected character 'é'", "2:3"),
        ("# c\r\n()@[p] @@", "expected 'eof', found '@'", "2:8"),
        ("let x = ()@[p];\n# note\n  x $", "unexpected character '$'", "3:5"),
    ])
    def test_parse_error_spans(self, text, message, where):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} at {where}"
        assert str(exc.value.span) == where

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

    @pytest.mark.parametrize("annot", ["", " : ()@[p, q]"])
    def test_lambda_rule_goes_before_an_error_in_its_body(self, annot):
        # the check applies a lambda's rule before it types the body; the
        # unannotated let synthesizes its type while the body elaborates,
        # and must not report the case's error first
        text = ("(fn g : (() + ())@[p, q] . case[p, q] g of "
                f"Inl a => ()@[p, q]; Inr c => let d{annot} = c; d)@[p]")
        with pytest.raises(TypeErr) as err:
            prog = compile_text(text)
            typecheck(prog.theta, prog.core)
        assert (err.value.kind, str(err.value.span)) == (NOOP_VIOLATION,
                                                         "1:1")

    @pytest.mark.parametrize("annot", ["", " : ()@[p]"])
    def test_let_rule_goes_before_an_error_in_its_bound(self, annot,
                                                        tmp_path, capsys):
        # an annotated let is a lambda, whose rule the check applies before
        # it types the bound expression; the unannotated let inside it
        # must not report its unbound variable first
        source = tmp_path / "let.hll"
        source.write_text("(fn x : ()@[p] . let y : ()@[p, q] = "
                          f"(let z{annot} = nope; z); y)@[p]\n")
        assert main(["check", str(source)]) == 1
        assert capsys.readouterr().err.split("\t")[:2] == ["NoopViolation",
                                                            "1:18"]

    @pytest.mark.parametrize("annot, spans", [("", ("1:27", "1:44")),
                                              (" : ()@[p]", ("1:36", "1:53"))])
    def test_bound_expression_goes_before_an_error_in_the_body(
            self, annot, spans, tmp_path, capsys):
        # a let's diagnostics come in the elaborator's order, lambda rule,
        # bound expression, body, in synthesis mode too: the unbound `nope`
        # in the bound goes before the body's misapplied `y`, with the let
        # inside the bound annotated or not, at the top level and in a
        # lambda's body
        let = f"let y : ()@[p] = (let z{annot} = nope; z);\ny y"
        source = tmp_path / "let.hll"
        for text, span in zip((let, f"(fn x : ()@[p] . {let})@[p]"), spans):
            source.write_text(text + "\n")
            assert main(["check", str(source)]) == 1
            assert capsys.readouterr().err.split("\t")[:2] == ["UnboundVar",
                                                                span]


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


# ---------------------------------------------------------------------------
# the always-rebuilding uniquifier, kept as the oracle for the one that
# returns its input when nothing needs renaming

def _reference_uniquify(e):
    used = {n.name for n in nodes(e) if isinstance(n, Var)}
    used |= set(_binders(e))
    counters = {}
    taken = set()

    def fresh(base):
        if base not in taken:
            taken.add(base)
            return base
        n = counters.get(base, 0)
        while True:
            n += 1
            candidate = f"{base}${n}"
            if candidate not in used and candidate not in taken:
                counters[base] = n
                taken.add(candidate)
                return candidate

    def walk(node, ren):
        match node:
            case Val(v):
                return Val(walk(v, ren), node.span)
            case App(fn, arg):
                return App(walk(fn, ren), walk(arg, ren), node.span)
            case Lam(param, ptype, body, owners):
                param2 = fresh(param)
                return Lam(param2, ptype, walk(body, {**ren, param: param2}),
                           owners, span=node.span)
            case Pair(a, b):
                return Pair(walk(a, ren), walk(b, ren), span=node.span)
            case Inl(inner):
                return Inl(walk(inner, ren), span=node.span)
            case Inr(inner):
                return Inr(walk(inner, ren), span=node.span)
            case Var(name):
                return Var(ren.get(name, name), span=node.span)
            case Vec(elems):
                return Vec(tuple(walk(x, ren) for x in elems), span=node.span)
            case Case(guards, scrut, xl, ml, xr, mr):
                scrut2 = walk(scrut, ren)
                xl2 = fresh(xl)
                ml2 = walk(ml, {**ren, xl: xl2})
                xr2 = fresh(xr)
                mr2 = walk(mr, {**ren, xr: xr2})
                return Case(guards, scrut2, xl2, ml2, xr2, mr2, node.span)
        return node  # Unit, Com, Fst, Snd, Lookup

    return walk(e, {})


def _binders(e):
    names = []
    for node in nodes(e):
        if isinstance(node, Lam):
            names.append(node.param)
        elif isinstance(node, Case):
            names += (node.left_var, node.right_var)
    return names


def _check_uniquify(e):
    expected = _reference_uniquify(e)
    got = uniquify(e)
    assert got == expected
    assert print_expr(got) == print_expr(expected)
    binders = _binders(e)
    assert (got is e) == (len(set(binders)) == len(binders))


class TestUniquifyOracle:
    @pytest.mark.parametrize("text", [
        # a let rebinding its own name
        "let x = ()@[p]; let x = x; x",
        # two case branches whose variables share a name
        "(fn g : (() + ())@[p] . case[p] g of Inl a => a; Inr a => a)@[p]",
        # a binder reused in a nested lambda
        "(fn x : ()@[p] . (fn y : ()@[p] . (fn x : ()@[p] . y)@[p] x)@[p])"
        "@[p]",
        # a binder equal to a free variable, renamed once and not at all
        "(fn x : ()@[p] . x)@[p] x",
        "(fn x : ()@[p] . (fn x : ()@[p] . x$1)@[p] x)@[p] x",
    ])
    def test_shadowing(self, text):
        core, _ = desugar(parse(text), theta=P)
        _check_uniquify(core)

    def test_corpus(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.hll")):
            core, _ = desugar(parse(path.read_text(encoding="utf-8")))
            _check_uniquify(core)

    def test_generated_instances(self):
        cfg = GenConfig(max_parties=4, max_depth=6)
        for seed in range(1000):
            _check_uniquify(gen_instance(cfg, seed).expr)

    @settings(max_examples=300, deadline=None)
    @given(exprs)
    def test_raw_terms(self, e):
        _check_uniquify(e)


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


# ---------------------------------------------------------------------------
# the slow lexer and type parser, kept as the oracle for the fast ones

@dataclass(frozen=True)
class _ReferenceToken:
    kind: str  # "id", "int", punctuation itself, or "eof"
    text: str
    span: Span


_REFERENCE_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<int>[0-9]+)
  | (?P<punct>=>|->|[()\[\],.;:=@+*])
""", re.VERBOSE)


def _reference_tokenize(text):
    """One `match` per token and a span built for every token, with the
    line tracked through whitespace and comments."""
    tokens = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            span = Span(pos, pos + 1, line, pos - bol + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        start, end = m.span()
        span = Span(start, end, line, start - bol + 1)
        if m.lastgroup == "id":
            tokens.append(_ReferenceToken("id", m.group(), span))
        elif m.lastgroup == "int":
            tokens.append(_ReferenceToken("int", m.group(), span))
        elif m.lastgroup == "punct":
            tokens.append(_ReferenceToken(m.group(), m.group(), span))
        chunk = text[start:end]
        if "\n" in chunk:
            line += chunk.count("\n")
            bol = start + chunk.rindex("\n") + 1
        pos = end
    tokens.append(_ReferenceToken("eof", "", Span(pos, pos, line,
                                                   pos - bol + 1)))
    return tokens


class _ReferenceParser(Parser):
    """Types by backtracking: try a parenthesized type, and when that fails
    without a fatal error, rewind and read a data type and its `@`."""

    def type_(self):
        if self.kind == "(":
            save = self.pos
            try:
                self.expect("(")
                return self._paren_type(self.type_())
            except ParseError as err:
                if err.fatal:
                    raise
                self.pos = save
                self.kind, self.text = self.kinds[save], self.texts[save]
        shape = self.dtype()
        self.expect("@")
        return DataTy(shape, self.party_list())


def _lexed(lex, text):
    try:
        tokens = lex(text)
    except ParseError as err:
        return str(err), err.span
    if isinstance(tokens, Tokens):  # read the columns
        spans = [tokens.span(i) for i in range(len(tokens))]
        return [(kind, word, str(span), span) for kind, word, span
                in zip(tokens.kinds, tokens.texts, spans)]
    return [(t.kind, t.text, str(t.span), t.span) for t in tokens]


def _reference_columns(text):
    """The reference lexer's tokens as the parser's `Tokens` columns."""
    tokens = _reference_tokenize(text)
    lines = [0] + [m.end() for m in re.finditer("\n", text)]
    return Tokens([t.kind for t in tokens], [t.text for t in tokens],
                  [t.span.start for t in tokens], [t.span.end for t in tokens],
                  lines)


_LEX_ALPHABET = (" \n\r\t" + string.digits + string.punctuation
                 + "abpxIL_é\x00")


def _generated_texts(count):
    cfg = GenConfig(max_parties=4, max_depth=6)
    return [print_expr(gen_instance(cfg, seed).expr) for seed in range(count)]


class TestLexerOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=_LEX_ALPHABET, max_size=40))
    def test_random_text(self, text):
        assert _lexed(tokenize, text) == _lexed(_reference_tokenize, text)

    def test_corpus_and_generated_programs(self, corpus_dir):
        texts = [path.read_text(encoding="utf-8")
                 for path in sorted(corpus_dir.glob("*.hll"))]
        for text in texts + _generated_texts(200):
            assert _lexed(tokenize, text) == _lexed(_reference_tokenize, text)

    def test_one_character_edits(self, corpus_dir):
        """Delete, insert or replace one character of each corpus file:
        the program, or its diagnostic with its span, is the one the
        reference lexer and the two-tree frontend give (see below)."""
        failed = 0
        for stem, edit in one_character_edits(corpus_dir):
            expected = _compile_outcome(_two_tree_compile, edit)
            assert _compile_outcome(compile_text, edit) == expected, (stem,
                                                                      edit)
            failed += not isinstance(expected[0], str)
        assert failed > 0  # the edits reach the diagnostics too


def one_character_edits(corpus_dir):
    """50 seeded edits of each corpus file, each deleting, inserting or
    replacing one character, as (stem, edited text)."""
    rng = random.Random(0)
    for path in sorted(corpus_dir.glob("*.hll")):
        text = path.read_text(encoding="utf-8")
        for _ in range(50):
            at = rng.randrange(len(text) + 1)
            char = rng.choice(_LEX_ALPHABET)
            yield path.stem, rng.choice((text[:at] + text[at + 1:],
                                         text[:at] + char + text[at:],
                                         text[:at] + char + text[at + 1:]))


# Types as token lists, well formed or with one token edited: a `(` opens
# either a parenthesized type or a parenthesized data type.
_OWNERS = st.sampled_from([["@", "[", "p", "]"], ["@", "[", "p", ",", "q", "]"],
                           ["@", "[", "a$b", "]"], ["@", "[", "]"]])
_DATA = st.recursive(
    st.sampled_from([["(", ")"], ["A"], ["X"]]),
    lambda inner: st.one_of(
        inner.map(lambda d: ["(", *d, ")"]),
        st.tuples(inner, st.sampled_from(["+", "*"]), inner).map(
            lambda t: [*t[0], t[1], *t[2]])),
    max_leaves=4)
_TYPES = st.recursive(
    st.tuples(_DATA, _OWNERS).map(lambda t: t[0] + t[1]),
    lambda inner: st.one_of(
        st.tuples(inner, inner, _OWNERS).map(
            lambda t: ["(", *t[0], "->", *t[1], ")", *t[2]]),
        st.tuples(st.lists(inner, min_size=1, max_size=3), st.booleans()).map(
            lambda t: ["(", *[tok for e in t[0] for tok in [*e, ","]][:-1],
                       *([","] if t[1] else []), ")"]),
        inner.map(lambda t: ["(", *t, ")"])),
    max_leaves=5)
_EDIT_TOKENS = ["(", ")", "@", "[", "]", ",", "->", "+", "*", "A", "p", "fn"]


@st.composite
def _type_texts(draw):
    tokens = draw(_TYPES)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(tokens)))
        tok = draw(st.sampled_from(_EDIT_TOKENS))
        tokens = draw(st.sampled_from([tokens[:at] + tokens[at + 1:],
                                       tokens[:at] + [tok] + tokens[at:],
                                       tokens[:at] + [tok] + tokens[at + 1:]]))
    return " ".join(tokens)


def _typed(parser, text):
    p = parser(tokenize(text), {"A": DUnit(), "B": DProd(DUnit(), DUnit())})
    try:
        t = p.type_()
        p.expect("eof")
        return print_type(t), p.parties
    except ParseError as err:
        return str(err), err.span, err.fatal


class TestTypeParser:
    @settings(max_examples=500, deadline=None)
    @given(_type_texts())
    def test_one_pass_matches_backtracking(self, text):
        assert _typed(Parser, text) == _typed(_ReferenceParser, text)

    def test_each_token_is_read_once(self):
        class Counted(list):
            reads = 0

            def __getitem__(self, i):
                Counted.reads += 1
                return super().__getitem__(i)

        nested = "(" * 16 + "()" + " + ())" * 16 + "@[p]"
        text = f"(fn x : {nested} . x)@[p]"
        tokens = tokenize(text)
        tokens.kinds = Counted(tokens.kinds)
        Parser(tokens, {}).program(text)
        assert Counted.reads == len(tokens) == 98


# ---------------------------------------------------------------------------
# the two-tree frontend, kept as the oracle for the parser that builds core
# terms: every compound node is a surface node, `desugar` elaborates all of
# them, and `uniquify` always walks the result; `TestLexerOracle`'s
# one-character edits are checked against it too

class _TwoTreeParser(_ReferenceParser):
    """Builds `SApp`, `SLam`, `SCase` and `SCons` whatever their children
    are; a leaf is its core `Val`, as the desugarer made it."""

    def case_(self):
        start = self.next()
        guards = self.party_list()
        scrut = self.app()
        self.expect("id", "of")
        self.expect("id", "Inl")
        left_var = self.name()
        self.expect("=>")
        left_body = self.expr()
        self.expect(";")
        self.expect("id", "Inr")
        right_var = self.name()
        self.expect("=>")
        right_body = self.expr()
        return SCase(guards, scrut, left_var, left_body, right_var,
                     right_body, self.span(start))

    def app(self):
        first = self.atom()
        while self.kind == "(" or (self.kind == "id" and self.text not in
                                   {"fn", "case", "of", "let", "alias"}):
            first = SApp(first, self.atom(), first.span)
        return first

    def atom(self):
        text = self.text
        if self.kind == "(":
            return self._paren_atom()
        if self.kind != "id" or text not in ("Inl", "Inr", "Pair"):
            return super().atom()  # a leaf, or an error
        span = self.span(self.next())
        if text == "Pair":
            return SCons([self.atom(), self.atom()], Pair, span)
        return SCons([self.atom()], Inl if text == "Inl" else Inr, span)

    def _paren_atom(self):
        start = self.next()
        if self.text == "fn":
            self.next()
            param = self.name()
            self.expect(":")
            ptype = self.type_()
            self.expect(".")
            body = self.expr()
            self.expect(")")
            self.expect("@")
            owners = self.party_list()
            return SLam(param, ptype, body, owners, self.span(start))
        if self.kind == ")":
            self.next()
            self.expect("@")
            owners = self.party_list()
            span = self.span(start)
            return Val(Unit(owners, span=span), span)
        first = self.expr()
        if self.kind == ",":
            elems = [first]
            while self.kind == ",":
                self.next()
                if self.kind == ")":
                    break
                elems.append(self.expr())
            self.expect(")")
            return SCons(elems, lambda *xs, span: Vec(xs, span=span),
                         self.span(start))
        self.expect(")")
        return first


def _two_tree_compile(text):
    sp = _TwoTreeParser(_reference_columns(text), {}).program(text)
    core, theta = desugar(sp)
    return CompiledProgram(uniquify(core), theta)


def _compile_outcome(compile_, text):
    """The core's print, theta and every node's kind and span, or the
    diagnostic's type, message and span."""
    try:
        prog = compile_(text)
    except (ParseError, DesugarError, TypeErr) as err:
        return type(err), str(err), err.span
    spans = [(type(node), node.span) for node in nodes(prog.core)]
    return print_expr(prog.core), prog.theta, spans


def _assert_one_tree_agrees(text):
    expected = _compile_outcome(_two_tree_compile, text)
    assert _compile_outcome(compile_text, text) == expected, text
    return expected


def _corpus_texts(corpus_dir):
    return [path.read_text(encoding="utf-8")
            for path in sorted(corpus_dir.glob("*.hll"))]


class TestTwoTreeOracle:
    def test_corpus(self, corpus_dir):
        for text in _corpus_texts(corpus_dir):
            assert isinstance(_assert_one_tree_agrees(text)[0], str)

    def test_generated_instances(self):
        for text in _generated_texts(1000):
            assert isinstance(_assert_one_tree_agrees(text)[0], str)

    @settings(max_examples=300, deadline=None)
    @given(exprs)
    def test_printed_raw_terms(self, e):
        _assert_one_tree_agrees(print_expr(e))


_SURFACE_NODES = (SCons, SLam, SApp, SCase, SLet)


class TestCoreParse:
    def test_sugar_free_text_parses_to_core(self, corpus):
        texts = _generated_texts(1000)
        texts += [print_expr(corpus(name).core) for name in CORPUS_FILES]
        for text in texts:
            assert not any(isinstance(node, _SURFACE_NODES)
                           for node in nodes(parse(text).body)), text

    def test_compile_is_desugar_then_uniquify(self, corpus_dir):
        for text in _corpus_texts(corpus_dir) + _generated_texts(1000):
            core, _ = desugar(parse(text))
            assert compile_text(text).core == uniquify(core), text

    @pytest.mark.parametrize("text, renamed", [
        ("let x = ()@[p]; let x = x; x",
         "(fn x: ()@[p]. (fn x$1: ()@[p]. x$1)@[p] x)@[p] ()@[p]"),
        ("(fn g : (() + ())@[p] . case[p] g of "
         "Inl a => a; Inr a => let a = a; a)@[p]",
         "(fn g: (() + ())@[p]. case[p] g of Inl a => a; "
         "Inr a$1 => (fn a$2: ()@[p]. a$2)@[p] a$1)@[p]"),
    ])
    def test_repeated_binder_is_renamed(self, text, renamed):
        assert len(set(parse(text).binders)) < len(parse(text).binders)
        assert print_expr(compile_text(text).core) == renamed
