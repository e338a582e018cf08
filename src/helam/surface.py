"""Surface syntax: lexer, parser, desugarer, and the variable uniquifier.

The surface language adds to the core: `let x (: T)? = M; M` sugar, named
finite-sum aliases, expressions in value positions (pulled out to fresh
temporaries), and `#` line comments.  The parser builds core terms, and
keeps a surface node only on the path from the root down to a piece of
sugar, a let or a constructor with a part that is not a value.  There are
five surface node kinds: a constructor that holds its parts and the core
constructor to build (Inl, Inr, Pair, tuples), and lambda, application,
case and let; their children may be core.  So sugar-free text parses
straight to its core term, and the desugarer returns a core subtree as it
is.  The parser records every party name it reads, which form the default
party set, and every binder name, so that `compile_text` renames only when
one repeats.  Desugaring synthesizes the types of unannotated let bindings,
so it threads a typing environment, and it takes a case branch's
environment from `typecheck.case_scopes`, the checker's own rule.  The
let-lambda is annotated with the ambient party set so the continuation
keeps every participant in scope.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Callable, Optional, Union

from .syntax import (
    App, Case, ChorExpr, ChorType, ChorValue, Com, DProd, DSum, DUnit,
    DataTy, DataType, Fst, FunTy, Inl, Inr, Lam, Lookup, Pair, PartySet,
    Snd, Span, TupleTy, Unit, Val, Var, Vec, nodes,
)
from .typecheck import (
    AMBIGUOUS_SUM, TypeEnv, TypeErr, case_scopes, has_hole, lam_scope, synth,
)


class ParseError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None,
                 fatal: bool = False):
        self.span = span
        self.fatal = fatal  # no other parse of the same tokens can succeed
        where = f" at {span}" if span else ""
        super().__init__(f"{message}{where}")


class DesugarError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None):
        self.span = span
        where = f" at {span}" if span else ""
        super().__init__(f"{message}{where}")


# ---------------------------------------------------------------------------
# lexer

KEYWORDS = {"fn", "case", "of", "let", "alias", "Inl", "Inr", "Pair",
            "fst", "snd", "lookup", "com"}

# `re.split` on this pattern gives the gaps between tokens at even indices
# and the tokens and comments at odd ones; a gap may hold only whitespace
_TOKEN_RE = re.compile(r"""(
    \#[^\n]*                           # a comment, dropped
  | [A-Za-z_][A-Za-z0-9_$]*             # id
  | [0-9]+                              # int
  | =>|->|[()\[\],.;:=@+*]              # punctuation, its own kind
)""", re.VERBOSE)
_BAD_RE = re.compile(r"[^ \t\r\n]")
_NEWLINE_RE = re.compile("\n")
# a token's kind by its first character; punctuation is absent
_KINDS = {**dict.fromkeys(string.ascii_letters + "_", "id"),
          **dict.fromkeys(string.digits, "int")}


class Tokens:
    """The tokens of one text, ending in `eof`, as parallel columns of
    kinds, texts and offsets, with the offsets at which the text's lines
    start.  A kind is "id", "int", the punctuation itself, or "eof".  No
    object is made per token: `span(i)` builds the `Span` of position i."""

    __slots__ = ("kinds", "texts", "starts", "ends", "lines")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int],
                 ends: list[int], lines: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.ends = ends
        self.lines = lines

    def __len__(self) -> int:
        return len(self.kinds)

    def span(self, i: int) -> Span:
        start = self.starts[i]
        line = bisect_right(self.lines, start)
        return Span(start, self.ends[i], line,
                    start - self.lines[line - 1] + 1)


def tokenize(text: str) -> Tokens:
    lines = [0]  # the offset at which each line starts
    lines += [m.end() for m in _NEWLINE_RE.finditer(text)]
    parts = _TOKEN_RE.split(text)
    offsets = list(accumulate(map(len, parts), initial=0))
    gaps = parts[0::2]
    if _BAD_RE.search("".join(gaps)):
        for gap, at in zip(gaps, offsets[0::2]):
            bad = _BAD_RE.search(gap)
            if bad:
                at += bad.start()
                char = text[at]
                span = Tokens(["bad"], [char], [at], [at + 1], lines).span(0)
                raise ParseError(f"unexpected character {char!r}", span)
    texts = parts[1::2]
    starts = offsets[1:-1:2]
    ends = offsets[2::2]
    if "#" in text:  # drop the comments
        keep = [word[0] != "#" for word in texts]
        texts = list(compress(texts, keep))
        starts = list(compress(starts, keep))
        ends = list(compress(ends, keep))
    kinds = [_KINDS.get(word[0], word) for word in texts]
    kinds.append("eof")
    texts.append("")
    starts.append(len(text))
    ends.append(len(text))
    return Tokens(kinds, texts, starts, ends, lines)


# ---------------------------------------------------------------------------
# surface AST

@dataclass
class SCons:
    """Inl, Inr, Pair or a tuple: its parts, which may be expressions, and
    the core constructor that builds it from their values."""
    parts: list["SurfaceExpr"]
    build: Callable[..., ChorValue]  # build(*values, span=span)
    span: Span


@dataclass
class SLam:
    param: str
    param_type: ChorType
    body: "SurfaceExpr"
    owners: PartySet
    span: Span


@dataclass
class SApp:
    fn: "SurfaceExpr"
    arg: "SurfaceExpr"
    span: Span


@dataclass
class SCase:
    guards: PartySet
    scrutinee: "SurfaceExpr"
    left_var: str
    left_body: "SurfaceExpr"
    right_var: str
    right_body: "SurfaceExpr"
    span: Span


@dataclass
class SLet:
    name: str
    annot: Optional[ChorType]
    bound: "SurfaceExpr"
    body: "SurfaceExpr"
    span: Span


SurfaceExpr = Union[Val, App, Case, SCons, SLam, SApp, SCase, SLet]
_CORE = (Val, App, Case)  # a node with no sugar below it


def _vec(*elems: ChorValue, span: Span) -> Vec:
    return Vec(elems, span=span)


def _construct(parts: list[SurfaceExpr], build: Callable[..., ChorValue],
               span: Span) -> SurfaceExpr:
    """A constructor: its core value when every part is a value, else an
    `SCons` for the desugarer to pull the other parts out of."""
    for part in parts:
        if not isinstance(part, Val):
            return SCons(parts, build, span)
    return Val(build(*[part.value for part in parts], span=span), span)


@dataclass
class SurfaceProgram:
    aliases: dict[str, DataType]
    body: SurfaceExpr
    source: str
    parties: list[str]  # every party name the program mentions
    binders: list[str]  # every fn parameter, let name and case variable


# ---------------------------------------------------------------------------
# parser

_NON_ATOM_KEYWORDS = {"fn", "case", "of", "let", "alias"}


class Parser:
    """Recursive descent over `Tokens`.  It keeps the current token's kind
    and text and reads each token once.  A token is named by its position,
    and a `Span` is built from a position only for a node or an error that
    keeps one."""

    def __init__(self, tokens: Tokens, aliases: dict[str, DataType]):
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.span = tokens.span  # the span of the token at a position
        self.pos = 0
        self.kind = self.kinds[0]  # the current token, at `pos`
        self.text = self.texts[0]
        self.aliases = aliases
        self.parties: list[str] = []
        self.binders: list[str] = []

    # -- token plumbing ----------------------------------------------------

    def next(self) -> int:
        """Consume the current token and return its position; `eof` is
        never consumed."""
        pos = self.pos
        if self.kind != "eof":
            self.pos = pos + 1
            self.kind = self.kinds[pos + 1]
            self.text = self.texts[pos + 1]
        return pos

    def expect(self, kind: str, text: Optional[str] = None) -> int:
        pos = self.pos
        if self.kind != kind or text is not None and self.text != text:
            want = text or kind
            found = self.text or "eof"
            raise ParseError(f"expected {want!r}, found {found!r}",
                             self.span(pos))
        if kind != "eof":  # `next`, inlined: most tokens pass through here
            self.pos = pos + 1
            self.kind = self.kinds[pos + 1]
            self.text = self.texts[pos + 1]
        return pos

    def name(self) -> str:
        text = self.text
        pos = self.expect("id")
        if text in KEYWORDS:
            raise ParseError(f"{text!r} is a keyword", self.span(pos))
        return text

    # -- parties -----------------------------------------------------------

    def party(self) -> str:
        pos = self.pos
        name = self.name()
        # identifiers may hold `$` (the uniquifier's renames); parties may not
        if "$" in name:
            raise ParseError(f"invalid party name {name!r}", self.span(pos),
                             fatal=True)
        self.parties.append(name)
        return name

    def party_list(self) -> PartySet:
        self.expect("[")
        names = [self.party()]
        while self.kind == ",":
            self.next()
            names.append(self.party())
        self.expect("]")
        return PartySet(names)

    # -- types -------------------------------------------------------------

    def type_(self) -> ChorType:
        t, at = self._type_or_data()
        if at is not None:
            return t
        self.expect("@")
        return DataTy(t, self.party_list())

    def _type_or_data(self) -> tuple[Union[ChorType, DataType],
                                     Optional[int]]:
        """A type, or a data type that an `@` may follow, in one pass.

        A `(` may open a parenthesized type or a parenthesized data type.
        They differ at the first `@`, which only a type holds inside its
        parentheses, so both readings go on together until then.  Returns
        a data type with None, or a type with the position of the `@` at
        which the data-type reading fails: that reading is the one the
        grammar falls back to, so any later error in the type is reported
        there, as "expected ')'".  Errors marked fatal are raised as they
        are.
        """
        if self.kind != "(":
            return self.dtype(), None
        self.next()
        if self.kind == ")":  # unit: a data type
            self.next()
            return self.dtype(DUnit()), None
        inner, at = self._type_or_data()
        located = at is None
        if located:
            if self.kind != "@":  # a parenthesized data type
                self.expect(")")
                return self.dtype(inner), None
            at = self.next()
        try:
            if located:
                inner = DataTy(inner, self.party_list())
            return self._paren_type(inner), at
        except ParseError as err:
            if err.fatal:
                raise
            raise ParseError("expected ')', found '@'",
                             self.span(at)) from None

    def _paren_type(self, first: ChorType) -> ChorType:
        """The rest of a parenthesized type after its first element."""
        if self.kind == "->":
            self.next()
            ret = self.type_()
            self.expect(")")
            self.expect("@")
            owners = self.party_list()
            return FunTy(first, ret, owners)
        if self.kind == ",":
            elems = [first]
            while self.kind == ",":
                self.next()
                if self.kind == ")":
                    break  # trailing comma: one-element tuple
                elems.append(self.type_())
            self.expect(")")
            return TupleTy(tuple(elems))
        self.expect(")")
        return first

    def dtype(self, first: Optional[DataType] = None) -> DataType:
        """A data type; `first`, when given, is its first atom, already
        read."""
        left = self.dprod(first)
        while self.kind == "+":
            self.next()
            left = DSum(left, self.dprod())
        return left

    def dprod(self, first: Optional[DataType] = None) -> DataType:
        left = self.datom() if first is None else first
        while self.kind == "*":
            self.next()
            left = DProd(left, self.datom())
        return left

    def datom(self) -> DataType:
        kind, text = self.kind, self.text
        if kind == "(":
            self.next()
            if self.kind == ")":
                self.next()
                return DUnit()
            inner = self.dtype()
            self.expect(")")
            return inner
        if kind == "id" and text not in KEYWORDS:
            pos = self.next()
            if text not in self.aliases:
                raise ParseError(f"unknown type alias {text!r}",
                                 self.span(pos))
            return self.aliases[text]
        raise ParseError(f"expected a data type, found {text or 'eof'!r}",
                         self.span(self.pos))

    # -- expressions --------------------------------------------------------

    def expr(self) -> SurfaceExpr:
        text = self.text
        if text == "let":
            return self.let_()
        if text == "case":
            return self.case_()
        return self.app()

    def let_(self) -> SLet:
        start = self.next()
        name = self.name()
        self.binders.append(name)
        annot = None
        if self.kind == ":":
            self.next()
            annot = self.type_()
        self.expect("=")
        bound = self.expr()
        self.expect(";")
        body = self.expr()
        return SLet(name, annot, bound, body, self.span(start))

    def case_(self) -> Union[Case, SCase]:
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
        self.binders += (left_var, right_var)
        node = Case if (isinstance(scrut, _CORE)
                        and isinstance(left_body, _CORE)
                        and isinstance(right_body, _CORE)) else SCase
        return node(guards, scrut, left_var, left_body, right_var,
                    right_body, self.span(start))

    def app(self) -> SurfaceExpr:
        first = self.atom()
        while True:
            kind = self.kind
            if kind == "id":
                if self.text in _NON_ATOM_KEYWORDS:
                    return first
            elif kind != "(":
                return first
            arg = self.atom()
            node = App if (isinstance(first, _CORE)
                           and isinstance(arg, _CORE)) else SApp
            first = node(first, arg, first.span)

    def atom(self) -> SurfaceExpr:
        kind, text = self.kind, self.text
        if kind == "(":
            return self._paren_atom()
        if kind != "id":
            raise ParseError(f"expected an expression, found {text or 'eof'!r}",
                             self.span(self.pos))
        span = self.span(self.next())
        if text not in KEYWORDS:
            return Val(Var(text, span=span), span)
        if text == "Inl" or text == "Inr":
            return _construct([self.atom()], Inl if text == "Inl" else Inr,
                              span)
        if text == "Pair":
            return _construct([self.atom(), self.atom()], Pair, span)
        if text == "fst" or text == "snd":
            proj = Fst if text == "fst" else Snd
            return Val(proj(self.party_list(), span=span), span)
        if text == "lookup":
            self.expect("[")
            at = self.expect("int")
            index = int(self.texts[at])
            if index < 1:
                raise ParseError("lookup indices are 1-based", self.span(at))
            self.expect("]")
            owners = self.party_list()
            return Val(Lookup(index, owners, span=span), span)
        if text == "com":
            self.expect("[")
            sender = self.party()
            self.expect("]")
            recipients = self.party_list()
            return Val(Com(sender, recipients, span=span), span)
        raise ParseError(f"unexpected keyword {text!r}", span)

    def _paren_atom(self) -> SurfaceExpr:
        start = self.next()
        if self.text == "fn":
            self.next()
            param = self.name()
            self.binders.append(param)
            self.expect(":")
            ptype = self.type_()
            self.expect(".")
            body = self.expr()
            self.expect(")")
            self.expect("@")
            owners = self.party_list()
            span = self.span(start)
            if isinstance(body, _CORE):
                return Val(Lam(param, ptype, body, owners, span=span), span)
            return SLam(param, ptype, body, owners, span)
        if self.kind == ")":  # unit
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
            return _construct(elems, _vec, self.span(start))
        self.expect(")")
        return first

    # -- program ------------------------------------------------------------

    def program(self, source: str) -> SurfaceProgram:
        while self.text == "alias":
            self.next()
            at = self.expect("id")
            name = self.texts[at]
            if name in KEYWORDS:
                raise ParseError("alias name may not be a keyword",
                                 self.span(at))
            self.expect("=")
            shape = self.dtype()
            self.expect(";")
            if name in self.aliases:
                raise ParseError(f"duplicate alias {name!r}", self.span(at))
            self.aliases[name] = shape
        body = self.expr()
        self.expect("eof")
        return SurfaceProgram(self.aliases, body, source, self.parties,
                              self.binders)


def parse(text: str) -> SurfaceProgram:
    return Parser(tokenize(text), {}).program(text)


# ---------------------------------------------------------------------------
# desugaring (elaboration)
#
# Lets become immediately applied lambdas annotated with the ambient party
# set.  Unannotated lets synthesize the bound expression's type, which is
# why elaboration carries a typing environment.

class _Elab:
    def __init__(self, source: str):
        self.source = source
        self.fresh = 0

    def temp(self) -> str:
        """A name that occurs nowhere in the program text, so a temporary
        cannot capture a user variable."""
        while True:
            self.fresh += 1
            name = f"tmp${self.fresh}"
            if name not in self.source:
                return name

    def expr(self, s: SurfaceExpr, env: TypeEnv) -> ChorExpr:
        match s:
            case Val() | App() | Case():
                return s  # no sugar below: nothing to elaborate
            case SLam():
                param, ptype, owners, span = (s.param, s.param_type,
                                              s.owners, s.span)
                inner = env.with_theta(owners).bind(param, ptype)
                try:
                    core = self.expr(s.body, inner)
                except TypeErr:
                    # the check applies the lambda's rule before it types
                    # the body, so an error of that rule goes first
                    lam_scope(env, param, ptype, owners, span)
                    raise
                return Val(Lam(param, ptype, core, owners, span=span), span)
            case SApp():
                return App(self.expr(s.fn, env), self.expr(s.arg, env),
                           s.span)
            case SCons():
                return self._construct(s, env)
            case SCase():
                return self._case(s, env)
            case SLet():
                return self._let(s, env)
        raise TypeError(f"not a surface expression: {s!r}")

    def _case(self, s: SCase, env: TypeEnv) -> ChorExpr:
        scrut = self.expr(s.scrutinee, env)
        unscoped = None
        try:
            env_l, env_r = case_scopes(env, s.guards, scrut, s.left_var,
                                       s.right_var, s.span)
        except TypeErr as err:
            # left for the real check to report; if a branch fails without
            # its variable, this error still goes first, as in the check
            unscoped = err
            env_l = env_r = env.with_theta(s.guards)
        try:
            left = self.expr(s.left_body, env_l)
            right = self.expr(s.right_body, env_r)
        except TypeErr:
            if unscoped is None:
                raise
            raise unscoped
        return Case(s.guards, scrut, s.left_var, left, s.right_var, right,
                    s.span)

    def _let(self, s: SLet, env: TypeEnv) -> ChorExpr:
        try:
            bound = self.expr(s.bound, env)
        except TypeErr:
            if s.annot is not None:
                # an annotated let is a lambda the check applies first, as
                # in `expr`'s lambda arm
                lam_scope(env, s.name, s.annot, env.theta, s.span)
            raise
        t = s.annot or self._infer(
            env, bound, f"cannot infer a type for let {s.name}; "
            "add an annotation", s.span)
        body = self.expr(s.body, env.bind(s.name, t))
        lam = Lam(s.name, t, body, env.theta, span=s.span)
        return App(Val(lam, s.span), bound, s.span)

    def _construct(self, s: SCons, env: TypeEnv) -> ChorExpr:
        """Build a value constructor, pulling non-value parts into temps."""
        span = s.span
        elaborated = [self.expr(p, env) for p in s.parts]
        lets: list[tuple[str, ChorType, ChorExpr]] = []
        values: list[ChorValue] = []
        for part in elaborated:
            if isinstance(part, Val):
                values.append(part.value)
                continue
            t = self._infer(
                env, part, "cannot infer a type for this expression inside "
                "a value constructor; bind it with an annotated let", span)
            name = self.temp()
            lets.append((name, t, part))
            values.append(Var(name, span=span))
            env = env.bind(name, t)
        result: ChorExpr = Val(s.build(*values, span=span), span)
        for name, t, bound in reversed(lets):
            result = App(Val(Lam(name, t, result, env.theta, span=span), span),
                         bound, span)
        return result

    @staticmethod
    def _infer(env: TypeEnv, bound: ChorExpr, message: str,
               span: Span) -> ChorType:
        """The type a binder takes from what it binds.  A DesugarError when
        synthesis is ambiguous or leaves a hole, which no annotation can
        spell."""
        try:
            t = synth(env, bound)
        except TypeErr as err:
            if err.kind == AMBIGUOUS_SUM:
                raise DesugarError(message, span) from err
            raise
        if has_hole(t):
            raise DesugarError(message, span)
        return t


def desugar(sp: SurfaceProgram,
            theta: Optional[PartySet] = None) -> tuple[ChorExpr, PartySet]:
    """Lower a surface program to the core, returning it with its party set.

    The checking context is the outermost lambda's owner set when the
    program is one, else every party the program mentions; an explicit
    theta overrides both.
    """
    if theta is None:
        body = sp.body
        if isinstance(body, SLam):
            theta = body.owners
        elif isinstance(body, Val) and isinstance(body.value, Lam):
            theta = body.value.owners
        elif not sp.parties:
            raise DesugarError("program names no parties")
        else:
            theta = PartySet(sp.parties)
    core = _Elab(sp.source).expr(sp.body, TypeEnv(theta))
    return core, theta


# ---------------------------------------------------------------------------
# uniquify

def uniquify(e: ChorExpr) -> ChorExpr:
    """Alpha-rename so every binder is globally distinct; free variables and
    first occurrences keep their names.  When no binder name repeats,
    nothing is renamed and `e` itself is returned.  That check is a walk,
    which `compile_text` saves: it knows the binder names from the parser,
    and calls this only when one repeats.  A term built another way has no
    such list, so the check stays here too."""
    used, repeats = _all_names(e)
    if not repeats:
        return e
    counters: dict[str, int] = {}
    taken: set[str] = set()

    def fresh(base: str) -> str:
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

    def walk(node: ChorExpr | ChorValue,
             ren: dict[str, str]) -> ChorExpr | ChorValue:
        # the arms go roughly by how often the node occurs in generated terms
        match node:
            case Val():
                return Val(walk(node.value, ren), node.span)
            case Unit():
                return node
            case App():
                return App(walk(node.fn, ren), walk(node.arg, ren), node.span)
            case Lam():
                param = node.param
                param2 = fresh(param)
                return Lam(param2, node.param_type,
                           walk(node.body, {**ren, param: param2}),
                           node.owners, span=node.span)
            case Pair():
                return Pair(walk(node.first, ren), walk(node.second, ren),
                            span=node.span)
            case Inl():
                return Inl(walk(node.value, ren), span=node.span)
            case Inr():
                return Inr(walk(node.value, ren), span=node.span)
            case Var():
                name = node.name
                return Var(ren.get(name, name), span=node.span)
            case Com() | Fst() | Snd() | Lookup():
                return node
            case Vec():
                return Vec(tuple(walk(x, ren) for x in node.elems),
                           span=node.span)
            case Case():
                xl, xr = node.left_var, node.right_var
                scrut2 = walk(node.scrutinee, ren)
                xl2 = fresh(xl)
                ml2 = walk(node.left_body, {**ren, xl: xl2})
                xr2 = fresh(xr)
                mr2 = walk(node.right_body, {**ren, xr: xr2})
                return Case(node.guards, scrut2, xl2, ml2, xr2, mr2,
                            node.span)
        raise TypeError(f"not an expression or value: {node!r}")

    return walk(e, {})


def _all_names(e: ChorExpr) -> tuple[set[str], bool]:
    """Every variable and binder name in e, and whether a binder name
    occurs more than once."""
    names: set[str] = set()
    binders: list[str] = []
    for node in nodes(e):
        match node:
            case Var():
                names.add(node.name)
            case Lam():
                binders.append(node.param)
            case Case():
                binders += (node.left_var, node.right_var)
    distinct = set(binders)
    return names | distinct, len(distinct) < len(binders)


# ---------------------------------------------------------------------------
# the full pipeline

@dataclass
class CompiledProgram:
    core: ChorExpr
    theta: PartySet


def compile_text(text: str,
                 theta: Optional[PartySet] = None) -> CompiledProgram:
    """parse -> desugar -> uniquify.  Text without sugar is parsed straight
    to its core term.  The uniquifier runs only when a binder name repeats
    in the text: a desugarer temporary is named by what the text does not
    hold, so it repeats no binder."""
    sp = parse(text)
    core, theta_out = desugar(sp, theta)
    if len(set(sp.binders)) < len(sp.binders):
        core = uniquify(core)
    return CompiledProgram(core, theta_out)
