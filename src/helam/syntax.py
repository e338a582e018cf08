"""AST definitions for the choreographic language and its local-process target.

Parties, data shapes, located types, choreography expressions, local
behaviors, and the canonical plain-text rendering that the rest of the
package (and the test suite) treats as the one true syntax.  A behavior is
a local value, an application or a case; the missing value has one name,
`BOTTOM`, and `PENDING` names the behaviors that still have work to do.

Nodes are immutable by contract: no code changes a field of a node, a
type, a behavior, an action or a step record once its constructor has
returned, and `tests/test_immutability.py` enforces that with a static
scan of the package (derived data cached beside the fields, `_hash` and
`_fv`, is exempt).  They are plain dataclasses with `unsafe_hash=True`, or
with their own hash, rather than frozen ones: equality, hashing, `repr`
and field order are what `frozen` gave, but a frozen dataclass sets each
field through `object.__setattr__` in its generated `__init__`, and any
runtime guard costs as much.  On CPython 3.11.7 (2-vCPU VM) a frozen
`Span(...)` took 744 ns against 231 without `frozen`, and an `App` of two
values 631 against 232 (fastest of 35 runs each); building nodes is most
of the frontend's time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Optional, Union

from . import caches

# ---------------------------------------------------------------------------
# parties

_PARTY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class EmptyPartySet(ValueError):
    """A party set must name at least one party."""


class BadPartyName(ValueError):
    pass


class PartySet:
    """Nonempty, duplicate-free set of party names with sorted iteration order.

    Interned (hash-consed; Filliâtre & Conchon, "Type-Safe Modular
    Hash-Consing", ML Workshop 2006): `PartySet(names)` returns the one
    object that stands for its member set, so two party sets are equal
    exactly when they are the same object, and `==` and `hash` are the
    identity defaults.  Owner sets sit on every value, type, `com` and case
    guard, so the checker, masking, projection and printing compare, meet
    and print them at nearly every node, while a whole acceptance pass sees
    only 15 distinct sets.  The constructor looks the caller's spelling up
    in `_INTERNED` before it sorts or validates anything; the text is built
    once, and `intersect`, `union` and `issubset` remember their result per
    other set; threads that fill one memo at once store the same interned
    result, so whichever write lands is right.  A hash is a per-process
    identity, so nothing may print in the order of a set or dict keyed by
    party sets."""

    __slots__ = ("members", "_text", "_meets", "_joins", "_subsets")

    def __new__(cls, names: Iterable[str]) -> "PartySet":
        key = names if type(names) is tuple else tuple(names)
        found = _INTERNED.get(key)
        if found is None:
            members = tuple(sorted(set(key)))
            if not members:
                raise EmptyPartySet("party set may not be empty")
            for name in members:
                if not _PARTY_RE.match(name):
                    raise BadPartyName(f"invalid party name: {name!r}")
            found = _INTERNED.setdefault(key, _checked(members))
        return found

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("PartySet is immutable")

    def __reduce__(self):
        # copies and unpickled sets go through the table too
        return PartySet, (self.members,)

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __repr__(self) -> str:
        return f"PartySet({list(self.members)!r})"

    def __str__(self) -> str:
        return self._text

    def issubset(self, other: "PartySet") -> bool:
        try:
            return self._subsets[other]
        except KeyError:
            found = self._subsets[other] = all(
                name in other.members for name in self.members)
            return found

    def union(self, other: "PartySet") -> "PartySet":
        try:
            return self._joins[other]
        except KeyError:
            found = self._joins[other] = _checked(
                tuple(sorted(set(self.members + other.members))))
            return found

    def intersect(self, other: "PartySet") -> Optional["PartySet"]:
        """Intersection, or None when it would be empty."""
        try:
            return self._meets[other]
        except KeyError:
            common = tuple(m for m in self.members if m in other.members)
            found = self._meets[other] = _checked(common) if common else None
            return found

    def without(self, name: str) -> tuple[str, ...]:
        """Members minus one party; may be empty, so a plain tuple."""
        return tuple(m for m in self.members if m != name)


# every spelling a caller has built a party set from, sorted members
# included, to its one object; never pruned, since a program names few
# parties (a frontend pass sees 31 sets under 114 spellings)
_INTERNED: dict[tuple[str, ...], PartySet] = {}


def _checked(members: tuple[str, ...]) -> PartySet:
    """The party set of members already sorted, distinct and valid; the
    constructor, union and intersection intern theirs here.  `setdefault`
    publishes it, so threads that build the same set at once get one
    object."""
    found = _INTERNED.get(members)
    if found is None:
        ps = object.__new__(PartySet)
        for slot, value in (("members", members),
                            ("_text", "[" + ", ".join(members) + "]"),
                            ("_meets", {}), ("_joins", {}),
                            ("_subsets", {})):
            object.__setattr__(ps, slot, value)
        found = _INTERNED.setdefault(members, ps)
    return found


caches.register("syntax.party_sets", None, lambda: {
    "currsize": len(_INTERNED), "sets": len(set(_INTERNED.values())),
    "memos": sum(len(ps._meets) + len(ps._joins) + len(ps._subsets)
                 for ps in set(_INTERNED.values()))})


def parties(*names: str) -> PartySet:
    return PartySet(names)


# ---------------------------------------------------------------------------
# source spans

@dataclass(unsafe_hash=True)
class Span:
    start: int
    end: int
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _span_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# data shapes (the algebra of sendable things)

@dataclass(unsafe_hash=True)
class DUnit:
    pass


@dataclass(unsafe_hash=True)
class DSum:
    left: "DataType"
    right: "DataType"


@dataclass(unsafe_hash=True)
class DProd:
    left: "DataType"
    right: "DataType"


@dataclass(unsafe_hash=True)
class DAny:
    """A hole: a data shape the type checker left unconstrained.

    Never written by programs.  The checker puts one on the side of a sum
    that a bare injection does not determine (a bare injection stepping into
    a case scrutinee, say), and it compares shapes so that a hole matches
    any shape.  A case fills a hole in one branch's type from the other
    branch's; a hole that neither branch fills reaches the synthesized type
    and prints as `_`.
    """


DataType = Union[DUnit, DSum, DProd, DAny]


# ---------------------------------------------------------------------------
# located types

@dataclass(unsafe_hash=True)
class DataTy:
    shape: DataType
    owners: PartySet


@dataclass(unsafe_hash=True)
class FunTy:
    arg: "ChorType"
    ret: "ChorType"
    owners: PartySet


@dataclass(unsafe_hash=True)
class TupleTy:
    elems: tuple["ChorType", ...]

    def __post_init__(self):
        if not self.elems:
            raise ValueError("tuple types need at least one component")


ChorType = Union[DataTy, FunTy, TupleTy]


# ---------------------------------------------------------------------------
# choreography expressions and values

@dataclass(unsafe_hash=True)
class Var:
    name: str
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class Lam:
    param: str
    param_type: ChorType
    body: "ChorExpr"
    owners: PartySet
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class Unit:
    owners: PartySet
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class Inl:
    value: "ChorValue"
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class Inr:
    value: "ChorValue"
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class Pair:
    first: "ChorValue"
    second: "ChorValue"
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class Vec:
    elems: tuple["ChorValue", ...]
    span: Optional[Span] = _span_field()

    def __post_init__(self):
        if not self.elems:
            raise ValueError("tuples need at least one element")


@dataclass(unsafe_hash=True)
class Fst:
    owners: PartySet
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class Snd:
    owners: PartySet
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class Lookup:
    index: int  # 1-based
    owners: PartySet
    span: Optional[Span] = _span_field()

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("lookup indices are 1-based")


@dataclass(unsafe_hash=True)
class Com:
    sender: str
    recipients: PartySet
    span: Optional[Span] = _span_field()


ChorValue = Union[Var, Lam, Unit, Inl, Inr, Pair, Vec, Fst, Snd, Lookup, Com]


@dataclass(unsafe_hash=True)
class Val:
    """A value in expression position.  `free_vars`, `print_expr`, `subst`,
    `project` and `uniquify` take values and expressions alike, and treat
    `Val(v)` as they treat `v`; the checker reports at `Val.span`."""
    value: ChorValue
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class App:
    fn: "ChorExpr"
    arg: "ChorExpr"
    span: Optional[Span] = _span_field()


@dataclass(unsafe_hash=True)
class Case:
    guards: PartySet
    scrutinee: "ChorExpr"
    left_var: str
    left_body: "ChorExpr"
    right_var: str
    right_body: "ChorExpr"
    span: Optional[Span] = _span_field()


ChorExpr = Union[Val, App, Case]


# ---------------------------------------------------------------------------
# local process language

def _hash_with_class(cls):
    """Hash a local value together with its class name.  The dataclass hash
    covers the fields alone, so `LInl(v)` and `LInr(v)`, `Send(ps)` and
    `SendSelf(ps)`, or `LUnit()` and `Bottom()` would collide, and in the
    network's caches each collision compares two whole networks.  A value
    without fields, such as a finished party's `LUnit()`, has one hash,
    computed here: every network built hashes its parties' finished values."""
    names = tuple(f.name for f in fields(cls))
    if names:
        def __hash__(self):
            return hash((cls.__name__, *[getattr(self, n) for n in names]))
    else:
        constant = hash((cls.__name__,))

        def __hash__(self):
            return constant

    cls.__hash__ = __hash__
    return cls


@_hash_with_class
@dataclass(unsafe_hash=True)
class LVar:
    name: str


@_hash_with_class
@dataclass(unsafe_hash=True)
class LUnit:
    pass


def _cached_hash(self) -> int:
    return self._hash


class _FreeVarsSlot:
    """A slot in which `free_vars` caches a node's free variables.
    It is no dataclass field, so it stays unset until filled and building a
    node costs no more for it."""
    __slots__ = ("_fv",)


# Applications, cases and functions compute their hash once, when they are
# built, from their children's hashes: the network's caches and state sets
# hash whole terms on every lookup.  Equality is the dataclass's.

@dataclass(slots=True)
class LLam(_FreeVarsSlot):
    param: str
    body: "Behavior"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._hash = hash((self.param, self.body))

    __hash__ = _cached_hash


@_hash_with_class
@dataclass(unsafe_hash=True)
class LInl:
    value: "LocalValue"


@_hash_with_class
@dataclass(unsafe_hash=True)
class LInr:
    value: "LocalValue"


@_hash_with_class
@dataclass(unsafe_hash=True)
class LPair:
    first: "LocalValue"
    second: "LocalValue"


@_hash_with_class
@dataclass(unsafe_hash=True)
class LVec:
    elems: tuple["LocalValue", ...]

    def __post_init__(self):
        if not self.elems:
            raise ValueError("tuples need at least one element")


@_hash_with_class
@dataclass(unsafe_hash=True)
class LFst:
    pass


@_hash_with_class
@dataclass(unsafe_hash=True)
class LSnd:
    pass


@_hash_with_class
@dataclass(unsafe_hash=True)
class LLookup:
    index: int


@_hash_with_class
@dataclass(unsafe_hash=True)
class Recv:
    sender: str


@_hash_with_class
@dataclass(unsafe_hash=True)
class Send:
    recipients: tuple[str, ...]  # may be empty; never contains the runner


@_hash_with_class
@dataclass(unsafe_hash=True)
class SendSelf:
    recipients: tuple[str, ...]  # ditto; the sent value is also kept locally


@_hash_with_class
@dataclass(unsafe_hash=True)
class Bottom:
    pass


BOTTOM = Bottom()

LocalValue = Union[
    LVar, LUnit, LLam, LInl, LInr, LPair, LVec, LFst, LSnd, LLookup,
    Recv, Send, SendSelf, Bottom,
]


@dataclass(slots=True)
class BApp(_FreeVarsSlot):
    fn: "Behavior"
    arg: "Behavior"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._hash = hash((self.fn, self.arg))

    __hash__ = _cached_hash


@dataclass(slots=True)
class BCase(_FreeVarsSlot):
    scrutinee: "Behavior"
    left_var: str
    left_body: "Behavior"
    right_var: str
    right_body: "Behavior"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._hash = hash((self.scrutinee, self.left_var, self.left_body,
                           self.right_var, self.right_body))

    __hash__ = _cached_hash


Behavior = Union[LocalValue, BApp, BCase]

# the behaviors still to run; every other behavior is a finished local value
PENDING = (BApp, BCase)


# ---------------------------------------------------------------------------
# free variables

# A node keeps its free variables in `_fv`, outside the dataclass fields, so
# equality, hashing and `fields()` never see it.  On the central nodes and
# the local values it is a plain attribute, `None` until a walk fills it,
# except on the leaves that name no variable, which share one empty set from
# the start; on `BApp`, `BCase` and `LLam` it is a slot, unset until filled.
NO_VARS: frozenset[str] = frozenset()
for _cls in (Unit, Fst, Snd, Lookup, Com,
             LUnit, LFst, LSnd, LLookup, Recv, Send, SendSelf, Bottom):
    _cls._fv = NO_VARS


def union_vars(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, and a or b itself when it holds the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


def bind_var(fv: frozenset[str], x: str) -> frozenset[str]:
    """fv without x, and fv itself when x is not in it."""
    if x not in fv:
        return fv
    return fv - {x} if len(fv) > 1 else NO_VARS


def union_all_vars(terms) -> frozenset[str]:
    """The union of the filled sets of terms."""
    out = NO_VARS
    for term in terms:
        out = union_vars(out, term._fv)
    return out


# The one table of subterms, for both term languages: each class of node that
# has a subterm or a free variable maps to two functions, the node's
# subterms and its set of free variables from theirs.  Matching central and
# local classes share one rule.  `free_vars` fills the sets through it and
# `nodes` walks through it; a leaf without a variable is in no rule.
_NODE_RULES: dict[type, tuple] = {}
for _classes, _rule in (
    ((Val, Inl, Inr, LInl, LInr),
     (lambda e: (e.value,), lambda e: e.value._fv)),
    ((App, BApp), (lambda e: (e.fn, e.arg),
                   lambda e: union_vars(e.fn._fv, e.arg._fv))),
    ((Var, LVar), (lambda e: (), lambda e: frozenset((e.name,)))),
    ((Lam, LLam), (lambda e: (e.body,),
                   lambda e: bind_var(e.body._fv, e.param))),
    ((Case, BCase), (lambda e: (e.scrutinee, e.left_body, e.right_body),
                     lambda e: union_vars(e.scrutinee._fv, union_vars(
                         bind_var(e.left_body._fv, e.left_var),
                         bind_var(e.right_body._fv, e.right_var))))),
    ((Pair, LPair), (lambda e: (e.first, e.second),
                     lambda e: union_vars(e.first._fv, e.second._fv))),
    ((Vec, LVec), (lambda e: e.elems, lambda e: union_all_vars(e.elems))),
):
    _NODE_RULES.update(dict.fromkeys(_classes, _rule))
for _cls in _NODE_RULES:
    if not issubclass(_cls, _FreeVarsSlot):
        _cls._fv = None


def free_vars(e: ChorExpr | ChorValue | Behavior) -> frozenset[str]:
    """The variables free in e, an expression, value or behavior, cached on
    each node: a later call reads e's set.  The first call fills the sets
    of e and of every unfilled node below it.  A walk over an explicit stack
    lists the unfilled nodes, each before its subterms, and stops at nodes
    already filled; the sets are then filled in the reverse order, each
    after its subterms'.  So no term is too deep for it.  The rules are
    looked up by class rather than matched: the walk visits every node of a
    new term, and a class pattern tests one arm after another (1.4-2.6
    against 0.5 us per node on let-1000, CPython 3.11.7)."""
    fv = getattr(e, "_fv", None)
    if fv is not None:
        return fv
    unfilled, stack = [], [e]
    while stack:
        node = stack.pop()
        if getattr(node, "_fv", None) is None:
            rule = _NODE_RULES.get(type(node))
            if rule is None:
                raise TypeError(f"not a term: {node!r}")
            unfilled.append(node)
            stack += rule[0](node)
    for node in reversed(unfilled):
        node._fv = _NODE_RULES[type(node)][1](node)
    return e._fv


def type_parties(t: ChorType) -> frozenset[str]:
    """Every party named in a type, at any depth."""
    match t:
        case DataTy():
            return frozenset(t.owners)
        case FunTy():
            return (frozenset(t.owners) | type_parties(t.arg)
                    | type_parties(t.ret))
        case TupleTy():
            return frozenset().union(*(type_parties(e) for e in t.elems))
    raise TypeError(f"not a type: {t!r}")


def nodes(e: ChorExpr | ChorValue | Behavior) -> Iterator:
    """Every node of e, an expression, value or behavior, each before its
    subterms, which come from `_NODE_RULES` and are visited last one first.
    Iterative, so a deep term cannot exhaust the recursion limit."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        rule = _NODE_RULES.get(type(node))
        if rule is not None:
            stack += rule[0](node)


def node_count(e: ChorExpr | ChorValue | Behavior) -> int:
    return sum(1 for _ in nodes(e))


# ---------------------------------------------------------------------------
# canonical printing
#
# `+` binds looser than `*`; both are printed left-associated, so a compound
# right operand gets parenthesized.  A located compound shape is wrapped in
# parens before `@`.  One-element tuples take a trailing comma.

def print_data(d: DataType, level: int = 0) -> str:
    # level: 0 = sum position, 1 = product position, 2 = atom
    match d:
        case DUnit():
            return "()"
        case DSum():
            s = f"{print_data(d.left, 0)} + {print_data(d.right, 1)}"
            return f"({s})" if level > 0 else s
        case DProd():
            s = f"{print_data(d.left, 1)} * {print_data(d.right, 2)}"
            return f"({s})" if level > 1 else s
        case DAny():
            return "_"
    raise TypeError(f"not a data shape: {d!r}")


def _data_atom(d: DataType) -> str:
    text = print_data(d)
    return text if isinstance(d, DUnit) else f"({text})"


def print_type(t: ChorType) -> str:
    match t:
        case DataTy():
            return f"{_data_atom(t.shape)}@{t.owners}"
        case FunTy():
            return f"({print_type(t.arg)} -> {print_type(t.ret)})@{t.owners}"
        case TupleTy():
            elems = t.elems
            if len(elems) == 1:
                return f"({print_type(elems[0])},)"
            return "(" + ", ".join(print_type(e) for e in elems) + ")"
    raise TypeError(f"not a type: {t!r}")


# precedence contexts for expression printing
_TOP = 0    # full expressions
_FN = 1     # function position of an application
_ATOM = 2   # argument position / constructor operand


def print_expr(e: ChorExpr | ChorValue | Behavior, level: int = _TOP) -> str:
    """Canonical text of an expression, value or behavior.  Matching central
    and local classes share one arm.  The central arms come first, roughly
    by how often the node occurs in generated terms, then the local-only
    arms by how often they occur in projected behaviors."""
    match e:
        case Val():
            return print_expr(e.value, level)
        case Unit():
            return f"()@{e.owners}"
        case App() | BApp():
            s = f"{print_expr(e.fn, _FN)} {print_expr(e.arg, _ATOM)}"
            return f"({s})" if level >= _ATOM else s
        case Lam():
            return (f"(fn {e.param}: {print_type(e.param_type)}. "
                    f"{print_expr(e.body)})@{e.owners}")
        case Pair() | LPair():
            s = (f"Pair {print_expr(e.first, _ATOM)} "
                 f"{print_expr(e.second, _ATOM)}")
            return f"({s})" if level >= _ATOM else s
        case Inl() | LInl():
            s = f"Inl {print_expr(e.value, _ATOM)}"
            return f"({s})" if level >= _ATOM else s
        case Inr() | LInr():
            s = f"Inr {print_expr(e.value, _ATOM)}"
            return f"({s})" if level >= _ATOM else s
        case Com():
            return f"com[{e.sender}]{e.recipients}"
        case Var() | LVar():
            return e.name
        case Vec() | LVec():
            elems = e.elems
            if len(elems) == 1:
                return f"({print_expr(elems[0])},)"
            return "(" + ", ".join(print_expr(x) for x in elems) + ")"
        case Case():
            s = (f"case{e.guards} {print_expr(e.scrutinee, _FN)} of "
                 f"Inl {e.left_var} => {print_expr(e.left_body)}; "
                 f"Inr {e.right_var} => {print_expr(e.right_body)}")
            return f"({s})" if level >= _FN else s
        case Fst():
            return f"fst{e.owners}"
        case Snd():
            return f"snd{e.owners}"
        case Lookup():
            return f"lookup[{e.index}]{e.owners}"
        case LUnit():
            return "()"
        case LLam():
            s = f"fn {e.param}. {print_expr(e.body)}"
            return f"({s})" if level >= _FN else s
        case Bottom():
            return "⊥"
        case BCase():
            s = (f"case {print_expr(e.scrutinee, _FN)} of "
                 f"Inl {e.left_var} => {print_expr(e.left_body)}; "
                 f"Inr {e.right_var} => {print_expr(e.right_body)}")
            return f"({s})" if level >= _FN else s
        case Recv():
            return f"recv_[{e.sender}]"
        case SendSelf():
            return "send*_[" + ", ".join(e.recipients) + "]"
        case LLookup():
            return f"lookup[{e.index}]"
        case LSnd():
            return "snd"
        case LFst():
            return "fst"
        case Send():
            return "send_[" + ", ".join(e.recipients) + "]"
    raise TypeError(f"not an expression, value or behavior: {e!r}")


def canonical_print(x) -> str:
    """Render a type, a data shape, or an expression, value or behavior as
    canonical text."""
    if isinstance(x, ChorType):
        return print_type(x)
    if isinstance(x, DataType):
        return print_data(x)
    return print_expr(x)
