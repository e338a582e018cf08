"""Endpoint projection to per-party behaviors, built floor-normal.

A party's projection keeps the parts of the choreography it takes part in
and replaces everything else with the missing value, `BOTTOM`.  Composite
terms that are missing everywhere (a pair of missing halves, an application
of a missing function to a value) collapse to it, so "not my problem" has
one representation.  A behavior is a local value, an application or a case,
with no wrapper around the values, so `floor` and `local_subst` are one walk
each and a projected value is a behavior as it stands.

The collapse rules live in the smart constructors `bapp`, `bcase`, `linl`,
`linr`, `lpair` and `lvec`: each applies the one rule for the node it builds,
because its children are already normal.  Projection, substitution and the
network's steps build through them, so every behavior they produce is
floor-normal.  `floor` rebuilds a term bottom-up through the same
constructors; it only normalizes input built elsewhere.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    PENDING, App, BApp, BCase, BOTTOM, Behavior, Bottom, Case, ChorExpr,
    ChorValue, Com, Fst, Inl, Inr, LFst, LInl, LInr, LLam, LLookup, LPair,
    LSnd, LUnit, LVar, LVec, Lam, LocalValue, Lookup, Pair, PartySet, Recv,
    Send, SendSelf, Snd, Unit, Val, Var, Vec, free_vars, nodes, type_parties,
)


class EmptyRoles(ValueError):
    """The expression mentions no party, so no network can be built."""


def roles(e: ChorExpr) -> PartySet:
    """Every party named anywhere in the expression, annotations included."""
    found: set[str] = set()
    for node in nodes(e):
        match node:
            case Case():
                found.update(node.guards)
            case Unit() | Fst() | Snd() | Lookup():
                found.update(node.owners)
            case Lam():
                found.update(node.owners)
                found.update(type_parties(node.param_type))
            case Com():
                found.add(node.sender)
                found.update(node.recipients)
    if not found:
        raise EmptyRoles("expression names no parties")
    return PartySet(found)


# ---------------------------------------------------------------------------
# smart constructors: one collapse rule each, for normal children

def bapp(fn: Behavior, arg: Behavior) -> Behavior:
    # an application of a missing function to a finished argument is itself
    # missing; a pending argument still has work to do
    if isinstance(fn, Bottom) and not isinstance(arg, PENDING):
        return BOTTOM
    return BApp(fn, arg)


def bcase(scrut: Behavior, xl: str, bl: Behavior, xr: str,
          br: Behavior) -> Behavior:
    if (isinstance(scrut, Bottom) and isinstance(bl, Bottom)
            and isinstance(br, Bottom)):
        return BOTTOM
    return BCase(scrut, xl, bl, xr, br)


def linl(inner: LocalValue) -> LocalValue:
    return BOTTOM if isinstance(inner, Bottom) else LInl(inner)


def linr(inner: LocalValue) -> LocalValue:
    return BOTTOM if isinstance(inner, Bottom) else LInr(inner)


def lpair(a: LocalValue, b: LocalValue) -> LocalValue:
    if isinstance(a, Bottom) and isinstance(b, Bottom):
        return BOTTOM
    return LPair(a, b)


def lvec(elems: tuple[LocalValue, ...]) -> LocalValue:
    if all(isinstance(e, Bottom) for e in elems):
        return BOTTOM
    return LVec(elems)


# ---------------------------------------------------------------------------
# floor: the normal form of a behavior built elsewhere

def floor(b: Behavior) -> Behavior:
    match b:
        case BApp():
            return bapp(floor(b.fn), floor(b.arg))
        case BCase():
            return bcase(floor(b.scrutinee), b.left_var, floor(b.left_body),
                         b.right_var, floor(b.right_body))
        case LInl():
            return linl(floor(b.value))
        case LInr():
            return linr(floor(b.value))
        case LPair():
            return lpair(floor(b.first), floor(b.second))
        case LVec():
            return lvec(tuple(floor(e) for e in b.elems))
        case LLam():
            return LLam(b.param, floor(b.body))
        case _:
            return b


# ---------------------------------------------------------------------------
# projection

def project(e: ChorExpr | ChorValue, p: str) -> Behavior:
    # the arms go roughly by how often the node occurs in generated terms
    match e:
        case Val():
            return project(e.value, p)
        case Unit():
            return LUnit() if p in e.owners else BOTTOM
        case App():
            return bapp(project(e.fn, p), project(e.arg, p))
        case Lam():
            if p not in e.owners:
                return BOTTOM
            return LLam(e.param, project(e.body, p))
        case Pair():
            return lpair(project(e.first, p), project(e.second, p))
        case Inl():
            return linl(project(e.value, p))
        case Inr():
            return linr(project(e.value, p))
        case Com():
            recipients = e.recipients
            if p == e.sender:
                if p in recipients:
                    return SendSelf(recipients.without(p))
                return Send(recipients.members)
            if p in recipients:
                return Recv(e.sender)
            return BOTTOM
        case Var():
            return LVar(e.name)
        case Vec():
            return lvec(tuple(project(x, p) for x in e.elems))
        case Case():
            if p in e.guards:
                return bcase(project(e.scrutinee, p), e.left_var,
                             project(e.left_body, p), e.right_var,
                             project(e.right_body, p))
            # a bystander only helps compute the guard; the branches cannot
            # mention it, so they are dropped outright
            return bcase(project(e.scrutinee, p), e.left_var, BOTTOM,
                         e.right_var, BOTTOM)
        case Fst():
            return LFst() if p in e.owners else BOTTOM
        case Snd():
            return LSnd() if p in e.owners else BOTTOM
        case Lookup():
            return LLookup(e.index) if p in e.owners else BOTTOM
    raise TypeError(f"not an expression or value: {e!r}")


def project_all(e: ChorExpr,
                members: Optional[PartySet] = None) -> dict[str, Behavior]:
    """Project to every role; a fixed member set keeps network domains stable
    across steps (roles can disappear from the term, parties cannot)."""
    if members is None:
        members = roles(e)
    return {p: project(e, p) for p in members}


# ---------------------------------------------------------------------------
# substitution in the local language (no masking; locations are gone)

def local_subst(b: Behavior, x: str, l: LocalValue) -> Behavior:
    """b with l for x; floor-normal when b and l are.  b itself, not a copy,
    when x is not free in b: each node it passes first reads its cached set
    (`free_vars`), so a subterm without x is not walked."""
    if x not in free_vars(b):
        return b
    match b:
        case BApp():
            return bapp(local_subst(b.fn, x, l), local_subst(b.arg, x, l))
        case LVar():
            return l
        case BCase():
            xl, bl, xr, br = b.left_var, b.left_body, b.right_var, b.right_body
            return bcase(
                local_subst(b.scrutinee, x, l),
                xl, bl if xl == x else local_subst(bl, x, l),
                xr, br if xr == x else local_subst(br, x, l))
        case LLam():
            return LLam(b.param, local_subst(b.body, x, l))
        case LInl():
            return linl(local_subst(b.value, x, l))
        case LInr():
            return linr(local_subst(b.value, x, l))
        case LPair():
            return lpair(local_subst(b.first, x, l),
                         local_subst(b.second, x, l))
        case LVec():
            return lvec(tuple(local_subst(e, x, l) for e in b.elems))
    raise AssertionError(f"{x} free in {b!r}")  # no other node has a free x
