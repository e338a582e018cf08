"""Location-aware substitution and the centralized small-step semantics.

Evaluation is deterministic: function position first, then the argument,
then the redex.  Communication distributes over the data constructors so a
whole data value changes location in one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .masking import mask_value
from .syntax import (
    App, Case, ChorExpr, ChorValue, Com, Fst, Inl, Inr, Lam, Lookup, Pair,
    Snd, Unit, Val, Var, Vec, free_vars, nodes, print_expr,
)


@dataclass(unsafe_hash=True)
class Stepped:
    """One step: the result, the rule applied, and the subterm it rewrote
    (left out of equality, so a step compares by its result and rule)."""
    expr: ChorExpr
    rule: str
    redex: Optional[ChorExpr] = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class IsValue:
    pass


@dataclass(unsafe_hash=True)
class Stuck:
    reason: str


StepResult = Union[Stepped, IsValue, Stuck]


class StuckError(RuntimeError):
    pass


class FuelExhausted(RuntimeError):
    """A central run or a network simulation did not end within its fuel."""


# ---------------------------------------------------------------------------
# substitution

def subst(m: ChorExpr | ChorValue, x: str,
          v: ChorValue) -> ChorExpr | ChorValue:
    """m with v for x, v masked to the owners of each lambda and the guards
    of each case it passes.  m itself, not a copy, when x is not free in m:
    each node it passes first reads its cached set (`free_vars`, filled
    without recursion on first demand), so a subterm without x is neither
    walked nor masked."""
    if x not in free_vars(m):
        return m
    # the arms go roughly by how often the node occurs in generated terms
    match m:
        case Val():
            return Val(subst(m.value, x, v), m.span)
        case App():
            return App(subst(m.fn, x, v), subst(m.arg, x, v), m.span)
        case Lam():
            masked = mask_value(v, m.owners)
            if masked is None:
                return m
            return Lam(m.param, m.param_type, subst(m.body, x, masked),
                       m.owners, m.span)
        case Pair():
            return Pair(subst(m.first, x, v), subst(m.second, x, v), m.span)
        case Inl():
            return Inl(subst(m.value, x, v), m.span)
        case Inr():
            return Inr(subst(m.value, x, v), m.span)
        case Var():
            return v
        case Case():
            # the scrutinee always receives the unmasked value; the branches
            # only see it masked to the guard set, or not at all
            guards, xl, ml, xr, mr = (m.guards, m.left_var, m.left_body,
                                      m.right_var, m.right_body)
            scrut2 = subst(m.scrutinee, x, v)
            masked = mask_value(v, guards)
            if masked is None:
                return Case(guards, scrut2, xl, ml, xr, mr, m.span)
            ml2 = ml if xl == x else subst(ml, x, masked)
            mr2 = mr if xr == x else subst(mr, x, masked)
            return Case(guards, scrut2, xl, ml2, xr, mr2, m.span)
        case Vec():
            return Vec(tuple(subst(e, x, v) for e in m.elems), m.span)
    raise AssertionError(f"{x} free in {m!r}")  # no other node has a free x


# ---------------------------------------------------------------------------
# stepping

def step(e: ChorExpr) -> StepResult:
    """One step of e: descend from the root to the redex, contract it and
    plug the contractum back into the nodes passed on the way down."""
    parents: list[Union[App, Case]] = []
    result = _descend(e, parents)
    if not isinstance(result, Stepped) or not parents:
        return result
    expr = result.expr
    for parent in reversed(parents):
        expr = _plug(parent, expr)
    return Stepped(expr, result.rule, result.redex)


def _descend(focus: ChorExpr, parents: list[Union[App, Case]]) -> StepResult:
    """Contract the redex of focus, pushing onto parents each node passed
    on the way down to it; IsValue when focus itself is a value.  A node's
    hole is the first of its children that is not a value."""
    while True:
        if isinstance(focus, App):
            if not isinstance(focus.fn, Val):
                parents.append(focus)
                focus = focus.fn
            elif not isinstance(focus.arg, Val):
                parents.append(focus)
                focus = focus.arg
            else:
                return _step_redex(focus.fn.value, focus.arg.value, focus)
        elif isinstance(focus, Case):
            if not isinstance(focus.scrutinee, Val):
                parents.append(focus)
                focus = focus.scrutinee
            else:
                return _step_case(focus)
        elif isinstance(focus, Val):
            return IsValue()
        else:
            raise TypeError(f"not an expression: {focus!r}")


def _plug(parent: Union[App, Case], child: ChorExpr) -> ChorExpr:
    """parent with child in its hole, where `_descend` passed it."""
    if isinstance(parent, Case):
        return Case(parent.guards, child, parent.left_var, parent.left_body,
                    parent.right_var, parent.right_body, parent.span)
    if isinstance(parent.fn, Val):
        return App(parent.fn, child, parent.span)
    return App(child, parent.arg, parent.span)


def _step_case(e: Case) -> StepResult:
    """Contract a case whose scrutinee is a value."""
    scrut = e.scrutinee.value
    if not isinstance(scrut, (Inl, Inr)):
        return Stuck("case scrutinee is not an injection")
    masked = mask_value(scrut.value, e.guards)
    if masked is None:
        return Stuck("case payload does not mask to the guards")
    if isinstance(scrut, Inl):
        return Stepped(subst(e.left_body, e.left_var, masked), "CASEL", e)
    return Stepped(subst(e.right_body, e.right_var, masked), "CASER", e)


def _step_redex(fn: ChorValue, arg: ChorValue, e: App) -> StepResult:
    match fn:
        case Lam():
            masked = mask_value(arg, fn.owners)
            if masked is None:
                return Stuck("argument does not mask to the function's owners")
            return Stepped(subst(fn.body, fn.param, masked), "APPABS", e)
        case Fst() | Snd() | Lookup():
            if isinstance(fn, Lookup):
                if not isinstance(arg, Vec) or fn.index > len(arg.elems):
                    return Stuck("lookup into a non-tuple or out of range")
                part, rule = arg.elems[fn.index - 1], "PROJN"
            elif not isinstance(arg, Pair):
                return Stuck("fst of a non-pair" if isinstance(fn, Fst)
                             else "snd of a non-pair")
            elif isinstance(fn, Fst):
                part, rule = arg.first, "PROJ1"
            else:
                part, rule = arg.second, "PROJ2"
            masked = mask_value(part, fn.owners)
            if masked is None:
                return Stuck("projected component does not mask")
            return Stepped(Val(masked), rule, e)
        case Com():
            moved = _com_value(arg, fn.sender, fn.recipients)
            if moved is None:
                return Stuck("com of a non-data value or non-owning sender")
            rule = {Unit: "COM1", Pair: "COMPAIR",
                    Inl: "COMINL", Inr: "COMINR"}[type(arg)]
            return Stepped(Val(moved), rule, e)
        case _:
            return Stuck("applied a non-function value")


def _com_value(v: ChorValue, sender: str,
               recipients) -> Optional[ChorValue]:
    """Relocate a data value to the recipients, or None if unsendable."""
    match v:
        case Unit():
            return Unit(recipients) if sender in v.owners else None
        case Pair():
            ma = _com_value(v.first, sender, recipients)
            mb = _com_value(v.second, sender, recipients)
            if ma is None or mb is None:
                return None
            return Pair(ma, mb)
        case Inl():
            m = _com_value(v.value, sender, recipients)
            return Inl(m) if m is not None else None
        case Inr():
            m = _com_value(v.value, sender, recipients)
            return Inr(m) if m is not None else None
        case _:
            return None


# ---------------------------------------------------------------------------
# driver

def run(e: ChorExpr, fuel: Optional[int] = None,
        trace: Optional[list[tuple[str, str]]] = None) -> ChorValue:
    """Evaluate e to a value by refocusing (Danvy & Nielsen, BRICS RS-04-26):
    the evaluation context is kept as a stack of parent nodes, so a step
    descends from the last contractum rather than from the root.  It is a
    loop over the descent and plug of `step`, and `trace` receives the same
    (rule, printed redex) pairs a loop over `step` would record.

    Fuel (default ten per node of e) is a guard, never part of the
    semantics.  At most fuel + 1 contractions are made, each appended to
    `trace`; after the last of them FuelExhausted is raised, even when it
    produced a value.  So fuel=0 on a one-step term contracts once and then
    raises.  A stuck redex raises StuckError before the fuel is checked.
    The default is counted as the run goes, one node of e per ten steps,
    so a short run of a large term does not walk all of it."""
    uncounted = None
    if fuel is None:
        uncounted, fuel = nodes(e), 0
    focus, parents, steps = e, [], 0
    while True:
        if isinstance(focus, Val):
            if not parents:
                return focus.value
            focus = _plug(parents.pop(), focus)
            continue
        result = _descend(focus, parents)
        if isinstance(result, Stuck):
            raise StuckError(result.reason)
        if trace is not None:
            trace.append((result.rule, print_expr(result.redex)))
        steps += 1
        if steps > fuel:
            if uncounted is None or next(uncounted, None) is None:
                raise FuelExhausted(f"no value after {fuel} steps")
            fuel += 10
        focus = result.expr
