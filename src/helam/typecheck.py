"""Bidirectional type checker for choreographies.

One recursive walk, `_walk`, types expressions and values alike.  The
context pushes in a partial expectation (`Want`) and the walk returns the
witness type it found.  An expectation is one of:

- nothing: the node synthesizes its type;
- an exact type (annotations, lambda bodies, case branches);
- a type under a mask set: the witness masked to that set must be the type
  (a function argument against its parameter);
- a data shape whose owners are unknown: the walk reports who owns the data
  (the payload of `com`, the pair under `fst`/`snd`).

Shapes may contain holes (`DAny`) where the context leaves them open, and
`_same` lets a hole match any shape; a case fills a hole in one branch's type
from the other branch's (`_fill`).  Injections and the keyword functions
cannot synthesize; where the context could also offer a synthesized type,
the walk synthesizes first and pushes the expectation in only on ambiguity.
An ambiguity that a let's own argument raised against its parameter type
is final (`TypeErr.final_for`): walking the let again would check that
argument first and raise it again, so no caller walks the let again.
"""

from __future__ import annotations

from typing import Optional

from .masking import is_noop, mask_type, mask_value
from .syntax import (
    App, Case, ChorExpr, ChorType, ChorValue, Com, DAny, DProd, DSum, DUnit,
    DataTy, Fst, FunTy, Inl, Inr, Lam, Lookup, Pair, PartySet, Snd, Span,
    TupleTy, Unit, Val, Var, Vec, free_vars, print_data, print_type,
)

# diagnostic kinds
UNBOUND_VAR = "UnboundVar"
MASK_UNDEFINED = "MaskUndefined"
NOT_A_FUNCTION = "NotAFunction"
ARG_MISMATCH = "ArgMismatch"
GUARD_NOT_SUM = "GuardNotSum"
BRANCH_MISMATCH = "BranchMismatch"
PARTIES_NOT_SUBSET = "PartiesNotSubset"
SENDER_NOT_OWNER = "SenderNotOwner"
PAIR_COMPONENTS_DISJOINT = "PairComponentsDisjoint"
INDEX_OUT_OF_RANGE = "IndexOutOfRange"
NOOP_VIOLATION = "NoopViolation"
AMBIGUOUS_SUM = "AmbiguousSum"

ALL_KINDS = (
    UNBOUND_VAR, MASK_UNDEFINED, NOT_A_FUNCTION, ARG_MISMATCH, GUARD_NOT_SUM,
    BRANCH_MISMATCH, PARTIES_NOT_SUBSET, SENDER_NOT_OWNER,
    PAIR_COMPONENTS_DISJOINT, INDEX_OUT_OF_RANGE, NOOP_VIOLATION,
    AMBIGUOUS_SUM,
)


class TypeErr(Exception):
    def __init__(self, kind: str, detail: str, span: Optional[Span] = None):
        self.kind = kind
        self.detail = detail
        self.span = span
        # the let (or case) for which this ambiguity is final: walking that
        # node again, against any expectation, raises it again
        self.final_for = None
        super().__init__(f"{kind}: {detail}")

    def record(self) -> str:
        """One machine-readable diagnostic line: kind, span, detail."""
        where = str(self.span) if self.span else "-"
        return f"{self.kind}\t{where}\t{self.detail}"


class TypeEnv:
    """The parties in scope and the variable bindings.  A binding is a
    `(name, type, outer)` link to the binding before it, so `bind` is O(1)
    and an environment shares every outer binding with the one it
    extends."""

    __slots__ = ("theta", "_last")

    def __init__(self, theta: PartySet,
                 _last: Optional[tuple[str, ChorType, tuple]] = None):
        self.theta = theta
        self._last = _last  # the innermost binding, or None

    def bind(self, name: str, t: ChorType) -> "TypeEnv":
        return TypeEnv(self.theta, (name, t, self._last))

    def with_theta(self, theta: PartySet) -> "TypeEnv":
        return TypeEnv(theta, self._last)

    @property
    def bindings(self) -> tuple[tuple[str, ChorType], ...]:
        """Every `(name, type)` bound, outermost first, shadowed ones too."""
        found = []
        link = self._last
        while link is not None:
            found.append(link[:2])
            link = link[2]
        return tuple(reversed(found))

    def lookup(self, name: str, span: Optional[Span] = None) -> ChorType:
        link = self._last
        while link is not None:
            if link[0] == name:
                return link[1]
            link = link[2]
        raise TypeErr(UNBOUND_VAR, f"unbound variable {name}", span)


class Want:
    """A partial expectation; never changed once made.

    With `mask` None the witness must equal `type`; otherwise the witness
    masked to `mask` must.  Without a type it is `open`: data of `shape`,
    whoever owns it.  In data, an owner error (a unit outside theta, a pair
    whose components share no owner) leaves the owners None until the whole
    value's shape has passed; with `owners_first` it is raised at once.
    """

    __slots__ = ("type", "mask", "shape", "owners_first", "open", "exact")

    def __init__(self, type: Optional[ChorType],
                 mask: Optional[PartySet] = None, shape=None,
                 owners_first: bool = False):
        self.type = type
        self.mask = mask
        self.shape = type.shape if isinstance(type, DataTy) else shape
        self.owners_first = owners_first
        self.open = type is None
        self.exact = mask is None and type is not None


def _data(shape, owners_first: bool = False) -> Want:
    return Want(None, None, shape, owners_first)


# ---------------------------------------------------------------------------
# entry points

def typecheck(theta: PartySet, e: ChorExpr,
              expected: Optional[ChorType] = None) -> ChorType:
    """Type a closed expression under theta; raises TypeErr on rejection.

    With an expected type the expression is checked against it, which also
    accepts flexible forms (bare injections, keyword functions) that cannot
    synthesize on their own.
    """
    env = TypeEnv(theta)
    if expected is None:
        return synth(env, e)
    check(env, e, expected)
    return expected


def synth(env: TypeEnv, e: ChorExpr) -> ChorType:
    return _walk(env, e, None)


def check(env: TypeEnv, e: ChorExpr, expected: ChorType) -> None:
    _walk(env, e, Want(expected))


def check_arg(env: TypeEnv, arg: ChorExpr, param: ChorType,
              fn_owners: PartySet) -> ChorType:
    """Check arg against param, masked to fn_owners; returns the witness."""
    want = Want(param, fn_owners)
    # values that cannot synthesize, or (com) only to a default unit type
    if isinstance(arg, Val) and isinstance(
            arg.value, (Inl, Inr, Fst, Snd, Lookup, Com)):
        return _walk(env, arg, want)
    return _synth_first(env, arg, want, arg.span)


def _synth_first(env: TypeEnv, e: ChorExpr, want: Want,
                 span: Optional[Span], fallback: Optional[Want] = None):
    """Synthesize and compare; push the expectation in only on ambiguity."""
    got = _try_synth(env, e)
    if got is None:
        return _walk(env, e, fallback or want, span)
    return _fit(got, want, span)


def _try_synth(env: TypeEnv, e) -> Optional[ChorType]:
    """The synthesized type, or None when synthesis is ambiguous and not
    final for e."""
    try:
        return _walk(env, e, None)
    except TypeErr as err:
        if err.kind != AMBIGUOUS_SUM or err.final_for is e:
            raise
        return None


# ---------------------------------------------------------------------------
# the walk

def _walk(env: TypeEnv, node: ChorExpr | ChorValue, want: Optional[Want],
          span: Optional[Span] = None) -> ChorType:
    """Type an expression or value against a partial expectation.  `span`
    is the enclosing node's: a value without a span reports there, and so
    does data asked for by com, fst, snd or lookup."""
    here = span or node.span
    match node:
        case Val() if want is None:
            return _walk(env, node.value, None, node.span)
        case Val():
            return _walk_val(env, node, want, span)
        case App():
            fn, arg = node.fn, node.arg
            head = fn.value if isinstance(fn, Val) else None
            if isinstance(head, Com):
                return _com_app(env, head, arg, want, node.span)
            if isinstance(head, Lam):
                # a directly applied lambda, as every let is; its errors go
                # in `surface._Elab._let`'s order: rule, argument, body
                inner = lam_scope(env, head.param, head.param_type,
                                  head.owners, node.span)
                if want is not None:
                    check_arg(env, arg, head.param_type, head.owners)
                    return _walk(inner, head.body, want, node.span)
                # synthesis types the body first, since a caller checks an
                # ambiguous body again (with the argument first, nested lets
                # would check theirs 2 ** depth times); another error of the
                # body waits for the argument's, unless that is ambiguous
                try:
                    t = _walk(inner, head.body, None)
                except TypeErr as err:
                    if err.kind != AMBIGUOUS_SUM:
                        try:
                            check_arg(env, arg, head.param_type, head.owners)
                        except TypeErr as first:
                            if first.kind != AMBIGUOUS_SUM:
                                raise
                    raise
                try:
                    check_arg(env, arg, head.param_type, head.owners)
                except TypeErr as err:
                    # a check of this let checks its argument first, and
                    # would raise this again
                    if err.kind == AMBIGUOUS_SUM:
                        err.final_for = node
                    raise
                return t
            if want is not None and want.exact:
                _synth_first(env, node, want, node.span,
                             Want(want.type, env.theta))
                return want.type
            if isinstance(head, (Fst, Snd)):
                return _proj_app(env, head, arg, want, node.span)
            if isinstance(head, Lookup) and (want is None or (
                    isinstance(arg, Val) and isinstance(arg.value, Vec))):
                return _lookup_app(env, head, arg, want, node.span)
            if want is not None:
                raise TypeErr(AMBIGUOUS_SUM, "cannot determine the type; "
                              "annotate it", span if want.open else node.span)
            if isinstance(head, (Unit, Inl, Inr, Pair, Vec)):
                raise TypeErr(NOT_A_FUNCTION, "applied a non-function value",
                              node.span)
            tf = _walk(env, fn, None)
            if not isinstance(tf, FunTy):
                raise TypeErr(NOT_A_FUNCTION, "applied expression of type "
                              f"{print_type(tf)}", node.span)
            check_arg(env, arg, tf.arg, tf.owners)
            return tf.ret
        case Case():
            return _case(env, node, want)

        # values
        case Var():
            t = env.lookup(node.name, here)
            masked = mask_type(t, env.theta)
            if masked is None:
                raise TypeErr(MASK_UNDEFINED, f"{node.name}: {print_type(t)} "
                              f"has no owner in {env.theta}", here)
            return masked if want is None else _fit(masked, want, here)
        case Unit():
            owners = node.owners
            data = want is not None and not want.exact
            if data and not isinstance(want.shape, (DUnit, DAny)):
                raise TypeErr(ARG_MISMATCH, "unit value checked against "
                              f"{print_data(want.shape)}", here)
            if not owners.issubset(env.theta):
                if not data or want.owners_first:
                    _require_subset(owners, env.theta, here)
                owners = None
            shape = want.shape if data else None
            t = DataTy(shape if isinstance(shape, DUnit) else DUnit(), owners)
            return t if want is None or data else _fit(t, want, here)
        case Inl() | Inr():
            if want is None:
                raise TypeErr(AMBIGUOUS_SUM, "injection needs an expected "
                              "type; add an annotation", here)
            left = isinstance(node, Inl)
            sides = _sides(want.shape, DSum)
            if sides is None:
                raise TypeErr(ARG_MISMATCH, "injection checked against a "
                              "type that is not a sum", here)
            side = sides[0] if left else sides[1]
            got = _walk(env, node.value, _data(side, want.owners_first), here)
            if got.shape is side:
                return DataTy(want.shape, got.owners)
            # a hole took the value's shape
            return DataTy(DSum(got.shape, sides[1]) if left
                          else DSum(sides[0], got.shape), got.owners)
        case Pair():
            data = want is not None and want.shape is not None
            sides = _sides(want.shape, DProd) if data else (None, None)
            if sides is None:
                raise TypeErr(ARG_MISMATCH, "pair checked against "
                              f"{print_data(want.shape)}", here)
            parts = []
            for x, side in zip((node.first, node.second), sides):
                t = _walk(env, x, _data(side, want.owners_first) if data
                          else None, here)
                parts.append(t if data else _require_data(t, "pair component",
                                                          here))
            ta, tb = parts
            owners = (None if ta.owners is None or tb.owners is None
                      else ta.owners.intersect(tb.owners))
            if owners is None and (not data or want.owners_first):
                raise TypeErr(PAIR_COMPONENTS_DISJOINT, "pair components "
                              f"share no owner: {ta.owners} vs {tb.owners}",
                              here)
            if data and ta.shape is sides[0] and tb.shape is sides[1]:
                return DataTy(want.shape, owners)
            t = DataTy(DProd(ta.shape, tb.shape), owners)
            return t if want is None or data else _fit(t, want, here)
        case Vec() | Lam() | Fst() | Snd() | Lookup() | Com() if (
                want is not None and want.shape is not None
                and (isinstance(node, Vec) or not want.exact)):
            raise TypeErr(ARG_MISMATCH, "not a data value", here)
        case Vec():
            elems = node.elems
            if want is not None and isinstance(want.type, TupleTy):
                if len(elems) != len(want.type.elems):
                    raise TypeErr(ARG_MISMATCH, "tuple does not fit "
                                  f"{print_type(want.type)}", here)
                for x, t in zip(elems, want.type.elems):
                    _walk(env, Val(x, here), Want(t))
                return want.type
            t = TupleTy(tuple(_walk(env, x, None, here) for x in elems))
            return t if want is None else _fit(t, want, here)
        case Lam():
            expected = want.type if want is not None else None
            checking = isinstance(expected, FunTy)
            if checking and (node.owners != expected.owners
                             or not _same(node.param_type, expected.arg)):
                raise TypeErr(ARG_MISMATCH, "function literal does not fit "
                              f"{print_type(expected)}", here)
            inner = lam_scope(env, node.param, node.param_type, node.owners,
                              here)
            if checking:
                _walk(inner, node.body, Want(expected.ret))
                return expected
            t = FunTy(node.param_type, _walk(inner, node.body, None),
                      node.owners)
            return t if want is None else _fit(t, want, here)
        case Fst() | Snd() | Lookup() if (
                want is None or not isinstance(want.type, FunTy)):
            raise TypeErr(AMBIGUOUS_SUM, "projection keyword needs an "
                          "expected type or an argument", here)
        case Fst() | Snd():
            owners = node.owners
            dom = want.type.arg
            sides = _sides(dom, DProd)
            if sides is None:
                raise TypeErr(ARG_MISMATCH, "fst/snd does not fit "
                              f"{print_type(want.type)}", here)
            _require_subset(owners, env.theta, here)
            left = isinstance(node, Fst)
            side = sides[0] if left else sides[1]
            return _fit(FunTy(DataTy(dom.shape, owners), DataTy(side, owners),
                              owners), want, here)
        case Lookup():
            index, owners = node.index, node.owners
            expected = want.type
            _require_subset(owners, env.theta, here)
            dom = expected.arg
            if not isinstance(dom, TupleTy) or index > len(dom.elems):
                raise TypeErr(ARG_MISMATCH, f"lookup[{index}] does not fit "
                              f"{print_type(expected)}", here)
            if not is_noop(dom, owners):
                raise TypeErr(NOOP_VIOLATION, f"{print_type(dom)} is not "
                              f"fixed by masking to {owners}", here)
            return _fit(FunTy(dom, dom.elems[index - 1], owners), want, here)
        case Com():
            sender, recipients = node.sender, node.recipients
            expected = want.type if want is not None else None
            full = recipients.union(PartySet((sender,)))
            if isinstance(expected, FunTy):
                arg = expected.arg
                if not (isinstance(arg, DataTy) and sender in arg.owners):
                    raise TypeErr(ARG_MISMATCH, f"com[{sender}]{recipients} "
                                  f"does not fit {print_type(expected)}", here)
                _fit(FunTy(arg, DataTy(arg.shape, recipients), full), want,
                     here)
                _require_subset(arg.owners.union(recipients), env.theta, here)
                return expected
            _require_subset(full, env.theta, here)
            t = FunTy(DataTy(DUnit(), PartySet((sender,))),
                      DataTy(DUnit(), recipients), full)
            return t if want is None else _fit(t, want, here)
    raise TypeError(f"not an expression: {node!r}")


def _walk_val(env: TypeEnv, node: Val, want: Want,
              span: Optional[Span]) -> ChorType:
    """A value in expression position.  Under a mask a function type only
    masks to itself and a tuple type checks by components.  A data value
    raises its owner error here, then its owners meet the expectation."""
    v, expected = node.value, want.type
    if want.mask is not None:
        if isinstance(expected, FunTy):
            if not expected.owners.issubset(want.mask):
                raise TypeErr(ARG_MISMATCH, f"{print_type(expected)} cannot "
                              f"be masked to {want.mask}", node.span)
            want = Want(expected)
        elif isinstance(expected, TupleTy):
            if not isinstance(v, Vec) or len(v.elems) != len(expected.elems):
                raise TypeErr(ARG_MISMATCH, "tuple value expected for "
                              f"{print_type(expected)}", node.span)
            return TupleTy(tuple(
                check_arg(env, Val(x, node.span), t, want.mask)
                for x, t in zip(v.elems, expected.elems)))
    here = span if want.open else node.span
    t = _walk(env, v, want, here)
    if want.shape is None:
        return t
    if t.owners is None:  # find the owner error, shape no longer matters
        _walk(env, v, _data(want.shape, True), here)
    got = t.owners if want.mask is None else t.owners.intersect(want.mask)
    if not want.open and got != expected.owners:
        raise TypeErr(ARG_MISMATCH, f"data value owned by {t.owners} does "
                      f"not fit {print_type(expected)}", node.span)
    if want.exact:
        return expected
    return t if t.shape is want.shape else DataTy(want.shape, t.owners)


def _com_app(env: TypeEnv, com: Com, arg: ChorExpr, want: Optional[Want],
             span: Optional[Span]) -> ChorType:
    full = com.recipients.union(PartySet((com.sender,)))
    if want is None:
        _require_subset(full, env.theta, span)
        got = _require_data(_walk(env, arg, None), "com argument", span)
        payload = got.shape
    else:
        owners = (com.recipients if want.mask is None
                  else com.recipients.intersect(want.mask))
        if want.shape is None or not want.open and want.type.owners != owners:
            if want.mask is None:
                _require_subset(full, env.theta, span)
            raise TypeErr(ARG_MISMATCH, f"com to {com.recipients} cannot "
                          f"produce {print_type(want.type)}", span)
        _require_subset(full, env.theta, span)
        payload = want.shape
        walk = _synth_first if want.exact else _walk
        got = walk(env, arg, _data(payload), span)
    if com.sender not in got.owners:
        raise TypeErr(SENDER_NOT_OWNER, f"sender {com.sender} does not own "
                      "the argument", span)
    return DataTy(payload, com.recipients)


def _proj_app(env: TypeEnv, kw: Fst | Snd, arg: ChorExpr,
              want: Optional[Want], span: Optional[Span]) -> ChorType:
    left = isinstance(kw, Fst)
    if want is not None and want.mask is not None and not (
            isinstance(want.type, DataTy)
            and kw.owners.intersect(want.mask) == want.type.owners):
        raise TypeErr(ARG_MISMATCH, f"projection at {kw.owners} cannot "
                      f"produce {print_type(want.type)}", span)
    _require_subset(kw.owners, env.theta, span)
    if want is None:
        pair = _require_data(_walk(env, arg, None), "argument", span)
        sides = _sides(pair.shape, DProd)
        if sides is None:
            raise TypeErr(ARG_MISMATCH, "fst/snd needs a product, got "
                          f"{print_type(pair)}", span)
        shape = sides[0] if left else sides[1]
    else:
        shape = want.shape
        pair = _walk(env, arg, _data(DProd(shape, DAny()) if left
                                     else DProd(DAny(), shape)), span)
    if not kw.owners.issubset(pair.owners):
        raise TypeErr(ARG_MISMATCH, f"pair owned by {pair.owners} does not "
                      f"cover the projection at {kw.owners}", span)
    return DataTy(shape, kw.owners)


def _lookup_app(env: TypeEnv, kw: Lookup, arg: ChorExpr,
                want: Optional[Want], span: Optional[Span]) -> ChorType:
    """Synthesized from a tuple type, or checked on a tuple literal."""
    _require_subset(kw.owners, env.theta, span)
    if want is None:
        tup = _walk(env, arg, None)
        if not isinstance(tup, TupleTy):
            raise TypeErr(ARG_MISMATCH, "lookup needs a tuple, got "
                          f"{print_type(tup)}", span)
        _require_index(kw, len(tup.elems), span)
        masked = mask_type(tup, kw.owners)
        if masked is None:
            raise TypeErr(MASK_UNDEFINED, f"{print_type(tup)} does not mask "
                          f"to {kw.owners}", span)
        return masked.elems[kw.index - 1]
    elems = arg.value.elems
    _require_index(kw, len(elems), span)
    picked = Val(elems[kw.index - 1], span)
    if want.open:
        got = _walk(env, picked, want, span)
    else:
        narrowed = kw.owners.intersect(want.mask)
        if narrowed is None:
            raise TypeErr(ARG_MISMATCH, f"lookup at {kw.owners} cannot mask "
                          f"to {print_type(want.type)}", span)
        got = _synth_first(env, picked, Want(want.type, narrowed), span)
    for n, elem in enumerate(elems, start=1):
        if n != kw.index and not _masks(env, elem, kw.owners, span):
            raise TypeErr(MASK_UNDEFINED, f"tuple element {n} does not mask "
                          f"to {kw.owners}", span)
    # under a mask, got already fits want.type masked to kw.owners & mask, so
    # it masks to kw.owners and the result masked to want.mask is want.type
    result = mask_type(got, kw.owners)
    if result is None:
        raise TypeErr(MASK_UNDEFINED, f"element owned by {got.owners} does "
                      f"not mask to {kw.owners}", span)
    return result


def _masks(env: TypeEnv, v: ChorValue, theta: PartySet,
           span: Optional[Span]) -> bool:
    """Whether some type of v masks under theta.  Lenient for the unused
    slots of a tuple literal, whose exact types nothing pins down, but not
    about their variables: each must be bound."""
    try:
        t = _try_synth(env, v)
        if t is None and isinstance(v, (Inl, Inr, Pair)):
            t = _walk(env, Val(v), _data(DAny()))  # only its owners matter
    except TypeErr:
        return False
    if t is not None:
        return mask_type(t, theta) is not None
    if isinstance(v, Vec):
        return all(_masks(env, x, theta, span) for x in v.elems)
    for name in sorted(free_vars(v)):
        env.lookup(name, span)
    return mask_value(v, theta) is not None


def case_scopes(env: TypeEnv, guards: PartySet, scrutinee: ChorExpr,
                left_var: str, right_var: str,
                span: Optional[Span]) -> tuple[TypeEnv, TypeEnv]:
    """The environments of a case's two branches.  Raises TypeErr unless
    the guard is a sum located at every branching party."""
    _require_subset(guards, env.theta, span)
    try:
        tn = _walk(env, scrutinee, None)
    except TypeErr as err:
        if err.kind != AMBIGUOUS_SUM or not isinstance(scrutinee, Val):
            raise
        # a bare injection still has definite owners and a definite shape on
        # the side it carries; the other side stays a hole
        tn = _walk(env, scrutinee.value, _data(DAny(), True), span)
        if tn.owners.intersect(guards) != guards:
            raise TypeErr(MASK_UNDEFINED, f"guard owned by {tn.owners} misses "
                          f"branching parties of {guards}", span) from err
    masked = mask_type(tn, guards)
    if masked is None:
        raise TypeErr(MASK_UNDEFINED, f"guard of type {print_type(tn)} has no "
                      f"owner among {guards}", span)
    sides = _sides(masked, DSum)
    if sides is None:
        raise TypeErr(GUARD_NOT_SUM, "guard must be a located sum, got "
                      f"{print_type(tn)}", span)
    if masked.owners != guards:
        raise TypeErr(MASK_UNDEFINED, f"guard of type {print_type(tn)} is not "
                      f"located at all branching parties {guards}", span)
    inner = env.with_theta(guards)
    return (inner.bind(left_var, DataTy(sides[0], guards)),
            inner.bind(right_var, DataTy(sides[1], guards)))


def _case(env: TypeEnv, e: Case, want: Optional[Want]) -> ChorType:
    env_l, env_r = case_scopes(env, e.guards, e.scrutinee, e.left_var,
                               e.right_var, e.span)
    if want is not None:
        wl = _walk(env_l, e.left_body, want, e.span)
        wr = _walk(env_r, e.right_body, want, e.span)
    else:
        # a branch that cannot synthesize checks against the other one; a
        # final ambiguity of the left one still waits for the right one
        try:
            wl = _walk(env_l, e.left_body, None)
        except TypeErr as err:
            if err.kind != AMBIGUOUS_SUM:
                raise
            wr = _walk(env_r, e.right_body, None)
            if err.final_for is e.left_body:
                err.final_for = e  # a check walks the left branch first
                raise
            _walk(env_l, e.left_body, Want(wr))
            return wr
        wr = _try_synth(env_r, e.right_body)
        if wr is None:
            _walk(env_r, e.right_body, Want(wl))
            return wl
    if not _same(wl, wr):
        raise TypeErr(BRANCH_MISMATCH, f"branches disagree: {print_type(wl)} "
                      f"vs {print_type(wr)}", e.span)
    return _fill(wl, wr)


# ---------------------------------------------------------------------------
# small shared helpers

def _fit(got: ChorType, want: Want, span: Optional[Span]) -> ChorType:
    """Compare a synthesized type with an expectation."""
    expected = want.type
    if want.mask is not None:
        ok = _same(mask_type(got, want.mask), expected)
    elif want.open:
        ok = isinstance(got, DataTy) and _same(got.shape, want.shape)
    else:
        ok = _same(got, expected)
    if not ok:
        wanted = print_data(want.shape) if want.open else print_type(expected)
        raise TypeErr(ARG_MISMATCH, f"expected {wanted}, got "
                      f"{print_type(got)}", span)
    return expected if want.exact else got


def _same(a, b) -> bool:
    """Structural equality of types in which a hole matches any shape."""
    if a == b:
        return True
    if isinstance(a, DAny) or isinstance(b, DAny):
        shapes = (DUnit, DSum, DProd, DAny)
        return isinstance(a, shapes) and isinstance(b, shapes)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return (type(a) is type(b)
            and isinstance(a, (DSum, DProd, DataTy, FunTy, TupleTy))
            and all(map(_same, vars(a).values(), vars(b).values())))


def has_hole(t) -> bool:
    """Whether a type or shape still holds a hole."""
    if isinstance(t, DAny):
        return True
    if isinstance(t, tuple):
        return any(map(has_hole, t))
    return (isinstance(t, (DSum, DProd, DataTy, FunTy, TupleTy))
            and any(map(has_hole, vars(t).values())))


def _fill(a, b):
    """a with each hole filled from the same place in b, where `_same(a, b)`;
    a hole that b leaves open too stays."""
    if isinstance(a, DAny):
        return b
    if a == b or isinstance(b, DAny):
        return a
    if isinstance(a, tuple):
        return tuple(map(_fill, a, b))
    return type(a)(*map(_fill, vars(a).values(), vars(b).values()))


def _sides(shape, cls):
    """Sides of a sum or product shape or data type; a hole has holes."""
    if isinstance(shape, DataTy):
        shape = shape.shape
    if isinstance(shape, cls):
        return shape.left, shape.right
    if isinstance(shape, DAny):
        return DAny(), DAny()
    return None


def lam_scope(env: TypeEnv, param: str, param_type: ChorType,
              owners: PartySet, span: Optional[Span]) -> TypeEnv:
    """The environment of a lambda's body.  Raises TypeErr unless the
    owners are in scope and masking to them fixes the parameter type."""
    _require_subset(owners, env.theta, span)
    if not is_noop(param_type, owners):
        raise TypeErr(NOOP_VIOLATION, f"{print_type(param_type)} is not "
                      f"fixed by masking to {owners}", span)
    return env.with_theta(owners).bind(param, param_type)


def _require_index(kw: Lookup, length: int, span: Optional[Span]) -> None:
    if kw.index > length:
        raise TypeErr(INDEX_OUT_OF_RANGE,
                      f"lookup[{kw.index}] into a {length}-tuple", span)


def _require_subset(owners: PartySet, theta: PartySet,
                    span: Optional[Span]) -> None:
    if not owners.issubset(theta):
        raise TypeErr(PARTIES_NOT_SUBSET,
                      f"parties {owners} not all present in {theta}", span)


def _require_data(t: ChorType, what: str, span: Optional[Span]) -> DataTy:
    if not isinstance(t, DataTy):
        raise TypeErr(ARG_MISMATCH,
                      f"{what} must be data, got {print_type(t)}", span)
    return t
