"""Local small-step semantics and the rendezvous network semantics.

Each behavior has at most one pending action (the scheduler only ever
chooses *which party* moves), and a multicast only fires when every listed
recipient is ready to receive, all in one atomic network step.  Receives are
never materialized on their own: their value is a free parameter fixed by
the matching send.  A behavior that is not `PENDING` is a finished local
value with no action, and a redex returns its value as it is: the component
it projects, the missing value `BOTTOM` after a send, or the payload a
receive is given.

A `Network` keeps each party focused (Danvy & Nielsen, "Refocusing in
Reduction Semantics", BRICS RS-04-26, 2004): as its next redex, or its
finished value, together with the evaluation context around it, a
persistent stack of `Frame`s.  A step contracts the redex (`next_action`)
and refocuses the contractum under the same frames (`focus`), so it costs
the contractum and the frames it pops rather than a descent from the root
and a rebuilt spine.  The congruence rules are the frames themselves.
Behaviors are taken floor-normal, as projection and every step build them
(see `projection`), so a `Network` never floors.

A party state is a `Focus`, interned by `focus` (Filliatre & Conchon,
"Type-Safe Modular Hash-Consing", ML Workshop 2006), which memoizes its
action, so a step reads a slot instead of hashing party states.

A network's enabled steps are enumerated, and cached, without the networks
they reach: the cache keeps one network per state and stores its steps on
it.  The cache is a graph that runs walk: the first time a run takes a
step, `take` builds its successor and the step's slot links to the
successor's cached network, so a run that comes back to the step reads its
next state from a list, with no hash, no comparison and no call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Optional

from .projection import bapp, bcase, local_subst
from .semantics import FuelExhausted
from .syntax import (
    BOTTOM, PENDING, BApp, BCase, Behavior, Bottom, LFst, LInl, LInr, LLam,
    LLookup, LPair, LSnd, LUnit, LVec, LocalValue, Recv, Send, SendSelf,
    print_expr,
)


class SimulationFault(RuntimeError):
    """A payload outside the data fragment reached a send."""


def is_data_local(l: LocalValue) -> bool:
    match l:
        case LUnit():
            return True
        case LInl() | LInr():
            return is_data_local(l.value)
        case LPair():
            return is_data_local(l.first) and is_data_local(l.second)
        case _:
            return False


# ---------------------------------------------------------------------------
# the action of a redex; `Focus.action` gives its result as a focus

@dataclass(unsafe_hash=True)
class Silent:
    result: Behavior
    rule: str


@dataclass(unsafe_hash=True)
class SendAction:
    recipients: tuple[str, ...]
    payload: LocalValue
    result: Behavior
    rule: str


@dataclass(unsafe_hash=True)
class RecvAction:
    """A receive: it becomes the payload its sender's send delivers."""
    sender: str
    rule: str = "LRECV"


Action = Silent | SendAction | RecvAction


@lru_cache(maxsize=1 << 16)
def next_action(b: Behavior) -> Optional[Action]:
    """The step of the redex b, if it has one; a finished value has none.
    b is what `focus` leaves: a node with a pending child is no redex, and
    `focus` descends into that child instead.

    Cached: the same redex recurs under different frames and across
    interleavings.
    """
    match b:
        case BApp():
            return _redex_action(b.fn, b.arg)
        case BCase() if isinstance(b.scrutinee, LInl):
            return Silent(local_subst(b.left_body, b.left_var,
                                      b.scrutinee.value), "LCASEL")
        case BCase() if isinstance(b.scrutinee, LInr):
            return Silent(local_subst(b.right_body, b.right_var,
                                      b.scrutinee.value), "LCASER")
        case _:
            return None


def _redex_action(fn: LocalValue, arg: LocalValue) -> Optional[Action]:
    match fn:
        case LLam():
            return Silent(local_subst(fn.body, fn.param, arg), "LABSAPP")
        case LFst() | LSnd() | LLookup():
            rule = ("LPROJ1" if isinstance(fn, LFst)
                    else "LPROJ2" if isinstance(fn, LSnd) else "LPROJN")
            if isinstance(arg, Bottom):
                # the whole aggregate lives elsewhere, so its component does
                # too; without this a party that co-owns a projection keyword
                # but none of the data would wedge
                return Silent(BOTTOM, rule)
            if isinstance(fn, LLookup):
                if isinstance(arg, LVec) and fn.index <= len(arg.elems):
                    return Silent(arg.elems[fn.index - 1], rule)
            elif isinstance(arg, LPair):
                return Silent(arg.first if isinstance(fn, LFst)
                              else arg.second, rule)
            return None
        case Send() | SendSelf():
            if not is_data_local(arg):
                raise SimulationFault(
                    f"cannot send non-data value {print_expr(arg)}")
            if isinstance(fn, Send):
                return SendAction(fn.recipients, arg, BOTTOM, "LSEND")
            return SendAction(fn.recipients, arg, arg, "LSENDSELF")
        case Recv():
            return RecvAction(fn.sender)
        case _:
            return None


# ---------------------------------------------------------------------------
# focused behaviors: the next redex and the frames around it

class Frame:
    """One node of an evaluation context, with a hole where the focus goes:
    `BApp(_, arg)` (hole "fn"), `BApp(fn, _)` ("arg") or
    `BCase(_, xl, bl, xr, br)` ("scrut").  It keeps the node's other
    children in `rest` and the enclosing frame in `parent` (None at the
    root), so a context is a persistent stack that the states a party
    passes through share.  A frame is never changed once built.  Its hash
    covers the whole stack and is computed once; equality is `_same`."""

    __slots__ = ("hole", "rest", "parent", "_hash")

    def __init__(self, hole: str, rest: tuple, parent: Optional[Frame]):
        self.hole, self.rest, self.parent = hole, rest, parent
        self._hash = hash((hole, rest, parent))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return _same([(self, other)])


_UNSET = object()  # an action not computed yet


@dataclass(slots=True, eq=False)
class Focus:
    """A behavior as its next redex, or its finished value, and the frames
    around it.  `focus` interns it, so equal pairs are one object while its
    table holds them; equality still compares the pair, so a state built
    after the table was emptied equals one built before.  A focus memoizes
    its action: derived data, with the cached hash, that `==` and `hash`
    ignore."""

    redex: Behavior
    frame: Optional[Frame]
    _hash: int = field(init=False, repr=False, compare=False)
    _action: object = field(default=_UNSET, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        self._hash = hash((self.redex, self.frame))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (isinstance(other, Focus) and self._hash == other._hash
                and _same([(self.frame, other.frame),
                           (self.redex, other.redex)]))

    def action(self) -> Optional[Action]:
        """The step of this focus: its redex's action with the result
        refocused under the same frames.  A receive's result is the
        payload, which `take` refocuses."""
        act = self._action
        if act is _UNSET:
            act = next_action(self.redex)
            match act:
                case Silent():
                    act = Silent(focus(act.result, self.frame), act.rule)
                case SendAction():
                    act = SendAction(act.recipients, act.payload,
                                     focus(act.result, self.frame), act.rule)
            self._action = act
        return act


def _same(stack: list) -> bool:
    """Whether the two sides of each pair on stack, of behaviors or frames,
    are equal, by one walk over the stack, so no behavior is too deep for
    it.  A pair that is one object is equal; a frame, an application, a
    case and a function compare the hashes they cache before their fields.
    The behaviors keep the dataclass `__eq__`: `next_action`'s lru runs it
    on each of its hits, where a Python walk would cost more."""
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is BApp:
            if a._hash != b._hash:
                return False
            stack += ((a.fn, b.fn), (a.arg, b.arg))
        elif cls is LLam:
            if a._hash != b._hash or a.param != b.param:
                return False
            stack.append((a.body, b.body))
        elif cls is Frame:
            if a._hash != b._hash or a.hole != b.hole:
                return False
            stack += zip(a.rest, b.rest)
            stack.append((a.parent, b.parent))
        elif cls is BCase:
            if (a._hash != b._hash or a.left_var != b.left_var
                    or a.right_var != b.right_var):
                return False
            stack += ((a.scrutinee, b.scrutinee), (a.left_body, b.left_body),
                      (a.right_body, b.right_body))
        elif cls is LInl or cls is LInr:
            stack.append((a.value, b.value))
        elif cls is LPair:
            stack += ((a.first, b.first), (a.second, b.second))
        elif cls is LVec:
            if len(a.elems) != len(b.elems):
                return False
            stack += zip(a.elems, b.elems)
        elif a != b:
            return False
    return True


# The intern table of `focus`, emptied when it reaches _MAX_FOCI entries,
# which bounds the party states it keeps alive.  Only a new network, a new
# action and a receive look it up:
# the 7,149 runs of an acceptance pass (instances 0-119, 100 seeds each
# when nondeterministic) make 1,371 lookups for 938 entries, and read a
# memoized action 79,881 times out of 80,819.
_MAX_FOCI = 1 << 16
_foci: dict[Focus, Focus] = {}


def focus(b: Behavior, frame: Optional[Frame] = None) -> Focus:
    """Decompose b, in the context `frame`, into its next redex and the
    frames around it: descend into the first pending child, function
    before argument.  A finished value is put back into its innermost
    frame through `bapp`/`bcase`, so the collapse rules apply (a value under
    a missing function becomes `BOTTOM`), and the search goes on from the
    node it gives.  The pair is interned; `focus.cache_clear()` empties the
    table, as an `lru_cache`'s does."""
    while True:
        if isinstance(b, BApp):
            if isinstance(b.fn, PENDING):
                frame, b = Frame("fn", (b.arg,), frame), b.fn
            elif isinstance(b.arg, PENDING):
                frame, b = Frame("arg", (b.fn,), frame), b.arg
            else:
                break
        elif isinstance(b, BCase):
            if not isinstance(b.scrutinee, PENDING):
                break
            frame, b = Frame("scrut", (b.left_var, b.left_body, b.right_var,
                                       b.right_body), frame), b.scrutinee
        elif frame is None:
            break
        else:
            if frame.hole == "fn":
                b = bapp(b, frame.rest[0])
            elif frame.hole == "arg":
                b = bapp(frame.rest[0], b)
            else:
                b = bcase(b, *frame.rest)
            frame = frame.parent
    if len(_foci) >= _MAX_FOCI:
        _foci.clear()
    new = Focus(b, frame)
    return _foci.setdefault(new, new)


focus.cache_clear = _foci.clear


def plug(focused: Focus) -> Behavior:
    """The behavior a focus stands for.  Every node rebuilt has a pending
    child in its hole, and such a node never collapses, so the plain
    constructors build what `bapp`/`bcase` would."""
    b, frame = focused.redex, focused.frame
    while frame is not None:
        if frame.hole == "fn":
            b = BApp(b, frame.rest[0])
        elif frame.hole == "arg":
            b = BApp(frame.rest[0], b)
        else:
            b = BCase(b, *frame.rest)
        frame = frame.parent
    return b


# ---------------------------------------------------------------------------
# networks

_focus_hash = attrgetter("_hash")


class Network:
    """Map from party to its behavior, each kept as a `Focus`.

    The behaviors must be floor-normal, as `project`, `project_all`,
    `local_subst` and every step build them; a behavior built by hand goes
    through `helam.floor` first.  Equal behaviors decompose into equal
    pairs, since the next redex is unique, so equality, hashing and the
    step cache work on the interned foci: equality is the dict's, which
    tries identity first, and the hash combines the party names with the
    hashes the foci cache, read without a call per party.  `net[p]` plugs
    the focus back together.

    Immutable as a value.  `_hash`, and `_steps` and `_succ` on the network
    `_enumerate_cached` keeps for a state, hold derived data that `==` and
    `hash` ignore.
    """

    __slots__ = ("_parties", "_hash", "_steps", "_succ")

    def __init__(self, procs: dict[str, Behavior]):
        if not procs:
            raise ValueError("a network needs at least one party")
        # kept in party order: `_replace` only overwrites keys, so every
        # network a step reaches keeps it too
        object.__setattr__(self, "_parties",
                           {p: focus(procs[p]) for p in sorted(procs)})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    def __getitem__(self, party: str) -> Behavior:
        return plug(self._parties[party])

    def parties(self) -> tuple[str, ...]:
        return tuple(self._parties)

    def _replace(self, updates: dict[str, Focus]) -> "Network":
        # a step's results are focused already
        net = object.__new__(Network)
        object.__setattr__(net, "_parties", {**self._parties, **updates})
        object.__setattr__(net, "_hash", None)
        return net

    def __eq__(self, other) -> bool:
        return isinstance(other, Network) and self._parties == other._parties

    def __hash__(self) -> int:
        if self._hash is None:
            parties = self._parties
            object.__setattr__(self, "_hash", hash(
                (*parties, *map(_focus_hash, parties.values()))))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}[{print_expr(self[p])}]"
                          for p in self.parties())
        return f"Network({inner})"

    def stuck_parties(self) -> list[tuple[str, Behavior]]:
        return [(p, self[p]) for p in self.parties()
                if isinstance(self._parties[p].redex, PENDING)]


@dataclass(unsafe_hash=True)
class NetStep:
    """One real (fully matched) network step.  `local_rule` is the rule of
    the origin's redex (`LABSAPP`, `LSEND`, ...; `LSEND` or `LSENDSELF` for
    a rendezvous), kept for counting steps by rule; it is left out of
    equality, hashing and the printed trace, and is None on a step built by
    hand."""

    origin: str
    rule: str  # NPRO for a single-party step, NCOM for a rendezvous
    recipients: tuple[str, ...] = ()
    payload: Optional[LocalValue] = None
    local_rule: Optional[str] = field(default=None, compare=False,
                                      repr=False)

    def messages(self) -> int:
        return len(self.recipients)


@lru_cache(maxsize=1 << 14)
def _enumerate_cached(net: Network) -> Network:
    """The network the cache keeps for net's state, with its enabled steps
    in `_steps`, in party order, and in `_succ` a slot per step for the
    network it reaches, filled the first time a run takes it (`_after`).
    `_enumerate` reads each party's action off its `Focus`, which computes
    it once, so a new state costs no lookup per party.

    Runs walk these links: after one lookup at its start, a run reads a
    step it has taken before from a list, with no hash, no comparison and
    no call, so `cache_info()` counts only run entries and first takes.
    That pays on workloads that revisit states, such as acceptance.

    A link keeps its target alive, so links are bounded as the cache is:
    `_linked` holds every network that has made a link, and the link past
    _MAX_LINKS drops them all.  Unbounded, a root looked up by every run
    would keep every state of every run alive."""
    steps = tuple(_enumerate(net))
    object.__setattr__(net, "_steps", steps)
    object.__setattr__(net, "_succ", [None] * len(steps))
    return net


_MAX_LINKS = 1 << 14  # the cache's own bound
_linked: list[Network] = []  # every network that linked since the last drop


def _after(net: Network, i: int) -> Network:
    """The canonical network that step i of net's `_steps` reaches."""
    nxt = net._succ[i]
    if nxt is None:
        nxt = _enumerate_cached(take(net, net._steps[i]))
        if len(_linked) >= _MAX_LINKS:
            for linked in _linked:
                linked._succ[:] = [None] * len(linked._succ)
            _linked.clear()
        _linked.append(net)
        net._succ[i] = nxt
    return nxt


def enumerate_net_steps(net: Network) -> list[tuple[Network, NetStep]]:
    """Every network step with no unmatched sends left over, each with the
    network it reaches."""
    net = _enumerate_cached(net)
    return [(_after(net, i), s) for i, s in enumerate(net._steps)]


def successor(net: Network, step: NetStep) -> Optional[Network]:
    """The network that `step` reaches from net, if it is one of net's
    enabled steps, built once and cached as `simulate` builds it."""
    net = _enumerate_cached(net)
    try:
        i = net._steps.index(step)
    except ValueError:
        return None
    return _after(net, i)


def take(net: Network, step: NetStep) -> Network:
    """The network that `step`, one of net's enabled steps, reaches: the
    origin becomes the result of its action, and each recipient the
    payload, refocused under its frames.  No other party changes."""
    focused = net._parties
    updates = {step.origin: focused[step.origin].action().result}
    for r in step.recipients:
        updates[r] = focus(step.payload, focused[r].frame)
    return net._replace(updates)


@lru_cache(maxsize=None)
def _npro(p: str, local_rule: str) -> NetStep:
    """The silent step of party p by local_rule.  Steps are never changed,
    so every state shares one per party and rule rather than building its
    own: states list many silent steps, and they are few distinct ones."""
    return NetStep(p, "NPRO", local_rule=local_rule)


def _enumerate(net: Network) -> list[NetStep]:
    steps: list[NetStep] = []
    focused = net._parties
    for p, party in focused.items():
        act = party.action()
        match act:
            case SendAction() if act.recipients:
                for r in act.recipients:
                    recv = focused[r].action()
                    if not (isinstance(recv, RecvAction) and recv.sender == p):
                        break
                else:
                    steps.append(NetStep(p, "NCOM", act.recipients,
                                         act.payload, act.rule))
            case Silent() | SendAction():
                # a multicast to nobody carries an empty send set and is
                # already a real step on its own
                steps.append(_npro(p, act.rule))
    return steps


# ---------------------------------------------------------------------------
# simulation

@dataclass(unsafe_hash=True)
class DeadlockReport:
    stuck: tuple[tuple[str, Behavior], ...]

    @property
    def party(self) -> str:
        return self.stuck[0][0]

    def __str__(self) -> str:
        inner = "; ".join(f"{p} stuck at {print_expr(b)}"
                          for p, b in self.stuck)
        return f"deadlock: {inner}"


@dataclass
class SimOutcome:
    network: Network
    trace: list[NetStep]
    deadlock: Optional[DeadlockReport]
    nondeterministic: bool

    # both count in C, with no Python call per step: a bench pass reads
    # them after each of its thousands of runs

    @property
    def rendezvous_steps(self) -> int:
        return list(map(attrgetter("rule"), self.trace)).count("NCOM")

    @property
    def messages(self) -> int:
        """The sum of `NetStep.messages()` over the trace."""
        return sum(map(len, map(attrgetter("recipients"), self.trace)))


def simulate(net: Network, seed: int = 0,
             fuel: int = 100_000) -> SimOutcome:
    """Run to quiescence under a seeded uniform scheduler."""
    # `_randbelow(n)` is what `randrange(n)` returns for n >= 1, from the
    # same bits, without its argument checks
    draw = random.Random(seed)._randbelow
    trace: list[NetStep] = []
    nondet = False
    net = _enumerate_cached(net)
    for _ in range(fuel + 1):
        steps = net._steps
        n = len(steps)
        if not n:
            stuck = net.stuck_parties()
            report = DeadlockReport(tuple(stuck)) if stuck else None
            return SimOutcome(net, trace, report, nondet)
        if n > 1:
            nondet = True
        i = draw(n)
        trace.append(steps[i])
        net = net._succ[i] or _after(net, i)
    raise FuelExhausted(f"network still active after {fuel} steps")


@dataclass
class Exploration:
    terminals: set[Network]
    deadlocks: list[DeadlockReport]
    states: int
    complete: bool


def explore(net: Network, budget: int = 100_000) -> Exploration:
    """Every terminal network and deadlock of every interleaving, up to a
    state budget, by partial-order reduction: each state follows one
    persistent set, the first step `_enumerate` yields (sorted by party),
    and builds only the network that step reaches.

    Sound because each party has exactly one pending action (its focus's
    action reads only its own redex and frames), a step's enabledness
    depends only on its participants (the origin and its recipients), and a
    step changes only its participants (`take` swaps in their new foci
    alone).  So two enabled steps never share a participant
    and no step disables or changes another: every enabled step is a
    persistent set on its own, and a persistent-set search keeps every
    terminal state and every deadlock (Godefroid, *Partial-Order Methods
    for the Verification of Concurrent Systems*, LNCS 1032, 1996).
    The search is one path, and every interleaving ends in the terminal it
    reaches.  No sleep sets are needed, and the cycle proviso is moot
    because the budget still bounds the walk.
    """
    states = 1
    net = _enumerate_cached(net)
    while net._steps:
        if states >= budget:
            return Exploration(set(), [], states, False)
        net = net._succ[0] or _after(net, 0)
        states += 1
    stuck = net.stuck_parties()
    deadlocks = [DeadlockReport(tuple(stuck))] if stuck else []
    return Exploration({net}, deadlocks, states, True)


# ---------------------------------------------------------------------------
# traces

def format_trace(trace: list[NetStep]) -> str:
    lines = []
    for n, s in enumerate(trace, start=1):
        payload = print_expr(s.payload) if s.payload is not None else "-"
        recipients = ", ".join(s.recipients)
        lines.append(f"step {n}: {s.origin} -> [{recipients}] : {payload}")
    return "\n".join(lines) + ("\n" if lines else "")
