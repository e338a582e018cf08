"""Local small-step semantics and the rendezvous network semantics.

Each behavior has at most one pending action (the scheduler only ever
chooses *which party* moves), and a multicast only fires when every listed
recipient is ready to receive, all in one atomic network step.  Receives are
never materialized on their own: their value is a free parameter fixed by
the matching send.  Every step builds its result floor-normal (see
`projection`), so a behavior is floored only where it enters, in `Network`.
A behavior that is not `PENDING` is a finished local value with no action,
and a redex returns its value as it is: the component it projects, the
missing value `BOTTOM` after a send, or the payload a receive is given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .projection import bapp, bcase, floor, local_subst
from .semantics import FuelExhausted
from .syntax import (
    BOTTOM, PENDING, BApp, BCase, Behavior, Bottom, LFst, LInl, LInr, LLam,
    LLookup, LPair, LSnd, LUnit, LVec, LocalValue, Recv, Send, SendSelf,
    print_behavior,
)


class SimulationFault(RuntimeError):
    """A payload outside the data fragment reached a send."""


def is_data_local(l: LocalValue) -> bool:
    match l:
        case LUnit():
            return True
        case LInl(inner) | LInr(inner):
            return is_data_local(inner)
        case LPair(a, b):
            return is_data_local(a) and is_data_local(b)
        case _:
            return False


# ---------------------------------------------------------------------------
# the one pending action of a behavior

@dataclass(frozen=True)
class Silent:
    result: Behavior
    rule: str


@dataclass(frozen=True)
class SendAction:
    recipients: tuple[str, ...]
    payload: LocalValue
    result: Behavior
    rule: str


@dataclass(frozen=True)
class RecvAction:
    sender: str
    resolve: Callable[[LocalValue], Behavior]
    rule: str = "LRECV"


Action = Silent | SendAction | RecvAction


@lru_cache(maxsize=1 << 16)
def next_action(b: Behavior) -> Optional[Action]:
    """The unique step b can take, if any.  Values have none.

    Cached: behaviors are immutable and recur heavily across interleavings.
    """
    match b:
        case BApp(fn, arg):
            if isinstance(fn, PENDING):
                inner = next_action(fn)
                return _wrap(inner, lambda f2: bapp(f2, arg), "LAPP2")
            if isinstance(arg, PENDING):
                inner = next_action(arg)
                return _wrap(inner, lambda a2: bapp(fn, a2), "LAPP1")
            return _redex_action(fn, arg)
        case BCase(scrut, xl, bl, xr, br):
            if isinstance(scrut, PENDING):
                inner = next_action(scrut)
                return _wrap(inner, lambda s2: bcase(s2, xl, bl, xr, br),
                             "LCASE")
            match scrut:
                case LInl(payload):
                    return Silent(local_subst(bl, xl, payload), "LCASEL")
                case LInr(payload):
                    return Silent(local_subst(br, xr, payload), "LCASER")
                case _:
                    return None
        case _:
            return None


def _wrap(inner: Optional[Action], ctx: Callable[[Behavior], Behavior],
          rule: str) -> Optional[Action]:
    # congruence: the send/receive label is inherited, the result rebuilt
    # through a smart constructor, and the step is named for the outermost
    # rule applied
    match inner:
        case None:
            return None
        case Silent(result, _):
            return Silent(ctx(result), rule)
        case SendAction(recipients, payload, result, _):
            return SendAction(recipients, payload, ctx(result), rule)
        case RecvAction(sender, resolve, _):
            return RecvAction(sender, lambda l: ctx(resolve(l)), rule)


def _redex_action(fn: LocalValue, arg: LocalValue) -> Optional[Action]:
    match fn:
        case LLam(param, body):
            return Silent(local_subst(body, param, arg), "LABSAPP")
        case LFst():
            if isinstance(arg, LPair):
                return Silent(arg.first, "LPROJ1")
            if isinstance(arg, Bottom):
                # the whole aggregate lives elsewhere, so its component does
                # too; without this a party that co-owns a projection keyword
                # but none of the data would wedge
                return Silent(BOTTOM, "LPROJ1")
            return None
        case LSnd():
            if isinstance(arg, LPair):
                return Silent(arg.second, "LPROJ2")
            if isinstance(arg, Bottom):
                return Silent(BOTTOM, "LPROJ2")
            return None
        case LLookup(index):
            if isinstance(arg, LVec) and index <= len(arg.elems):
                return Silent(arg.elems[index - 1], "LPROJN")
            if isinstance(arg, Bottom):
                return Silent(BOTTOM, "LPROJN")
            return None
        case Send(recipients):
            if not is_data_local(arg):
                raise SimulationFault(
                    f"cannot send non-data value {print_behavior(arg)}")
            return SendAction(recipients, arg, BOTTOM, "LSEND")
        case SendSelf(recipients):
            if not is_data_local(arg):
                raise SimulationFault(
                    f"cannot send non-data value {print_behavior(arg)}")
            return SendAction(recipients, arg, arg, "LSENDSELF")
        case Recv(sender):
            return RecvAction(sender, lambda l: l)
        case _:
            return None


# ---------------------------------------------------------------------------
# networks

class Network:
    """Map from party to its floor-normal behavior.

    The constructor floors the behaviors it is given, since they may come
    from anywhere.  Local steps build their results through projection's
    smart constructors, so the networks that steps reach skip that pass.
    """

    __slots__ = ("procs", "_hash")

    def __init__(self, procs: dict[str, Behavior], _normal: bool = False):
        if not procs:
            raise ValueError("a network needs at least one party")
        if _normal:  # built by a local step, so already floor-normal
            object.__setattr__(self, "procs", procs)
        else:
            object.__setattr__(self, "procs",
                               {p: floor(b) for p, b in procs.items()})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    def __getitem__(self, party: str) -> Behavior:
        return self.procs[party]

    def parties(self) -> tuple[str, ...]:
        return tuple(sorted(self.procs))

    def replace(self, updates: dict[str, Behavior]) -> "Network":
        # step results come out of the local stepper already floor-normal
        procs = dict(self.procs)
        procs.update(updates)
        return Network(procs, _normal=True)

    def freeze(self) -> tuple[tuple[str, Behavior], ...]:
        return tuple(sorted(self.procs.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Network) and self.procs == other.procs

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.freeze()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}[{print_behavior(b)}]"
                          for p, b in sorted(self.procs.items()))
        return f"Network({inner})"

    def all_values(self) -> bool:
        return not any(isinstance(b, PENDING) for b in self.procs.values())

    def stuck_parties(self) -> list[tuple[str, Behavior]]:
        return [(p, b) for p, b in sorted(self.procs.items())
                if isinstance(b, PENDING)]


@dataclass(frozen=True)
class NetStep:
    """One real (fully matched) network step."""

    origin: str
    rule: str  # NPRO for a single-party step, NCOM for a rendezvous
    recipients: tuple[str, ...] = ()
    payload: Optional[LocalValue] = None

    def messages(self) -> int:
        return len(self.recipients)


@lru_cache(maxsize=1 << 14)
def _enumerate_cached(net: Network) -> tuple[tuple[Network, NetStep], ...]:
    return tuple(_enumerate(net))


def enumerate_net_steps(net: Network) -> list[tuple[Network, NetStep]]:
    """Every network step with no unmatched sends left over."""
    return list(_enumerate_cached(net))


def _enumerate(net: Network) -> list[tuple[Network, NetStep]]:
    steps: list[tuple[Network, NetStep]] = []
    for p in net.parties():
        act = next_action(net[p])
        match act:
            case None | RecvAction():
                continue
            case Silent(result, _):
                steps.append((net.replace({p: result}),
                              NetStep(p, "NPRO")))
            case SendAction(recipients, payload, result, _):
                if not recipients:
                    # a multicast to nobody carries an empty send set and is
                    # already a real step on its own
                    steps.append((net.replace({p: result}),
                                  NetStep(p, "NPRO")))
                    continue
                updates = {p: result}
                for r in recipients:
                    recv = next_action(net[r])
                    if not (isinstance(recv, RecvAction) and recv.sender == p):
                        break
                    updates[r] = recv.resolve(payload)
                else:
                    steps.append((net.replace(updates),
                                  NetStep(p, "NCOM", recipients, payload)))
    return steps


# ---------------------------------------------------------------------------
# simulation

@dataclass(frozen=True)
class DeadlockReport:
    stuck: tuple[tuple[str, Behavior], ...]

    @property
    def party(self) -> str:
        return self.stuck[0][0]

    @property
    def behavior(self) -> Behavior:
        return self.stuck[0][1]

    def __str__(self) -> str:
        inner = "; ".join(f"{p} stuck at {print_behavior(b)}"
                          for p, b in self.stuck)
        return f"deadlock: {inner}"


@dataclass
class SimOutcome:
    network: Network
    trace: list[NetStep]
    deadlock: Optional[DeadlockReport]
    nondeterministic: bool
    history: dict[str, list[Behavior]] = field(default_factory=dict)

    @property
    def rendezvous_steps(self) -> int:
        return sum(1 for s in self.trace if s.rule == "NCOM")

    @property
    def messages(self) -> int:
        return sum(s.messages() for s in self.trace)


def simulate(net: Network, seed: int = 0,
             fuel: int = 100_000) -> SimOutcome:
    """Run to quiescence under a seeded uniform scheduler."""
    rng = random.Random(seed)
    trace: list[NetStep] = []
    history: dict[str, list[Behavior]] = {p: [net[p]] for p in net.parties()}
    nondet = False
    for _ in range(fuel + 1):
        steps = enumerate_net_steps(net)
        if not steps:
            stuck = net.stuck_parties()
            report = DeadlockReport(tuple(stuck)) if stuck else None
            return SimOutcome(net, trace, report, nondet, history)
        if len(steps) > 1:
            nondet = True
        nxt, info = steps[rng.randrange(len(steps))]
        for p in (info.origin, *info.recipients):
            if nxt[p] != net[p]:
                history[p].append(nxt[p])
        trace.append(info)
        net = nxt
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
    persistent set, the first step `_enumerate` yields (sorted by party).

    Sound because each party has exactly one pending action (`next_action`
    reads only its behavior), a step's enabledness depends only on its
    participants (the origin and its recipients), and a step changes only
    its participants (`Network.replace`).  So two enabled steps never share
    a participant and no step disables or changes another: every enabled
    step is a persistent set on its own, and a persistent-set search keeps
    every terminal state and every deadlock (Godefroid, *Partial-Order
    Methods for the Verification of Concurrent Systems*, LNCS 1032, 1996).
    The search is one path, and every interleaving ends in the terminal it
    reaches.  No sleep sets are needed, and the cycle proviso is moot
    because the budget still bounds the walk.
    """
    states = 1
    while steps := enumerate_net_steps(net):
        if states >= budget:
            return Exploration(set(), [], states, False)
        net = steps[0][0]
        states += 1
    stuck = net.stuck_parties()
    deadlocks = [DeadlockReport(tuple(stuck))] if stuck else []
    return Exploration({net}, deadlocks, states, True)


# ---------------------------------------------------------------------------
# traces

def format_trace(trace: list[NetStep]) -> str:
    lines = []
    for n, s in enumerate(trace, start=1):
        payload = print_behavior(s.payload) if s.payload is not None else "-"
        recipients = ", ".join(s.recipients)
        lines.append(f"step {n}: {s.origin} -> [{recipients}] : {payload}")
    return "\n".join(lines) + ("\n" if lines else "")
