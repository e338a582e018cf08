from pathlib import Path

import pytest

from helam.generate import GenConfig, gen_instance
from helam.network import Network, enumerate_net_steps, simulate
from helam.projection import project_all
from helam.surface import compile_text
from helam.syntax import (
    BOTTOM, PENDING, App, Com, DUnit, DataTy, Lam, Unit, Val, Var, parties,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

CORPUS_FILES = sorted(p.stem for p in CORPUS_DIR.glob("*.hll"))

# Programs whose projections step inside a pending function position
# (`LAPP2`) or a pending case guard (`LCASE`); generated programs and the
# corpus reach neither.  Each maps to the rule it must reach.
CONGRUENCE_PROGRAMS = {
    # the function position is a case that picks the function
    "case-picks-the-function": (
        "(fn g : (() + ())@[p, q] . (case[p, q] g of "
        "Inl a => (fn x : ()@[q] . com[q][p] x)@[p, q]; "
        "Inr b => (fn x : ()@[q] . com[q][p] x)@[p, q]) ()@[q])@[p, q] "
        "(Inl ()@[p, q])", "LAPP2"),
    # the guard is a multicast still to be sent
    "pending-guard": (
        "let g : (() + ())@[p] = Inr ()@[p]; "
        "case[p, q] (com[p][p, q] g) of "
        "Inl a => com[p][p, q] ()@[p]; Inr b => com[q][p, q] ()@[q]",
        "LCASE"),
    # a curried application: the function position is an application
    "curried": (
        "(fn x : ()@[p] . (fn y : ()@[q] . "
        "Pair (com[p][r] x) (com[q][r] y))@[p, q, r])@[p, q, r] "
        "()@[p] ()@[q]", "LAPP2"),
    # a bystander sends the guard, and its case collapses once it has
    "bystander-guard": (
        "let g : (() + ())@[s] = Inr ()@[s]; "
        "case[p, q] (com[s][p, q] g) of "
        "Inl a => com[p][p, q] ()@[p]; Inr b => com[q][p, q] ()@[q]",
        "LCASE"),
}


def let_chain(n):
    """The core of `let x0 = ()@[p]; let x1 = x0; ... xn`, built from the
    constructors, which do not recurse: the parser does, once per let."""
    p = parties("p")
    unit = DataTy(DUnit(), p)
    e = Val(Var(f"x{n}"))
    for i in range(n, 0, -1):
        e = App(Val(Lam(f"x{i}", unit, e, p)), Val(Var(f"x{i - 1}")))
    return App(Val(Lam("x0", unit, e, p)), Val(Unit(p)))


def com_chain(hops):
    """hops nested `com`s rotating over three parties, built from the
    constructors."""
    names = ("p", "q", "r")
    e = Val(Unit(parties("p")))
    for i in range(hops):
        e = App(Val(Com(names[i % 3], parties(names[(i + 1) % 3]))), e)
    return e


@pytest.fixture(scope="session")
def corpus():
    """Loader for corpus programs by stem name."""
    cache = {}

    def load(name, theta=None):
        key = (name, theta)
        if key not in cache:
            text = (CORPUS_DIR / f"{name}.hll").read_text(encoding="utf-8")
            cache[key] = compile_text(text, theta)
        return cache[key]

    return load


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS_DIR


def oracle_networks(load):
    """Generated networks, the well-typed corpus, and both with one pending
    party dropped: its partners wait forever, or not at all."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    generated = [Network(project_all(gen_instance(cfg, seed).expr))
                 for seed in range(200)]
    programs = [Network(project_all(load(name).core))
                for name in CORPUS_FILES if name != "bad_koc"]
    perturbed = [Network({**{q: net[q] for q in net.parties()}, p: BOTTOM})
                 for net in generated + programs
                 for p in net.parties() if isinstance(net[p], PENDING)]
    return {"generated": generated, "corpus": programs,
            "perturbed": perturbed}


def visited_states(net, seeds=range(5)):
    """net and every state that `explore` and `simulate` at `seeds` pass
    through from it."""
    states, cur = {net}, net
    while steps := enumerate_net_steps(cur):
        cur = steps[0][0]
        states.add(cur)
    for seed in seeds:
        cur = net
        for taken in simulate(net, seed=seed).trace:
            cur = next(nxt for nxt, info in enumerate_net_steps(cur)
                       if info == taken)
            states.add(cur)
    return states


@pytest.fixture(scope="session")
def reachable(corpus):
    """The states `visited_states` finds from the corpus, instances 0-999 of
    `GenConfig(max_parties=4, max_depth=6)`, the oracle's perturbed
    networks and the congruence programs, by group."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    oracle = oracle_networks(corpus)
    starts = {
        "corpus": oracle["corpus"],
        "generated": [Network(project_all(gen_instance(cfg, seed).expr))
                      for seed in range(1000)],
        "perturbed": oracle["perturbed"],
        "congruence": [Network(project_all(compile_text(text).core))
                       for text, _ in CONGRUENCE_PROGRAMS.values()],
    }
    return {group: set().union(*map(visited_states, nets))
            for group, nets in starts.items()}
