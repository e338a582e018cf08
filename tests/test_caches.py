"""The cache registry: every cache of `src/helam` registers where it is
defined, `caches.clear()` empties every cache that may be emptied, and
`caches.counts()` reads them all.  A static scan checks that no cache goes
unregistered, and the `verified` fixture turns every registered cache into
a differential: each hit is computed again and compared."""

from __future__ import annotations

import ast
import gc
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import helam.network as network
import helam.syntax as syntax
from helam import caches
from helam.generate import GenConfig, gen_instance
from helam.network import Focus, Network, explore, simulate
from helam.projection import project_all
from helam.surface import compile_text
from helam.syntax import PartySet, parties

from conftest import CORPUS_DIR, CORPUS_FILES

SRC = Path(__file__).resolve().parent.parent / "src" / "helam"

# what the `verified` fixture checks of each registered cache
CHECKS = {
    "network.next_action": ("next_action",),
    "network.foci": ("foci", "actions", "offers"),
    "network.enumerate": ("steps",),
    "network.links": ("links",),
    "syntax.party_sets": ("interned", "meets", "joins", "subsets"),
}


def _fill():
    """Simulate and explore a few generated networks."""
    cfg = GenConfig(max_parties=4, max_depth=6)
    for n in range(30):
        net = Network(project_all(gen_instance(cfg, n).expr))
        for seed in range(3):
            simulate(net, seed)
        explore(net)


# ---------------------------------------------------------------------------
# the registry

def test_clear_empties_every_cache_but_the_party_sets():
    pq = parties("p", "q")
    _fill()
    filled = caches.counts()
    for name in ("network.next_action", "network.foci",
                 "network.enumerate", "network.links"):
        assert filled[name]["currsize"] > 0, name
    kept = list(network._linked)
    caches.clear()
    emptied = caches.counts()
    for name in ("network.next_action", "network.enumerate"):
        assert emptied[name] == {**filled[name], "hits": 0, "misses": 0,
                                 "currsize": 0}, name
    assert emptied["network.foci"] == {**filled["network.foci"],
                                       "currsize": 0, "actions": 0,
                                       "offers": 0}
    assert emptied["network.links"]["currsize"] == 0
    assert network._linked == [] and network._foci == {}
    assert all(link is None for net in kept for link in net._succ)
    # party-set equality is identity: the table is counted, never emptied
    assert emptied["syntax.party_sets"] == filled["syntax.party_sets"]
    assert parties("q", "p") is pq


def test_clear_leaves_no_network_alive():
    caches.clear()
    gc.collect()
    before = sum(isinstance(o, Network) for o in gc.get_objects())
    _fill()
    caches.clear()
    gc.collect()
    assert sum(isinstance(o, Network) for o in gc.get_objects()) == before


def test_counts_are_what_the_caches_keep():
    caches.clear()
    net = Network(project_all(gen_instance(
        GenConfig(max_parties=4, max_depth=6), 3).expr))
    out = simulate(net, 0)
    again = simulate(net, 0)
    assert again.trace == out.trace
    counts = caches.counts()
    # a run looks its start up once; the first run makes one record and
    # one link per step, and the second reads the links
    assert counts["network.enumerate"]["hits"] == 1
    assert counts["network.enumerate"]["misses"] == len(out.trace) + 1
    assert counts["network.links"]["currsize"] == len(out.trace)
    assert counts["network.foci"]["currsize"] == len(network._foci)
    assert 0 < counts["network.foci"]["offers"] <= len(network._foci)
    info = network.next_action.cache_info()
    assert counts["network.next_action"] == info._asdict()


# ---------------------------------------------------------------------------
# a static scan: no cache goes unregistered

CACHE_DECORATORS = frozenset({"lru_cache", "cache"})


def _is_cache_decorator(dec: ast.expr) -> bool:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Attribute):
        return (target.attr in CACHE_DECORATORS
                and getattr(target.value, "id", None) == "functools")
    return isinstance(target, ast.Name) and target.id in CACHE_DECORATORS


def _is_registration(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register"
            and getattr(node.func.value, "id", None) == "caches")


def _bounded_table(test: ast.expr, tables: set[str]):
    """The module-level table a test such as `len(t) >= _MAX_T` bounds."""
    names = [n.id for n in ast.walk(test) if isinstance(n, ast.Name)]
    if not any(name.startswith("_MAX_") for name in names):
        return None
    for n in ast.walk(test):
        if (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "len"
                and n.args and getattr(n.args[0], "id", None) in tables):
            return n.args[0].id
    return None


def find_caches(sources: dict[str, str]) -> list[tuple[str, str, bool]]:
    """Each cache of the sources as (module:line, name, registered): a
    function under `lru_cache` or `cache`, and a module-level table that
    an `if` tests against a `_MAX_*` bound.  It is registered when a
    `caches.register(...)` call of its module names it."""
    found = []
    for filename, text in sorted(sources.items()):
        tree = ast.parse(text)
        registered = {n.id for call in ast.walk(tree)
                      if _is_registration(call)
                      for n in ast.walk(call) if isinstance(n, ast.Name)}
        tables = {t.id for stmt in tree.body
                  if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                  for t in (stmt.targets if isinstance(stmt, ast.Assign)
                            else [stmt.target])
                  if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not any(map(_is_cache_decorator, node.decorator_list)):
                    continue
                name = node.name
            elif isinstance(node, ast.If):
                name = _bounded_table(node.test, tables)
                if name is None:
                    continue
            else:
                continue
            found.append((f"{filename}:{node.lineno}", name,
                          name in registered))
    return found


def _library() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(SRC.glob("*.py"))}


def test_every_cache_of_the_library_is_registered():
    found = find_caches(_library())
    assert {name for _, name, _ in found} == {
        "next_action", "_enumerate_cached", "_foci", "_linked"}
    assert [where for where, _, registered in found if not registered] == []


@pytest.mark.parametrize("source, name", [
    ("from functools import lru_cache\n"
     "@lru_cache(maxsize=8)\ndef f(x):\n    return x\n", "f"),
    ("import functools\n"
     "@functools.lru_cache\ndef f(x):\n    return x\n", "f"),
    ("from functools import cache\n"
     "@cache\ndef f(x):\n    return x\n", "f"),
    ("_MAX_T = 4\n_t: dict = {}\n"
     "def f(k):\n    if len(_t) >= _MAX_T:\n        _t.clear()\n"
     "    return _t.setdefault(k, k)\n", "_t"),
])
def test_the_scan_flags_an_unregistered_cache(source, name):
    (where, found, registered), = find_caches({"lib.py": source})
    assert found == name and not registered
    registration = (f"\nfrom helam import caches\ncaches.register("
                    f"'lib.{name}', None, lambda: {{'currsize': {name}}})\n")
    (_, _, registered), = find_caches({"lib.py": source + registration})
    assert registered


def test_the_scan_passes_over_local_tables_and_other_bounds():
    source = ("_MAX_T = 4\n"
              "def f(k, seen):\n    if len(seen) >= _MAX_T:\n"
              "        seen.clear()\n"
              "_t: dict = {}\n"
              "def g(k, limit):\n    if len(_t) >= limit:\n"
              "        _t.clear()\n")
    assert find_caches({"lib.py": source}) == []


# ---------------------------------------------------------------------------
# every hit checked against a fresh computation

class _Links(list):
    """A record's successor links, each checked as it is read against the
    record of the network its step reaches."""

    def __init__(self, net, hits):
        super().__init__(net._succ)
        self.net, self.hits = net, hits

    def __getitem__(self, i):
        nxt = super().__getitem__(i)
        if nxt is not None:
            step = self.net._steps[i]
            assert nxt == network._enumerate_cached(
                network.take(self.net, step)), step
            self.hits["links"] += 1
        return nxt


@pytest.fixture
def verified(monkeypatch):
    """Wrap each registered cache so that every hit is computed again and
    compared with what the cache gave; yields the hits checked, by check
    (`CHECKS`)."""
    hits = Counter()
    caches.clear()

    real_next = network.next_action

    def next_action(b):
        before = real_next.cache_info().hits
        act = real_next(b)
        if real_next.cache_info().hits > before:
            assert act == real_next.__wrapped__(b), b
            hits["next_action"] += 1
        return act

    next_action.cache_info = real_next.cache_info
    monkeypatch.setattr(network, "next_action", next_action)

    real_focus = network.focus

    def focus(b, frame=None):
        size = len(network._foci)
        found = real_focus(b, frame)
        if len(network._foci) == size:
            table, network._foci = network._foci, {}
            try:
                fresh = real_focus(b, frame)
            finally:
                network._foci = table
            assert fresh == found and fresh is not found
            hits["foci"] += 1
        return found

    monkeypatch.setattr(network, "focus", focus)

    real_action = Focus.action

    def action(self):
        memo = self._action is not network._UNSET
        act = real_action(self)
        if memo:
            assert act == real_action(Focus(self.redex, self.frame))
            hits["actions"] += 1
        return act

    monkeypatch.setattr(Focus, "action", action)

    real_offer = Focus.offer

    def offer(self, party):
        memo = self._offers is None or party in self._offers
        offered = real_offer(self, party)
        if memo:
            fresh = real_offer(Focus(self.redex, self.frame), party)
            assert offered == fresh, (party, offered, fresh)
            assert offered is None or (
                offered[0].local_rule == fresh[0].local_rule)
            hits["offers"] += 1
        return offered

    monkeypatch.setattr(Focus, "offer", offer)

    real_enumerate = network._enumerate_cached

    def enumerate_cached(net):
        before = real_enumerate.cache_info().hits
        kept = real_enumerate(net)
        if real_enumerate.cache_info().hits > before:
            assert kept == net
            assert kept._steps == tuple(network._enumerate(kept))
            hits["steps"] += 1
        else:
            kept._succ = _Links(kept, hits)
        return kept

    enumerate_cached.cache_info = real_enumerate.cache_info
    monkeypatch.setattr(network, "_enumerate_cached", enumerate_cached)

    real_new = PartySet.__new__

    def new(cls, names):
        key = names if type(names) is tuple else tuple(names)
        interned = key in syntax._INTERNED
        found = real_new(cls, key)
        if interned:
            assert found.members == tuple(sorted(set(key))), key
            hits["interned"] += 1
        return found

    monkeypatch.setattr(PartySet, "__new__", staticmethod(new))

    def memo(method, slot, afresh):
        real = getattr(PartySet, method)

        def checked(self, other):
            kept = other in getattr(self, slot)
            found = real(self, other)
            if kept:
                assert found == afresh(set(self.members),
                                       set(other.members)), (self, other)
                hits[slot[1:]] += 1
            return found

        monkeypatch.setattr(PartySet, method, checked)

    memo("intersect", "_meets",
         lambda a, b: _interned(tuple(sorted(a & b))))
    memo("union", "_joins", lambda a, b: _interned(tuple(sorted(a | b))))
    memo("issubset", "_subsets", lambda a, b: a <= b)
    yield hits
    caches.clear()


def _interned(members):
    return syntax._INTERNED[members] if members else None


def _run(net, seeds):
    for seed in seeds:
        simulate(net, seed)
    explore(net)


def test_the_fixture_checks_every_registered_cache():
    assert set(CHECKS) == set(caches.counts())


def test_every_cache_hit_is_the_answer_computed_afresh(verified):
    cfg = GenConfig(max_parties=4, max_depth=6)
    for n in range(120):
        _run(Network(project_all(gen_instance(cfg, n).expr)), [0])
    for name in CORPUS_FILES:
        if name != "bad_koc":
            text = (CORPUS_DIR / f"{name}.hll").read_text(encoding="utf-8")
            _run(Network(project_all(compile_text(text).core)), range(10))
    text = "".join(f"let x{i} = com[p{2 * i}][p{2 * i + 1}] ()@[p{2 * i}];\n"
                   for i in range(8))
    everyone = ", ".join(f"p{i}" for i in range(16))
    _run(Network(project_all(compile_text(text + f"()@[{everyone}]").core)),
         range(10))
    checks = [check for names in CHECKS.values() for check in names]
    assert {check: verified[check] for check in checks if
            verified[check] == 0} == {}



def test_cache_counts_tool_counts_every_cache_over_a_pass():
    spec = importlib.util.spec_from_file_location(
        "cache_counts", SRC.parent.parent / "tools" / "cache_counts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tool.fresh_pass("interleave", 1)
    assert out["failed"] == 0 and out["attempted"] > 0
    found = out["caches"]
    assert set(found) == set(CHECKS)
    for counts in found.values():
        for prefix in ("", "action_", "offer_", "memo_"):
            if prefix + "lookups" in counts:
                assert 0 <= counts[prefix + "hits"] <= counts[
                    prefix + "lookups"], counts
    for name in ("network.next_action", "network.enumerate"):
        assert found[name]["lookups"] == (found[name]["hits"]
                                          + found[name]["misses"])
    # every state a run reaches for the first time is a new record
    assert found["network.links"]["lookups"] > found["network.links"]["hits"]
