"""Syntax nodes, types, behaviours, actions and step records are immutable
by contract, not by `frozen=True`: a frozen dataclass sets each field
through `object.__setattr__` in its generated `__init__`, which made
building a node cost about three times as much.  So a static scan of the
library's own code stands in for the runtime guard: nothing in
`src/helam` may assign, augment or delete a field of a hashable dataclass,
or set one through `setattr`/`object.__setattr__`, except the class's own
`__init__`/`__post_init__` on `self`.  The derived data a node or network
caches beside its fields (`DERIVED`) is exempt.  A second test checks that
every hash is still the one `frozen=True` gave."""

from __future__ import annotations

import ast
import copy
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from helam.generate import GenConfig, gen_instance
from helam.network import (
    Network, _enumerate_cached, enumerate_net_steps, next_action, simulate,
)
from helam.projection import project_all
from helam.semantics import Stepped, step
from helam.surface import compile_text
from helam.syntax import (
    BOTTOM, BApp, Bottom, LFst, LInl, LInr, LLookup, LPair, LSnd, LUnit, LVar,
    LVec, Recv, Send, SendSelf, print_expr,
)
from helam.typecheck import typecheck

SRC = Path(__file__).resolve().parent.parent / "src" / "helam"

# derived data cached beside the fields, which `==` and `hash` ignore: the
# cached hashes, the free-variable sets, a network's parties, enabled steps
# and successor links, a party set's memo slots, and a focus's memo slot
# (`Focus._action`, filled the first time a step asks for its action)
DERIVED = frozenset({"_hash", "_fv", "_parties", "_steps", "_succ",
                     "members", "_text", "_meets", "_joins", "_subsets",
                     "_action"})
# the one function that fills slots through a computed name: `_checked`
# builds each interned party set's `members`, text and memo slots
DYNAMIC_NAME_WRITERS = frozenset({"_checked"})
CONSTRUCTORS = ("__init__", "__post_init__")


def _dataclass_decorator(node: ast.ClassDef):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return dec
    return None


def guarded_classes(sources: dict[str, str]) -> dict[str, frozenset[str]]:
    """The hashable dataclasses of the sources, each with its field names:
    those declared `unsafe_hash=True` and those that define `__hash__`."""
    out = {}
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ClassDef):
                continue
            dec = _dataclass_decorator(node)
            if dec is None:
                continue
            unsafe = isinstance(dec, ast.Call) and any(
                k.arg == "unsafe_hash" and getattr(k.value, "value", False)
                for k in dec.keywords)
            own_hash = any(
                isinstance(s, ast.FunctionDef) and s.name == "__hash__"
                or isinstance(s, ast.Assign) and any(
                    getattr(t, "id", None) == "__hash__" for t in s.targets)
                for s in node.body)
            if unsafe or own_hash:
                out[node.name] = frozenset(
                    s.target.id for s in node.body
                    if isinstance(s, ast.AnnAssign)
                    and isinstance(s.target, ast.Name))
    return out


class _Scanner(ast.NodeVisitor):
    """Collects every write to a guarded field in one module."""

    def __init__(self, filename: str, guarded: dict[str, frozenset[str]]):
        self.filename, self.guarded = filename, guarded
        self.names = frozenset().union(*guarded.values()) - DERIVED
        self.classes: list[str] = []
        self.functions: list[str] = []
        self.found: list[str] = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.functions.append("")  # a class body is no method's body
        self.generic_visit(node)
        self.functions.pop()
        self.classes.pop()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._write(node, node.value, node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        fn = node.func
        is_setattr = (isinstance(fn, ast.Name) and fn.id == "setattr"
                      or isinstance(fn, ast.Attribute)
                      and fn.attr == "__setattr__"
                      and isinstance(fn.value, ast.Name)
                      and fn.value.id == "object")
        if is_setattr and len(node.args) >= 2:
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self._write(node, node.args[0], name.value)
            elif not (self.functions
                      and self.functions[-1] in DYNAMIC_NAME_WRITERS):
                self._report(node, "a computed attribute name")
        self.generic_visit(node)

    def _write(self, node, receiver, attr: str) -> None:
        method = self.functions[-1] if self.functions else ""
        if (self.classes and isinstance(receiver, ast.Name)
                and receiver.id == "self" and method):
            # a method of an enclosing class writes its own object
            owner = self.classes[-1]
            if (attr in self.guarded.get(owner, ()) and attr not in DERIVED
                    and method not in CONSTRUCTORS):
                self._report(node, f"{owner}.{attr}")
            return
        if attr in self.names:
            self._report(node, f"field {attr!r}")

    def _report(self, node, what: str) -> None:
        self.found.append(f"{self.filename}:{node.lineno}: writes {what}")


def violations(sources: dict[str, str],
               guarded: dict[str, frozenset[str]]) -> list[str]:
    found = []
    for filename, text in sorted(sources.items()):
        scanner = _Scanner(filename, guarded)
        scanner.visit(ast.parse(text))
        found += scanner.found
    return found


def _library() -> dict[str, str]:
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert "syntax.py" in sources and "network.py" in sources
    return sources


def test_the_guarded_classes_are_the_hashable_dataclasses():
    guarded = guarded_classes(_library())
    for name in ("Span", "DataTy", "Val", "App", "Case", "Lam", "LVar",
                 "LLam", "BApp", "BCase", "Silent", "SendAction",
                 "RecvAction", "NetStep", "DeadlockReport", "Stepped",
                 "IsValue", "Stuck", "GenConfig", "Instance"):
        assert name in guarded
    assert guarded["App"] == {"fn", "arg", "span"}
    assert guarded["BApp"] == {"fn", "arg", "_hash"}
    # mutable records are not guarded
    for name in ("SimOutcome", "Exploration", "CompiledProgram"):
        assert name not in guarded


def test_no_frozen_dataclass_is_left():
    for name, text in _library().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                dec = _dataclass_decorator(node)
                assert not isinstance(dec, ast.Call) or all(
                    k.arg != "frozen" for k in dec.keywords), node.name


def test_the_library_writes_no_field_after_construction():
    sources = _library()
    assert violations(sources, guarded_classes(sources)) == []


LIBRARY_CLASSES = """
from dataclasses import dataclass

@dataclass(unsafe_hash=True)
class App:
    fn: object
    arg: object

    def __post_init__(self):
        self.fn = self.fn  # allowed: construction

    def retarget(self, x):
        self.arg = x

@dataclass(unsafe_hash=True)
class Val:
    value: object

class Frame:
    def move(self, x):
        self.fn = x  # allowed: not a guarded class
"""


@pytest.mark.parametrize("snippet, what", [
    ("e.fn = x", "field 'fn'"),
    ("object.__setattr__(v, 'value', w)", "field 'value'"),
    ("setattr(v, 'value', w)", "field 'value'"),
    ("e.arg += 1", "field 'arg'"),
    ("del e.fn", "field 'fn'"),
    ("a, e.fn = 1, 2", "field 'fn'"),
    ("for e.arg in xs: pass", "field 'arg'"),
    ("object.__setattr__(v, name, w)", "a computed attribute name"),
])
def test_the_scanner_flags_seeded_writes(snippet, what):
    guarded = guarded_classes({"lib.py": LIBRARY_CLASSES})
    sources = {"lib.py": LIBRARY_CLASSES,
               "bad.py": f"def f(e, v, w, x, xs, name):\n    {snippet}\n"}
    assert violations(sources, guarded) == [
        f"bad.py:2: writes {what}", "lib.py:13: writes App.arg"]


def test_the_scanner_allows_derived_data_and_other_objects():
    guarded = guarded_classes({"lib.py": LIBRARY_CLASSES})
    ok = ("def f(e, net, node, x):\n"
          "    node._fv = x\n"
          "    object.__setattr__(net, '_steps', x)\n"
          "    e.name = x\n"
          "    e.body[0] = x\n")
    assert violations({"ok.py": ok}, guarded) == []


@pytest.mark.parametrize("snippet, what", [
    ("f.redex = x", ["bad.py:2: writes field 'redex'"]),
    ("f.frame = x", ["bad.py:2: writes field 'frame'"]),
    ("f._action = x", []),
])
def test_a_focus_is_guarded_but_for_its_memo_slot(snippet, what):
    sources = _library()
    guarded = guarded_classes(sources)
    assert guarded["Focus"] == {"redex", "frame", "_hash", "_action"}
    sources["bad.py"] = f"def f(f, x):\n    {snippet}\n"
    assert violations(sources, guarded) == what


# ---------------------------------------------------------------------------
# hashes and equality as `frozen=True` gave them

# the local values hash their class name with their fields
CLASS_HASHED = (LVar, LUnit, LInl, LInr, LPair, LVec, LFst, LSnd, LLookup,
                Recv, Send, SendSelf, Bottom)


def frozen_hash(x) -> int:
    """The hash a frozen dataclass of x's class gave: the tuple of the
    fields that take part in hashing, with the class name in front for the
    local values."""
    values = tuple(getattr(x, f.name) for f in fields(x)
                   if (f.compare if f.hash is None else f.hash))
    if isinstance(x, CLASS_HASHED):
        return hash((type(x).__name__, *values))
    return hash(values)


def reachable(roots):
    """Every helam dataclass object reachable from roots through fields,
    tuples, lists and dicts, once each."""
    seen, stack = set(), list(roots)
    while stack:
        x = stack.pop()
        if isinstance(x, (tuple, list)):
            stack += x
        elif isinstance(x, dict):
            stack += x.values()
        elif (is_dataclass(x) and not isinstance(x, type)
              and type(x).__module__.startswith("helam.")
              and id(x) not in seen):
            seen.add(id(x))
            yield x
            stack += (getattr(x, f.name) for f in fields(x))


def _roots(inst) -> list:
    compiled = compile_text(print_expr(inst.expr), inst.theta).core
    roots = [inst, typecheck(inst.theta, inst.expr, inst.target), compiled]
    e = inst.expr
    while isinstance(result := step(e), Stepped):
        roots.append(result)
        e = result.expr
    roots.append(result)
    procs = project_all(inst.expr)
    roots.append(procs)
    net = _enumerate_cached(Network(procs))
    outcome = simulate(net, seed=inst.seed)
    roots += [outcome.trace, outcome.deadlock]
    for _ in range(len(outcome.trace) + 1):
        for p, focused in net._parties.items():
            roots += [focused.redex, next_action(focused.redex),
                      focused.action()]
        steps = enumerate_net_steps(net)
        roots += [s for _, s in steps]
        if not steps:
            break
        net = steps[0][0]
    return roots


def test_hashes_and_equality_are_those_of_frozen_dataclasses():
    deadlocked = Network({"p": BApp(Recv("q"), BOTTOM),
                          "q": BApp(Recv("p"), BOTTOM)})
    roots = [simulate(deadlocked).deadlock]
    for cfg in (GenConfig(), GenConfig(max_parties=4, max_depth=6)):
        roots.append(cfg)
        for seed in range(200):
            roots += _roots(gen_instance(cfg, seed))
    classes = set()
    for x in reachable(roots):
        classes.add(type(x).__name__)
        assert hash(x) == frozen_hash(x), x
        assert x == copy.copy(x)
    # the walk reached every kind of node, type, behaviour, action and step
    assert {"GenConfig", "Instance", "Span", "DataTy", "FunTy", "Val", "App",
            "Case", "Lam", "Var", "Unit", "Com", "LLam", "BApp", "BCase",
            "LUnit", "Bottom", "Send", "Recv", "Silent", "SendAction",
            "RecvAction", "NetStep", "Stepped", "IsValue",
            "DeadlockReport"} <= classes
