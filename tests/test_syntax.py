"""Core AST invariants: party sets, free variables, canonical printing."""

import copy
import itertools
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import com_chain, let_chain
from helam.surface import desugar, parse
from helam.syntax import (
    _INTERNED, App, BadPartyName, Case, Com, DProd, DSum, DUnit, DataTy,
    EmptyPartySet, Fst, FunTy, Inl, Inr, Lam, Lookup, NO_VARS, Pair,
    PartySet, Snd, TupleTy, Unit, Val, Var, Vec, canonical_print, free_vars,
    node_count, nodes, parties, print_expr, print_type, type_parties,
)

P = parties("p")
PQ = parties("p", "q")


class TestPartySet:
    def test_sorted_and_deduplicated(self):
        assert PartySet(["q", "p", "q"]).members == ("p", "q")

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartySet):
            PartySet([])

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            PartySet(["9bad"])

    def test_ops(self):
        assert parties("p").issubset(PQ)
        assert PQ.intersect(parties("q", "r")) == parties("q")
        assert PQ.intersect(parties("r")) is None
        assert PQ.union(parties("r")) == parties("p", "q", "r")
        assert PQ.without("p") == ("q",)

    @given(st.lists(st.sampled_from("pqrs"), min_size=1))
    def test_construction_normalizes(self, names):
        ps = PartySet(names)
        assert list(ps) == sorted(set(names))


UNIVERSE = ("p", "q", "r", "s", "t")
SUBSETS = [frozenset(c) for k in range(1, 6)
           for c in itertools.combinations(UNIVERSE, k)]


class TestInterning:
    """Party sets are interned: one object per member set."""

    @staticmethod
    def spellings(members: frozenset):
        ordered = sorted(members)
        yield ordered
        yield tuple(reversed(ordered))
        yield ordered + ordered[:1]  # a duplicate
        yield tuple(ordered) + tuple(ordered)
        yield (name for name in reversed(ordered))
        yield PartySet(ordered)
        for perm in itertools.islice(itertools.permutations(ordered), 6):
            yield list(perm)

    def test_every_spelling_gives_one_object(self):
        seen = {}
        for members in SUBSETS:
            objs = {id(PartySet(s)) for s in self.spellings(members)}
            assert len(objs) == 1, members
            seen[members] = PartySet(sorted(members))
        assert len({id(ps) for ps in seen.values()}) == len(SUBSETS) == 31
        for members, ps in seen.items():
            assert ps.members == tuple(sorted(members))

    def test_equality_is_identity(self):
        for a in SUBSETS:
            for b in SUBSETS:
                pa, pb = PartySet(a), PartySet(b)
                assert (pa == pb) is (pa is pb) is (a == b)

    @pytest.mark.parametrize("round_", ["first", "memoized"])
    def test_operations_agree_with_frozenset(self, round_):
        sets = [PartySet(sorted(m)) for m in SUBSETS]
        if round_ == "first":
            # fresh memo tables: the results below are computed, not read
            for ps in sets:
                ps._meets.clear()
                ps._joins.clear()
                ps._subsets.clear()
        for _ in range(2 if round_ == "memoized" else 1):
            for a, pa in zip(SUBSETS, sets):
                assert str(pa) == "[" + ", ".join(sorted(a)) + "]"
                assert len(pa) == len(a)
                assert list(pa) == sorted(a)
                for name in UNIVERSE + ("u",):
                    assert (name in pa) == (name in a)
                for b, pb in zip(SUBSETS, sets):
                    meet = pa.intersect(pb)
                    if a & b:
                        assert meet is PartySet(sorted(a & b))
                    else:
                        assert meet is None
                    assert pa.union(pb) is PartySet(sorted(a | b))
                    assert pa.issubset(pb) == (a <= b)

    def test_copies_and_pickles_are_the_interned_object(self):
        ps = PartySet(["r", "p"])
        assert copy.copy(ps) is ps
        assert copy.deepcopy(ps) is ps
        assert copy.deepcopy([ps, {"k": ps}])[1]["k"] is ps
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(ps, protocol)) is ps
        t = DataTy(DUnit(), ps)
        assert pickle.loads(pickle.dumps(t)).owners is ps

    @pytest.mark.parametrize("names, error", [
        (["a$1"], BadPartyName), (["1a"], BadPartyName),
        (["p", "1a"], BadPartyName), ([], EmptyPartySet),
        ((), EmptyPartySet),
    ])
    def test_bad_sets_raise_every_time_and_leave_no_entry(self, names,
                                                          error):
        before = dict(_INTERNED)
        for _ in range(3):
            with pytest.raises(error):
                PartySet(names)
            with pytest.raises(error):
                PartySet(iter(names))
        assert _INTERNED == before

    def test_threads_building_one_new_set_get_one_object(self):
        """Four threads, more than the cores CI has, build each of 50 new
        sets at once, in different spellings, with a short switch interval;
        every thread gets the same object for a set."""
        rounds = [[f"th{n}_{c}" for c in "cab"] for n in range(50)]
        assert not any(tuple(sorted(names)) in _INTERNED for names in rounds)
        barrier = threading.Barrier(4, timeout=10)
        found = [[] for _ in rounds]

        def build(offset):
            for names, out in zip(rounds, found):
                barrier.wait()
                out.append(PartySet(names[offset:] + names[:offset]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=build, args=(i % 3,))
                       for i in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for names, out in zip(rounds, found):
            assert len(out) == 4
            assert all(ps is out[0] for ps in out)
            assert PartySet(sorted(names)) is out[0]


class TestFreeVars:
    def test_lone_variable_is_free(self):
        assert free_vars(Val(Var("x"))) == {"x"}

    def test_binder_closes(self):
        lam = Lam("x", DataTy(DUnit(), P), Val(Var("x")), P)
        assert free_vars(Val(lam)) == set()

    def test_unbound_in_body(self):
        lam = Lam("x", DataTy(DUnit(), P), Val(Var("y")), P)
        assert free_vars(Val(lam)) == {"y"}

    def test_case_binders(self):
        e = Case(P, Val(Var("s")), "a", Val(Var("a")), "b", Val(Var("c")))
        assert free_vars(e) == {"s", "c"}

    def test_sets_are_filled_on_first_demand_and_shared(self):
        e = App(Val(Var("f")), Val(Pair(Unit(P), Unit(PQ))))
        assert e._fv is None and e.fn.value._fv is None
        assert free_vars(e) == {"f"}
        # a node whose set equals a child's keeps the child's; every node
        # without a free variable has the one empty set
        assert e._fv is e.fn._fv is e.fn.value._fv
        assert e.arg._fv is e.arg.value._fv is NO_VARS

    def test_deep_terms_at_the_default_recursion_limit(self):
        assert free_vars(com_chain(2000)) == frozenset()
        lets = let_chain(2000)
        assert free_vars(lets) == frozenset()
        assert free_vars(lets.fn.value.body) == {"x0"}


def test_type_parties_reaches_nested_components():
    t = FunTy(TupleTy((DataTy(DUnit(), parties("a")),
                       FunTy(DataTy(DUnit(), parties("b")),
                             DataTy(DUnit(), parties("c")), parties("d")))),
              DataTy(DSum(DUnit(), DUnit()), parties("e", "a")), parties("f"))
    assert type_parties(t) == {"a", "b", "c", "d", "e", "f"}


class TestPrinting:
    def test_unit(self):
        assert canonical_print(Val(Unit(PQ))) == "()@[p, q]"

    def test_com(self):
        assert canonical_print(Val(Com("s", parties("r1")))) == "com[s][r1]"

    def test_function_type(self):
        t = FunTy(DataTy(DUnit(), P), DataTy(DUnit(), P), P)
        assert canonical_print(t) == "(()@[p] -> ()@[p])@[p]"

    def test_sum_product_precedence(self):
        d = DSum(DUnit(), DProd(DUnit(), DUnit()))
        assert canonical_print(d) == "() + () * ()"
        d2 = DProd(DSum(DUnit(), DUnit()), DUnit())
        assert canonical_print(d2) == "(() + ()) * ()"

    def test_located_compound_shape_parenthesized(self):
        t = DataTy(DSum(DUnit(), DUnit()), P)
        assert canonical_print(t) == "(() + ())@[p]"

    def test_one_element_tuple(self):
        assert canonical_print(Val(Vec((Unit(P),)))) == "(()@[p],)"
        assert canonical_print(TupleTy((DataTy(DUnit(), P),))) == "(()@[p],)"

    def test_lookup_and_projections(self):
        assert canonical_print(Val(Lookup(2, PQ))) == "lookup[2][p, q]"
        assert canonical_print(Val(Fst(P))) == "fst[p]"
        assert canonical_print(Val(Snd(P))) == "snd[p]"

    def test_application_parens(self):
        inner = App(Val(Var("f")), Val(Var("x")))
        outer = App(Val(Var("g")), inner)
        assert print_expr(outer) == "g (f x)"

    def test_structural_equality_matches_printed_equality(self):
        a = Val(Pair(Unit(P), Unit(PQ)))
        b = Val(Pair(Unit(P), Unit(parties("q", "p"))))
        assert a == b
        assert print_expr(a) == print_expr(b)

    def test_node_count(self):
        e = App(Val(Var("f")), Val(Pair(Unit(P), Unit(P))))
        assert node_count(e) == 7  # App, two Val wrappers, Var, Pair, units


# ---------------------------------------------------------------------------
# randomized print -> parse round trips (syntax only, types not needed)

from strategies import (  # noqa: E402
    exprs as _exprs, names as _names, types as _types, values as _values,
)


def reference_free_vars(e):
    """The free variables of e by recursion, caching nothing: the oracle
    for the cached `free_vars`."""
    match e:
        case Val(v) | Inl(v) | Inr(v):
            return reference_free_vars(v)
        case App(a, b) | Pair(a, b):
            return reference_free_vars(a) | reference_free_vars(b)
        case Lam(param, _, body, _):
            return reference_free_vars(body) - {param}
        case Var(name):
            return frozenset({name})
        case Vec(elems):
            return frozenset().union(*map(reference_free_vars, elems))
        case Case(_, scrut, xl, ml, xr, mr):
            return (reference_free_vars(scrut)
                    | (reference_free_vars(ml) - {xl})
                    | (reference_free_vars(mr) - {xr}))
        case Unit() | Com() | Fst() | Snd() | Lookup():
            return frozenset()
    raise TypeError(f"not an expression or value: {e!r}")


@settings(max_examples=300, deadline=None)
@given(_exprs | _values)
def test_free_vars_match_the_reference_on_raw_terms(e):
    expected = reference_free_vars(e)
    assert free_vars(e) == expected
    assert free_vars(e) == expected  # read back from the cache


@settings(max_examples=150, deadline=None)
@given(_exprs)
def test_print_parse_round_trip(e):
    text = print_expr(e)
    core, _ = desugar(parse(text), theta=parties("p", "q", "r"))
    assert core == e
    assert print_expr(core) == text


@settings(max_examples=150, deadline=None)
@given(_types)
def test_type_print_parse_round_trip(t):
    text = print_type(t)
    parsed = _parse_type(text)
    assert parsed == t
    assert print_type(parsed) == text


def _parse_type(text):
    from helam.surface import Parser, tokenize
    parser = Parser(tokenize(text), {})
    t = parser.type_()
    parser.expect("eof")
    return t


# ---------------------------------------------------------------------------
# `nodes` and `node_count` read each node's subterms from the one table of
# `syntax`; the walks they replaced are the oracles

from dataclasses import fields, is_dataclass  # noqa: E402

from helam.generate import GenConfig, gen_instance  # noqa: E402
from helam.projection import project_all  # noqa: E402
from helam.surface import compile_text  # noqa: E402

from test_curves import _load as load_curves  # noqa: E402
from test_projection import reference_local_fv  # noqa: E402


def reference_nodes(e):
    """Every expression and value node in e, by a `match` on its class: the
    oracle for `nodes` on central terms."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        match node:
            case Val() | Inl() | Inr():
                stack.append(node.value)
            case App():
                stack += (node.fn, node.arg)
            case Case():
                stack += (node.scrutinee, node.left_body, node.right_body)
            case Lam():
                stack.append(node.body)
            case Pair():
                stack += (node.first, node.second)
            case Vec():
                stack += node.elems


def reference_behavior_nodes(b) -> int:
    """The nodes of behavior b counted as a tree by dataclass reflection:
    every compared field that holds a node or a tuple of nodes is walked.
    The oracle for `node_count` on behaviors."""
    count, stack = 0, [b]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack += node
        elif is_dataclass(node):
            count += 1
            stack += (getattr(node, f.name) for f in fields(node)
                      if f.compare)
    return count


def _same_walk(e):
    found, expected = list(nodes(e)), list(reference_nodes(e))
    assert len(found) == len(expected) == node_count(e)
    assert all(a is b for a, b in zip(found, expected))


@pytest.mark.parametrize("cfg", [GenConfig(), GenConfig(2, 8)],
                         ids=["4-6", "2-8"])
def test_nodes_and_node_count_match_the_references_on_instances(cfg):
    behaviors = 0
    for seed in range(1000):
        e = gen_instance(cfg, seed).expr
        _same_walk(e)
        for b in project_all(e).values():
            assert node_count(b) == reference_behavior_nodes(b)
            assert free_vars(b) == reference_local_fv(b)
            behaviors += 1
    assert behaviors > 1500  # most instances have two parties or more


def test_node_count_matches_the_reference_on_long_programs():
    par_8 = compile_text(load_curves().par_text(8)).core
    for core in (let_chain(200), com_chain(200), par_8):
        _same_walk(core)
        procs = project_all(core)
        assert sum(map(node_count, procs.values())) == \
            sum(map(reference_behavior_nodes, procs.values()))
    # a deep term at the default recursion limit
    assert node_count(com_chain(5000)) == 2 + 3 * 5000


@settings(max_examples=300, deadline=None)
@given(_exprs | _values)
def test_nodes_match_the_reference_on_raw_terms(e):
    _same_walk(e)


# ---------------------------------------------------------------------------
# `print_expr` prints both term languages; the two printers it replaced, one
# per language, are the oracles

from helam.network import Network, format_trace, simulate  # noqa: E402
from helam.semantics import Stepped, step  # noqa: E402
from helam.syntax import (  # noqa: E402
    _ATOM, _FN, _TOP, BApp, BCase, Bottom, LFst, LInl, LInr, LLam, LLookup,
    LPair, LSnd, LUnit, LVar, LVec, Recv, Send, SendSelf,
)

from test_projection import _behaviors  # noqa: E402


def reference_print_expr(e, level=_TOP):
    # the arms go roughly by how often the node occurs in generated terms
    match e:
        case Val():
            return reference_print_expr(e.value, level)
        case Unit():
            return f"()@{e.owners}"
        case App():
            s = (f"{reference_print_expr(e.fn, _FN)} "
                 f"{reference_print_expr(e.arg, _ATOM)}")
            return f"({s})" if level >= _ATOM else s
        case Lam():
            return (f"(fn {e.param}: {print_type(e.param_type)}. "
                    f"{reference_print_expr(e.body)})@{e.owners}")
        case Pair():
            s = (f"Pair {reference_print_expr(e.first, _ATOM)} "
                 f"{reference_print_expr(e.second, _ATOM)}")
            return f"({s})" if level >= _ATOM else s
        case Inl():
            s = f"Inl {reference_print_expr(e.value, _ATOM)}"
            return f"({s})" if level >= _ATOM else s
        case Inr():
            s = f"Inr {reference_print_expr(e.value, _ATOM)}"
            return f"({s})" if level >= _ATOM else s
        case Com():
            return f"com[{e.sender}]{e.recipients}"
        case Var():
            return e.name
        case Vec():
            elems = e.elems
            if len(elems) == 1:
                return f"({reference_print_expr(elems[0])},)"
            return ("(" + ", ".join(reference_print_expr(x) for x in elems)
                    + ")")
        case Case():
            s = (f"case{e.guards} {reference_print_expr(e.scrutinee, _FN)} of "
                 f"Inl {e.left_var} => {reference_print_expr(e.left_body)}; "
                 f"Inr {e.right_var} => {reference_print_expr(e.right_body)}")
            return f"({s})" if level >= _FN else s
        case Fst():
            return f"fst{e.owners}"
        case Snd():
            return f"snd{e.owners}"
        case Lookup():
            return f"lookup[{e.index}]{e.owners}"
    raise TypeError(f"not an expression or value: {e!r}")


def reference_print_behavior(b, level=_TOP):
    match b:
        case BApp():
            s = (f"{reference_print_behavior(b.fn, _FN)} "
                 f"{reference_print_behavior(b.arg, _ATOM)}")
            return f"({s})" if level >= _ATOM else s
        case BCase():
            s = (f"case {reference_print_behavior(b.scrutinee, _FN)} of "
                 f"Inl {b.left_var} => {reference_print_behavior(b.left_body)}"
                 f"; Inr {b.right_var} => "
                 f"{reference_print_behavior(b.right_body)}")
            return f"({s})" if level >= _FN else s
        case LVar():
            return b.name
        case LUnit():
            return "()"
        case LLam():
            s = f"fn {b.param}. {reference_print_behavior(b.body)}"
            return f"({s})" if level >= _FN else s
        case LInl():
            s = f"Inl {reference_print_behavior(b.value, _ATOM)}"
            return f"({s})" if level >= _ATOM else s
        case LInr():
            s = f"Inr {reference_print_behavior(b.value, _ATOM)}"
            return f"({s})" if level >= _ATOM else s
        case LPair():
            s = (f"Pair {reference_print_behavior(b.first, _ATOM)} "
                 f"{reference_print_behavior(b.second, _ATOM)}")
            return f"({s})" if level >= _ATOM else s
        case LVec():
            elems = b.elems
            if len(elems) == 1:
                return f"({reference_print_behavior(elems[0])},)"
            return ("(" + ", ".join(reference_print_behavior(x)
                                    for x in elems) + ")")
        case LFst():
            return "fst"
        case LSnd():
            return "snd"
        case LLookup():
            return f"lookup[{b.index}]"
        case Recv():
            return f"recv_[{b.sender}]"
        case Send():
            return "send_[" + ", ".join(b.recipients) + "]"
        case SendSelf():
            return "send*_[" + ", ".join(b.recipients) + "]"
        case Bottom():
            return "⊥"
    raise TypeError(f"not a behavior: {b!r}")


def reference_format_trace(trace):
    """`format_trace` with the behavior printer it used."""
    return "".join(
        f"step {n}: {s.origin} -> [{', '.join(s.recipients)}] : "
        + ("-" if s.payload is None else reference_print_behavior(s.payload))
        + "\n" for n, s in enumerate(trace, start=1))


def _prints_as_the_references(e, behaviors):
    for level in (_TOP, _FN, _ATOM):
        assert print_expr(e, level) == reference_print_expr(e, level)
    for b in behaviors:
        for level in (_TOP, _FN, _ATOM):
            assert print_expr(b, level) == reference_print_behavior(b, level)


def test_print_expr_matches_the_references_on_instances():
    states = behaviors = steps = 0
    for seed in range(1000):
        e = gen_instance(GenConfig(), seed).expr
        procs = project_all(e)
        _prints_as_the_references(e, procs.values())
        behaviors += len(procs)
        out = simulate(Network(procs), seed=0)
        assert format_trace(out.trace) == reference_format_trace(out.trace)
        _prints_as_the_references(e, map(out.network.__getitem__,
                                         out.network.parties()))
        steps += len(out.trace)
        for _ in range(10 * node_count(e) + 1):
            states += 1
            result = step(e)
            if not isinstance(result, Stepped):
                break
            e = result.expr
            _prints_as_the_references(e, ())
    assert (states, behaviors) == (3830, 2694)
    assert steps > 1000


def test_print_expr_matches_the_references_on_long_programs():
    for core in (let_chain(200), com_chain(150)):
        _prints_as_the_references(core, project_all(core).values())


def test_let_300_prints_at_the_default_recursion_limit():
    # print_expr recurses three frames per let (application, value, lambda)
    assert sys.getrecursionlimit() == 1000
    text = print_expr(let_chain(300))
    assert text.count("(fn x") == 301


@settings(max_examples=300, deadline=None)
@given(_exprs | _values, _behaviors)
def test_print_expr_matches_the_references_on_raw_terms(e, b):
    _prints_as_the_references(e, (b,))
