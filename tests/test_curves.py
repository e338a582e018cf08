"""`tools/curves.py` measures one point of each series against helam."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

from helam import network

CURVES = Path(__file__).resolve().parent.parent / "tools" / "curves.py"


def _load():
    spec = importlib.util.spec_from_file_location("curves", CURVES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_point_per_series(monkeypatch):
    curves = _load()
    monkeypatch.setattr(curves, "MIN_SECONDS", 0.0)
    chain = curves.measure_point("chain", 50)
    let = curves.measure_point("let", 50)
    assert chain["steps"] == 50  # one COM1 per hop
    assert let["steps"] == 51  # one APPABS per let, x0 to x50
    assert chain["us_per_step"] > 0 and let["us_per_step"] > 0


def test_let_800_counts_and_times_at_the_default_recursion_limit(
        monkeypatch):
    # the count drives `step` on let chains: a traced `run` would print
    # each redex, and a let's redex holds the rest of the program
    curves = _load()
    monkeypatch.setattr(curves, "MIN_SECONDS", 0.0)
    for stage in ("run", "simulate"):
        point = curves.measure_point("let", 800, stage)
        assert "error" not in point and point["steps"] == 801


def test_one_simulate_point_per_series(monkeypatch):
    curves = _load()
    monkeypatch.setattr(curves, "MIN_SECONDS", 0.0)
    chain = curves.measure_point("chain", 50, "simulate")
    let = curves.measure_point("let", 50, "simulate")
    assert chain["steps"] == 50  # one rendezvous per hop
    assert let["steps"] == 51  # alice's one LABSAPP per let
    assert chain["us_per_step"] > 0 and let["us_per_step"] > 0


def test_one_compile_point_per_series(monkeypatch):
    curves = _load()
    monkeypatch.setattr(curves, "MIN_SECONDS", 0.0)
    chain = curves.measure_point("chain", 50, "compile")
    let = curves.measure_point("let", 50, "compile")
    # `com [ a ] [ b ] ( ... )` per hop, `( ) @ [ alice ]`, and eof
    assert chain["tokens"] == 50 * 9 + 6 + 1
    # `let x0 = ( ) @ [ alice ] ;`, `let x = x ;` per let, `x50` and eof
    assert let["tokens"] == 10 + 50 * 5 + 2
    assert chain["us_per_token"] > 0 and let["us_per_token"] > 0


def test_one_project_point_per_series(monkeypatch):
    curves = _load()
    monkeypatch.setattr(curves, "MIN_SECONDS", 0.0)
    chain = curves.measure_point("chain", 50, "project")
    let = curves.measure_point("let", 50, "project")
    # per hop and party an application and its function, and a leaf per
    # party; less the first hop's bystander, whose missing value applied
    # to a missing value collapses to one leaf
    assert chain["behavior_nodes"] == 50 * 6 + 1
    # alice's `(fn x_i . ...) x_{i-1}` per let: an application, a lambda
    # and a variable; and `(fn x0 . ...) ()` around them
    assert let["behavior_nodes"] == 50 * 3 + 4
    assert chain["us_per_node"] > 0 and let["us_per_node"] > 0


def test_one_print_point_per_series(monkeypatch):
    curves = _load()
    monkeypatch.setattr(curves, "MIN_SECONDS", 0.0)
    chain = curves.measure_point("chain", 50, "print")
    let = curves.measure_point("let", 50, "print")
    # per hop an application, a value and its `com`; and `()@[alice]`
    assert chain["nodes"] == 50 * 3 + 2
    # per let, x0 included, an application, the lambda and its value, and
    # the argument and its value; then the last variable and its value
    assert let["nodes"] == 51 * 5 + 2
    assert chain["us_per_node"] > 0 and let["us_per_node"] > 0


def test_one_par_point_per_network_stage(monkeypatch):
    curves = _load()
    monkeypatch.setattr(curves, "MIN_SECONDS", 0.0)
    simulated = curves.measure_point("par", 4, "simulate")
    explored = curves.measure_point("par", 4, "explore")
    # per pair one rendezvous, and one silent step of each of the 2n
    # parties per let: 2n^2 + n steps, n messages
    assert (simulated["steps"], simulated["messages"]) == (36, 4)
    assert explored["states"] == 37  # one per step of a single run, + 1
    assert simulated["us_per_step"] > 0 and explored["us_per_state"] > 0


def test_growth_per_doubling_is_the_mean_factor():
    curves = _load()
    points = [{"n": 2, "us_per_step": 10.0}, {"n": 4, "us_per_step": 20.0},
              {"n": 8, "us_per_step": 40.0}, {"n": 16, "error": "too slow"}]
    assert curves.growth_per_doubling("simulate", points) == 2.0
    assert curves.growth_per_doubling("simulate", points[:1]) is None


def test_against_alternates_the_trees(monkeypatch):
    curves = _load()
    calls = []

    def fake_point(stage, series, n, src, max_seconds):
        calls.append(src)
        cost = {"new": 1.0, "old": 2.0}[src] + len(calls) / 100
        return {"n": n, "tokens": 10, "us_per_token": cost}

    monkeypatch.setattr(curves, "fresh_point", fake_point)
    monkeypatch.setattr(curves, "ROUNDS", 4)
    point = curves.paired_point("compile", "let", 50, "new", "old", 60.0)
    # the tree that goes first alternates from pair to pair
    assert calls == ["old", "new", "new", "old"] * 2
    assert point["us_per_token"] == 1.02  # each side's fastest run
    assert point["against"]["us_per_token"] == 2.01
    ratios = [1.02 / 2.01, 1.03 / 2.04, 1.06 / 2.05, 1.07 / 2.08]
    assert point["ratio"] == statistics.median(ratios)


def test_against_times_both_trees(monkeypatch):
    curves = _load()
    monkeypatch.setattr(curves, "ROUNDS", 1)
    monkeypatch.setitem(curves.SIZES, "let", (50,))
    src = curves.ROOT / "src"
    (point,) = curves.curve("compile", "let", src, 60.0, against=src)
    assert point["tokens"] == point["against"]["tokens"] == 10 + 50 * 5 + 2
    assert point["ratio"] > 0


def test_each_timed_network_run_starts_from_scratch(monkeypatch):
    """Before a timed run the caches are cleared and the network is built
    again, so only its parties' starting states are interned and no
    action memoized by the untimed run carries over."""
    curves = _load()
    interned = []

    def fake_fastest(once, reset=lambda: None):
        reset()
        interned.append(len(network._foci))
        once()
        return 1.0

    monkeypatch.setattr(curves, "fastest", fake_fastest)
    for stage in ("simulate", "explore"):
        point = curves.measure_point("par", 2, stage)
        assert "error" not in point
    assert interned == [4, 4]  # p0-p3, each at its first redex


def test_stage_names_the_stages_timed(monkeypatch, tmp_path):
    curves = _load()
    timed = []

    def fake_curve(stage, series, src, max_seconds, against=None):
        timed.append((stage, series))
        return [{"n": 2, curves.COST[stage]: 1.0}]

    monkeypatch.setattr(curves, "curve", fake_curve)
    out = tmp_path / "curves.json"
    args = ["--label", "new", "--out", str(out)]
    assert curves.main(args + ["--stage", "simulate",
                               "--stage", "explore"]) == 0
    assert timed == [("simulate", "chain"), ("simulate", "let"),
                     ("simulate", "par"), ("explore", "par")]
    run = json.loads(out.read_text())["runs"]["new"]
    assert list(run["series"]) == list(run["growth_per_doubling"]) == [
        "simulate", "explore"]
    timed.clear()
    assert curves.main(args) == 0  # every stage by default
    assert [stage for stage, _ in timed] == [
        stage for stage, series in curves.STAGES.items() for _ in series]
    with pytest.raises(SystemExit):
        curves.main(args + ["--stage", "nonesuch"])
