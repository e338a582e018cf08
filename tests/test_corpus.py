"""Every corpus choreography typechecks, runs, projects, and simulates
deadlock-free, with the communication counts worked out by hand."""

import json
import subprocess
import sys

import pytest

from helam.cli import main
from helam.metatheory import PROPERTY_NAMES, party_histories
from helam.network import Network, explore, format_trace, simulate
from helam.projection import floor, project, project_all, roles
from helam.semantics import run
from helam.syntax import App, Inl, Inr, Unit, Val, Vec, parties, print_expr
from helam.typecheck import TypeErr, typecheck
from conftest import CORPUS_FILES

WELL_TYPED = [name for name in CORPUS_FILES if name != "bad_koc"]


def apply_to(prog, *args):
    e = prog.core
    for arg in args:
        e = App(e, Val(arg))
    typecheck(prog.theta, e)
    return e


def simulate_applied(e, seed=0):
    members = roles(e)
    value = run(e)
    net = Network(project_all(e, members))
    out = simulate(net, seed=seed)
    assert out.deadlock is None
    goal = Network({p: project(Val(value), p) for p in members})
    assert out.network == goal
    return out


@pytest.mark.parametrize("name", WELL_TYPED)
def test_typechecks_runs_projects_and_simulates(corpus, name):
    prog = corpus(name)
    typecheck(prog.theta, prog.core)
    run(prog.core)
    net = project_all(prog.core)
    for behavior in net.values():
        assert floor(behavior) == behavior
    out = simulate(Network(net), seed=0)
    assert out.deadlock is None


def test_bad_koc_rejected(corpus):
    prog = corpus("bad_koc")
    with pytest.raises(TypeErr) as exc:
        typecheck(prog.theta, prog.core)
    assert exc.value.kind == "MaskUndefined"


class TestKvs:
    def put(self, corpus):
        return apply_to(corpus("kvs"), Inl(Unit(parties("client"))))

    def get(self, corpus):
        return apply_to(corpus("kvs"), Inr(Unit(parties("client"))))

    def test_put_needs_four_messages(self, corpus):
        out = simulate_applied(self.put(corpus))
        assert out.messages == 4
        assert out.rendezvous_steps == 4

    def test_get_needs_three_messages(self, corpus):
        out = simulate_applied(self.get(corpus))
        assert out.messages == 3
        assert out.rendezvous_steps == 3

    def test_put_response_lands_at_the_client(self, corpus):
        value = run(self.put(corpus))
        assert value == Inl(Unit(parties("client")))

    def test_message_order_is_fixed(self, corpus):
        out = simulate_applied(self.put(corpus), seed=11)
        sends = [(s.origin, s.recipients) for s in out.trace
                 if s.rule == "NCOM"]
        assert sends == [("client", ("primary",)),
                         ("primary", ("backup",)),
                         ("backup", ("primary",)),
                         ("primary", ("client",))]


class TestReplicatedKvs:
    @pytest.mark.parametrize("request_value",
                             [Inl(Unit(parties("client"))),
                              Inr(Unit(parties("client")))])
    def test_three_messages_on_any_input(self, corpus, request_value):
        e = apply_to(corpus("kvs_replicated"), request_value)
        out = simulate_applied(e)
        assert out.messages == 3
        # the client's multicast reaches both replicas in one step
        assert out.rendezvous_steps == 2


class TestBookseller:
    def test_yes_ships_a_date(self, corpus):
        e = apply_to(corpus("bookseller"), Inl(Unit(parties("buyer1"))))
        assert run(e) == Inl(Unit(parties("buyer1")))
        assert simulate_applied(e).messages == 2

    def test_no_costs_one_message(self, corpus):
        e = apply_to(corpus("bookseller"), Inr(Unit(parties("buyer1"))))
        assert run(e) == Inr(Unit(parties("buyer1")))
        assert simulate_applied(e).messages == 1


class TestDelegation:
    def apply(self, corpus, choice):
        inputs = Vec((choice, Unit(parties("bob")), Unit(parties("alice"))))
        return apply_to(corpus("delegation"), inputs)

    def test_choosing_bob_routes_his_query_to_alice(self, corpus):
        e = self.apply(corpus, Inl(Unit(parties("alice"))))
        out = simulate_applied(e, seed=7)
        assert any(s.origin == "bob" and "alice" in s.recipients
                   for s in out.trace)

    def test_choosing_alice_keeps_bob_silent(self, corpus):
        e = self.apply(corpus, Inr(Unit(parties("alice"))))
        out = simulate_applied(e, seed=7)
        assert not any(s.origin == "bob" and "alice" in s.recipients
                       for s in out.trace)

    def test_carroll_cannot_tell_the_branches_apart(self, corpus):
        # the server's own step sequence is identical either way
        histories = []
        for choice in (Inl(Unit(parties("alice"))),
                       Inr(Unit(parties("alice")))):
            e = self.apply(corpus, choice)
            out = simulate_applied(e, seed=0)
            net = Network(project_all(e, roles(e)))
            histories.append(party_histories(net, out.trace)["carroll"])
        assert histories[0] == histories[1]


class TestCacheFlags:
    @pytest.mark.parametrize("name", ["cache_flags", "cache_flags_full"])
    def test_every_secret_combination(self, corpus, name):
        prog = corpus(name)
        num = lambda o: Inl(Unit(o))
        p, q = parties("p"), parties("q")
        for first in (Inl(Unit(p)), Inr(Unit(p))):
            for second in (Inl(num(p)), Inr(num(p))):
                e = apply_to(prog, Vec((first, second, num(q), num(q))))
                out = simulate_applied(e)
                # one incoming value, one flag, one payload either way
                assert out.messages == 3

    def test_exhaustive_interleavings_agree(self, corpus):
        p, q = parties("p"), parties("q")
        num = lambda o: Inl(Unit(o))
        e = apply_to(corpus("cache_flags"),
                     Vec((Inl(Unit(p)), Inl(num(p)), num(q), num(q))))
        value = run(e)
        members = roles(e)
        result = explore(Network(project_all(e, members)))
        assert result.complete
        assert not result.deadlocks
        goal = Network({r: project(Val(value), r) for r in members})
        assert result.terminals == {goal}


class TestGoldenTraces:
    @pytest.mark.parametrize("name", ["multicast", "kvs_put"])
    def test_seed_zero_trace_is_stable(self, corpus, corpus_dir, name):
        prog = corpus(name)
        out = simulate(Network(project_all(prog.core)), seed=0)
        golden = (corpus_dir / "golden" / f"{name}.seed0.trace").read_text()
        assert format_trace(out.trace) == golden


@pytest.mark.parametrize("name", WELL_TYPED)
def test_projection_matches_golden(corpus_dir, capsys, name):
    assert main(["project", str(corpus_dir / f"{name}.hll"), "--all"]) == 0
    golden = corpus_dir / "golden" / f"{name}.project"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "helam.cli", *args],
            capture_output=True, text=True)

    def test_check_prints_the_type(self, corpus_dir):
        result = self.run_cli("check", str(corpus_dir / "kvs.hll"))
        assert result.returncode == 0
        assert "(() + ())@[client]" in result.stdout

    def test_check_rejects_with_diagnostic(self, corpus_dir):
        result = self.run_cli("check", str(corpus_dir / "bad_koc.hll"))
        assert result.returncode == 1
        assert "MaskUndefined" in result.stderr

    def test_run_evaluates(self, corpus_dir):
        result = self.run_cli("run", str(corpus_dir / "kvs_get.hll"))
        assert result.returncode == 0
        assert result.stdout.strip() == "Inl ()@[client]"

    def test_simulate_delegation_seed_seven(self, corpus_dir):
        result = self.run_cli("simulate",
                              str(corpus_dir / "delegation_pick_bob.hll"),
                              "--seed", "7")
        assert result.returncode == 0

    def test_project_writes_per_party_files(self, corpus_dir, tmp_path):
        result = self.run_cli("project", str(corpus_dir / "multicast.hll"),
                              "--all", "--out", str(tmp_path))
        assert result.returncode == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == \
            ["p.hlp", "q.hlp", "s.hlp"]
        assert (tmp_path / "s.hlp").read_text() == "send_[p, q] ()\n"

    def test_fmt_round_trips(self, corpus_dir, corpus):
        result = self.run_cli("fmt", str(corpus_dir / "identity.hll"))
        assert result.returncode == 0
        assert result.stdout.strip() == \
            print_expr(corpus("identity").core)

    def test_exhaustive_simulation(self, corpus_dir):
        result = self.run_cli("simulate", str(corpus_dir / "multicast.hll"),
                              "--exhaustive")
        assert result.returncode == 0
        assert "terminal networks: 1" in result.stdout

    def test_exhaustive_budget_hit_is_not_success(self, corpus_dir, capsys):
        code = main(["simulate", str(corpus_dir / "kvs_put.hll"),
                     "--exhaustive", "--budget", "5"])
        out = capsys.readouterr().out
        assert "states explored: 5 (budget hit)" in out
        assert code == 3

    def test_exhaustive_complete_exits_zero(self, corpus_dir, capsys):
        code = main(["simulate", str(corpus_dir / "kvs_put.hll"),
                     "--exhaustive"])
        assert "(budget hit)" not in capsys.readouterr().out
        assert code == 0

    def test_case_holes_are_filled_before_fmt(self, tmp_path, capsys):
        # the let's type comes from a case whose left branch binds a hole;
        # fmt writes that type into the program, which must check again
        source = tmp_path / "hole.hll"
        source.write_text("let z = case[p] Inr ()@[p] of "
                          "Inl x => x; Inr y => y;\nz\n")
        assert main(["check", str(source)]) == 0
        assert capsys.readouterr().out.strip() == "()@[p]"
        assert main(["fmt", str(source)]) == 0
        printed = tmp_path / "printed.hll"
        printed.write_text(capsys.readouterr().out)
        assert main(["check", str(printed)]) == 0
        assert capsys.readouterr().out.strip() == "()@[p]"

    def test_let_in_a_branch_of_a_bare_injection_case(self, tmp_path,
                                                      capsys):
        # the branch variable's type comes from the checker's case rule
        source = tmp_path / "branch.hll"
        source.write_text("case[p] Inl ()@[p] of "
                          "Inl x => let y = x; y; Inr z => ()@[p]\n")
        assert main(["check", str(source)]) == 0
        assert capsys.readouterr().out.strip() == "()@[p]"
        assert main(["fmt", str(source)]) == 0
        printed = tmp_path / "printed.hll"
        printed.write_text(capsys.readouterr().out)
        assert main(["check", str(printed)]) == 0
        assert capsys.readouterr().out.strip() == "()@[p]"

    def test_let_bound_to_a_hole_needs_an_annotation(self, tmp_path, capsys):
        # z's shape is a hole: no annotation can spell its type
        source = tmp_path / "hole.hll"
        source.write_text("case[p] Inl ()@[p] of "
                          "Inl x => ()@[p]; Inr z => let w = z; ()@[p]\n")
        assert main(["check", str(source)]) == 1
        assert "cannot infer a type for let w; add an annotation" in \
            capsys.readouterr().err

    def test_temporaries_do_not_capture_user_variables(self, tmp_path,
                                                        capsys):
        # the pair's parts are pulled out into temporaries; the parameter
        # has the name the first of them would otherwise take
        source = tmp_path / "temps.hll"
        source.write_text("(fn tmp$1 : ()@[s] . Pair (com[s][r] tmp$1) "
                          "(com[s][r] tmp$1))@[r, s]\n")
        assert main(["check", str(source)]) == 0
        assert capsys.readouterr().out.strip() == \
            "(()@[s] -> (() * ())@[r])@[r, s]"

    @pytest.mark.parametrize("text, record", [
        ("(fn g : (() + ())@[p] . case[p, q] g of "
         "Inl a => let b = a; b; Inr c => c)@[p, q]",
         "MaskUndefined\t1:25\tguard of type (() + ())@[p] is not located "
         "at all branching parties [p, q]"),
        ("(fn g : ()@[p] . case[p] g of "
         "Inl a => let b = a; b; Inr c => c)@[p]",
         "GuardNotSum\t1:18\tguard must be a located sum, got ()@[p]"),
    ])
    def test_ill_typed_case_is_reported_before_its_branches(
            self, tmp_path, capsys, text, record):
        # the let in the left branch cannot be typed without `a`; the
        # diagnostic is still the case's own, as the checker orders them
        source = tmp_path / "case.hll"
        source.write_text(text + "\n")
        assert main(["check", str(source)]) == 1
        assert capsys.readouterr().err.strip() == record

    @pytest.mark.parametrize("text, message", [
        ("()@[a$b]", "invalid party name 'a$b' at 1:5"),
        ("com[a$b][q]", "invalid party name 'a$b' at 1:5"),
        # inside a parenthesized type, which the parser may re-read as data
        ("(fn f : (()@[p] -> ()@[q, a$b])@[p] . f)@[p]",
         "invalid party name 'a$b' at 1:27"),
        ("lookup[0][p] ((),)", "lookup indices are 1-based at 1:8"),
    ])
    def test_bad_party_or_index_is_a_parse_error(self, tmp_path, capsys,
                                                 text, message):
        source = tmp_path / "bad.hll"
        source.write_text(text + "\n")
        assert main(["check", str(source)]) == 1
        assert capsys.readouterr().err.strip() == message

    def test_bad_theta_is_a_usage_error(self, corpus_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(corpus_dir / "multicast.hll"),
                  "--theta", "p,,q"])
        assert exc.value.code == 2
        assert "invalid party name: ''" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["9", "p,q", ""])
    def test_bad_party_is_a_usage_error(self, corpus_dir, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(["project", str(corpus_dir / "kvs_put.hll"),
                  "--party", name])
        assert exc.value.code == 2
        assert f"invalid party name: {name!r}" in capsys.readouterr().err

    def test_absent_party_projects_to_bottom(self, corpus_dir, capsys):
        assert main(["project", str(corpus_dir / "kvs_put.hll"),
                     "--party", "nobody"]) == 0
        assert capsys.readouterr().out == "⊥\n"

    def test_missing_file_is_a_usage_error(self):
        result = self.run_cli("check", "no/such/file.hll")
        assert result.returncode == 2

    def test_non_utf8_file_is_a_usage_error(self, tmp_path, capsys):
        source = tmp_path / "latin1.hll"
        source.write_bytes(b"()@[p] \xff\n")
        assert main(["check", str(source)]) == 2
        assert capsys.readouterr().err.strip() == \
            f"{source}: byte 7 is not UTF-8"

    @pytest.mark.parametrize("name", ["kvs_put", "delegation_pick_bob"])
    def test_run_trace_matches_golden(self, corpus_dir, capsys, name):
        assert main(["run", str(corpus_dir / f"{name}.hll"), "--trace"]) == 0
        golden = corpus_dir / "golden" / f"{name}.run"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_project_one_party(self, corpus_dir, capsys):
        assert main(["project", str(corpus_dir / "kvs_put.hll"),
                     "--party", "backup"]) == 0
        golden = (corpus_dir / "golden" / "kvs_put.project").read_text(
            encoding="utf-8")
        assert f"backup: {capsys.readouterr().out}" in golden

    def test_metatheory_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["test-metatheory", "--instances", "5",
                     "--report", str(report)]) == 0
        summary = json.loads(report.read_text(encoding="utf-8"))
        assert sorted(summary) == sorted(PROPERTY_NAMES + ("masking-laws",))
        assert all(entry["instances"] and not entry["failures"]
                   for entry in summary.values())

    def test_theta_flag(self, corpus_dir):
        result = self.run_cli("check", str(corpus_dir / "multicast.hll"),
                              "--theta", "p,q,s,t")
        assert result.returncode == 0
