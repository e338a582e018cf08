"""The `helam` command line: check, run, project, simulate, fmt, and the
metatheory test driver.

Exit codes: 0 on success, 1 on a language-level rejection (type error,
stuck program, deadlock, failing property), 2 on usage or I/O errors, 3 when
an exhaustive exploration hit its budget before finding a deadlock, 4 when
the input is nested too deeply for the interpreter's recursion limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .metatheory import check_metatheory
from .network import Network, SimulationFault, format_trace, simulate
from .projection import EmptyRoles, project, project_all
from .semantics import FuelExhausted, StuckError, run
from .surface import CompiledProgram, DesugarError, ParseError, compile_text
from .syntax import PartySet, print_expr, print_type
from .typecheck import TypeErr, typecheck


def _load(path: str, theta=None) -> CompiledProgram:
    text = Path(path).read_text(encoding="utf-8")
    return compile_text(text, theta)


def _parties(names: list[str]) -> PartySet:
    try:
        return PartySet(names)
    except ValueError as err:  # an empty or invalid party name
        raise argparse.ArgumentTypeError(str(err)) from err


def _theta(arg: str) -> PartySet:
    return _parties(arg.split(","))


def _party(arg: str) -> str:
    return _parties([arg]).members[0]


def _positive(arg: str) -> int:
    try:
        n = int(arg)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {arg!r}")
    return n


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def cmd_check(args) -> int:
    prog = _load(args.file, args.theta)
    t = typecheck(prog.theta, prog.core)
    print(print_type(t))
    return 0


def cmd_run(args) -> int:
    prog = _load(args.file, args.theta)
    typecheck(prog.theta, prog.core)
    trace = [] if args.trace else None
    value = run(prog.core, trace=trace)
    if trace is not None:
        for rule, redex in trace:
            print(f"{rule}: {redex}")
    print(print_expr(value))
    return 0


def cmd_project(args) -> int:
    prog = _load(args.file, args.theta)
    typecheck(prog.theta, prog.core)
    if args.party:
        print(print_expr(project(prog.core, args.party)))
        return 0
    procs = project_all(prog.core)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for party, behavior in sorted(procs.items()):
            path = outdir / f"{party}.hlp"
            path.write_text(print_expr(behavior) + "\n", encoding="utf-8")
            print(path)
    else:
        for party, behavior in sorted(procs.items()):
            print(f"{party}: {print_expr(behavior)}")
    return 0


def cmd_simulate(args) -> int:
    prog = _load(args.file, args.theta)
    typecheck(prog.theta, prog.core)
    net = Network(project_all(prog.core))
    if args.exhaustive:
        from .network import explore
        result = explore(net, args.budget)
        print(f"states explored: {result.states}"
              + ("" if result.complete else " (budget hit)"))
        print(f"terminal networks: {len(result.terminals)}")
        if result.deadlocks:
            return _fail(str(result.deadlocks[0]), 1)
        if not result.complete:
            return _fail("exploration incomplete: raise --budget", 3)
        return 0
    outcome = simulate(net, seed=args.seed)
    if args.trace:
        Path(args.trace).write_text(format_trace(outcome.trace),
                                    encoding="utf-8")
    for party in outcome.network.parties():
        print(f"{party}: {print_expr(outcome.network[party])}")
    print(f"steps: {len(outcome.trace)}  messages: {outcome.messages}")
    if outcome.deadlock is not None:
        return _fail(str(outcome.deadlock), 1)
    return 0


def cmd_fmt(args) -> int:
    prog = _load(args.file, args.theta)
    print(print_expr(prog.core))
    return 0


def cmd_test_metatheory(args) -> int:
    reports = check_metatheory(instances=args.instances, seed=args.seed)
    failed = False
    summary = {}
    for name, report in sorted(reports.items()):
        print(report)
        summary[name] = {
            "instances": report.instances,
            "failures": [str(f) for f in report.failures],
        }
        failed = failed or not report.ok()
    if args.report:
        Path(args.report).write_text(json.dumps(summary, indent=2),
                                     encoding="utf-8")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helam",
        description="choreographies with multiply-located values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file")
        p.add_argument("--theta", type=_theta,
                       help="comma-separated party set override")

    p = sub.add_parser("check", help="type-check a choreography")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="evaluate centrally")
    common(p)
    p.add_argument("--trace", action="store_true",
                   help="print each rule and redex")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("project", help="endpoint-project")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--party", type=_party)
    group.add_argument("--all", action="store_true")
    p.add_argument("--out", help="directory for per-party .hlp files")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("simulate", help="run the projected network")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--budget", type=_positive, default=100_000)
    p.add_argument("--trace", help="write the step trace to a file")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fmt", help="canonical-print the desugared core")
    common(p)
    p.set_defaults(fn=cmd_fmt)

    p = sub.add_parser("test-metatheory", help="run the property suites")
    p.add_argument("--instances", type=_positive, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write a JSON summary here")
    p.set_defaults(fn=cmd_test_metatheory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, DesugarError, TypeErr, StuckError, FuelExhausted,
            EmptyRoles, SimulationFault) as err:
        if isinstance(err, TypeErr):
            return _fail(err.record(), 1)
        return _fail(str(err), 1)
    except OSError as err:
        return _fail(str(err), 2)
    except UnicodeDecodeError as err:
        return _fail(f"{args.file}: byte {err.start} is not UTF-8", 2)
    except RecursionError:
        return _fail("ResourceLimit: the input is nested too deeply for the "
                     f"recursion limit of {sys.getrecursionlimit()}", 4)


if __name__ == "__main__":
    sys.exit(main())
