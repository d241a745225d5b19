"""Command line front end.

run, suite and paper-examples share one flag set (--seed, --budget,
--json); run and suite also take --system, and run and paper-examples
--depth-cap, which only membership verdicts read.  fixture only prints,
so it takes no flag:

    refbound run PATH              execute a scenario file
    refbound fixture NAME          print a built-in scenario
    refbound suite NAME...|all     run property suites directly (names,
                                   --system and --seed may repeat; reports
                                   come out by seed, then system, then
                                   suite, each in the order given)
    refbound paper-examples GROUP  run a fixture group or one fixture

Exit codes: 0 all assertions held, 1 an assertion or suite failed,
2 malformed input (scenario files report its line and column; a
negative --depth-cap is one) or a --json path that cannot be written.
The --json file is opened before any work, so a bad path costs no run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys as _sys

from .oracle import SUITE_NAMES, run_suite
from .order import parse_system
from .scenario import ScenarioError, ScenarioOutcome, run_scenario, run_scenario_text
from .fixtures import FIXTURE_GROUPS, FIXTURE_NAMES, emit_fixture, fixture_group

__all__ = ["main", "run_scenario", "emit_fixture"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refbound",
        description="Exact boundary functions for ideal sets of refinement "
                    "limit systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, repeat=False, system=True, depth_cap=True):
        if system:
            p.add_argument("--system", metavar="LITERAL", default=None,
                           action="append" if repeat else "store",
                           help="system literal, e.g. ';2' or '2;3,2'"
                                + ("; repeat for several systems" if repeat else ""))
        p.add_argument("--seed", type=int, default=None if repeat else 0,
                       action="append" if repeat else "store",
                       help="repeat for several seeds" if repeat else None)
        p.add_argument("--budget", type=int, default=1,
                       help="sampling multiplier for suites")
        if depth_cap:
            p.add_argument("--depth-cap", type=int, default=None, dest="depth_cap",
                           help="search depth cap for membership verdicts")
        p.add_argument("--json", metavar="PATH", default=None, dest="json_path",
                       help="also write machine-readable results to PATH")

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("path")
    common(p_run)

    p_fix = sub.add_parser("fixture", help="print a built-in scenario")
    p_fix.add_argument("name", choices=list(FIXTURE_NAMES))

    p_suite = sub.add_parser("suite", help="run property suites")
    p_suite.add_argument("name", nargs="+", choices=list(SUITE_NAMES) + ["all"])
    common(p_suite, repeat=True, depth_cap=False)

    p_pe = sub.add_parser("paper-examples", help="run a fixture group or one fixture")
    p_pe.add_argument("group", choices=sorted(FIXTURE_GROUPS) + list(FIXTURE_NAMES))
    common(p_pe, system=False)
    return parser


def _print_outcome(out: ScenarioOutcome) -> None:
    for r in out.results:
        mark = "ok  " if r.status == "ok" else "FAIL"
        tail = f"  [{r.detail}]" if r.detail else ""
        print(f"{mark}  line {r.line:>3}: {r.text}{tail}")
    bad = sum(1 for r in out.results if r.status == "fail")
    print(f"{len(out.results)} commands, {bad} failed")


def _json_file(path):
    # opened before the work, so an unwritable path (bad input, exit 2)
    # costs no run; append mode keeps an earlier file if the run fails
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "a", encoding="utf-8")
    except OSError as err:
        raise _json_error(path, err) from None


def _json_error(path, err: OSError) -> ValueError:
    return ValueError(f"cannot write --json {path}: {err.strerror or err}")


def _write_json(fh, text: str) -> None:
    try:
        fh.truncate(0)
        fh.write(text if text.endswith("\n") else text + "\n")
        fh.flush()
    except OSError as err:
        raise _json_error(fh.name, err) from None


def _cmd_run(args) -> int:
    with _json_file(args.json_path) as out:
        try:
            outcome = run_scenario(args.path, system=args.system, seed=args.seed,
                                   budget=args.budget, depth_cap=args.depth_cap)
        except OSError as err:
            print(f"error: {err}", file=_sys.stderr)
            return 2
        _print_outcome(outcome)
        if out is not None:
            _write_json(out, outcome.to_json())
        return outcome.exit_code


def _cmd_fixture(args) -> int:
    print(emit_fixture(args.name), end="")  # every fixture ends in a newline
    return 0


def _cmd_suite(args) -> int:
    names = [n for name in args.name for n in (SUITE_NAMES if name == "all" else [name])]
    # every literal is read before any suite runs, so a bad one costs no run
    try:
        systems = [parse_system(text) for text in args.system or [";2"]]
    except ValueError as err:
        raise ValueError(f"--system: {err}") from None
    reports = []
    with _json_file(args.json_path) as out:
        for seed in args.seed or [0]:
            for system in systems:
                for name in names:
                    rep = run_suite(name, system, seed, args.budget)
                    reports.append(rep)
                    status = "ok  " if rep.ok else "FAIL"
                    print(f"{status}  {rep.suite:<20} system={rep.system} seed={rep.seed} "
                          f"samples={rep.samples} violations={len(rep.violations)}")
                    for v in rep.violations:
                        print(f"      #{v.index}: {v.description}"
                              + (f"  [{v.witness}]" if v.witness else ""))
        bad = sum(1 for rep in reports if not rep.ok)
        print(f"{len(reports)} suites, {bad} failed")
        if out is not None:
            _write_json(out, json.dumps(
                {"exit": 1 if bad else 0,
                 "reports": [json.loads(rep.to_json()) for rep in reports]},
                sort_keys=True, indent=2))
    return 1 if bad else 0


def _cmd_paper_examples(args) -> int:
    names = fixture_group(args.group)
    merged = ScenarioOutcome()
    code = 0
    with _json_file(args.json_path) as out:
        for name in names:
            print(f"--- {name} ---")
            outcome = run_scenario_text(
                emit_fixture(name), seed=args.seed, budget=args.budget,
                depth_cap=args.depth_cap)
            _print_outcome(outcome)
            merged.results.extend(outcome.results)
            merged.reports.extend(outcome.reports)
            code = max(code, outcome.exit_code)
        if out is not None:
            _write_json(out, merged.to_json())
    return code


_COMMANDS = {
    "run": _cmd_run,
    "fixture": _cmd_fixture,
    "suite": _cmd_suite,
    "paper-examples": _cmd_paper_examples,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "depth_cap", None) is not None and args.depth_cap < 0:
            raise ValueError(f"--depth-cap must be at least 0, got {args.depth_cap}")
        code = _COMMANDS[args.command](args)
        _sys.stdout.flush()
        return code
    except (ScenarioError, ValueError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone (`| head`): send what is still buffered to
        # the null device, so the flush at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return 1
