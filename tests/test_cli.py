"""Scenario engine, boundary-function literals, fixtures, and the CLI."""

import hashlib
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys as _sys

import pytest

from refbound.boundary import bf_eq, format_bf, parse_bf, identity_bf, Mode
from refbound.boundary import InvalidBoundaryFunctionError
from refbound import scenario
from refbound.cli import main
from refbound.fixtures import (
    FIXTURE_GROUPS,
    FIXTURE_NAMES,
    emit_fixture,
    fixture_group,
)
from refbound.oracle import random_bf
from refbound.irreducibility import construct_family
from refbound.order import DigitRangeError, parse_point, parse_system
from refbound.scenario import ScenarioError, run_scenario, run_scenario_text

BIN = parse_system(";2")
ALT = parse_system(";2,3")


class TestBFLiterals:
    def test_identity_literal(self):
        assert format_bf(BIN, identity_bf(BIN)) == "[|1, |2] -> id"

    def test_module_prefix(self):
        text = format_bf(BIN, identity_bf(BIN, Mode.MODULE))
        assert text.startswith("module ")
        assert parse_bf(BIN, text).mode is Mode.MODULE

    @pytest.mark.parametrize("sys", [BIN, ALT], ids=[";2", ";2,3"])
    def test_round_trip_random(self, sys):
        rng = random.Random(41)
        for _ in range(40):
            f = random_bf(sys, rng)
            text = format_bf(sys, f)
            g = parse_bf(sys, text)
            assert bf_eq(sys, f, g)
            # printing is a fixpoint on parsed output
            assert format_bf(sys, g) == text

    @pytest.mark.parametrize("bad", [
        "", "garbage", "[|1, |2] -> wat", "[|1 |2] -> id",
        "[|1, |2] -> const()", "{|1, |2} -> id",
    ])
    def test_grammar_errors(self, bad):
        with pytest.raises(ValueError):
            parse_bf(BIN, bad)

    # point() is the only digit check, so parse_bf's points must pass it
    @pytest.mark.parametrize("bad", ["[|1, |3] -> id", "[|1, |2] -> const(|3)"])
    def test_out_of_range_digit_names_the_point_literal(self, bad):
        with pytest.raises(DigitRangeError,
                           match=r"^point literal '\|3': digit 3 at position 1 outside 1\.\.2$"):
            parse_bf(BIN, bad)

    def test_law_violation_raises(self):
        with pytest.raises(InvalidBoundaryFunctionError):
            parse_bf(BIN, "[|1, |2] -> const(|2)")


# malformed scenarios: each error's line, column and message
ERROR_CASES = [
    ("system ;2\nsystem ;3", 2, 8, "system is already set"),
    ("bogus stuff", 1, 1, "unknown command 'bogus'"),
    ("point a = |1", 1, 11, "no system declared yet (or pass --system)"),
    ("system ;2\neval f |1 expect |1", 2, 6, "unknown boundary function 'f'"),
    ("system ;2\nmember S |1 |1 expect yes", 2, 8, "unknown ideal expression 'S'"),
    ("system ;2\npoint a = zz", 2, 11,
     "point literal needs a '|' between preamble and period: 'zz'"),
    ("system ;2\nbf f = identity\neval f |1", 3, 10, "command needs an 'expect' clause"),
    ("system ;2\nbf f = identity\neval f |1 expect |1 junk", 3, 21,
     "trailing input after the expectation"),
    ("system ;2\nbf f = wat", 2, 8, "unknown function constructor 'wat'"),
    ("system ;2\nideal S = wat", 2, 11, "unknown ideal constructor 'wat'"),
    ("system ;2\nideal S = union", 2, 11, "union needs at least two parts"),
    ("system ;2\nsuite nope expect ok", 2, 7, "unknown suite 'nope'"),
    ("system ;2\nbf f = identity\nbf f = identity", 3, 4, "name 'f' is already bound"),
    ("system ;2\nbf f = identity\nequiv f f expect maybe", 3, 18, "expected 'yes' or 'no'"),
    ("paper-examples nowhere expect ok", 1, 16,
     "unknown group 'nowhere'; choose from section2, section3, all or a fixture: "
     "trivial, full, maximal-gap, maximal-nogap, strip-pair, prime-variant"),
    # surplus tokens, located at the first one
    ("system ;2 ;3", 1, 11, "unexpected ';3'"),
    ("system ;2\npoint a = |1 |2", 2, 14, "unexpected '|2'"),
    ("system ;2\nideal A = strip |1 |2 |12", 2, 23, "unexpected '|12'"),
    ("system ;2\nbf f = identity junk", 2, 17, "unexpected 'junk'"),
    ("system ;2\nbf f = identity\neval f |1 |2 expect |1", 3, 11, "unexpected '|2'"),
    ("system ;2\nbf f = identity\nminus f f expect f", 3, 9, "unexpected 'f'"),
    # a missing argument sits past the last token
    ("system ;2\nbf f = const", 2, 13, "expected a point"),
    ("system ;2\nbf f = identity\nboundary expect f", 3, 9, "expected an ideal name"),
    ("system ;2\nideal T = module", 2, 17, "expected an ideal name"),
    # a kind the classification never returns
    ("system ;2\nbf f = identity\nclassify meet f expect bogus", 3, 24,
     "expected identity_form, phi_ab, psi_paab or reducible"),
    ("system ;2\nbf f = identity\nclassify join f expect phi_ab", 3, 24,
     "expected minimal_form, phi_at or reducible"),
    # a library error inside a verb is located at the token that caused it
    ("system ;2\npoint a = |12\nideal S = strip a a\nideal M = module S\n"
     "bf f = identity\nbf g = boundary M\nlattice join f g expect f", 7, 9,
     "cannot combine functions across modes"),
]
# one statement after a prelude that binds a point a, an ideal S and a
# function f: for every statement, a missing argument (located just past
# the last token), an unknown name and a surplus token
_PRELUDE = "system ;2\npoint a = |12\nideal S = strip a a\nbf f = identity\n"
ERROR_CASES += [(_PRELUDE + statement, 5, col, message) for statement, col, message in [
    ("ideal A = empty junk", 17, "unexpected 'junk'"),
    ("ideal A = full junk", 16, "unexpected 'junk'"),
    ("ideal A = strip a", 18, "expected a point"),
    ("ideal A = strip a zz", 19, "unknown point 'zz'"),
    ("ideal A = strip a a junk", 21, "unexpected 'junk'"),
    ("ideal A = strip_plus a", 23, "expected a point"),
    ("ideal A = strip_plus zz a", 22, "unknown point 'zz'"),
    ("ideal A = strip_plus a a junk", 26, "unexpected 'junk'"),
    ("ideal A = corner a", 19, "expected a point"),
    ("ideal A = corner a zz", 20, "unknown point 'zz'"),
    ("ideal A = corner a a junk", 22, "unexpected 'junk'"),
    ("ideal A = module", 17, "expected an ideal name"),
    ("ideal A = module zz", 18, "unknown ideal expression 'zz'"),
    ("ideal A = module S S", 20, "unexpected 'S'"),
    ("ideal A = open", 15, "expected a boundary function name"),
    ("ideal A = open zz", 16, "unknown boundary function 'zz'"),
    ("ideal A = open f f", 18, "unexpected 'f'"),
    ("ideal A = hull", 15, "expected a boundary function name"),
    ("ideal A = hull zz", 16, "unknown boundary function 'zz'"),
    ("ideal A = hull f f", 18, "unexpected 'f'"),
    ("ideal A = union S", 11, "union needs at least two parts"),
    ("ideal A = union S zz", 19, "unknown ideal expression 'zz'"),
    ("ideal A = intersection S", 11, "intersection needs at least two parts"),
    ("ideal A = intersection zz S", 24, "unknown ideal expression 'zz'"),
    ("ideal A = finite", 17, "expected a level"),
    ("ideal A = finite x", 18, "level must be a number"),
    ("ideal A = finite \u00b2 (1,2)", 18, "level must be a number"),
    ("ideal A = finite 1 (3,1)", 20, "digit 3 at position 1 outside 1..2"),
    ("ideal A = finite 1 (1.,2)", 20, "digit string '1.': '' is not a number"),
    ("ideal A = finite 2 (12,21) junk", 28, "expected a word pair, got 'junk'"),
    ("bf g = identity junk", 17, "unexpected 'junk'"),
    ("bf g = const", 13, "expected a point"),
    ("bf g = const zz", 14, "unknown point 'zz'"),
    ("bf g = const a a", 16, "unexpected 'a'"),
    ("bf g = boundary", 16, "expected an ideal name"),
    ("bf g = boundary zz", 17, "unknown ideal expression 'zz'"),
    ("bf g = boundary S S", 19, "unexpected 'S'"),
    ("bf g = minus", 13, "expected a function name"),
    ("bf g = minus zz", 14, "unknown boundary function 'zz'"),
    ("bf g = minus f f", 16, "unexpected 'f'"),
    ("bf g = plus", 12, "expected a function name"),
    ("bf g = plus zz", 13, "unknown boundary function 'zz'"),
    ("bf g = plus f f", 15, "unexpected 'f'"),
    ("bf g = join f", 14, "expected a function name"),
    ("bf g = join f zz", 15, "unknown boundary function 'zz'"),
    ("bf g = join f f f", 17, "unexpected 'f'"),
    ("bf g = meet f", 14, "expected a function name"),
    ("bf g = meet zz f", 13, "unknown boundary function 'zz'"),
    ("bf g = meet f f f", 17, "unexpected 'f'"),
    ("bf g = family phi_ab a", 23, "expected a point"),
    ("bf g = family nope a a", 15, "unknown family 'nope'"),
    ("bf g = family phi_ab a zz", 24, "unknown point 'zz'"),
    ("bf g = family phi_ab a a a", 26, "unexpected 'a'"),
    ("eval f expect a", 7, "expected a point"),
    ("eval f zz expect a", 8, "unknown point 'zz'"),
    ("eval f a a expect a", 10, "unexpected 'a'"),
    ("eval f a expect zz", 17, "unknown point 'zz'"),
    ("member S a expect yes", 11, "expected a point"),
    ("member zz a a expect yes", 8, "unknown ideal expression 'zz'"),
    ("member S a a a expect yes", 14, "unexpected 'a'"),
    ("member S a a expect maybe", 21, "expected 'yes' or 'no'"),
    ("member S a a expect unknown", 21, "expected 'yes' or 'no'"),
    ("boundary expect f", 9, "expected an ideal name"),
    ("boundary zz expect f", 10, "unknown ideal expression 'zz'"),
    ("boundary S S expect f", 12, "unexpected 'S'"),
    ("boundary S expect zz", 19, "unknown boundary function 'zz'"),
    ("minus expect f", 6, "expected a function name"),
    ("minus zz expect f", 7, "unknown boundary function 'zz'"),
    ("minus f f expect f", 9, "unexpected 'f'"),
    ("plus expect f", 5, "expected a function name"),
    ("plus zz expect f", 6, "unknown boundary function 'zz'"),
    ("plus f f expect f", 8, "unexpected 'f'"),
    ("lattice join f expect f", 15, "expected a function name"),
    ("lattice join f zz expect f", 16, "unknown boundary function 'zz'"),
    ("lattice join f f f expect f", 18, "unexpected 'f'"),
    ("lattice both f f expect f", 9, "expected 'join' or 'meet'"),
    ("lattice expect f", 8, "expected 'join' or 'meet'"),
    ("equiv f expect yes", 8, "expected a function name"),
    ("equiv f zz expect yes", 9, "unknown boundary function 'zz'"),
    ("equiv f f f expect yes", 11, "unexpected 'f'"),
    ("sandwich S expect yes", 11, "expected a function name"),
    ("sandwich zz f expect yes", 10, "unknown ideal expression 'zz'"),
    ("sandwich S f f expect yes", 14, "unexpected 'f'"),
    ("sandwich S f expect maybe", 21, "expected 'yes' or 'no'"),
    ("sandwich S f expect unknown", 21, "expected 'yes' or 'no'"),
    ("suite expect ok", 6, "expected a suite name"),
    ("suite nope expect ok", 7, "unknown suite 'nope'"),
    ("suite prop1 prop1 expect ok", 13, "unexpected 'prop1'"),
    ("suite prop1 expect yes", 20, "suites can only expect 'ok'"),
    ("paper-examples expect ok", 15, "expected a fixture group"),
    ("paper-examples nowhere expect ok", 16,
     "unknown group 'nowhere'; choose from section2, section3, all or a fixture: "
     "trivial, full, maximal-gap, maximal-nogap, strip-pair, prime-variant"),
    ("paper-examples all all expect ok", 20, "unexpected 'all'"),
    ("paper-examples all expect yes", 27, "fixture groups can only expect 'ok'"),
    ("classify meet expect phi_ab", 14, "expected a name"),
    ("classify meet zz expect phi_ab", 15, "unknown boundary function 'zz'"),
    ("classify meet-set zz expect none", 19, "unknown ideal expression 'zz'"),
    ("classify meet f f expect phi_ab", 17, "unexpected 'f'"),
    ("classify both f expect phi_ab", 10, "expected meet, join, meet-set or join-set"),
    ("classify meet-set S expect maybe", 28, "expected irreducible, reducible or none"),
    # two faults on one line: the first one checked is reported
    ("member zz a a expect maybe", 8, "unknown ideal expression 'zz'"),
    ("equiv zz f expect maybe", 7, "unknown boundary function 'zz'"),
    ("eval zz a expect zz", 6, "unknown boundary function 'zz'"),
    ("suite nope expect yes", 7, "unknown suite 'nope'"),
    ("paper-examples nowhere expect yes", 31, "fixture groups can only expect 'ok'"),
    ("bf g = family nope a zz", 22, "unknown point 'zz'"),
    ("lattice both zz f expect f", 9, "expected 'join' or 'meet'"),
    ("classify meet zz expect bogus", 25,
     "expected identity_form, phi_ab, psi_paab or reducible"),
    ("classify meet-set zz expect maybe", 19, "unknown ideal expression 'zz'"),
]]


class TestScenarioGrammar:
    def test_comments_and_blanks_skipped(self):
        out = run_scenario_text("# nothing\n\nsystem ;2\n  # indented\n")
        assert out.exit_code == 0
        assert out.results == []

    def test_declarations_recorded(self):
        out = run_scenario_text(
            "system ;2\npoint a = 2|1\nideal S = strip a a\n"
            "bf phi = boundary S\n")
        assert [r.status for r in out.results] == ["ok", "ok"]
        assert "strip" in out.results[0].detail
        assert "const" in out.results[1].detail

    def test_family_phi_at(self):
        out = run_scenario_text(
            "system ;2\npoint a = |21\nbf g = family phi_at a 21|2\n"
            "classify join g expect phi_at\n")
        assert out.exit_code == 0
        want = construct_family(BIN, "phi_at", a=parse_point(BIN, "|21"),
                                t=parse_point(BIN, "21|2"))
        assert out.results[0].detail == format_bf(BIN, want)

    def test_inline_point_literals(self):
        out = run_scenario_text(
            "system ;2\nbf f = identity\neval f 2|1 expect 2|1\n")
        assert out.exit_code == 0

    # each case is named by its text, line and column
    @pytest.mark.parametrize("text,line,col,message", ERROR_CASES,
                             ids=[f"{t}-{l}-{c}" for t, l, c, _ in ERROR_CASES])
    def test_errors_carry_position(self, text, line, col, message):
        with pytest.raises(ScenarioError) as err:
            run_scenario_text(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, col, message)

    def test_every_keyword_is_documented(self):
        # each table keyword appears in the module grammar and in README's list
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        listed = readme.split("### Scenario files", 1)[1].split("```", 2)[2]
        verbs, rest = listed.split("Verbs:", 1)[1].split("Ideal constructors:")
        ideals, bfs = rest.split("Function constructors:")
        grammar = scenario.__doc__.split("Grammar", 1)[1]
        ideal_rule, rest = grammar.split("ideal NAME =", 1)[1].split("bf NAME =")
        bf_rule, verb_rules = rest.split("\n    eval", 1)
        verb_heads = " ".join(re.findall(r"^    ([\w-]+)", "    eval" + verb_rules, re.M))
        for table, spots in ((scenario._IDEALS, (ideals, ideal_rule)),
                             (scenario._BFS, (bfs, bf_rule)),
                             (scenario._VERBS, (verbs, verb_heads)),
                             (scenario._CLASSIFY, (verbs, verb_rules))):
            for word, spot in itertools.product(table, spots):
                assert re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", spot), word

    def test_missing_system_points_at_command(self):
        with pytest.raises(ScenarioError) as err:
            run_scenario_text("bf f = identity")
        assert err.value.line == 1

    def test_failed_expectation_continues(self):
        out = run_scenario_text(
            "system ;2\nbf f = identity\n"
            "eval f |1 expect |2\neval f |2 expect |2\n")
        assert out.exit_code == 1
        assert [r.status for r in out.results] == ["ok", "fail", "ok"]
        assert out.results[1].detail == "|1"

    def test_every_verb_runs(self):
        out = run_scenario_text("""
            system ;2
            point a = |12
            point b = 2|21
            ideal S = strip a b
            ideal T = strip_plus a b
            ideal U = union S T
            ideal I = intersection S T
            ideal M = module S
            ideal F = finite 2 (12,21)
            bf phi = boundary S
            bf psi = family phi_ab a b
            ideal O = open phi
            ideal H = hull phi
            bf low = const |1
            bf idf = identity
            bf m = minus phi
            bf p = plus m
            bf j = join phi low
            bf k = meet phi idf
            eval phi b expect a
            member S a b expect no
            member U a b expect yes
            boundary T expect phi
            minus phi expect m
            plus m expect p
            lattice join phi low expect phi
            lattice meet phi idf expect phi
            classify meet phi expect phi_ab
            classify join low expect minimal_form
            classify meet-set S expect irreducible
            classify join-set S expect none
            equiv phi m expect yes
            equiv phi low expect no
            sandwich S phi expect yes
            suite lemma10 expect ok
            paper-examples section2 expect ok
        """)
        assert out.exit_code == 0
        assert all(r.status == "ok" for r in out.results)
        # one suite ran directly and two fixtures ran suites of their own
        assert len(out.reports) >= 1

    def test_suite_verb_collects_report(self):
        out = run_scenario_text("system ;2,3\nsuite cocycle expect ok\n")
        assert out.exit_code == 0
        assert len(out.reports) == 1
        assert out.reports[0].system == ";2,3"

    def test_system_flag_fills_in(self):
        out = run_scenario_text("bf f = identity\neval f |1 expect |1\n",
                                system=";2")
        assert out.exit_code == 0

    def test_declared_system_beats_nothing(self):
        with pytest.raises(ScenarioError):
            run_scenario_text("system ;2\nsystem ;2")

    def test_json_shape(self):
        out = run_scenario_text("system ;2\nsuite prop1 expect ok\n")
        data = json.loads(out.to_json())
        assert data["exit"] == 0
        assert data["commands"][0]["status"] == "ok"
        assert data["suites"][0]["suite"] == "prop1"
        assert "elapsed" not in data["suites"][0]

    def test_run_scenario_reads_file(self, tmp_path):
        path = tmp_path / "a.scn"
        path.write_text("system ;2\nbf f = identity\neval f |2 expect |2\n")
        assert run_scenario(path).exit_code == 0


class TestFixtures:
    def test_names_fixed(self):
        assert FIXTURE_NAMES == ("trivial", "full", "maximal-gap",
                                 "maximal-nogap", "strip-pair",
                                 "prime-variant")

    def test_groups(self):
        assert fixture_group("section2") == ("trivial", "full")
        assert len(fixture_group("section3")) == 4
        assert fixture_group("all") == FIXTURE_NAMES
        for name in FIXTURE_NAMES:  # a fixture name is a group of one
            assert fixture_group(name) == (name,)
        with pytest.raises(ValueError):
            fixture_group("nowhere")

    def test_unknown_fixture(self):
        with pytest.raises(ValueError):
            emit_fixture("nope")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_text_passes(self, name):
        out = run_scenario_text(emit_fixture(name))
        assert out.exit_code == 0
        assert all(r.status == "ok" for r in out.results)

    def test_fixtures_declare_own_system(self):
        for name in FIXTURE_NAMES:
            assert "system ;2" in emit_fixture(name)


class TestCLI:
    def test_run_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.scn"
        path.write_text("system ;2\nbf f = identity\neval f |2 expect |2\n")
        assert main(["run", str(path)]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_run_assert_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text("system ;2\nbf f = identity\neval f |1 expect |2\n")
        assert main(["run", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_input_error(self, tmp_path, capsys):
        path = tmp_path / "err.scn"
        path.write_text("system ;2\nbf f = wat\n")
        assert main(["run", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text,where", [
        ("system ;2\nbf f = identity\nminus expect f\n", "line 3, column 6"),
        ("system ;2\nideal T = hull\n", "line 2, column 15"),
    ])
    def test_run_missing_argument(self, tmp_path, capsys, text, where):
        path = tmp_path / "err.scn"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert where in capsys.readouterr().err

    def test_run_missing_file(self, capsys):
        assert main(["run", "/definitely/not/here.scn"]) == 2
        assert "error" in capsys.readouterr().err

    def test_fixture_prints_text(self, capsys):
        for name in FIXTURE_NAMES:
            assert main(["fixture", name]) == 0
            printed = capsys.readouterr().out
            assert printed == emit_fixture(name)
            # printed text re-runs clean
            assert run_scenario_text(printed).exit_code == 0

    # fixture only prints, so argparse refuses every shared flag before
    # any output; paper-examples takes them
    @pytest.mark.parametrize("flag, value", [
        ("--seed", "0"), ("--budget", "1"), ("--json", "PATH"),
        ("--run", None),
    ])
    def test_fixture_print_refuses_run_flags(self, tmp_path, capsys, flag, value):
        path = tmp_path / "fx.json"
        value = str(path) if value == "PATH" else value
        args = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as refusal:
            main(["fixture", "trivial"] + args)
        assert refusal.value.code == 2
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(args)}" in err
        assert out == "" and not path.exists()
        if value is not None:
            assert main(["paper-examples", "trivial", flag, value]) == 0
            assert "0 failed" in capsys.readouterr().out
            assert path.exists() == (flag == "--json")

    # one fixture runs as a group of one: its JSON is its own scenario outcome
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_run_exits_zero(self, name, tmp_path, capsys):
        path = tmp_path / "fx.json"
        assert main(["paper-examples", name, "--json", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"--- {name} ---\n")
        want = run_scenario_text(emit_fixture(name)).to_json()
        assert path.read_text() == want + "\n"

    def test_unknown_fixture_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fixture", "nope"])
        assert err.value.code == 2

    def test_suite_single(self, capsys):
        assert main(["suite", "lemma8", "--system", ";2,3"]) == 0
        out = capsys.readouterr().out
        assert "lemma8" in out and "0 failed" in out

    def test_suite_all_with_json(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert main(["suite", "all", "--seed", "7", "--json", str(p1)]) == 0
        assert main(["suite", "all", "--seed", "7", "--json", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        assert data["exit"] == 0
        assert len(data["reports"]) == 16

    def test_suite_repeated_system_reports_in_order(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        argv = ["suite", "lemma10", "--system", ";2,3", "--system", ";2",
                "--json", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert [r["system"] for r in data["reports"]] == [";2,3", ";2"]

    def test_suite_repeated_seed_equals_per_seed_runs(self, tmp_path, capsys):
        argv = ["suite", "lemma10", "lemma8", "--system", ";2,3", "--system", ";2",
                "--budget", "2"]
        joint = tmp_path / "joint.json"
        assert main(argv + ["--seed", "3", "--seed", "1", "--json", str(joint)]) == 0
        joint_lines = capsys.readouterr().out.splitlines()
        reports, lines = [], []
        for seed in ("3", "1"):
            path = tmp_path / f"{seed}.json"
            assert main(argv + ["--seed", seed, "--json", str(path)]) == 0
            lines += capsys.readouterr().out.splitlines()[:-1]
            reports += json.loads(path.read_text())["reports"]
        # by seed, then system, then suite, each in the order given
        assert [(r["seed"], r["system"], r["suite"]) for r in reports] == [
            (seed, system, suite) for seed in (3, 1) for system in (";2,3", ";2")
            for suite in ("lemma10", "lemma8")]
        assert json.loads(joint.read_text()) == {"exit": 0, "reports": reports}
        assert joint_lines == lines + ["8 suites, 0 failed"]

    @pytest.mark.parametrize("argv,message", [
        (["suite", "lemma8", "--system", ";2", "--system", ";2,x"],
         "--system: system literal ';2,x': 'x' is not a number"),
        (["run", "SCENARIO"], "line 2, column 11: point literal '|x': 'x' is not a number"),
        (["suite", "prop1", "--system", ";2", "--system", ";1"],
         "--system: system literal ';1': all multiplicities must be >= 2"),
        (["run", "DIGIT"],
         "line 2, column 11: point literal '|3': digit 3 at position 1 outside 1..2"),
    ], ids=["suite", "run", "suite-value", "run-digit"])
    def test_bad_literal_is_named(self, tmp_path, capsys, argv, message):
        scenario = tmp_path / "bad.scn"
        scenario.write_text("system ;2\npoint a = |x\n")
        digit = tmp_path / "digit.scn"
        digit.write_text("system ;2\npoint a = |3\n")
        files = {"SCENARIO": scenario, "DIGIT": digit}
        argv = [str(files[a]) if a in files else a for a in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        # every literal is read before any work: no suite ran
        assert out == ""

    # every fixture declares its system, so only run and suite take --system
    @pytest.mark.parametrize("argv", [
        ["fixture", "trivial", "--system", "3,y;2"],
        ["paper-examples", "all", "--system", ";2"],
    ], ids=lambda argv: argv[0])
    def test_system_flag_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as refusal:
            main(argv)
        assert refusal.value.code == 2
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: --system {argv[-1]}" in err
        assert out == ""

    # every membership verdict is exact, so no command takes a depth cap
    @pytest.mark.parametrize("argv", [
        ["run", "SCENARIO"], ["suite", "prop1"], ["paper-examples", "trivial"],
    ], ids=lambda argv: argv[0])
    def test_depth_cap_is_refused(self, tmp_path, capsys, argv):
        scenario = tmp_path / "ok.scn"
        scenario.write_text("system ;2\nbf f = identity\neval f |2 expect |2\n")
        path = tmp_path / "out.json"
        argv = [str(scenario) if a == "SCENARIO" else a for a in argv]
        with pytest.raises(SystemExit) as refusal:
            main(argv + ["--depth-cap", "3", "--json", str(path)])
        assert refusal.value.code == 2
        out, err = capsys.readouterr()
        assert "unrecognized arguments: --depth-cap 3" in err
        assert out == "" and not path.exists()

    def test_paper_examples_groups(self, capsys):
        for group in sorted(FIXTURE_GROUPS):
            assert main(["paper-examples", group]) == 0
        assert "prime-variant" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "SCENARIO"],
        ["paper-examples", "trivial"],
        ["paper-examples", "section3"],
        ["suite", "lemma8"],
    ], ids=["run", "fixture", "paper-examples", "suite"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_json_path(self, tmp_path, capsys, argv, where):
        scenario = tmp_path / "ok.scn"
        scenario.write_text("system ;2\nbf f = identity\neval f |2 expect |2\n")
        target = tmp_path / "no" / "such" / "x.json" if where == "missing-dir" else tmp_path
        argv = [str(scenario) if a == "SCENARIO" else a for a in argv]
        assert main(argv + ["--json", str(target)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: cannot write --json {target}: ")
        assert "Traceback" not in err
        # the path is checked before any work: no suite or command ran
        assert out == ""

    def test_failed_run_keeps_an_earlier_json_file(self, tmp_path, capsys):
        scenario = tmp_path / "bad.scn"
        scenario.write_text("system ;2\nbf f = nonsense\n")
        path = tmp_path / "out.json"
        path.write_text('{"exit": 0}\n')
        assert main(["run", str(scenario), "--json", str(path)]) == 2
        capsys.readouterr()
        assert path.read_text() == '{"exit": 0}\n'
        scenario.write_text("system ;2\nbf f = identity\neval f |2 expect |2\n")
        assert main(["run", str(scenario), "--json", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())  # replaced, not appended to
        assert data["exit"] == 0 and len(data["commands"]) == 2

    # a run that exits 2 leaves the --json path as it found it: absent if
    # it was absent, byte for byte if it was there
    @pytest.mark.parametrize("earlier", [None, b"{\"exit\": 0}\n", b""],
                             ids=["absent", "earlier", "empty"])
    @pytest.mark.parametrize("scenario", ["digit", "missing"])
    def test_failed_run_leaves_the_json_path_as_found(self, tmp_path, capsys,
                                                      earlier, scenario):
        source = tmp_path / "bad.scn"
        if scenario == "digit":
            source.write_text("system ;2\npoint a = |3\n")
        path = tmp_path / "new.json"
        if earlier is not None:
            path.write_bytes(earlier)
        assert main(["run", str(source), "--json", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        if earlier is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == earlier

    def test_paper_examples_json(self, tmp_path, capsys):
        path = tmp_path / "pe.json"
        assert main(["paper-examples", "all", "--json", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert data["exit"] == 0
        assert len(data["commands"]) > 20
        # every worked example, byte for byte; a deliberate answer change
        # re-pins the digest and says why in CHANGES.md
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "2af5d1252ffeb68f8584d5146c2d34f9222ba2ac5cfe9a2061ac61fd3783d209"

    def test_closed_stdout_ends_quietly(self):
        # a reader that is gone before the first write, as after `| head -n 1`
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = pathlib.Path(scenario.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        try:
            done = subprocess.run([_sys.executable, "-m", "refbound", "suite", "lemma8"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""
