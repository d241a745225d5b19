"""Finite brute-force oracle, samplers, and the invariant suites."""

import random

import pytest

from refbound import boundary, idealsets
from refbound.boundary import Mode, bf_eq, identity_bf, parse_bf, validate_bf
from refbound.idealsets import (
    FiniteLevel,
    OfBFClosed,
    OfBFOpen,
    close_finite_level,
    validate_ideal_expr,
)
from refbound.order import (
    _canonical_point,
    RefinementError,
    format_point,
    orbit_test,
    p_max,
    p_min,
    parse_point,
    parse_system,
)
from refbound.oracle import (
    _Recorder,
    SUITE_NAMES,
    SuiteReport,
    SuiteViolation,
    brute_boundary,
    build_finite_model,
    describe_expr,
    enumerate_closed_sets,
    random_bf,
    random_ideal_expr,
    random_module_expr,
    random_units,
    run_suite,
    sample_points,
)

BIN = parse_system(";2")
ALT = parse_system(";2,3")


def pt(sys, text):
    return parse_point(sys, text)


class TestFiniteModel:
    def test_binary_level_one(self):
        m = build_finite_model(BIN, 1)
        assert m.words == ((1,), (2,))
        assert m.pairs == (((1,), (1,)), ((1,), (2,)), ((2,), (2,)))

    def test_binary_level_two_counts(self):
        m = build_finite_model(BIN, 2)
        assert len(m.words) == 4
        assert len(m.pairs) == 10
        assert m.words[0] == (1, 1) and m.words[-1] == (2, 2)

    def test_alternating_level_two_counts(self):
        m = build_finite_model(ALT, 2)
        assert len(m.words) == 6
        assert len(m.pairs) == 21

    def test_words_are_lexicographic(self):
        m = build_finite_model(ALT, 2)
        assert list(m.words) == sorted(m.words)

    def test_cap(self):
        wide = parse_system(";23")
        with pytest.raises(RefinementError, match="over the cap"):
            build_finite_model(wide, 2, cap=100)

    def test_level_must_be_positive(self):
        with pytest.raises(RefinementError):
            build_finite_model(BIN, 0)


class TestBruteBoundary:
    def test_generated_column(self):
        m = build_finite_model(BIN, 2)
        units = close_finite_level(BIN, 2, [((1, 2), (2, 1))])
        assert brute_boundary(m, units, (2, 1)) == (1, 2)
        assert brute_boundary(m, units, (2, 2)) == (1, 2)
        assert brute_boundary(m, units, (1, 2)) is None

    def test_empty_set(self):
        m = build_finite_model(BIN, 2)
        units = close_finite_level(BIN, 2, [])
        for v in m.words:
            assert brute_boundary(m, units, v) is None

    def test_full_set_is_diagonal(self):
        m = build_finite_model(BIN, 1)
        units = close_finite_level(BIN, 1, [((1,), (1,)), ((2,), (2,))])
        assert brute_boundary(m, units, (1,)) == (1,)
        assert brute_boundary(m, units, (2,)) == (2,)

    def test_level_mismatch(self):
        m = build_finite_model(BIN, 2)
        units = close_finite_level(BIN, 1, [])
        with pytest.raises(RefinementError, match="level"):
            brute_boundary(m, units, (1, 1))

    def test_unknown_word(self):
        m = build_finite_model(BIN, 1)
        units = close_finite_level(BIN, 1, [])
        with pytest.raises(RefinementError, match="not at level"):
            brute_boundary(m, units, (1, 1))


class TestClosedSetEnumeration:
    def test_binary_level_one_has_five(self):
        m = build_finite_model(BIN, 1)
        sets = enumerate_closed_sets(BIN, m)
        assert len(sets) == 5
        memberships = {tuple(sorted(s.pairs)) for s in sets}
        assert () in memberships
        assert (((1,), (2,)),) in memberships  # the off-diagonal singleton

    def test_every_enumerated_set_is_closed(self):
        m = build_finite_model(BIN, 2)
        for s in enumerate_closed_sets(BIN, m):
            rebuilt = close_finite_level(BIN, 2, sorted(s.pairs))
            assert rebuilt.pairs == s.pairs

    def test_enumeration_matches_filtering(self):
        # independent recount: filter all subsets by the closure property
        m = build_finite_model(BIN, 1)
        cand = list(m.pairs)
        closed = 0
        for mask in range(1 << len(cand)):
            chosen = {p for i, p in enumerate(cand) if mask >> i & 1}
            ok = all((up, vp) in chosen
                     for (u, v) in chosen
                     for up in m.words if up <= u
                     for vp in m.words if vp >= v)
            closed += ok
        assert closed == len(enumerate_closed_sets(BIN, m))

    def test_too_many_pairs(self):
        m = build_finite_model(ALT, 2)
        with pytest.raises(RefinementError, match="too many"):
            enumerate_closed_sets(ALT, m)


class TestSamplers:
    def test_batch_opens_with_endpoints_and_gap_pair(self):
        pts = sample_points(BIN, 0, 10)
        assert pts[0] == p_min(BIN)
        assert pts[1] == p_max(BIN)
        assert pts[2] == pt(BIN, "1|2")
        assert pts[3] == pt(BIN, "2|1")
        assert len(pts) == 10

    def test_batch_is_deterministic(self):
        a = sample_points(ALT, 9, 14)
        b = sample_points(ALT, 9, 14)
        assert a == b
        assert sample_points(ALT, 10, 14) != a

    def test_batch_holds_an_orbit_pair(self):
        pts = sample_points(BIN, 3, 16)
        extras = pts[4:]
        assert any(orbit_test(x, y)
                   for i, x in enumerate(extras) for y in extras[i + 1:])

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_points(BIN, 0, 0)

    @pytest.mark.parametrize("sys", [BIN, ALT], ids=[";2", ";2,3"])
    def test_random_functions_are_valid(self, sys):
        rng = random.Random("bf")
        for _ in range(25):
            assert validate_bf(sys, random_bf(sys, rng)) == []

    @pytest.mark.parametrize("sys", [BIN, ALT], ids=[";2", ";2,3"])
    def test_random_expressions_are_well_formed(self, sys):
        rng = random.Random("expr")
        for _ in range(25):
            assert validate_ideal_expr(sys, random_ideal_expr(sys, rng)) == []

    def test_random_module_expressions_are_well_formed(self):
        rng = random.Random("mod")
        for _ in range(25):
            expr = random_module_expr(BIN, rng)
            assert validate_ideal_expr(BIN, expr) == []

    def test_random_units_are_closed(self):
        m = build_finite_model(BIN, 2)
        rng = random.Random("units")
        for _ in range(10):
            units = random_units(BIN, m, rng)
            rebuilt = close_finite_level(BIN, 2, sorted(units.pairs))
            assert rebuilt.pairs == units.pairs


class TestDescriptions:
    def test_identity(self):
        f = identity_bf(BIN)
        text = describe_expr(BIN, OfBFClosed(f))
        assert text == "hull[[|1, |2] -> id]"
        assert bf_eq(BIN, parse_bf(BIN, text[len("hull["):-1]), f)

    def test_module_flag(self):
        f = identity_bf(BIN, Mode.MODULE)
        text = describe_expr(BIN, OfBFOpen(f))
        assert text.startswith("open[module ")
        assert bf_eq(BIN, parse_bf(BIN, text[len("open["):-1]), f)

    def test_expression_text_round_trips_points(self):
        from refbound.idealsets import Strip
        a, b = pt(BIN, "1|2"), pt(BIN, "2|1")
        assert describe_expr(BIN, Strip(a, b)) == "strip(1|2, 2|1)"

    def test_finite_level_text(self):
        units = close_finite_level(BIN, 1, [((1,), (2,))])
        assert describe_expr(BIN, FiniteLevel(units)) == "finite L1{(1,2)}"


class TestReports:
    def test_json_excludes_elapsed(self):
        a = SuiteReport("prop1", ";2", 0, 1, 3, (), 1.5)
        b = SuiteReport("prop1", ";2", 0, 1, 3, (), 99.0)
        assert a.to_json() == b.to_json()
        assert "elapsed" not in a.to_json()

    def test_ok_flag(self):
        v = SuiteViolation(0, "bad", "x=|1")
        assert SuiteReport("s", ";2", 0, 1, 1, ()).ok
        assert not SuiteReport("s", ";2", 0, 1, 1, (v,)).ok


class TestRunSuite:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope", BIN)

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            run_suite("prop1", BIN, budget=0)

    def test_accepts_literal(self):
        rep = run_suite("lemma10", ";2")
        assert rep.system == ";2"

    def test_same_seed_same_bytes(self):
        a = run_suite("cocycle", BIN, seed=11)
        b = run_suite("cocycle", BIN, seed=11)
        assert a.to_json() == b.to_json()

    def test_reports_do_not_depend_on_earlier_runs(self):
        # points are interned and write-path answers memoized process-wide:
        # cold tables and ones warmed by other suites give the same bytes,
        # witnesses of failed checks included
        runs = [("prop9", BIN, 1, 3), ("def-biconditions", ALT, 0, 1),
                ("oracle-equivalence", parse_system("3;2"), 0, 1)]
        tables = (_canonical_point, boundary._checked_bf, boundary.bf_minus,
                  boundary.bf_plus, boundary._lattice, idealsets._boundary,
                  boundary._search_data)
        cold = []
        for args in runs:
            for table in tables:
                table.cache_clear()
            cold.append(run_suite(*args).to_json())
        warm = [run_suite(*args).to_json() for _ in range(2) for args in runs]
        assert warm == cold * 2

    def test_witness_is_formatted_only_on_failure(self):
        calls = []

        def witness():
            calls.append(1)
            return "x=|1"

        rec = _Recorder()
        assert rec.check(True, "holds", witness) and not calls
        assert not rec.check(False, "fails", witness) and len(calls) == 1
        assert not rec.check(0, "fails too", "plain text")
        assert [(v.index, v.witness) for v in rec.violations] == [(1, "x=|1"), (2, "plain text")]

    @pytest.mark.parametrize("name", SUITE_NAMES)
    @pytest.mark.parametrize("sys", [BIN, ALT], ids=[";2", ";2,3"])
    def test_suite_green(self, name, sys):
        rep = run_suite(name, sys, seed=0, budget=1)
        assert rep.samples > 0
        assert rep.ok, [f"{v.description} [{v.witness}]" for v in rep.violations]

    def test_prefixed_system_spot_check(self):
        sysp = parse_system("2;3,2")
        for name in ("def-biconditions", "oracle-equivalence", "cocycle"):
            rep = run_suite(name, sysp, seed=0)
            assert rep.ok and rep.samples > 0
