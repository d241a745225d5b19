"""Ideal-set expressions: membership, boundaries, restriction, sandwich."""

import random
import re
from functools import reduce

import pytest

from refbound.boundary import (
    ID,
    Const,
    Mode,
    PiecewiseBF,
    bf_eq,
    bf_join,
    bf_meet,
    bf_minus,
    const_bf,
    eval_bf,
    format_bf,
    identity_bf,
    normalize_bf,
)
from refbound.order import (
    OrderInterval,
    Point,
    RefinementError,
    format_point,
    full_interval,
    has_gap_below,
    interval,
    interval_contains,
    le,
    level_words,
    lt,
    orbit_test,
    p_max,
    p_min,
    p_test,
    parse_point,
    parse_system,
    prepend,
)
from refbound.idealsets import (
    Corner,
    Empty,
    FiniteLevel,
    Full,
    Intersection,
    MatrixUnitSet,
    OfBFClosed,
    OfBFOpen,
    Strip,
    StripPlus,
    Union,
    boundary_of,
    close_finite_level,
    combine,
    in_B_phi,
    in_L_phi,
    intersection,
    member,
    module,
    restrict_to_level,
    sandwich_check,
    tailset_intersect,
    tailset_is_all,
    tailset_remove_point,
    tailset_union,
    union,
    validate_ideal_expr,
    violation_tailset,
)
from refbound.oracle import random_ideal_expr, random_module_expr

BIN = parse_system(";2")


def pt(text: str) -> Point:
    return parse_point(BIN, text)


def in_tailset(ts, w: Point) -> bool:
    return any(interval_contains(iv, w) for iv in ts)


def shapes(bf):
    return [(format_point(BIN, iv.lo), format_point(BIN, iv.hi), leaf)
            for iv, leaf in bf.pieces]


class TestFiniteLevels:
    def test_closure_of_single_pair(self):
        got = close_finite_level(BIN, 2, [((1, 2), (2, 1))])
        assert sorted(got.pairs) == [
            ((1, 1), (2, 1)), ((1, 1), (2, 2)),
            ((1, 2), (2, 1)), ((1, 2), (2, 2)),
        ]

    def test_closure_of_diagonal_pair(self):
        got = close_finite_level(BIN, 2, [((1, 1), (1, 1))])
        assert sorted(got.pairs) == [
            ((1, 1), (1, 1)), ((1, 1), (1, 2)),
            ((1, 1), (2, 1)), ((1, 1), (2, 2)),
        ]

    def test_reversed_pair_rejected_for_ideals(self):
        with pytest.raises(RefinementError):
            close_finite_level(BIN, 2, [((2, 1), (1, 2))])

    def test_module_mode_allows_reversed_pairs(self):
        got = close_finite_level(BIN, 1, [((2,), (1,))], Mode.MODULE)
        # shrinking u and growing v from (2,1) sweeps out everything
        assert len(got.pairs) == 4

    def test_malformed_word_rejected(self):
        with pytest.raises(RefinementError):
            close_finite_level(BIN, 2, [((1, 3), (2, 2))])
        with pytest.raises(RefinementError):
            close_finite_level(BIN, 2, [((1,), (2, 2))])

    def test_unclosed_set_flagged(self):
        bad = FiniteLevel(MatrixUnitSet(2, frozenset({((1, 2), (2, 1))})))
        codes = [v.code for v in validate_ideal_expr(BIN, bad)]
        assert codes == ["IdealPropertyViolation"]

    def test_closed_set_validates(self):
        fl = FiniteLevel(close_finite_level(BIN, 2, [((1, 2), (2, 1))]))
        assert validate_ideal_expr(BIN, fl) == []

    def test_membership_through_prefixes(self):
        fl = FiniteLevel(close_finite_level(BIN, 1, [((1,), (2,))]))
        assert member(BIN, fl, pt("11|2"), pt("2|2")).is_yes
        assert member(BIN, fl, pt("|1"), pt("|2")).is_no  # different orbits
        assert member(BIN, fl, pt("2|1"), pt("22|1")).is_no  # x starts too high


class TestMembership:
    a = pt("|12")
    b = pt("22|12")

    def test_empty_and_full(self):
        assert member(BIN, Empty(), pt("|1"), pt("2|1")).is_no
        assert member(BIN, Full(), pt("|1"), pt("2|1")).is_yes
        assert member(BIN, Full(), pt("2|1"), pt("|1")).is_no  # x > y

    def test_strip_excludes_its_block(self):
        st = Strip(self.a, self.b)
        assert member(BIN, st, self.a, self.b).is_no
        assert member(BIN, st, pt("11|12"), self.b).is_yes  # x below a
        assert member(BIN, st, self.a, pt("2|2")).is_no  # y above b, wrong orbit
        assert member(BIN, st, self.a, pt("2222|12")).is_yes

    def test_strip_plus_reinstates_one_pair(self):
        sp = StripPlus(self.a, self.b)
        assert member(BIN, sp, self.a, self.b).is_yes
        # interior of the block stays out
        mid = pt("2|12")
        assert lt(self.a, mid) and lt(mid, self.b)
        assert member(BIN, sp, mid, self.b).is_no
        assert member(BIN, sp, self.a, mid).is_no

    def test_corner(self):
        t = pt("2|21")
        co = Corner(self.a, t)
        assert member(BIN, co, pt("11|12"), pt("2222|12")).is_yes
        assert member(BIN, co, self.a, pt("2222|12")).is_no  # x must be strict
        assert member(BIN, co, pt("11|12"), t).is_no  # y must be strict

    def test_module_drops_the_order_requirement(self):
        fl = close_finite_level(BIN, 1, [((2,), (1,))], Mode.MODULE)
        expr = module(FiniteLevel(fl))
        assert member(BIN, expr, pt("2|12"), pt("1|12")).is_yes
        assert member(BIN, expr, pt("2|12"), pt("|1")).is_no  # different orbits

    def test_union_and_intersection(self):
        st = Strip(self.a, self.b)
        sp = StripPlus(self.a, self.b)
        assert member(BIN, union(st, sp), self.a, self.b).is_yes
        assert member(BIN, intersection(st, sp), self.a, self.b).is_no
        assert member(BIN, intersection(st, sp), pt("11|12"), self.b).is_yes


class TestSubLevelSets:
    """The two wrappers around a boundary function disagree exactly on
    pairs reachable only through a whole cylinder."""

    a = pt("|12")
    b = pt("22|12")

    def phi(self):
        return boundary_of(BIN, Strip(self.a, self.b))

    def test_strict_sublevel_misses_the_corner_pair(self):
        phi = self.phi()
        assert eval_bf(BIN, phi, self.b) == self.a
        assert member(BIN, OfBFOpen(phi), self.a, self.b).is_no

    def test_hull_catches_it_through_a_cylinder(self):
        got = member(BIN, OfBFClosed(self.phi()), self.a, self.b)
        assert got.is_yes
        assert got.level == 1  # the level-1 block (1), (2) already works

    def test_strict_sublevel_agrees_below(self):
        phi = self.phi()
        x = pt("11|12")
        assert member(BIN, OfBFOpen(phi), x, self.b).is_yes
        assert member(BIN, OfBFClosed(phi), x, self.b).is_yes

    def test_depth_cap_gives_unknown(self):
        psi = boundary_of(BIN, StripPlus(pt("2|1"), pt("22|1")))
        x, y = pt("2|1"), pt("22|1")
        capped = member(BIN, OfBFClosed(psi), x, y, depth_cap=1)
        assert capped.is_unknown
        full = member(BIN, OfBFClosed(psi), x, y)
        assert full.is_yes and full.level == 2


class TestBoundaries:
    a = pt("|12")
    b = pt("22|12")

    def test_empty_and_full(self):
        assert shapes(boundary_of(BIN, Empty())) == [("|1", "|2", Const(pt("|1")))]
        assert bf_eq(BIN, boundary_of(BIN, Full()), identity_bf(BIN))

    def test_strip(self):
        got = shapes(boundary_of(BIN, Strip(self.a, self.b)))
        assert got[0][:2] == ("|1", "|12")
        assert got[1] == ("|12", "2|21", Const(self.a))
        assert got[2][:2] == ("2|21", "|2")

    @pytest.mark.parametrize("bad", [[1, 2], {"a": 1}], ids=["list", "dict"])
    def test_a_non_expression_is_named(self, bad):
        # unhashable inputs must not fail inside the memo lookup instead
        for expr in (bad, module(bad)):
            with pytest.raises(TypeError, match=r"^not an ideal-set expression: "):
                boundary_of(BIN, expr)

    @pytest.mark.parametrize("bad", [[1, 2], {"a": 1}], ids=["list", "dict"])
    @pytest.mark.parametrize("cls", [Union, Intersection], ids=["union", "intersection"])
    def test_an_unhashable_part_is_named(self, bad, cls):
        # refused when the union or intersection is built, not in the memo lookup
        named = r"^not an ideal-set expression: " + re.escape(repr(bad)) + "$"
        strip = Strip(self.a, self.b)
        for build in (lambda: cls([bad]), lambda: cls((strip, bad)),
                      lambda: cls([strip, cls([bad])])):
            with pytest.raises(TypeError, match=named):
                boundary_of(BIN, build())
        with pytest.raises(TypeError, match=named):
            boundary_of(BIN, module(cls([bad])))
        with pytest.raises(TypeError, match=r"^not an ideal-set expression: Module"):
            cls([module(bad)])
        # hashable parts that are not expressions are still named where they are read
        with pytest.raises(TypeError, match=r"^not an ideal-set expression: 5$"):
            boundary_of(BIN, cls([strip, 5]))

    def test_degenerate_strip_blocks_nothing(self):
        st = Strip(self.b, self.a)  # a > b: empty block
        assert bf_eq(BIN, boundary_of(BIN, st), identity_bf(BIN))
        assert member(BIN, st, self.a, self.b).is_yes

    def test_strip_plus_with_gap(self):
        psi = boundary_of(BIN, StripPlus(pt("2|1"), pt("22|1")))
        assert shapes(psi) == [
            ("|1", "1|2", psi.pieces[0][1]),
            ("2|1", "21|2", Const(pt("1|2"))),
            ("22|1", "22|1", Const(pt("2|1"))),
            ("22|1", "|2", psi.pieces[3][1]),
        ]
        assert eval_bf(BIN, psi, pt("22|1")) == pt("2|1")
        assert eval_bf(BIN, psi, pt("2|1")) == pt("1|2")

    def test_strip_plus_without_gap_collapses_to_strip(self):
        # a has no gap below, so the extra pair is a limit of the strip
        sp = StripPlus(self.a, self.b)
        st = Strip(self.a, self.b)
        assert bf_eq(BIN, boundary_of(BIN, sp), boundary_of(BIN, st))

    def test_corner(self):
        t = pt("2|21")
        got = shapes(boundary_of(BIN, Corner(self.a, t)))
        assert got == [("|1", "2|21", Const(pt("|1"))),
                       ("2|21", "|2", Const(self.a))]

    def test_finite_level(self):
        fl = FiniteLevel(close_finite_level(BIN, 1, [((1,), (2,))]))
        got = shapes(boundary_of(BIN, fl))
        assert got == [("|1", "1|2", Const(pt("|1"))),
                       ("2|1", "|2", Const(pt("1|2")))]

    def test_open_wrapper_lowers(self):
        phi = boundary_of(BIN, Strip(self.a, self.b))
        assert bf_eq(BIN, boundary_of(BIN, OfBFOpen(phi)), bf_minus(BIN, phi))
        assert bf_eq(BIN, boundary_of(BIN, OfBFClosed(phi)), phi)

    def test_union_joins_intersection_meets(self):
        t = pt("2|21")
        parts = [Strip(self.a, self.b), Corner(self.a, t)]
        ub = boundary_of(BIN, combine("union", parts))
        ib = boundary_of(BIN, combine("intersection", parts))
        for y in (pt("|1"), self.a, t, pt("22|21"), pt("|2")):
            vals = [eval_bf(BIN, boundary_of(BIN, p), y) for p in parts]
            lo = vals[0] if le(vals[0], vals[1]) else vals[1]
            hi = vals[0] if le(vals[1], vals[0]) else vals[1]
            assert eval_bf(BIN, ub, y) == hi
            assert eval_bf(BIN, ib, y) == lo

    def test_module_full_tops_out(self):
        got = boundary_of(BIN, module(Full()))
        assert shapes(got) == [("|1", "|2", Const(pt("|2")))]
        assert got.mode is Mode.MODULE

    def test_module_strip(self):
        got = shapes(boundary_of(BIN, module(Strip(self.a, self.b))))
        assert got == [("|1", "2|21", Const(self.a)),
                       ("2|21", "|2", Const(pt("|2")))]


class TestSetBoundaryFolds:
    """boundary_of of unions and intersections, pinned part count by part count."""

    PARTS = {
        "strip": (Strip(pt("|12"), pt("22|12")),
                  "[|1, |12) -> id; [|12, 2|21] -> const(|12); (2|21, |2] -> id",
                  "module [|1, 2|21] -> const(|12); (2|21, |2] -> const(|2)"),
        "strip-plus": (StripPlus(pt("2|1"), pt("22|1")),
                       "[|1, 1|2] -> id; [2|1, 21|2] -> const(1|2); "
                       "[22|1, 22|1] -> const(2|1); (22|1, |2] -> id",
                       "module [|1, 21|2] -> const(1|2); [22|1, 22|1] -> const(2|1); "
                       "(22|1, |2] -> const(|2)"),
        "corner": (Corner(pt("|12"), pt("2|21")),
                   "[|1, 2|21] -> const(|1); (2|21, |2] -> const(|12)",
                   "module [|1, 2|21] -> const(|1); (2|21, |2] -> const(|12)"),
    }

    @pytest.mark.parametrize("expr,want", [
        (union(), "[|1, |2] -> const(|1)"),
        (intersection(), "[|1, |2] -> id"),
        (module(union()), "module [|1, |2] -> const(|1)"),
        (module(intersection()), "module [|1, |2] -> const(|2)"),
    ], ids=["union", "intersection", "module-union", "module-intersection"])
    def test_no_parts(self, expr, want):
        assert format_bf(BIN, boundary_of(BIN, expr)) == want

    @pytest.mark.parametrize("name", sorted(PARTS))
    @pytest.mark.parametrize("op", [union, intersection], ids=["union", "intersection"])
    def test_one_part(self, name, op):
        part, ideal_text, module_text = self.PARTS[name]
        for wrap, want in ((lambda e: e, ideal_text), (module, module_text)):
            got = boundary_of(BIN, wrap(op(part)))
            assert format_bf(BIN, got) == want
            assert got == boundary_of(BIN, wrap(part))

    def test_one_part_normalizes_a_hand_spelled_function(self):
        # the identity spelled as two pieces: split across the gap pair
        # (1|2, 2|1), and split at 2|1 with an open end over that gap
        split = PiecewiseBF(((interval(BIN, p_min(BIN), pt("1|2")), ID),
                             (interval(BIN, pt("2|1"), p_max(BIN)), ID)))
        open_end = PiecewiseBF(((OrderInterval(p_min(BIN), pt("2|1"), hi_open=True), ID),
                                (OrderInterval(pt("2|1"), p_max(BIN)), ID)))
        for hand in (split, open_end):
            assert boundary_of(BIN, OfBFClosed(hand)) is hand
            assert hand != identity_bf(BIN)
            for op in (union, intersection):
                assert boundary_of(BIN, op(OfBFClosed(hand))) == identity_bf(BIN)
            assert boundary_of(BIN, union(OfBFClosed(hand), Empty())) == identity_bf(BIN)

    def test_one_part_of_the_other_mode_is_refused(self):
        phi = boundary_of(BIN, module(Full()))
        for op in (union, intersection):
            with pytest.raises(ValueError, match="across modes"):
                boundary_of(BIN, op(OfBFClosed(phi)))

    @pytest.mark.parametrize("sys_text", [";2", ";2,3", "3;2", "2;2,2,3"])
    def test_folds_match_the_fold_from_bottom_and_top(self, sys_text):
        sys = parse_system(sys_text)
        rng = random.Random(f"set-folds|{sys_text}")
        lo, hi = p_min(sys), p_max(sys)
        for i in range(24):
            mode = Mode.MODULE if i % 3 == 2 else Mode.IDEAL
            count = i % 4
            if mode is Mode.IDEAL:
                parts = [random_ideal_expr(sys, rng, depth=1) for _ in range(count)]
                top = identity_bf(sys)
            else:
                parts = [random_module_expr(sys, rng).inner for _ in range(count)]
                top = const_bf(sys, hi, mode)
            wrap = module if mode is Mode.MODULE else (lambda e: e)
            bfs = [boundary_of(sys, wrap(p)) for p in parts]
            joined = reduce(lambda f, g: bf_join(sys, f, g), bfs, const_bf(sys, lo, mode))
            met = reduce(lambda f, g: bf_meet(sys, f, g), bfs, top)
            assert boundary_of(sys, wrap(union(*parts))) == joined
            assert boundary_of(sys, wrap(intersection(*parts))) == met


class TestTailSets:
    S = BIN.shift(1)

    def iv(self, lo, hi, **kw):
        return interval(self.S, parse_point(self.S, lo), parse_point(self.S, hi), **kw)

    def test_union_merges_overlap(self):
        got = tailset_union(self.S, (self.iv("|1", "2|1"),), (self.iv("1|2", "|2"),))
        assert tailset_is_all(self.S, got)

    def test_union_merges_across_a_gap(self):
        # 21|2 is immediately below 22|1, so the union closes up
        got = tailset_union(self.S, (self.iv("|1", "21|2"),),
                            (self.iv("22|1", "|2"),))
        assert tailset_is_all(self.S, got)

    def test_union_keeps_true_holes(self):
        got = tailset_union(self.S, (self.iv("|1", "1|2"),),
                            (self.iv("22|1", "|2"),))
        assert len(got) == 2

    def test_intersect(self):
        got = tailset_intersect(
            self.S, (self.iv("|1", "2|1"),), (self.iv("12|1", "|2"),))
        assert got == (self.iv("12|1", "2|1"),)

    def test_remove_point(self):
        w = parse_point(self.S, "|21")
        got = tailset_remove_point(self.S, (full_interval(self.S),), w)
        assert not in_tailset(got, w)
        assert in_tailset(got, parse_point(self.S, "|1"))
        assert in_tailset(got, parse_point(self.S, "|2"))


class TestRestriction:
    a = pt("|12")
    b = pt("22|12")

    def test_strip_violations_at_level_one(self):
        # inside the blocked box exactly when both tails equal |21
        st = Strip(self.a, self.b)
        w = parse_point(BIN.shift(1), "|21")
        got = violation_tailset(BIN, st, (1,), (2,))
        assert got == (interval(BIN.shift(1), w, w),)
        assert violation_tailset(BIN, st, (1,), (1,)) != ()
        assert violation_tailset(BIN, st, (2,), (2,)) != ()

    def test_strip_plus_heals_the_matched_tail(self):
        sp = StripPlus(self.a, self.b)
        assert violation_tailset(BIN, sp, (1,), (2,)) == ()

    def test_reversed_words_always_violate(self):
        got = violation_tailset(BIN, Full(), (2,), (1,))
        assert tailset_is_all(BIN.shift(1), got)

    def test_restrict_strip_is_empty_at_level_one(self):
        assert restrict_to_level(BIN, Strip(self.a, self.b), 1).pairs == frozenset()

    def test_restrict_strip_plus_finds_the_block(self):
        got = restrict_to_level(BIN, StripPlus(self.a, self.b), 1)
        assert got.pairs == {((1,), (2,))}

    def test_restrict_full(self):
        got = restrict_to_level(BIN, Full(), 1)
        assert sorted(got.pairs) == [((1,), (1,)), ((1,), (2,)), ((2,), (2,))]

    def test_restrict_finite_level_deeper(self):
        fl = FiniteLevel(close_finite_level(BIN, 1, [((1,), (2,))]))
        got = restrict_to_level(BIN, fl, 2)
        assert sorted(got.pairs) == [
            ((1, 1), (2, 1)), ((1, 1), (2, 2)),
            ((1, 2), (2, 1)), ((1, 2), (2, 2)),
        ]

    def test_restrict_wrappers_match_cylinder_test(self):
        phi = boundary_of(BIN, Strip(self.a, self.b))
        assert restrict_to_level(BIN, OfBFClosed(phi), 1).pairs == {((1,), (2,))}
        assert restrict_to_level(BIN, OfBFOpen(phi), 1).pairs == frozenset()

    @pytest.mark.parametrize("expr", [
        Strip(pt("|12"), pt("22|12")),
        StripPlus(pt("2|1"), pt("22|1")),
        Corner(pt("|12"), pt("2|21")),
        FiniteLevel(close_finite_level(BIN, 1, [((1,), (2,))])),
        union(Strip(pt("|12"), pt("22|12")), Corner(pt("|12"), pt("2|21"))),
    ])
    def test_parent_child_consistency(self, expr):
        # a block sits inside iff all its matched one-step children do
        parents = restrict_to_level(BIN, expr, 1).pairs
        children = restrict_to_level(BIN, expr, 2).pairs
        for u in ((1,), (2,)):
            for v in ((1,), (2,)):
                if u > v:
                    continue
                inside = (u, v) in parents
                split = all((u + (d,), v + (d,)) in children for d in (1, 2))
                assert inside == split

    @pytest.mark.parametrize("sys_text", [";2", ";2,3"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_intersection_restricts_to_the_common_blocks(self, sys_text, level):
        sys = parse_system(sys_text)
        a, b, t = (parse_point(sys, x) for x in ("|12", "22|12", "2|21"))
        parts = (Strip(a, b), Corner(a, t),
                 FiniteLevel(close_finite_level(sys, 1, [((1,), (2,))])))
        for i in range(len(parts)):
            chosen = parts[:i] + parts[i + 1:]
            got = restrict_to_level(sys, Intersection(chosen), level).pairs
            want = frozenset.intersection(
                *(restrict_to_level(sys, p, level).pairs for p in chosen))
            assert got == want

    @pytest.mark.parametrize("sys_text,gens", [
        (";2", [((1, 2), (2, 1))]),
        (";2", [((1, 1), (1, 2)), ((2, 1), (2, 1))]),
        (";2,3", [((1, 3), (2, 1))]),
        (";2,3", [((1, 1), (1, 3)), ((2, 2), (2, 2))]),
    ])
    def test_finite_level_restricted_to_a_coarser_level(self, sys_text, gens):
        # (u, v) holds its whole block iff every one-digit extension is a pair
        sys = parse_system(sys_text)
        units = close_finite_level(sys, 2, gens)
        got = restrict_to_level(sys, FiniteLevel(units), 1).pairs
        words = list(level_words(sys, 1))
        want = {(u, v) for u in words for v in words if u <= v
                and all((u + (d,), v + (d,)) in units.pairs
                        for d in range(1, sys.k_at(2) + 1))}
        assert got == want

    def test_members_sit_outside_their_violation_tails(self):
        sp = StripPlus(self.a, self.b)
        for u, v in (((1,), (2,)), ((1,), (1,)), ((2,), (2,))):
            viol = violation_tailset(BIN, sp, u, v)
            for w_text in ("|1", "|12", "|21", "|2", "12|21"):
                w = parse_point(BIN.shift(1), w_text)
                x, y = prepend(BIN, u, w), prepend(BIN, v, w)
                expected = not in_tailset(viol, w)
                assert member(BIN, sp, x, y).is_yes == expected


class TestValidation:
    def test_clean_expressions(self):
        for expr in (Empty(), Full(), Strip(pt("|12"), pt("22|12")),
                     StripPlus(pt("2|1"), pt("22|1")),
                     Corner(pt("|12"), pt("2|21")),
                     module(Full())):
            assert validate_ideal_expr(BIN, expr) == []

    def test_strip_plus_pair_must_link(self):
        bad = StripPlus(pt("|2"), pt("|1"))  # reversed, different orbits
        codes = [v.code for v in validate_ideal_expr(BIN, bad)]
        assert codes == ["ConstructorViolation"]

    def test_function_with_a_hole_rejected(self):
        hole = PiecewiseBF(((interval(BIN, p_min(BIN), pt("11|2")), ID),
                            (interval(BIN, pt("2|2"), p_max(BIN)), ID)))
        got = validate_ideal_expr(BIN, OfBFOpen(hole))
        assert [v.detail for v in got] == ["invalid boundary function: Partition"]

    def test_corner_needs_interior_thresholds(self):
        bad = Corner(pt("|1"), pt("2|21"))
        codes = [v.code for v in validate_ideal_expr(BIN, bad)]
        assert codes == ["ConstructorViolation"]

    def test_wrapper_mode_must_match(self):
        phi = boundary_of(BIN, module(Full()))
        codes = [v.code for v in validate_ideal_expr(BIN, OfBFClosed(phi))]
        assert codes == ["ConstructorViolation"]

    def test_inner_module_flagged(self):
        expr = union(Full())
        bad = union(module(Full()))
        assert validate_ideal_expr(BIN, expr) == []
        codes = [v.code for v in validate_ideal_expr(BIN, bad)]
        assert codes == ["ConstructorViolation"]

    @pytest.mark.parametrize("units,detail", [
        (MatrixUnitSet(1, frozenset({((1,), (2,))}), Mode.MODULE),
         "matrix-unit set mode module under ideal expression"),
        (MatrixUnitSet(0, frozenset()), "level must be at least 1"),
        (MatrixUnitSet(2, frozenset({((1,), (2, 1))})), "word (1,) is not at level 2"),
        (MatrixUnitSet(1, frozenset({((1,), (3,))})), "digit 3 out of range in (3,)"),
        (MatrixUnitSet(1, frozenset({((2,), (1,))})),
         "pair (2,) > (1,) cannot link in an ideal set"),
    ], ids=["mode", "level-0", "word-length", "digit", "reversed"])
    def test_malformed_matrix_unit_sets(self, units, detail):
        got = validate_ideal_expr(BIN, FiniteLevel(units))
        assert [(v.code, v.detail) for v in got] == [("ConstructorViolation", detail)]

    def test_combine_refuses_module_parts(self):
        with pytest.raises(RefinementError):
            combine("union", [module(Full()), Empty()])


class TestGraphSets:
    def test_identity_graph_is_always_reachable(self):
        phi = identity_bf(BIN)
        for y_text in ("|1", "|12", "22|1", "|2"):
            assert in_B_phi(BIN, phi, pt(y_text)).is_yes

    def test_gap_filter(self):
        phi = identity_bf(BIN)
        assert in_L_phi(BIN, phi, pt("22|1")).is_yes
        assert in_L_phi(BIN, phi, pt("|12")).is_no  # no gap below |12
        assert in_L_phi(BIN, phi, pt("|1")).is_no  # bottom has no gap

    def test_raised_value_still_in_hull(self):
        psi = boundary_of(BIN, StripPlus(pt("2|1"), pt("22|1")))
        got = in_L_phi(BIN, psi, pt("22|1"))
        assert got.is_yes and got.level == 2


class TestSandwich:
    a = pt("|12")
    b = pt("22|12")

    def test_catalog_boundaries_accepted(self):
        cases = [
            (Empty(), boundary_of(BIN, Empty())),
            (Full(), identity_bf(BIN)),
            (Strip(self.a, self.b), boundary_of(BIN, Strip(self.a, self.b))),
            (StripPlus(pt("2|1"), pt("22|1")),
             boundary_of(BIN, StripPlus(pt("2|1"), pt("22|1")))),
            (Corner(self.a, pt("2|21")), boundary_of(BIN, Corner(self.a, pt("2|21")))),
        ]
        for expr, phi in cases:
            assert sandwich_check(BIN, expr, phi).is_yes

    def test_wrong_function_rejected(self):
        st = Strip(self.a, self.b)
        assert sandwich_check(BIN, st, identity_bf(BIN)).is_no

    def test_both_wrappers_share_the_function(self):
        phi = boundary_of(BIN, Strip(self.a, self.b))
        assert sandwich_check(BIN, OfBFClosed(phi), phi).is_yes
        assert sandwich_check(BIN, OfBFOpen(phi), bf_minus(BIN, phi)).is_yes
        assert sandwich_check(BIN, OfBFOpen(phi), phi).is_no

    def test_module_catalog(self):
        expr = module(Strip(self.a, self.b))
        assert sandwich_check(BIN, expr, boundary_of(BIN, expr)).is_yes
