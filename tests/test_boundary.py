import copy
import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys as _sys
from collections import Counter
from functools import cmp_to_key
from math import lcm
from pathlib import Path

import pytest

from refbound import boundary, idealsets, order
from refbound.boundary import (
    ID,
    ID_MINUS,
    Const,
    InvalidBoundaryFunctionError,
    Mode,
    PiecewiseBF,
    Strictness,
    Verdict,
    bf_between,
    bf_eq,
    bf_equiv,
    bf_join,
    bf_meet,
    bf_minus,
    bf_plus,
    const_bf,
    cylinder_within_eta,
    eta_member,
    eval_bf,
    format_bf,
    identity_bf,
    is_point_of_modification,
    leaf_inf,
    leaf_sup,
    level_set_max,
    make_bf,
    minus_point,
    modification_certificate,
    leaf_value,
    normalize_bf,
    overlay,
    parse_bf,
    plus_point,
    pointwise_le,
    sigma_member,
    validate_bf,
)
from refbound.cocycle import gap_point
from refbound.idealsets import (
    Corner,
    Intersection,
    OfBFClosed,
    OfBFOpen,
    Strip,
    Union,
    boundary_of,
    intersection,
    union,
)
from refbound.irreducibility import construct_family
from refbound.oracle import (
    _random_linked_pair,
    random_bf,
    random_ideal_expr,
    random_module_expr,
    sample_points,
)
from refbound.order import (
    DigitRangeError,
    EmptyIntervalError,
    OrderInterval,
    Point,
    RefinementSystem,
    construct_between,
    cylinder_bounds,
    format_system,
    has_gap_above,
    has_gap_below,
    interval,
    interval_intersect,
    interval_small_points,
    interval_sup,
    level_words,
    max_tail_point,
    merge_level,
    orbit_test,
    order_compare,
    p_max,
    p_min,
    p_test,
    parse_point,
    parse_system,
    pred,
    prepend,
    suc,
    tail_of,
)

BIN = RefinementSystem.make((), (2,))
LO, HI = p_min(BIN), p_max(BIN)


def pt(text):
    return parse_point(BIN, text)


def strip_bf(a, b):
    pieces = []
    if LO != a:
        pieces.append((interval(BIN, LO, a, hi_open=True), ID))
    pieces.append((interval(BIN, a, b), Const(minus_point(BIN, a))))
    if b != HI:
        pieces.append((interval(BIN, b, HI, lo_open=True), ID))
    return make_bf(BIN, pieces)


class TestEvalAndValidate:
    def test_identity_valid(self):
        assert validate_bf(BIN, identity_bf(BIN)) == []

    def test_const_min_valid(self):
        assert validate_bf(BIN, const_bf(BIN, LO)) == []

    def test_const_above_points_invalid(self):
        raw = PiecewiseBF(((interval(BIN, LO, HI), Const(pt("1|2"))),))
        codes = {v.code for v in validate_bf(BIN, raw)}
        assert "Property1" in codes

    def test_gap_value_on_wide_piece_invalid(self):
        a = pt("2|1")
        raw = PiecewiseBF((
            (interval(BIN, LO, a, hi_open=True), ID),
            (interval(BIN, a, HI), Const(a)),
        ))
        codes = {v.code for v in validate_bf(BIN, raw)}
        assert "Property2b" in codes

    def test_monotonicity_violation(self):
        raw = PiecewiseBF((
            (interval(BIN, LO, pt("1|2")), ID),
            (interval(BIN, pt("2|1"), HI), Const(LO)),
        ))
        codes = {v.code for v in validate_bf(BIN, raw)}
        assert "Property3" in codes

    def test_left_continuity_violation(self):
        a = pt("|12")  # no gap below
        raw = PiecewiseBF((
            (interval(BIN, LO, a, hi_open=True), Const(LO)),
            (interval(BIN, a, HI), ID),
        ))
        codes = {v.code for v in validate_bf(BIN, raw)}
        assert "Property4" in codes

    def test_partition_gap_detected(self):
        raw = PiecewiseBF((
            (interval(BIN, LO, pt("11|2")), ID),
            (interval(BIN, pt("2|2"), HI), ID),
        ))
        codes = {v.code for v in validate_bf(BIN, raw)}
        assert codes == {"Partition"}

    def test_make_bf_raises(self):
        with pytest.raises(InvalidBoundaryFunctionError):
            make_bf(BIN, ((interval(BIN, LO, HI), Const(pt("1|2"))),))

    def test_strip_bf_valid_and_evaluates(self):
        a, b = pt("|12"), pt("22|12")
        phi = strip_bf(a, b)
        assert validate_bf(BIN, phi) == []
        assert eval_bf(BIN, phi, pt("11|12")) == pt("11|12")
        assert eval_bf(BIN, phi, pt("21|12")) == a
        assert eval_bf(BIN, phi, b) == a
        assert eval_bf(BIN, phi, HI) == HI

    def test_left_limit_leaf_valid(self):
        phi = make_bf(BIN, ((interval(BIN, LO, HI), ID_MINUS),))
        assert validate_bf(BIN, phi) == []
        assert eval_bf(BIN, phi, pt("2|1")) == pt("1|2")
        assert eval_bf(BIN, phi, pt("|12")) == pt("|12")


class TestNormalizeAndEq:
    def test_open_gap_flag_canonicalized(self):
        raw = PiecewiseBF((
            (interval(BIN, LO, pt("1|2")), ID),
            (interval(BIN, pt("1|2"), HI, lo_open=True), ID),
        ))
        phi = normalize_bf(BIN, raw)
        assert len(phi.pieces) == 1

    def test_left_limit_on_two_points_explodes(self):
        g = pt("1|2")
        raw = PiecewiseBF((
            (interval(BIN, LO, g, hi_open=True), ID),
            (interval(BIN, g, suc(BIN, g)), ID_MINUS),
            (interval(BIN, suc(BIN, g), HI, lo_open=True), ID),
        ))
        phi = normalize_bf(BIN, raw)
        # [g, suc g] with the left-limit leaf is Id at g and Const(g) at suc g
        assert eval_bf(BIN, phi, g) == g
        assert eval_bf(BIN, phi, suc(BIN, g)) == g
        assert not any(isinstance(leaf, type(ID_MINUS)) for _, leaf in phi.pieces)

    def test_eq_is_extensional(self):
        f = identity_bf(BIN)
        g = normalize_bf(BIN, PiecewiseBF((
            (interval(BIN, LO, pt("|12")), ID),
            (interval(BIN, pt("|12"), HI, lo_open=True), ID),
        )))
        assert bf_eq(BIN, f, g)

    def test_eq_distinguishes(self):
        assert not bf_eq(BIN, identity_bf(BIN), const_bf(BIN, LO))
        f = make_bf(BIN, ((interval(BIN, LO, HI), ID_MINUS),))
        assert not bf_eq(BIN, identity_bf(BIN), f)

    def test_eq_handles_single_point_alias(self):
        g = pt("1|2")
        f = normalize_bf(BIN, PiecewiseBF((
            (interval(BIN, LO, g), ID),
            (interval(BIN, suc(BIN, g), HI), ID),
        )))
        assert bf_eq(BIN, f, identity_bf(BIN))

    def test_plateau_spelled_like_its_meet_with_identity(self):
        f = construct_family(BIN, "phi_ab", a=pt("|12"), b=pt("2|21"))
        g = bf_meet(BIN, f, identity_bf(BIN))
        assert normalize_bf(BIN, g).pieces == normalize_bf(BIN, f).pieces
        # the plateau keeps the point where it meets the identity
        assert f.pieces[1][0] == interval(BIN, pt("|12"), pt("2|21"))

    def test_constant_piece_spelled_like_left_limit(self):
        g = pt("1|2")
        f = PiecewiseBF((
            (interval(BIN, LO, g, hi_open=True), ID_MINUS),
            (interval(BIN, g, suc(BIN, g)), Const(g)),
            (interval(BIN, suc(BIN, g), HI, lo_open=True), ID_MINUS),
        ))
        want = PiecewiseBF(((interval(BIN, LO, HI), ID_MINUS),))
        assert normalize_bf(BIN, f).pieces == want.pieces


class TestMinusPlus:
    def test_minus_of_identity(self):
        f = bf_minus(BIN, identity_bf(BIN))
        assert eval_bf(BIN, f, pt("2|1")) == pt("1|2")
        assert eval_bf(BIN, f, HI) == HI

    def test_minus_of_const(self):
        f = bf_minus(BIN, const_bf(BIN, LO))
        assert bf_eq(BIN, f, const_bf(BIN, LO))

    def test_minus_idempotent_on_left_limits(self):
        f = bf_minus(BIN, identity_bf(BIN))
        assert bf_eq(BIN, bf_minus(BIN, f), f)

    def test_plus_of_left_limit_is_identity(self):
        f = make_bf(BIN, ((interval(BIN, LO, HI), ID_MINUS),))
        assert bf_eq(BIN, bf_plus(BIN, f), identity_bf(BIN))

    def test_plus_splits_strip_with_gap(self):
        # gap-below left endpoint: the value climbs at the right endpoint
        a, b = pt("2|1"), pt("22|1")
        pa = pred(BIN, a)
        phi = make_bf(BIN, (
            (interval(BIN, LO, a, hi_open=True), ID),
            (interval(BIN, a, b), Const(pa)),
            (interval(BIN, b, HI, lo_open=True), ID),
        ))
        plus = bf_plus(BIN, phi)
        assert eval_bf(BIN, plus, b) == a
        assert eval_bf(BIN, plus, pt("212|1")) == pa
        assert eval_bf(BIN, plus, a) == pa
        assert validate_bf(BIN, plus) == []

    def test_interior_of_strip_not_modified(self):
        a, b = pt("2|1"), pt("22|1")
        phi = make_bf(BIN, (
            (interval(BIN, LO, a, hi_open=True), ID),
            (interval(BIN, a, b), Const(pred(BIN, a))),
            (interval(BIN, b, HI, lo_open=True), ID),
        ))
        assert is_point_of_modification(BIN, phi, b)
        assert not is_point_of_modification(BIN, phi, pt("212|1"))
        assert not is_point_of_modification(BIN, phi, a)

    def test_equiv_and_between(self):
        f = identity_bf(BIN)
        g = make_bf(BIN, ((interval(BIN, LO, HI), ID_MINUS),))
        assert bf_equiv(BIN, f, g)
        assert bf_between(BIN, f, g)
        assert bf_between(BIN, g, f)
        assert not bf_equiv(BIN, f, const_bf(BIN, LO))


class TestLattice:
    def test_join_meet_with_constant(self):
        c = pt("|12")
        f = identity_bf(BIN)
        g = const_bf(BIN, LO)
        assert bf_eq(BIN, bf_join(BIN, f, g), f)
        assert bf_eq(BIN, bf_meet(BIN, f, g), g)

    def test_join_of_strips(self):
        a1, b1 = pt("|12"), pt("2|21")
        a2, b2 = pt("1|2"), pt("21|2")
        f, g = strip_bf(a1, b1), strip_bf(a2, b2)
        j = bf_join(BIN, f, g)
        m = bf_meet(BIN, f, g)
        from refbound.order import le as ole
        for y in (LO, pt("11|12"), pt("|12"), pt("12|2"), pt("2|21"), pt("21|2"), HI):
            fy, gy = eval_bf(BIN, f, y), eval_bf(BIN, g, y)
            top = fy if ole(gy, fy) else gy
            bot = fy if ole(fy, gy) else gy
            assert eval_bf(BIN, j, y) == top
            assert eval_bf(BIN, m, y) == bot

    def test_pointwise_le(self):
        f = identity_bf(BIN)
        g = make_bf(BIN, ((interval(BIN, LO, HI), ID_MINUS),))
        assert pointwise_le(BIN, g, f)
        assert not pointwise_le(BIN, f, g)
        assert pointwise_le(BIN, const_bf(BIN, LO), g)


class TestCylinderLinkage:
    def test_identity_cells_compare_words(self):
        f = identity_bf(BIN)
        assert cylinder_within_eta(BIN, f, (1, 1), (2, 1))
        assert cylinder_within_eta(BIN, f, (2, 1), (2, 1))
        assert not cylinder_within_eta(BIN, f, (2, 1), (1, 1))
        assert not cylinder_within_eta(BIN, f, (2, 1), (2, 1), Strictness.STRICT)
        assert cylinder_within_eta(BIN, f, (1, 1), (2, 1), Strictness.STRICT)

    def test_constant_cell_top_counts_only_when_attained(self):
        # u w reaches the value x exactly at the top of the cell, so a
        # strict test passes when that top is open and fails when closed
        x = pt("|12")
        for top_open, strict_ok in ((True, True), (False, False)):
            f = PiecewiseBF((
                (interval(BIN, LO, x, hi_open=top_open), Const(x)),
                (interval(BIN, x, HI, lo_open=not top_open), Const(HI)),
            ))
            assert cylinder_within_eta(BIN, f, (1, 2), (1, 2))
            assert cylinder_within_eta(BIN, f, (1, 2), (1, 2), Strictness.STRICT) is strict_ok

    def test_sigma_member_identity(self):
        f = identity_bf(BIN)
        assert sigma_member(BIN, f, pt("11|2"), pt("2|2")).is_yes
        assert sigma_member(BIN, f, pt("2|2"), pt("11|2")).is_no
        assert sigma_member(BIN, f, pt("|12"), pt("|12")).is_yes
        # cross-orbit pairs are never linked
        assert sigma_member(BIN, f, pt("|1"), pt("|2")).is_no

    def test_sigma_member_strip(self):
        a, b = pt("|12"), pt("22|12")
        phi = strip_bf(a, b)
        # pairs with the upper point inside the strip stop at a
        assert sigma_member(BIN, phi, pt("11|12"), pt("21|12")).is_yes
        assert sigma_member(BIN, phi, pt("21|12"), pt("21|12")).is_no
        assert eta_member(BIN, phi, pt("21|12"), pt("21|12")) is False
        assert eta_member(BIN, phi, a, pt("21|12")) is True

    def test_sigma_member_const_reaches_value(self):
        # pairs (c, y) with c the constant's max-tail value are linked
        a, b = pt("2|1"), pt("22|1")
        phi = make_bf(BIN, (
            (interval(BIN, LO, a, hi_open=True), ID),
            (interval(BIN, a, b), Const(pred(BIN, a))),
            (interval(BIN, b, HI, lo_open=True), ID),
        ))
        # x must sit on the orbit of y and below the constant's value
        assert sigma_member(BIN, phi, pt("12|1"), pt("212|1")).is_yes
        assert sigma_member(BIN, phi, a, pt("212|1")).is_no
        # the constant's value itself lies on the other orbit
        assert sigma_member(BIN, phi, pred(BIN, a), pt("212|1")).is_no

    def test_sigma_member_depth_cap(self):
        f = identity_bf(BIN)
        v = sigma_member(BIN, f, pt("11|2"), pt("2|2"), depth_cap=1)
        assert v.is_unknown and v.level == 1

    def test_verdict_levels(self):
        f = identity_bf(BIN)
        v = sigma_member(BIN, f, pt("11|2"), pt("2|2"))
        assert v.is_yes and v.level == 2


class TestLevelSets:
    def test_level_set_max_identity(self):
        f = identity_bf(BIN)
        c = pt("|12")
        assert level_set_max(BIN, f, c) == (c, True)

    def test_level_set_max_const_piece(self):
        a, b = pt("|12"), pt("22|12")
        phi = strip_bf(a, b)
        assert level_set_max(BIN, phi, a) == (b, True)

    def test_level_set_max_left_limit(self):
        f = make_bf(BIN, ((interval(BIN, LO, HI), ID_MINUS),))
        g = pt("1|2")
        # the left limit reaches g at suc g as well; the top solution wins
        assert level_set_max(BIN, f, g) == (suc(BIN, g), True)

    def test_level_set_max_missing(self):
        phi = const_bf(BIN, LO)
        assert level_set_max(BIN, phi, pt("|12")) is None

    def test_sup_inf_of_leaves(self):
        ival = interval(BIN, pt("|12"), pt("2|1"))
        assert leaf_sup(BIN, ival, ID) == (pt("2|1"), True)
        assert leaf_sup(BIN, ival, ID_MINUS) == (pt("1|2"), True)
        assert leaf_inf(BIN, ival, ID_MINUS) == (pt("|12"), True)
        open_iv = interval(BIN, pt("|12"), pt("|21"), hi_open=True)
        assert leaf_sup(BIN, open_iv, ID) == (pt("|21"), False)
        assert leaf_sup(BIN, open_iv, ID_MINUS) == (pt("|21"), False)


class TestModuleMode:
    def test_const_max_valid_in_module_mode(self):
        f = const_bf(BIN, HI, mode=Mode.MODULE)
        assert validate_bf(BIN, f) == []

    def test_const_max_invalid_in_ideal_mode(self):
        raw = PiecewiseBF(((interval(BIN, LO, HI), Const(HI)),), Mode.IDEAL)
        codes = {v.code for v in validate_bf(BIN, raw)}
        assert "Property1" in codes

    def test_module_gap_const_needs_orbit_only(self):
        a, y0 = pt("2|1"), pt("12|1")
        # a and y0 share a tail but a > y0, so the pair is outside the order
        raw_pieces = (
            (interval(BIN, LO, y0, hi_open=True), Const(LO)),
            (interval(BIN, y0, y0), Const(a)),
            (interval(BIN, y0, HI, lo_open=True), Const(HI)),
        )
        mod = validate_bf(BIN, PiecewiseBF(raw_pieces, Mode.MODULE))
        assert "Property2a" not in {v.code for v in mod}
        ideal = validate_bf(BIN, PiecewiseBF(raw_pieces, Mode.IDEAL))
        assert "Property2a" in {v.code for v in ideal}


# ---------------------------------------------------------------------------
# the level search against a scan of every level

SEARCH_SYSTEMS = [parse_system(t) for t in (";2", ";2,3", "3;2", ";11", "2;2,2,3")]


def _scan_levels(sys, bf, x, y, strictness, depth_cap=None):
    """Reference: test each level from merge_level up to the bound in turn.

    Returns the verdict and the data level (the longest preamble among
    the system, x, y and the function's points).
    """
    pts = [x, y]
    for ival, leaf in bf.pieces:
        pts += [ival.lo, ival.hi] + ([leaf.value] if isinstance(leaf, Const) else [])
    data = max([sys.prefix_len] + [len(p.preamble) for p in pts])
    period = lcm(sys.cycle_len, *(len(p.period) for p in pts))
    start = merge_level(x, y)
    bound = max(start, data + 2 * period)
    stop = bound if depth_cap is None else min(depth_cap, bound)
    for m in range(start, stop + 1):
        if cylinder_within_eta(sys, bf, x.word(m), y.word(m), strictness):
            return Verdict("yes", m), data
    return (Verdict("unknown", stop) if stop < bound else Verdict("no")), data


def count_checks(monkeypatch):
    """Levels of the cylinder checks made from here on, in call order."""
    calls = []
    real = boundary.cylinder_within_eta

    def counted(sys, bf, u, v, *rest):
        calls.append(len(v))
        return real(sys, bf, u, v, *rest)

    monkeypatch.setattr(boundary, "cylinder_within_eta", counted)
    return calls


def _search_cases(sys, seed):
    rng = random.Random(seed)
    f = random_bf(sys, rng)
    pool = sample_points(sys, seed, 6, 5, 3)
    pairs = [(x, y) for x in pool for y in pool if p_test(x, y)]
    pairs += [_random_linked_pair(sys, rng) for _ in range(6)]
    return f, pool, pairs


class TestLevelSearch:
    def test_sigma_member_matches_level_scan(self):
        seen = Counter()
        for sys in SEARCH_SYSTEMS:
            for seed in range(14, 22):
                f, _, pairs = _search_cases(sys, seed)
                for x, y in pairs:
                    start = merge_level(x, y)
                    for cap in (None, 0, 2, 5, start - 1):
                        want, data = _scan_levels(sys, f, x, y, Strictness.NONSTRICT, cap)
                        assert sigma_member(sys, f, x, y, depth_cap=cap) == want
                        deep = want.is_yes and want.level > max(start, data)
                        seen["deep yes" if deep else want.kind] += 1
        # every branch of the search is exercised, the bisection included
        assert all(seen[k] > 0 for k in ("yes", "deep yes", "no", "unknown"))

    def test_modification_certificate_matches_level_scan(self):
        yes = 0
        for sys in SEARCH_SYSTEMS:
            for seed in range(14, 22):
                f, pool, _ = _search_cases(sys, seed)
                for y in pool + [suc(sys, gap_point(sys, n)) for n in range(1, 7)]:
                    got = modification_certificate(sys, f, y)
                    fy = eval_bf(sys, f, y)
                    if not has_gap_below(sys, y) or not has_gap_above(sys, fy):
                        assert got.is_no
                        continue
                    target = suc(sys, fy)
                    if not orbit_test(target, y):
                        assert got.is_no
                        continue
                    want, _ = _scan_levels(sys, f, target, y, Strictness.RAISED)
                    assert got == want
                    if want.is_yes:
                        yes += 1
                        # the witnessing cylinder follows from the level
                        m = got.level
                        u, v = target.word(m), y.word(m)
                        assert cylinder_within_eta(sys, f, u, v, Strictness.RAISED)
        assert yes > 0

    def test_coprime_plateau_needs_few_checks(self, monkeypatch):
        # periods 7, 11 and 13 put the scan bound at 2 + 2 * 1001 levels
        f = construct_family(BIN, "phi_ab", a=pt("1|1111112"), b=pt("2|12111111112"))
        x = pt("21|1211111111112")
        calls = []
        real = boundary.cylinder_within_eta

        def counted(*args):
            calls.append(args)
            return real(*args)

        points = []
        real_point = order.point

        def counted_point(*args):
            points.append(args)
            return real_point(*args)

        monkeypatch.setattr(boundary, "cylinder_within_eta", counted)
        monkeypatch.setattr(order, "point", counted_point)
        assert sigma_member(BIN, f, x, x).is_no
        assert len(calls) <= 40
        # the checks read digit words and build no points
        assert points == []

    @pytest.mark.parametrize("a, b, x", [
        ("1|1111112", "2|12111111112", "21|1211111111112"),  # periods 7, 11, 13
        ("1|1112", "2|1211112", "21|121111112"),  # periods 4, 7, 9
    ], ids=["7-11-13", "4-7-9"])
    def test_plateau_no_takes_the_data_scan_and_two_checks(self, monkeypatch, a, b, x):
        f = construct_family(BIN, "phi_ab", a=pt(a), b=pt(b))
        x = pt(x)
        want, data = _scan_levels(BIN, f, x, x, Strictness.NONSTRICT)
        assert want.is_no
        start = merge_level(x, x)
        calls = count_checks(monkeypatch)
        assert sigma_member(BIN, f, x, x).is_no
        # start, the levels up to the data level, and the bound
        assert len(calls) <= (data - start) + 2
        assert calls[-1] == boundary._level_bounds(BIN, f, x, x)[1]

    def test_depth_caps_past_the_data_level(self, monkeypatch):
        # a cap between the data level and the bound is the last level the
        # search may reach: it passes on a Yes at or below it, and fails
        # otherwise, leaving the answer unknown after one check there
        seen = Counter()
        for sys in SEARCH_SYSTEMS:
            for seed in range(14, 22):
                f, _, pairs = _search_cases(sys, seed)
                for x, y in pairs:
                    want, data = _scan_levels(sys, f, x, y, Strictness.NONSTRICT)
                    start = merge_level(x, y)
                    _, bound = boundary._level_bounds(sys, f, x, y)
                    bound = max(start, bound)
                    low = max(start, data) + 1
                    if want.is_no:
                        caps = (low, (low + bound) // 2, bound - 1)
                    elif want.level >= low:
                        m = want.level
                        caps = (m - 1, m, m + 1, (low + m) // 2)
                    else:
                        continue
                    for cap in sorted({c for c in caps if low <= c < bound}):
                        expect, _ = _scan_levels(sys, f, x, y, Strictness.NONSTRICT, cap)
                        calls = count_checks(monkeypatch)
                        got = sigma_member(sys, f, x, y, depth_cap=cap)
                        monkeypatch.undo()
                        assert got == expect, (x, y, cap)
                        if got.is_yes:
                            seen["passes at the cap"] += 1
                            assert cap in calls and max(calls) == cap
                        else:
                            assert got == Verdict("unknown", cap)
                            seen["fails at the cap"] += 1
                            assert calls[-1] == cap and len(calls) <= (data - start) + 2
        assert seen["passes at the cap"] > 0 and seen["fails at the cap"] > 0


# ---------------------------------------------------------------------------
# the word-based linkage test against the point-based one

LINK_SYSTEMS = [parse_system(t) for t in (";2", ";2,3", "3;2", ";11", "2;2,2,3", "12;2,13")]
LINK_LEVELS = (0, 1, 2, 3, 4, 5, 6, 9, 15, 31)


def _cylinder_by_points(sys, bf, u, v, strictness):
    """Reference: intersect each piece with the v-cylinder as an order
    interval and compare u followed by the top tail of the cell as a point."""
    u, v = tuple(u), tuple(v)
    n = len(v)
    cyl = interval(sys, *cylinder_bounds(sys, v))
    for ival, leaf in bf.pieces:
        cell = interval_intersect(sys, ival, cyl)
        if cell is None:
            continue
        if leaf == ID:
            if not (u < v if strictness is Strictness.STRICT else u <= v):
                return False
        elif leaf == ID_MINUS:
            if u > v or (u == v and strictness is Strictness.STRICT):
                return False
            if u == v and strictness is Strictness.NONSTRICT:
                pts = interval_small_points(sys, cell)
                if pts is None or any(has_gap_below(sys, z) for z in pts):
                    return False
        else:
            target = leaf.value
            if strictness is Strictness.RAISED:
                target = plus_point(sys, target)
            tails = interval(sys.shift(n), tail_of(sys, cell.lo, n), tail_of(sys, cell.hi, n),
                             cell.lo_open, cell.hi_open)
            w_sup, attained = interval_sup(sys.shift(n), tails)
            c = order_compare(prepend(sys, u, w_sup), target)
            if c > 0 or (c == 0 and attained and strictness is Strictness.STRICT):
                return False
    return True


def _raw_spellings(sys, f):
    """f, f with every closed end that has a gap on its outer side written
    as an open end across that gap, and f with the ends of every piece
    swapped and one end opened (empty pieces, which the test must skip;
    a one-point piece becomes (x, x] or [x, x))."""
    opened, swapped = [], []
    for i, (ival, leaf) in enumerate(f.pieces):
        lo, lo_open, hi, hi_open = ival.lo, ival.lo_open, ival.hi, ival.hi_open
        if not lo_open and has_gap_below(sys, lo):
            lo, lo_open = pred(sys, lo), True
        if not hi_open and has_gap_above(sys, hi):
            hi, hi_open = suc(sys, hi), True
        opened.append((OrderInterval(lo, hi, lo_open, hi_open), leaf))
        swapped.append((OrderInterval(ival.hi, ival.lo, i % 2 == 0, i % 2 == 1), leaf))
    return f, PiecewiseBF(tuple(opened), f.mode), PiecewiseBF(tuple(swapped), f.mode)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DigitRangeError as e:
        return ("DigitRangeError", str(e))


class TestWordLinkage:
    def test_matches_point_based_reference(self):
        seen = Counter()
        for sys in LINK_SYSTEMS:
            for seed in range(4):
                rng = random.Random(seed)
                # a lawful function, and a partition with any leaves
                f = random_bf(sys, rng) if seed % 2 else _random_partition(sys, rng)
                pool = sample_points(sys, seed, 6, 5, 3)
                ends = [z for ival, leaf in f.pieces for z in (ival.lo, ival.hi)
                        + ((leaf.value, plus_point(sys, leaf.value))
                           if isinstance(leaf, Const) else ())]
                for g in _raw_spellings(sys, f):
                    for n in LINK_LEVELS:
                        words = [z.word(n) for z in ends + pool]
                        for _ in range(6):
                            u, v = rng.choice(words), rng.choice(words)
                            if rng.random() < 0.5:
                                # v at a piece end, u at its value or at v
                                ival, leaf = rng.choice(f.pieces)
                                v = rng.choice((ival.lo, ival.hi)).word(n)
                                u = leaf.value.word(n) \
                                    if isinstance(leaf, Const) and rng.random() < 0.7 else v
                            if n and rng.random() < 0.2:
                                # a digit outside 1..k_i in u or in v
                                i = rng.randrange(n)
                                bad = rng.choice((0, sys.k_at(i + 1) + 1))
                                w = (u, v)[rng.randrange(2)]
                                w = w[:i] + (bad,) + w[i + 1:]
                                u, v = (w, v) if rng.random() < 0.5 else (u, w)
                            for st in Strictness:
                                got = _outcome(cylinder_within_eta, sys, g, u, v, st)
                                want = _outcome(_cylinder_by_points, sys, g, u, v, st)
                                assert got == want, (format_system(sys), g, u, v, st)
                                seen[got if isinstance(got, bool) else "error"] += 1
        assert all(seen[k] > 0 for k in (True, False, "error"))


# ---------------------------------------------------------------------------
# the normal form against an exact reference


def _values_equal(sys, f, g):
    """Reference: overlay the two partitions and compare the leaves per cell.

    Different leaves agree on a cell only where it has one or two points.
    Modes are not compared.
    """
    def cell_equal(cell, lf, lg):
        if type(lf) is type(lg):
            return not isinstance(lf, Const) or lf.value == lg.value
        pts = interval_small_points(sys, cell)
        return pts is not None and all(
            leaf_value(sys, lf, y) == leaf_value(sys, lg, y) for y in pts)

    return all(cell_equal(*c) for c in overlay(sys, f, g))


def _respell(sys, f, rng):
    """The same function written with other pieces.

    Infinite pieces are split at a construct_between point, and closed
    end points are peeled off as singletons carrying any leaf that gives
    their value; small pieces also take any such leaf.
    """
    def leaves(pts):
        val = {y: eval_bf(sys, f, y) for y in pts}
        return [lf for lf in (ID, ID_MINUS, Const(val[pts[0]]))
                if all(leaf_value(sys, lf, y) == val[y] for y in pts)]

    out = []
    for ival, leaf in f.pieces:
        pts = interval_small_points(sys, ival)
        if pts is not None:
            out.append((ival, rng.choice(leaves(pts))))
            continue
        parts = [ival]
        mid = construct_between(sys, ival.lo, ival.hi)
        if mid is not None and rng.random() < 0.7:
            closed_left = rng.random() < 0.5
            parts = [interval(sys, ival.lo, mid, ival.lo_open, not closed_left),
                     interval(sys, mid, ival.hi, closed_left, ival.hi_open)]
        for part in parts:
            head = tail = None
            if not part.lo_open and rng.random() < 0.4 \
                    and interval_small_points(sys, part) is None:
                head = part.lo
                part = interval(sys, head, part.hi, True, part.hi_open)
            if not part.hi_open and rng.random() < 0.4 \
                    and interval_small_points(sys, part) is None:
                tail = part.hi
                part = interval(sys, part.lo, tail, part.lo_open, True)
            if head is not None:
                out.append((interval(sys, head, head), rng.choice(leaves([head]))))
            out.append((part, leaf))
            if tail is not None:
                out.append((interval(sys, tail, tail), rng.choice(leaves([tail]))))
    return PiecewiseBF(tuple(out), f.mode)


def _random_partition(sys, rng):
    """Pieces between random cuts with random leaves, lawful or not.

    Cuts often come with their gap partners and a constant takes the
    value of an end of its piece, so neighbours often compute the same
    value at a border.
    """
    lo, hi = p_min(sys), p_max(sys)
    cuts = set()
    for x in sample_points(sys, rng.randrange(1 << 30), 8)[2:]:
        cuts.add(x)
        if has_gap_above(sys, x) and rng.random() < 0.5:
            cuts.add(suc(sys, x))
    cuts = sorted(cuts - {lo, hi}, key=cmp_to_key(order_compare))
    pieces, start, start_open = [], lo, False
    for c in cuts + [hi]:
        c_left = c == hi or rng.random() < 0.5
        try:
            ival = interval(sys, start, c, start_open, not c_left)
        except EmptyIntervalError:
            ival = None
        if ival is not None:
            leaf = rng.choice([ID, ID_MINUS, Const(rng.choice((lo, start, c)))])
            pieces.append((ival, leaf))
        start, start_open = c, c_left
    return PiecewiseBF(tuple(pieces))


class TestCanonicalForm:
    def test_structural_equality_matches_reference(self):
        seen = Counter()
        for sys in SEARCH_SYSTEMS:
            rng = random.Random(f"canonical {sys}")
            pool = []
            for _ in range(12):
                f = random_bf(sys, rng)
                m = boundary_of(sys, random_module_expr(sys, rng))
                pool += [f, bf_meet(sys, f, identity_bf(sys)), m]
                pool += [_respell(sys, g, rng) for g in (f, f, m)]
            norms = [normalize_bf(sys, f) for f in pool]
            for f, n in zip(pool, norms):
                assert normalize_bf(sys, n).pieces == n.pieces
                assert _values_equal(sys, f, n)
            for i, (f, n) in enumerate(zip(pool, norms)):
                for g, k in zip(pool[i:], norms[i:]):
                    same = _values_equal(sys, f, g)
                    assert (n.pieces == k.pieces) == same
                    assert bf_eq(sys, n, k) == (same and f.mode is g.mode)
                    if same:
                        seen["equal, spelled alike" if f.pieces == g.pieces
                             else "equal, spelled apart" if f.mode is g.mode
                             else "equal, modes apart"] += 1
                    else:
                        seen["unequal"] += 1
        assert all(seen[k] > 0 for k in (
            "equal, spelled alike", "equal, spelled apart", "equal, modes apart", "unequal"))

    def test_library_results_are_normal_forms(self):
        for sys in SEARCH_SYSTEMS:
            rng = random.Random(f"library {sys}")
            made = [identity_bf(sys), identity_bf(sys, Mode.MODULE)]
            for _ in range(8):
                f, g = random_bf(sys, rng), random_bf(sys, rng)
                lattice = [bf_join(sys, f, g), bf_meet(sys, f, g)]
                for h in lattice:
                    assert validate_bf(sys, h) == [], format_bf(sys, h)
                made += [f, bf_minus(sys, f), bf_plus(sys, f), *lattice,
                         boundary_of(sys, random_ideal_expr(sys, rng, 2)),
                         boundary_of(sys, random_module_expr(sys, rng))]
            for h in made:
                assert normalize_bf(sys, h) == h
                back = parse_bf(sys, format_bf(sys, h))
                assert back == h and hash(back) == hash(h)
                again = normalize_bf(sys, _respell(sys, h, rng))
                assert again == h and hash(again) == hash(h)

    def test_any_partition_has_one_normal_form(self):
        for sys in SEARCH_SYSTEMS:
            rng = random.Random(f"partition {sys}")
            for _ in range(40):
                f = _random_partition(sys, rng)
                n = normalize_bf(sys, f)
                assert normalize_bf(sys, n).pieces == n.pieces
                assert _values_equal(sys, f, n)
                for _ in range(3):
                    assert normalize_bf(sys, _respell(sys, f, rng)).pieces == n.pieces


# ---------------------------------------------------------------------------
# the write-path memo


MEMO_TABLES = (boundary._checked_bf, bf_minus, bf_plus, boundary._lattice,
               idealsets._boundary)
MEMO_SYSTEMS = [parse_system(t) for t in (
    ";2", ";2,3", "3;2", ";3", ";11", "2;2,2,3", "12;2,13", ";2,3,5", ";7,11", "5,13;3,4,7")]


def clear_memo():
    for table in MEMO_TABLES + (order._canonical_point,):
        table.cache_clear()


def _write_path_run(sys):
    """Functions drawn through every memoized operation, from a fixed seed."""
    rng = random.Random("memo|" + format_system(sys))
    fs = [random_bf(sys, rng) for _ in range(6)]
    out = []
    for f, g in zip(fs, fs[1:] + fs[:1]):
        out += [bf_minus(sys, f), bf_plus(sys, f), bf_join(sys, f, g), bf_meet(sys, f, g),
                parse_bf(sys, format_bf(sys, f)),
                boundary_of(sys, union(OfBFOpen(f), OfBFClosed(g)))]
    out.append(boundary_of(sys, random_ideal_expr(sys, rng, 2)))
    return fs, out


class TestMemo:
    @pytest.mark.parametrize("sys", MEMO_SYSTEMS, ids=format_system)
    def test_cold_and_warm_tables_give_equal_results(self, sys):
        clear_memo()
        cold_fs, cold = _write_path_run(sys)
        warm_fs, warm = _write_path_run(sys)
        assert warm_fs == cold_fs and warm == cold
        assert [format_bf(sys, f) for f in warm] == [format_bf(sys, f) for f in cold]
        # the memoized operations only read their tables the second time
        assert all(w is c for w, c in zip(warm, cold))
        for f in cold:
            assert validate_bf(sys, f) == [] and normalize_bf(sys, f) == f
        # and a stored answer is the one the unmemoized body gives
        for f, g in zip(cold_fs, cold_fs[1:]):
            assert bf_minus.__wrapped__(sys, f) == bf_minus(sys, f)
            assert bf_plus.__wrapped__(sys, f) == bf_plus(sys, f)
            for join in (True, False):
                assert boundary._lattice.__wrapped__(sys, f, g, join) \
                    == boundary._lattice(sys, f, g, join)
            assert boundary._checked_bf.__wrapped__(sys, f.pieces, f.mode) \
                == make_bf(sys, f.pieces, f.mode)
            expr = Intersection((OfBFOpen(f), OfBFClosed(g)))
            assert idealsets._boundary.__wrapped__(sys, expr, Mode.IDEAL) \
                == boundary_of(sys, expr)

    def test_a_repeat_returns_the_same_object(self):
        a, b = pt("1|2"), pt("21|1")
        pieces = strip_bf(a, b).pieces
        f = make_bf(BIN, pieces)
        assert make_bf(BIN, list(pieces)) is f and make_bf(BIN, tuple(pieces)) is f
        assert bf_minus(BIN, f) is bf_minus(BIN, f) and bf_plus(BIN, f) is bf_plus(BIN, f)
        g = identity_bf(BIN)
        assert bf_join(BIN, f, g) is bf_join(BIN, f, g)
        assert bf_meet(BIN, f, g) is bf_meet(BIN, f, g)
        assert boundary_of(BIN, Strip(a, b)) is boundary_of(BIN, Strip(a, b))
        assert boundary_of(BIN, union(Strip(a, b), Corner(b, a))) \
            is boundary_of(BIN, union(Strip(a, b), Corner(b, a)))

    def test_invalid_input_raises_the_same_every_time(self):
        bad = [(interval(BIN, LO, HI), Const(pt("2|1")))]  # a value above its piece
        seen = set()
        for _ in range(2):
            with pytest.raises(InvalidBoundaryFunctionError) as err:
                make_bf(BIN, bad)
            seen.add((type(err.value), str(err.value)))
        assert len(seen) == 1 and "Property1" in seen.pop()[1]
        assert make_bf(BIN, [(interval(BIN, LO, HI), Const(LO))]) == const_bf(BIN, LO)
        for _ in range(2):
            with pytest.raises(ValueError, match="across modes"):
                bf_join(BIN, identity_bf(BIN), identity_bf(BIN, Mode.MODULE))

    def test_tables_stay_within_their_bound(self):
        bound = max(t.cache_info().maxsize for t in MEMO_TABLES)
        assert all(t.cache_info().maxsize == bound for t in MEMO_TABLES)
        words = list(itertools.islice(level_words(BIN, 13), bound + 300))
        # module-mode constants with no gap below: valid for every value
        fs = [const_bf(BIN, max_tail_point(BIN, w), Mode.MODULE) for w in words]
        for f, g in zip(fs, fs[1:]):
            bf_minus(BIN, f)
            bf_plus(BIN, f)
            bf_join(BIN, f, g)
            boundary_of(BIN, OfBFClosed(f))
        for table in MEMO_TABLES:
            assert table.cache_info().currsize <= bound, table
        # evicted entries come back equal
        again = [const_bf(BIN, max_tail_point(BIN, w), Mode.MODULE) for w in words[:20]]
        assert again == fs[:20]
        assert [bf_join(BIN, f, g) for f, g in zip(again, again[1:])] == fs[1:20]


class TestSearchDataMemo:
    """Each function's closed pieces and span, built once per (system, function)."""

    @pytest.mark.parametrize("sys", SEARCH_SYSTEMS, ids=format_system)
    def test_cold_and_warm_tables_give_equal_results(self, sys):
        def run():
            out = []
            for seed in range(14, 18):
                f, pool, pairs = _search_cases(sys, seed)
                out += [sigma_member(sys, f, x, y) for x, y in pairs]
                out += [modification_certificate(sys, f, y) for y in pool]
                out += [cylinder_within_eta(sys, f, x.word(n), y.word(n), st)
                        for x, y in pairs[:4] for n in (0, 3, 7) for st in Strictness]
            return out

        boundary._search_data.cache_clear()
        cold = run()
        filled = boundary._search_data.cache_info()
        assert run() == cold
        again = boundary._search_data.cache_info()
        # the warm run builds nothing: every function is a table hit
        assert again.currsize == filled.currsize and again.misses == filled.misses
        for f in {_search_cases(sys, seed)[0] for seed in range(14, 18)}:
            assert boundary._search_data(sys, f) == boundary._search_data.__wrapped__(sys, f)

    def test_span_is_the_scan_reference_span(self):
        for sys in SEARCH_SYSTEMS:
            for seed in range(14, 22):
                f, pool, _ = _search_cases(sys, seed)
                _, pre, per = boundary._search_data(sys, f)
                for x in pool:
                    _, data = _scan_levels(sys, f, x, x, Strictness.NONSTRICT, 0)
                    pts = [x] + [p for ival, leaf in f.pieces for p in
                                 (ival.lo, ival.hi) + ((leaf.value,) if isinstance(leaf, Const)
                                                       else ())]
                    period = lcm(sys.cycle_len, *(len(p.period) for p in pts))
                    assert boundary._level_bounds(sys, f, x, x) == (data, data + 2 * period)
                    assert max(pre, len(x.preamble)) == data

    def test_a_repeat_returns_the_same_object(self):
        f = strip_bf(pt("2|1"), pt("21|2"))
        got = boundary._search_data(BIN, f)
        assert boundary._search_data(BIN, PiecewiseBF(list(f.pieces))) is got
        # open ends with a gap on their open side are closed onto their
        # neighbours: [p_min, 2|1) onto 1|2, and (21|2, p_max] onto 22|1
        assert [piece[:4] for piece in got[0]] == [
            (LO, False, pt("1|2"), False),
            (pt("2|1"), False, pt("21|2"), False),
            (pt("22|1"), False, HI, False)]
        # the longest preamble, 21|2's, and the period lcm
        assert got[1:] == (2, 1)

    def test_table_stays_within_its_bound(self):
        table = boundary._search_data
        bound = table.cache_info().maxsize
        assert bound == max(t.cache_info().maxsize for t in MEMO_TABLES)
        words = list(itertools.islice(level_words(BIN, 13), bound + 300))
        fs = [const_bf(BIN, max_tail_point(BIN, w), Mode.MODULE) for w in words]
        y = pt("|2")
        got = [sigma_member(BIN, f, y, y) for f in fs]
        assert table.cache_info().currsize <= bound
        # evicted entries come back equal
        assert [sigma_member(BIN, f, y, y) for f in fs[:20]] == got[:20]
        assert [boundary._search_data(BIN, f) for f in fs[:20]] \
            == [boundary._search_data.__wrapped__(BIN, f) for f in fs[:20]]


class TestHashableSpellings:
    def test_list_pieces_match_tuple_pieces(self):
        a, b = pt("1|2"), pt("21|1")
        f = strip_bf(a, b)
        listed = [[ival, leaf] for ival, leaf in f.pieces]
        assert PiecewiseBF(listed) == f and hash(PiecewiseBF(listed)) == hash(f)
        assert make_bf(BIN, listed) == f
        g = PiecewiseBF(listed)
        assert bf_minus(BIN, g) == bf_minus(BIN, f)
        assert bf_plus(BIN, g) == bf_plus(BIN, f)
        h = const_bf(BIN, LO)
        assert bf_join(BIN, g, PiecewiseBF(list(h.pieces))) == bf_join(BIN, f, h)
        assert bf_meet(BIN, g, PiecewiseBF(list(h.pieces))) == bf_meet(BIN, f, h)
        assert boundary_of(BIN, OfBFOpen(g)) == bf_minus(BIN, f)
        assert boundary_of(BIN, OfBFClosed(g)) == f

    def test_list_parts_match_tuple_parts(self):
        a, b = pt("1|2"), pt("21|1")
        parts = [Strip(a, b), Corner(b, a), OfBFOpen(identity_bf(BIN))]
        for cls, spelled in ((Union, union(*parts)), (Intersection, intersection(*parts))):
            listed = cls(list(parts))
            assert listed == spelled and hash(listed) == hash(spelled)
            assert boundary_of(BIN, listed) == boundary_of(BIN, spelled)
            assert boundary_of(BIN, cls([listed, Strip(b, b)])) \
                == boundary_of(BIN, cls((spelled, Strip(b, b))))


class TestStoredHashes:
    """Points, intervals and functions hash once, to their field tuple's hash."""

    def test_hash_is_the_field_tuple_hash(self):
        x = pt("21|12")
        for p in (x, Point(x.preamble, x.period), Point((2,), (1, 2, 1, 2)),
                  dataclasses.replace(x, preamble=(1,) + x.preamble)):
            assert hash(p) == hash((p.preamble, p.period))
        for ival in (OrderInterval(LO, x, False, True), OrderInterval(x, HI),
                     dataclasses.replace(interval(BIN, LO, x), hi_open=True)):
            assert hash(ival) == hash((ival.lo, ival.hi, ival.lo_open, ival.hi_open))
        f = strip_bf(pt("1|2"), pt("21|1"))
        for mode in Mode:
            listed = PiecewiseBF([[ival, leaf] for ival, leaf in f.pieces], mode)
            assert hash(listed) == hash((f.pieces, mode))
            assert hash(dataclasses.replace(listed, mode=Mode.IDEAL)) == hash(f)

    def test_hash_takes_no_part_in_repr_eq_or_fields(self):
        x = pt("21|12")
        cases = ((x, ["preamble", "period", "head", "orbit_key"]),
                 (interval(BIN, LO, x, hi_open=True), ["lo", "hi", "lo_open", "hi_open"]),
                 (strip_bf(pt("1|2"), pt("21|1")), ["pieces", "mode"]))
        for obj, names in cases:
            assert [f.name for f in dataclasses.fields(obj)] == names
            hash(obj)
            assert "_hash" not in repr(obj)
            # copies and pickles carry the fields, not the stored hash
            for twin in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
                assert "_hash" not in vars(twin)
            twin = copy.copy(obj)
            assert twin is not obj and twin == obj and hash(twin) == hash(obj)
            object.__setattr__(twin, "_hash", hash(obj) + 1)
            assert twin == obj
            assert copy.deepcopy(obj) == obj and hash(copy.deepcopy(obj)) == hash(obj)

    def test_system_hash_is_stored_outside_eq_repr_and_fields(self):
        for text in (";2", ";2,3", "12;2,13", "5,13;3,4,7"):
            sys = parse_system(text)
            assert hash(sys) == hash((sys.prefix, sys.cycle))
            assert [f.name for f in dataclasses.fields(sys)] == ["prefix", "cycle"]
            assert "_hash" not in repr(sys) and vars(sys)["_hash"] == hash(sys)
            direct = RefinementSystem(sys.prefix, sys.cycle)
            assert direct == sys and hash(direct) == hash(sys) and direct is not sys
            for twin in (copy.copy(sys), copy.deepcopy(sys), pickle.loads(pickle.dumps(sys))):
                assert "_hash" not in vars(twin)
                assert twin == sys and hash(twin) == hash(sys)
            object.__setattr__(direct, "_hash", hash(sys) + 1)
            assert direct == sys and repr(direct) == repr(sys)

    def test_pickled_function_rehashes_under_another_hash_seed(self):
        # Mode hashes its name, so a function's hash depends on PYTHONHASHSEED
        # and a pickle must not carry it into another process
        src = str(Path(boundary.__file__).resolve().parent.parent)
        head = f"""
import pickle, sys
sys.path.insert(0, {src!r})
from refbound import boundary, order
S = order.parse_system(';2')
fresh = [boundary.parse_bf(S, text) for text in (
    '[|1, 1|2] -> const(|1); [2|1, 22|1] -> id-; (22|1, |2] -> id',
    'module [|1, |2] -> const(|2)')]
"""
        # hashed before pickling, so a stored hash would be in the pickle
        dump = head + "old = list(map(hash, fresh))\nprint(pickle.dumps(fresh).hex(), *old)"
        load = head + """
data, *old = sys.stdin.read().split()
got = pickle.loads(bytes.fromhex(data))
assert [f.mode for f in got] == [boundary.Mode.IDEAL, boundary.Mode.MODULE]
for f, g, h in zip(got, fresh, old):
    assert f == g and hash(f) == hash(g) != int(h), 'stale or wrong hash'
    assert {g: 'found'}[f] == 'found' and f in set(fresh)
"""

        def run(code, seed, stdin=None):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            done = subprocess.run([_sys.executable, "-c", code], input=stdin,
                                  capture_output=True, text=True, env=env)
            assert done.returncode == 0, done.stderr
            return done.stdout

        run(load, "2", run(dump, "1"))


def test_reimport_frees_the_old_library():
    # the memo tables hold functions of the library's own classes; dropping
    # the package and importing it again must let the old one be collected
    src = str(Path(boundary.__file__).resolve().parent.parent)
    code = f"""
import gc, importlib, sys, weakref
sys.path.insert(0, {src!r})
import refbound
from refbound import boundary, idealsets, order
sys_ = order.parse_system(';2,3')
boundary.bf_plus(sys_, idealsets.boundary_of(sys_, idealsets.Strip(order.p_min(sys_), order.p_max(sys_))))
old = weakref.ref(order.Point)
for name in [n for n in sys.modules if n == 'refbound' or n.startswith('refbound.')]:
    del sys.modules[name]
del refbound, boundary, idealsets, order, sys_
importlib.import_module('refbound')
gc.collect()
assert old() is None, 'the old refbound is still alive'
"""
    done = subprocess.run([_sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
