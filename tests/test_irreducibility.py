"""Classifier tests: normal-form tags, witnesses, and the set catalogs."""

import random

import pytest

from refbound import irreducibility
from refbound.boundary import (
    Const,
    ID,
    ID_MINUS,
    IdentityMinus,
    Mode,
    PiecewiseBF,
    bf_eq,
    bf_join,
    bf_meet,
    bf_minus,
    bf_plus,
    const_bf,
    eval_bf,
    format_bf,
    identity_bf,
    make_bf,
    normalize_bf,
    parse_bf,
    sigma_member,
)
from refbound.idealsets import (
    Corner,
    Empty,
    Full,
    Strip,
    StripPlus,
    Union,
    boundary_of,
    member,
    _sample_pairs,
)
from refbound.irreducibility import (
    bf_form,
    classify_join_bf,
    classify_join_ideal,
    classify_meet_bf,
    classify_meet_ideal,
    construct_family,
    _cylinder_tops_inside,
    _values,
)
from refbound.oracle import random_bf
from refbound.order import (
    EmptyIntervalError,
    RefinementError,
    format_system,
    full_interval,
    has_gap_above,
    has_gap_below,
    interval,
    interval_intersect,
    interval_small_points,
    lt,
    max_tail_point,
    min_tail_point,
    order_compare,
    p_max,
    p_min,
    parse_point,
    parse_system,
    point,
    pred,
    suc,
    word_at,
    word_rank,
)

BIN = parse_system(";2")


def pt(text):
    return parse_point(BIN, text)


def values(f, dropped):
    return _values(BIN, f, dropped)


class TestRangeAndDrop:
    """Image values and dropped-to values read off the normal form."""

    def test_identity_has_no_drops(self):
        assert values(identity_bf(BIN), dropped=True) == []
        assert values(identity_bf(BIN), dropped=False) is None  # the whole space

    def test_minimal_range_is_bottom_only(self):
        f = const_bf(BIN, p_min(BIN))
        assert values(f, dropped=False) == [pt("|1")]
        # everything above the bottom drops
        assert values(f, dropped=True) == [pt("|1")]

    def test_plateau_drop_is_its_value(self):
        f = construct_family(BIN, "phi_ab", a=pt("|21"), b=pt("2|21"))
        assert values(f, dropped=True) == [pt("|21")]
        assert values(f, dropped=False) is None

    def test_step_form_range_is_two_points(self):
        f = construct_family(BIN, "phi_at", a=pt("|21"), t=pt("21|2"))
        assert values(f, dropped=False) == [pt("|1"), pt("|21")]
        assert values(f, dropped=True) == [pt("|1"), pt("|21")]

    def test_stepped_gap_form_drops_to_gap_pair(self):
        g = construct_family(BIN, "psi_paab", a=pt("2|1"), b=pt("22|1"))
        assert values(g, dropped=True) == [pt("1|2"), pt("2|1")]

    def test_left_limit_leaf_drops_densely(self):
        f = make_bf(BIN, [(full_interval(BIN), ID_MINUS)])
        assert values(f, dropped=True) is None
        assert values(f, dropped=False) is None


def left_limit_pieces(f):
    return [ival for ival, leaf in f.pieces if isinstance(leaf, IdentityMinus)]


TEN_SYSTEMS = (";2", ";2,3", "3;2", ";3", ";11", "2;2,2,3", "12;2,13", ";2,3,5",
               ";7,11", "5,13;3,4,7")


class TestLeftLimitPiecesAreInfinite:
    """_values treats every id- piece as infinite: the normal form gives a
    piece with one or two points an id or const leaf."""

    @pytest.mark.parametrize("text", TEN_SYSTEMS)
    def test_random_functions(self, text):
        sys = parse_system(text)
        rng = random.Random(f"left-limit|{text}")
        seen = 0
        for _ in range(60):
            f = random_bf(sys, rng)
            for g in (f, bf_minus(sys, f)):
                for ival in left_limit_pieces(g):
                    seen += 1
                    assert interval_small_points(sys, ival) is None, format_bf(sys, g)
        assert seen > 0

    @pytest.mark.parametrize("lo,hi,want", [
        ("1|2", "2|1", "[|1, 1|2] -> id; [2|1, 2|1] -> const(1|2); (2|1, |2] -> id"),
        ("2|1", "2|1", "[|1, 1|2] -> id; [2|1, 2|1] -> const(1|2); (2|1, |2] -> id"),
        ("1|2", "1|2", "[|1, |2] -> id"),
        ("|1", "|1", "[|1, |2] -> id"),
        ("|2", "|2", "[|1, |2] -> id"),
    ])
    def test_small_pieces_get_other_leaves(self, lo, hi, want):
        lo, hi = pt(lo), pt(hi)
        pieces = [(interval(BIN, lo, hi), ID_MINUS)]
        if lo != p_min(BIN):
            pieces.insert(0, (interval(BIN, p_min(BIN), lo, hi_open=True), ID))
        if hi != p_max(BIN):
            pieces.append((interval(BIN, hi, p_max(BIN), lo_open=True), ID))
        f = normalize_bf(BIN, PiecewiseBF(tuple(pieces), Mode.IDEAL))
        assert format_bf(BIN, f) == want
        assert not left_limit_pieces(f)


class TestConstPiecesDrop:
    """_values lists every const value among the dropped-to values: in an
    ideal-mode normal form each const piece holds a point above its value."""

    @staticmethod
    def holds_a_point_above(sys, ival, c):
        try:
            above = interval(sys, c, ival.hi, True, ival.hi_open)
        except EmptyIntervalError:
            return False
        return interval_intersect(sys, above, ival) is not None

    @pytest.mark.parametrize("text", TEN_SYSTEMS)
    def test_random_functions(self, text):
        sys = parse_system(text)
        rng = random.Random(f"const-drops|{text}")
        seen = 0
        for _ in range(60):
            f = random_bf(sys, rng)
            for g in (f, bf_minus(sys, f), bf_plus(sys, f)):
                for ival, leaf in g.pieces:
                    if isinstance(leaf, Const):
                        seen += 1
                        assert self.holds_a_point_above(sys, ival, leaf.value), \
                            format_bf(sys, g)
        assert seen > 0

    @pytest.mark.parametrize("c", ["|1", "1|2", "2|1", "|12", "|2"])
    def test_one_point_piece_at_its_value_is_id(self, c):
        c = pt(c)
        pieces = [(interval(BIN, c, c), Const(c))]
        if c != p_min(BIN):
            pieces.insert(0, (interval(BIN, p_min(BIN), c, hi_open=True), ID))
        if c != p_max(BIN):
            pieces.append((interval(BIN, c, p_max(BIN), lo_open=True), ID))
        f = normalize_bf(BIN, PiecewiseBF(tuple(pieces), Mode.IDEAL))
        assert f == identity_bf(BIN)
        assert values(f, dropped=True) == []


class TestBFForm:
    def test_tags(self):
        assert bf_form(BIN, identity_bf(BIN)).tag == "identity"
        assert bf_form(BIN, const_bf(BIN, p_min(BIN))).tag == "minimal"
        f = construct_family(BIN, "phi_ab", a=pt("|21"), b=pt("2|21"))
        assert bf_form(BIN, f).tag == "phi_ab"
        assert bf_form(BIN, f).params == (pt("|21"), pt("2|21"))
        g = construct_family(BIN, "psi_paab", a=pt("2|1"), b=pt("22|1"))
        assert bf_form(BIN, g).tag == "psi_paab"
        assert bf_form(BIN, g).params == (pt("1|2"), pt("2|1"), pt("22|1"))
        h = construct_family(BIN, "phi_at", a=pt("|21"), t=pt("21|2"))
        assert bf_form(BIN, h).tag == "phi_at"

    def test_plateau_written_from_the_gap_side(self):
        # same function, constant stretch opened at suc(value)
        direct = make_bf(BIN, [
            (interval(BIN, pt("|1"), pt("1|2")), ID),
            (interval(BIN, pt("2|1"), pt("22|1")), Const(pt("1|2"))),
            (interval(BIN, pt("22|1"), pt("|2"), lo_open=True), ID),
        ])
        assert bf_form(BIN, direct).tag == "phi_ab"
        assert bf_form(BIN, direct).params == (pt("1|2"), pt("22|1"))

    def test_left_limit_everywhere_is_general(self):
        f = make_bf(BIN, [(full_interval(BIN), ID_MINUS)])
        assert bf_form(BIN, f).tag == "general"


class TestMeetBF:
    def test_identity_is_irreducible(self):
        got = classify_meet_bf(BIN, identity_bf(BIN))
        assert got.kind == "identity_form"
        assert got.irreducible

    def test_minimal_is_the_degenerate_plateau(self):
        got = classify_meet_bf(BIN, const_bf(BIN, p_min(BIN)))
        assert got.kind == "phi_ab"
        assert got.params == (p_min(BIN), p_max(BIN))

    def test_plateau_is_irreducible(self):
        f = construct_family(BIN, "phi_ab", a=pt("|21"), b=pt("2|21"))
        got = classify_meet_bf(BIN, f)
        assert got.kind == "phi_ab"
        assert got.params == (pt("|21"), pt("2|21"))

    def test_stepped_gap_form_is_irreducible(self):
        g = construct_family(BIN, "psi_paab", a=pt("2|1"), b=pt("22|1"))
        got = classify_meet_bf(BIN, g)
        assert got.kind == "psi_paab"
        assert got.params == (pt("1|2"), pt("2|1"), pt("22|1"))

    def test_two_plateaus_split(self):
        f = make_bf(BIN, [
            (interval(BIN, pt("|1"), pt("21|2")), Const(pt("|1"))),
            (interval(BIN, pt("22|1"), pt("|2")), Const(pt("|21"))),
        ])
        got = classify_meet_bf(BIN, f)
        assert got.kind == "reducible"
        w1, w2 = got.witnesses
        assert bf_eq(BIN, bf_meet(BIN, w1, w2), f)
        assert not bf_eq(BIN, w1, f)
        assert not bf_eq(BIN, w2, f)

    def test_dense_drops_split(self):
        f = make_bf(BIN, [(full_interval(BIN), ID_MINUS)])
        got = classify_meet_bf(BIN, f)
        assert got.kind == "reducible"
        w1, w2 = got.witnesses
        assert bf_eq(BIN, bf_meet(BIN, w1, w2), f)

    def test_module_mode_rejected(self):
        f = identity_bf(BIN, Mode.MODULE)
        with pytest.raises(RefinementError):
            classify_meet_bf(BIN, f)


class TestJoinBF:
    def test_minimal_is_irreducible(self):
        got = classify_join_bf(BIN, const_bf(BIN, p_min(BIN)))
        assert got.kind == "minimal_form"
        assert got.irreducible

    def test_step_form_is_irreducible(self):
        h = construct_family(BIN, "phi_at", a=pt("|21"), t=pt("21|2"))
        got = classify_join_bf(BIN, h)
        assert got.kind == "phi_at"
        assert got.params == (pt("|21"), pt("21|2"))

    def test_identity_splits(self):
        got = classify_join_bf(BIN, identity_bf(BIN))
        assert got.kind == "reducible"
        w1, w2 = got.witnesses
        assert bf_eq(BIN, bf_join(BIN, w1, w2), identity_bf(BIN))
        assert not bf_eq(BIN, w1, identity_bf(BIN))
        assert not bf_eq(BIN, w2, identity_bf(BIN))

    def test_three_plateaus_split(self):
        f = make_bf(BIN, [
            (interval(BIN, pt("|1"), pt("21|2")), Const(pt("|1"))),
            (interval(BIN, pt("22|1"), pt("221|2")), Const(pt("|21"))),
            (interval(BIN, pt("222|1"), pt("|2")), Const(pt("2|21"))),
        ])
        got = classify_join_bf(BIN, f)
        assert got.kind == "reducible"
        w1, w2 = got.witnesses
        assert bf_eq(BIN, bf_join(BIN, w1, w2), f)

    def test_dense_image_split_is_harvested_from_the_image(self):
        # the id- piece [2|1, 22|1] has image [1|2, 21|2]; the split value
        # comes from inside the image, not from inside the piece
        f = parse_bf(BIN, "[|1, 1|2] -> const(|1); [2|1, 22|1] -> id-; (22|1, |2] -> id")
        got = classify_join_bf(BIN, f)
        assert got.kind == "reducible"
        assert [format_bf(BIN, w) for w in got.witnesses] == [
            "[|1, 1|2] -> const(|1); [2|1, 2111|2] -> id-; [2112|1, |2] -> const(2111|2)",
            "[|1, 2112|1] -> const(|1); (2112|1, 22|1] -> id-; (22|1, |2] -> id",
        ]

    def test_plateau_form_splits(self):
        f = construct_family(BIN, "phi_ab", a=pt("|21"), b=pt("2|21"))
        assert classify_join_bf(BIN, f).kind == "reducible"

    def test_stepped_gap_form_splits(self):
        g = construct_family(BIN, "psi_paab", a=pt("2|1"), b=pt("22|1"))
        assert classify_join_bf(BIN, g).kind == "reducible"

    def test_module_mode_rejected(self):
        with pytest.raises(RefinementError):
            classify_join_bf(BIN, identity_bf(BIN, Mode.MODULE))


class TestMeetIdeal:
    def test_gap_free_strip_is_irreducible(self):
        got = classify_meet_ideal(BIN, Strip(pt("|12"), pt("2|21")))
        assert got.irreducible is True
        assert got.boundary_class.irreducible

    def test_linked_strip_is_irreducible(self):
        got = classify_meet_ideal(BIN, Strip(pt("2|1"), pt("22|1")))
        assert got.irreducible is True

    def test_both_gap_unlinked_strip_splits(self):
        expr = Strip(pt("1|2"), pt("22|1"))
        got = classify_meet_ideal(BIN, expr)
        assert got.irreducible is False
        w1, w2 = got.witnesses
        assert w1 == Strip(pt("2|1"), pt("22|1"))
        assert w2 == Strip(pt("1|2"), pt("21|2"))
        # both factors are themselves irreducible
        assert classify_meet_ideal(BIN, w1).irreducible
        assert classify_meet_ideal(BIN, w2).irreducible
        # and the intersection really reproduces the strip
        for x, y in _sample_pairs(BIN, expr):
            want = member(BIN, w1, x, y).is_yes and member(BIN, w2, x, y).is_yes
            assert member(BIN, expr, x, y).is_yes == want

    def test_strip_plus_is_irreducible(self):
        got = classify_meet_ideal(BIN, StripPlus(pt("2|1"), pt("22|1")))
        assert got.irreducible is True
        assert got.boundary_class.kind == "psi_paab"

    def test_empty_and_full(self):
        got = classify_meet_ideal(BIN, Empty())
        assert got.irreducible is True
        got = classify_meet_ideal(BIN, Full())
        assert got.irreducible is True
        assert got.boundary_class.kind == "identity_form"

    def test_degenerate_strip_reads_as_full(self):
        got = classify_meet_ideal(BIN, Strip(pt("|21"), pt("|12")))
        assert got.irreducible is True
        assert got.params == (p_max(BIN), p_min(BIN))
        assert "full relation" in got.note

    def test_off_catalog(self):
        got = classify_meet_ideal(BIN, Corner(pt("2|1"), pt("21|2")))
        assert got.kind == "not_in_catalog"
        assert got.irreducible is None
        got = classify_meet_ideal(BIN, Union((Empty(), Empty())))
        assert got.irreducible is None

    @pytest.mark.parametrize("a,b", [
        ("|12", "2|21"),   # no gaps, linked
        ("|12", "|21"),    # no gaps, unlinked
        ("1|2", "|21"),    # gap above a only
        ("|12", "22|1"),   # gap below b only
        ("2|1", "22|1"),   # linked across the gaps
    ])
    def test_irreducible_set_has_irreducible_boundary(self, a, b):
        got = classify_meet_ideal(BIN, Strip(pt(a), pt(b)))
        assert got.irreducible is True
        assert got.boundary_class.irreducible


class TestJoinIdeal:
    def test_empty_is_irreducible(self):
        got = classify_join_ideal(BIN, Empty())
        assert got.irreducible is True
        assert got.boundary_class.kind == "minimal_form"

    def test_gap_free_corner_is_irreducible(self):
        got = classify_join_ideal(BIN, Corner(pt("|21"), pt("21|2")))
        assert got.irreducible is True
        assert got.boundary_class.kind == "phi_at"

    def test_double_gap_corner_splits(self):
        expr = Corner(pt("2|1"), pt("21|2"))
        got = classify_join_ideal(BIN, expr)
        assert got.irreducible is False
        w1, w2 = got.witnesses
        assert w1 == Corner(pt("2|1"), pt("22|1"))
        assert w2 == Corner(pt("1|2"), pt("21|2"))
        assert classify_join_ideal(BIN, w1).irreducible
        assert classify_join_ideal(BIN, w2).irreducible
        for x, y in _sample_pairs(BIN, expr):
            want = member(BIN, w1, x, y).is_yes or member(BIN, w2, x, y).is_yes
            assert member(BIN, expr, x, y).is_yes == want

    def test_single_gap_corners_stay_whole(self):
        # gap on one side only is not enough to split
        assert classify_join_ideal(BIN, Corner(pt("2|1"), pt("2|21"))).irreducible
        assert classify_join_ideal(BIN, Corner(pt("|21"), pt("21|2"))).irreducible

    def test_off_catalog(self):
        got = classify_join_ideal(BIN, Strip(pt("|12"), pt("2|21")))
        assert got.kind == "not_in_catalog"
        assert got.irreducible is None


class TestGraphCorrespondence:
    def test_strict_graph_of_step_form_is_the_corner(self):
        at = construct_family(BIN, "phi_at", a=pt("|21"), t=pt("21|2"))
        corner = Corner(pt("|21"), pt("21|2"))
        for x, y in _sample_pairs(BIN, corner):
            strict = lt(x, eval_bf(BIN, at, y))
            assert strict == member(BIN, corner, x, y).is_yes

    def test_hull_of_step_form_shifts_across_the_gap(self):
        a = pt("1|2")
        assert has_gap_above(BIN, a) and not has_gap_below(BIN, a)
        at = construct_family(BIN, "phi_at", a=a, t=pt("21|2"))
        shifted = Corner(suc(BIN, a), pt("21|2"))
        for x, y in _sample_pairs(BIN, shifted):
            hull = sigma_member(BIN, at, x, y).is_yes
            assert hull == member(BIN, shifted, x, y).is_yes

    def test_boundary_of_strip_plus_is_the_stepped_form(self):
        psi = boundary_of(BIN, StripPlus(pt("2|1"), pt("22|1")))
        want = parse_bf(BIN, "[|1, 1|2] -> id; [2|1, 21|2] -> const(1|2); "
                             "[22|1, 22|1] -> const(2|1); (22|1, |2] -> id")
        assert psi == want

    @pytest.mark.parametrize("kind,params,text", [
        ("phi_ab", {"a": "|21", "b": "2|21"},
         "[|1, |21) -> id; [|21, 2|21] -> const(|21); (2|21, |2] -> id"),
        ("phi_ab", {"a": "|1", "b": "2|21"},
         "[|1, 2|21] -> const(|1); (2|21, |2] -> id"),
        ("psi_paab", {"a": "2|1", "b": "22|1"},
         "[|1, 1|2] -> id; [2|1, 21|2] -> const(1|2); "
         "[22|1, 22|1] -> const(2|1); (22|1, |2] -> id"),
        ("psi_paab", {"a": "12|1", "b": "2|1"},
         "[|1, 11|2] -> id; [12|1, 1|2] -> const(11|2); "
         "[2|1, 2|1] -> const(12|1); (2|1, |2] -> id"),
        ("phi_at", {"a": "|21", "t": "21|2"},
         "[|1, 21|2] -> const(|1); [22|1, |2] -> const(|21)"),
        ("phi_at", {"a": "|1", "t": "21|2"}, "[|1, |2] -> const(|1)"),
    ])
    def test_named_families_spelled_out(self, kind, params, text):
        got = construct_family(BIN, kind, **{k: pt(v) for k, v in params.items()})
        assert got == parse_bf(BIN, text)


class TestConstructFamily:
    def test_plateau_needs_no_gap_below_its_value(self):
        with pytest.raises(RefinementError, match="Property2b"):
            construct_family(BIN, "phi_ab", a=pt("2|1"), b=pt("22|1"))

    def test_step_value_needs_no_gap_below(self):
        with pytest.raises(RefinementError, match="Property2b"):
            construct_family(BIN, "phi_at", a=pt("2|1"), t=pt("21|2"))

    def test_stepped_gap_form_needs_the_gap(self):
        with pytest.raises(RefinementError, match="gap below a"):
            construct_family(BIN, "psi_paab", a=pt("|21"), b=pt("2|21"))

    def test_stepped_gap_form_needs_linkage(self):
        with pytest.raises(RefinementError, match="Property2a"):
            construct_family(BIN, "psi_paab", a=pt("2|1"), b=pt("21|2"))

    def test_degenerate_step_form_is_minimal(self):
        f = construct_family(BIN, "phi_at", a=p_min(BIN), t=pt("21|2"))
        assert bf_eq(BIN, f, const_bf(BIN, p_min(BIN)))

    def test_unknown_family(self):
        # the sets are built by their own constructors, not as families
        for kind in ("sideways", "strip", "strip_plus", "corner"):
            with pytest.raises(ValueError, match=f"unknown family: '{kind}'"):
                construct_family(BIN, kind, a=pt("|12"), b=pt("2|21"), t=pt("2|21"))

    def test_families_classify_as_themselves(self):
        f = construct_family(BIN, "phi_ab", a=pt("|21"), b=pt("2|21"))
        assert classify_meet_bf(BIN, f).kind == "phi_ab"
        g = construct_family(BIN, "psi_paab", a=pt("2|1"), b=pt("22|1"))
        assert classify_meet_bf(BIN, g).kind == "psi_paab"
        h = construct_family(BIN, "phi_at", a=pt("|21"), t=pt("21|2"))
        assert classify_join_bf(BIN, h).kind == "phi_at"


# ---------------------------------------------------------------------------
# interior cylinder tops, against the scan they replace

TEN_SYSTEMS = [parse_system(t) for t in (
    ";2", ";2,3", "3;2", ";3", ";11", "2;2,2,3", "12;2,13", ";2,3,5", ";7,11", "5,13;3,4,7")]


def ref_tops_inside(sys, ival, count):
    """The former scan for interior eventually-1 points, then pred of each.

    It tries levels 1 to 199 and, at the first with more than count words
    strictly between the ends' words, builds every candidate and filters.
    """
    bottom = p_min(sys)
    for n in range(1, 200):
        ra = word_rank(sys, ival.lo.word(n))
        rb = word_rank(sys, ival.hi.word(n))
        if rb - ra <= count:
            continue
        out = []
        for r in range(ra + 1, rb):
            cand = min_tail_point(sys, word_at(sys, n, r))
            if lt(ival.lo, cand) and lt(cand, ival.hi) and cand != bottom:
                out.append(cand)
        if len(out) >= count:
            return [pred(sys, y) for y in out[:count]]
    raise AssertionError(f"the scan found fewer than {count} points")


def random_tail_point(sys, rng, digits):
    # digits (at least the system prefix long), then a random aligned period
    per = sys.cycle_len * rng.randint(1, 3)
    ks = sys.k_word(len(digits) + per)
    return point(sys, digits, [rng.randint(1, k) for k in ks[len(digits):]])


def random_interval_ends(sys, rng):
    """Two points: unrelated, or first differing by one digit with the lower
    running maximal and the upper minimal for a while after (deep levels)."""
    j = sys.prefix_len + rng.randrange(6)
    ks = sys.k_word(j + 60)
    head = [rng.randint(1, k) for k in ks[:j]]
    if rng.random() < 0.4:
        return (random_tail_point(sys, rng, head + [rng.randint(1, ks[j])]),
                random_tail_point(sys, rng, [rng.randint(1, k) for k in ks[:j + 1]]))
    d = rng.randint(1, ks[j] - 1)
    low = head + [d] + list(ks[j + 1:j + 1 + rng.randrange(50)])
    high = head + [d + 1] + [1] * rng.randrange(50)
    return random_tail_point(sys, rng, low), random_tail_point(sys, rng, high)


class TestCylinderTopsInside:
    @pytest.mark.parametrize("sys", TEN_SYSTEMS, ids=format_system)
    def test_tops_match_the_scan_they_replace(self, sys):
        rng = random.Random("cylinder-tops|" + format_system(sys))
        checked = 0
        while checked < 60:
            x, y = random_interval_ends(sys, rng)
            if order_compare(x, y) == 0:
                continue
            if order_compare(x, y) > 0:
                x, y = y, x
            try:
                ival = interval(sys, x, y, rng.random() < 0.3, rng.random() < 0.3)
            except EmptyIntervalError:
                continue
            if interval_small_points(sys, ival) is not None:
                continue
            for count in (1, 4):
                got = _cylinder_tops_inside(sys, ival, count, range(count))
                assert got == ref_tops_inside(sys, ival, count), (ival, count)
            checked += 1

    @pytest.mark.parametrize("sys", TEN_SYSTEMS[:5], ids=format_system)
    def test_picked_tops_are_the_scan_tops(self, sys, monkeypatch):
        # the classifiers read tops 0 and 3 (meet) and 1 and 3 (join), and
        # only those are built
        rng = random.Random("cylinder-picks|" + format_system(sys))
        built = []
        real = irreducibility.max_tail_point

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(irreducibility, "max_tail_point", counted)
        checked = 0
        while checked < 30:
            x, y = random_interval_ends(sys, rng)
            if order_compare(x, y) == 0:
                continue
            if order_compare(x, y) > 0:
                x, y = y, x
            try:
                ival = interval(sys, x, y, rng.random() < 0.3, rng.random() < 0.3)
            except EmptyIntervalError:
                continue
            if interval_small_points(sys, ival) is not None:
                continue
            want = ref_tops_inside(sys, ival, 4)
            for picks in ((0, 3), (1, 3), (3, 0)):
                del built[:]
                got = _cylinder_tops_inside(sys, ival, 4, picks)
                assert got == [want[i] for i in picks] and len(built) == 2
            checked += 1

    def test_level_one_can_suffice(self):
        wide = parse_system(";11")
        got = _cylinder_tops_inside(wide, full_interval(wide), 4, range(4))
        assert got == [max_tail_point(wide, (d,)) for d in range(1, 5)]


class TestEndsFirstDifferPastLevel200:
    """A piece [a, b] whose ends first differ at digit 207."""

    a = pt("2|1")
    b = point(BIN, (2,) + (1,) * 205 + (2,), (1, 2))

    def function(self, leaf):
        return make_bf(BIN, [
            (interval(BIN, p_min(BIN), self.a, hi_open=True), Const(p_min(BIN))),
            (interval(BIN, self.a, self.b), leaf),
            (interval(BIN, self.b, p_max(BIN), lo_open=True), Const(self.b)),
        ])

    @pytest.mark.parametrize("leaf", [ID, ID_MINUS], ids=["id", "id-"])
    def test_join_witnesses_recompose(self, leaf):
        f = self.function(leaf)
        got = classify_join_bf(BIN, f)
        assert got.kind == "reducible"
        w1, w2 = got.witnesses
        assert bf_join(BIN, w1, w2) == f and w1 != f and w2 != f

    def test_meet_witnesses_recompose(self):
        f = self.function(ID_MINUS)
        got = classify_meet_bf(BIN, f)
        assert got.kind == "reducible"
        w1, w2 = got.witnesses
        assert bf_meet(BIN, w1, w2) == f and w1 != f and w2 != f
