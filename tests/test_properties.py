"""Randomized law checks driven by hypothesis.

Structured inputs (points, boundary functions, set expressions) come
from the deterministic oracle samplers keyed by a hypothesis-drawn
seed, so shrinking works on the seed while generation stays valid by
construction.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from refbound.boundary import (
    Mode,
    bf_eq,
    bf_equiv,
    bf_join,
    bf_meet,
    bf_minus,
    bf_plus,
    eval_bf,
    format_bf,
    linked,
    normalize_bf,
    parse_bf,
    pointwise_le,
    validate_bf,
)
from refbound.cocycle import b_approx, btilde, ctilde, gap_index, gap_point, order_by_cocycle
from refbound.idealsets import (
    OfBFClosed,
    OfBFOpen,
    _orbit_mates,
    boundary_of,
    expr_mode,
    member,
    union,
    validate_ideal_expr,
)
from refbound.irreducibility import bf_form, classify_join_bf, classify_meet_bf, construct_family
from refbound.oracle import random_bf, random_ideal_expr, sample_points
from refbound.order import (
    RefinementError,
    format_point,
    has_gap_above,
    has_gap_below,
    le,
    lt,
    merge_level,
    orbit_test,
    order_compare,
    p_max,
    p_min,
    p_test,
    parse_point,
    parse_system,
    pred,
    suc,
)

SYSTEMS = {lit: parse_system(lit) for lit in (";2", ";2,3", "2;3,2")}

sys_lits = st.sampled_from(sorted(SYSTEMS))
seeds = st.integers(0, 2**31 - 1)


def pts(lit, seed, count):
    return sample_points(SYSTEMS[lit], seed, count)


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds)
def test_order_is_total_and_transitive(lit, seed):
    s = SYSTEMS[lit]
    sample = pts(lit, seed, 6)
    for x in sample:
        assert order_compare(x, x) == 0
    for x in sample:
        for y in sample:
            assert order_compare(x, y) == -order_compare(y, x)
    x, y, z = sample[0], sample[1], sample[2]
    if le(x, y) and le(y, z):
        assert le(x, z)


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds)
def test_point_literal_round_trip(lit, seed):
    s = SYSTEMS[lit]
    for x in pts(lit, seed, 8):
        assert parse_point(s, format_point(s, x)) == x


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds)
def test_gap_neighbours_invert(lit, seed):
    s = SYSTEMS[lit]
    for x in pts(lit, seed, 8):
        if has_gap_above(s, x):
            up = suc(s, x)
            assert lt(x, up)
            assert pred(s, up) == x
            assert has_gap_below(s, up)
        if has_gap_below(s, x):
            down = pred(s, x)
            assert lt(down, x)
            assert suc(s, down) == x


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds)
def test_orbit_membership_matches_merge_level(lit, seed):
    sample = pts(lit, seed, 6)
    for x in sample:
        for y in sample:
            if orbit_test(x, y):
                assert merge_level(x, y) >= 0
                assert merge_level(x, y) == merge_level(y, x)
            else:
                with pytest.raises(ValueError):
                    merge_level(x, y)


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds)
def test_cocycle_agrees_with_order(lit, seed):
    s = SYSTEMS[lit]
    sample = pts(lit, seed, 6)
    for x in sample:
        b = btilde(s, x)
        assert 0 <= b <= 1
        for y in sample:
            assert order_by_cocycle(s, x, y) == order_compare(x, y)


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds)
def test_cocycle_additive_along_orbits(lit, seed):
    s = SYSTEMS[lit]
    rng = random.Random(seed)
    from refbound.oracle import _random_mate, _random_point
    x = _random_point(s, rng, 3, 2)
    y = _random_mate(s, rng, x)
    z = _random_mate(s, rng, y)
    assert ctilde(s, x, z) == ctilde(s, x, y) + ctilde(s, y, z)
    assert ctilde(s, x, y) == -ctilde(s, y, x)


@settings(max_examples=30, deadline=None)
@given(sys_lits, st.integers(1, 8))
def test_gap_point_indexing_inverts(lit, n):
    s = SYSTEMS[lit]
    g = gap_point(s, n)
    assert has_gap_above(s, g)
    assert gap_index(s, g) == n


@settings(max_examples=30, deadline=None)
@given(sys_lits, seeds, st.integers(1, 4))
def test_b_approx_brackets_and_narrows(lit, seed, depth):
    s = SYSTEMS[lit]
    wide, narrow = Fraction(1, 2 ** depth), Fraction(1, 2 ** (depth + 2))
    for x in pts(lit, seed, 4):
        lo1, hi1 = b_approx(s, x, wide)
        lo2, hi2 = b_approx(s, x, narrow)
        assert btilde(s, x) <= lo1 <= lo2 <= hi2 <= hi1
        # the minimum point's enclosure is exact
        exact = x == p_min(s)
        assert hi1 - lo1 == (0 if exact else wide)
        assert hi2 - lo2 == (0 if exact else narrow)


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds)
def test_generated_bfs_satisfy_the_laws(lit, seed):
    s = SYSTEMS[lit]
    f = random_bf(s, random.Random(seed))
    assert validate_bf(s, f) == []
    g = normalize_bf(s, f)
    assert normalize_bf(s, g).pieces == g.pieces
    assert g.mode is f.mode
    for x in pts(lit, seed, 6):
        v = eval_bf(s, f, x)
        assert le(v, x)
        assert eval_bf(s, g, x) == v


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds)
def test_minus_plus_projections(lit, seed):
    s = SYSTEMS[lit]
    f = random_bf(s, random.Random(seed))
    fm, fp = bf_minus(s, f), bf_plus(s, f)
    assert bf_eq(s, bf_minus(s, fp), fm)
    assert bf_eq(s, bf_plus(s, fm), fp)
    assert bf_eq(s, bf_minus(s, fm), fm)
    assert bf_eq(s, bf_plus(s, fp), fp)
    assert pointwise_le(s, fm, f)
    assert pointwise_le(s, f, fp)
    assert bf_equiv(s, f, fm)
    assert bf_equiv(s, f, fp)


@settings(max_examples=30, deadline=None)
@given(sys_lits, seeds, seeds)
def test_lattice_laws(lit, s1, s2):
    s = SYSTEMS[lit]
    f = random_bf(s, random.Random(s1))
    g = random_bf(s, random.Random(s2))
    j = bf_join(s, f, g)
    m = bf_meet(s, f, g)
    assert bf_eq(s, j, bf_join(s, g, f))
    assert bf_eq(s, m, bf_meet(s, g, f))
    assert bf_eq(s, bf_join(s, f, f), normalize_bf(s, f))
    assert bf_eq(s, bf_join(s, f, bf_meet(s, f, g)), normalize_bf(s, f))
    assert bf_eq(s, bf_meet(s, f, bf_join(s, f, g)), normalize_bf(s, f))
    assert pointwise_le(s, m, f)
    assert pointwise_le(s, f, j)
    for x in pts(lit, s1 ^ s2, 5):
        fx, gx = eval_bf(s, f, x), eval_bf(s, g, x)
        hi = fx if le(gx, fx) else gx
        lo = gx if le(gx, fx) else fx
        assert eval_bf(s, j, x) == hi
        assert eval_bf(s, m, x) == lo


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds)
def test_bf_literals_round_trip(lit, seed):
    s = SYSTEMS[lit]
    f = random_bf(s, random.Random(seed))
    text = format_bf(s, f)
    assert bf_eq(s, parse_bf(s, text), f)
    assert format_bf(s, parse_bf(s, text)) == text


def _mate_on_side(s, rng, x, below, tries=8):
    from refbound.oracle import _random_mate
    for _ in range(tries):
        m = _random_mate(s, rng, x)
        if le(m, x) if below else le(x, m):
            return m
    return x


@settings(max_examples=30, deadline=None)
@given(sys_lits, seeds)
def test_membership_is_a_two_sided_ideal(lit, seed):
    s = SYSTEMS[lit]
    rng = random.Random(seed)
    from refbound.oracle import _random_linked_pair
    expr = random_ideal_expr(s, rng)
    assert expr_mode(expr) is Mode.IDEAL
    for _ in range(6):
        x, y = _random_linked_pair(s, rng)
        if not member(s, expr, x, y).is_yes:
            continue
        # shrink the row index, grow the column index, stay linked
        x2 = _mate_on_side(s, rng, x, below=True)
        y2 = _mate_on_side(s, rng, y, below=False)
        assert not member(s, expr, x2, y2).is_no


@settings(max_examples=30, deadline=None)
@given(sys_lits, seeds)
def test_union_membership_is_disjunction(lit, seed):
    s = SYSTEMS[lit]
    rng = random.Random(seed)
    e1 = random_ideal_expr(s, rng, depth=1)
    e2 = random_ideal_expr(s, rng, depth=1)
    u = union(e1, e2)
    for x in pts(lit, seed, 5):
        for y in pts(lit, seed + 1, 5):
            got = member(s, u, x, y)
            parts = (member(s, e1, x, y), member(s, e2, x, y))
            if got.is_yes:
                assert any(k.is_yes for k in parts)
            elif got.is_no:
                assert all(k.is_no for k in parts)


@settings(max_examples=30, deadline=None)
@given(sys_lits, seeds)
def test_boundaries_of_random_expressions_are_lawful(lit, seed):
    s = SYSTEMS[lit]
    expr = random_ideal_expr(s, random.Random(seed))
    assert validate_ideal_expr(s, expr) == []
    bf = boundary_of(s, expr)
    assert validate_bf(s, bf) == []
    assert bf.mode is expr_mode(expr)


@settings(max_examples=30, deadline=None)
@given(sys_lits, seeds)
def test_open_set_sits_inside_hull(lit, seed):
    s = SYSTEMS[lit]
    rng = random.Random(seed)
    from refbound.oracle import _random_linked_pair
    f = random_bf(s, rng)
    lo, hi = OfBFOpen(f), OfBFClosed(f)
    for x in pts(lit, seed, 5):
        for y in pts(lit, seed + 1, 5):
            if member(s, lo, x, y).is_yes:
                assert member(s, hi, x, y).is_yes
    for _ in range(6):
        x, y = _random_linked_pair(s, rng)
        if lt(x, eval_bf(s, f, y)):
            assert member(s, lo, x, y).is_yes
            assert member(s, hi, x, y).is_yes


@settings(max_examples=30, deadline=None)
@given(sys_lits, seeds)
def test_classification_recomposes(lit, seed):
    s = SYSTEMS[lit]
    f = random_bf(s, random.Random(seed))
    mc = classify_meet_bf(s, f)
    if mc.witnesses:
        acc = mc.witnesses[0]
        for w in mc.witnesses[1:]:
            acc = bf_meet(s, acc, w)
        assert bf_eq(s, acc, f)
    jc = classify_join_bf(s, f)
    if jc.witnesses:
        acc = jc.witnesses[0]
        for w in jc.witnesses[1:]:
            acc = bf_join(s, acc, w)
        assert bf_eq(s, acc, f)


@settings(max_examples=30, deadline=None)
@given(sys_lits, seeds)
def test_families_carry_their_form(lit, seed):
    s = SYSTEMS[lit]
    rng = random.Random(seed)
    from refbound.oracle import (
        _no_gap_below,
        _random_gap_pair_linked,
        _random_interior,
    )
    bottom, top = p_min(s), p_max(s)
    a, t = _no_gap_below(s, rng), _random_interior(s, rng)
    try:
        f = construct_family(s, "phi_at", a=a, t=t)
    except (ValueError, RefinementError):
        f = None
    if f is not None:
        assert validate_bf(s, f) == []
        want = "minimal" if a == bottom else "phi_at"
        assert bf_form(s, f).tag == want
    sample = pts(lit, seed, 4)
    b, c = sample[0], sample[1]
    if lt(c, b):
        b, c = c, b
    try:
        g = construct_family(s, "phi_ab", a=b, b=c)
    except (ValueError, RefinementError):
        g = None
    if g is not None:
        assert validate_bf(s, g) == []
        # the full-width plateau at the bottom degenerates to the constant
        want = "minimal" if (b == bottom and c == top) else "phi_ab"
        assert bf_form(s, g).tag == want
    try:
        u, v = _random_gap_pair_linked(s, rng)
        h = construct_family(s, "psi_paab", a=u, b=v)
    except (ValueError, RefinementError):
        h = None
    if h is not None:
        assert validate_bf(s, h) == []
        assert bf_form(s, h).tag == "psi_paab"


@settings(max_examples=40, deadline=None)
@given(sys_lits, seeds, st.integers(1, 12))
def test_point_sampling_is_deterministic(lit, seed, count):
    s = SYSTEMS[lit]
    assert sample_points(s, seed, count) == sample_points(s, seed, count)
    assert len(sample_points(s, seed, count)) >= count


CI_SYSTEMS = {lit: parse_system(lit) for lit in (
    ";2", ";2,3", "3;2", ";3", "2;2,2,3", ";11", "12;2,13", ";2,3,5")}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CI_SYSTEMS)), seeds)
def test_deleted_branch_conditions_never_hold(lit, seed):
    """The library asks none of these three questions, since the answer
    is fixed; each is checked here on points where it would come up."""
    s = CI_SYSTEMS[lit]
    f = random_bf(s, random.Random(seed))
    sample = sample_points(s, seed, 8) + [gap_point(s, n) for n in range(1, 7)]
    above = [x for x in sample if has_gap_above(s, x)]
    below = [x for x in sample if has_gap_below(s, x)] + [suc(s, x) for x in above]
    assert above and below
    # modification_certificate: y and suc phi(y) both have a gap below,
    # so both end in 1s and share an orbit
    for y in below:
        fy = eval_bf(s, f, y)
        for c in above + ([fy] if has_gap_above(s, fy) else []):
            assert orbit_test(suc(s, c), y)
    # classify_join_ideal: pred a ends in maximal digits and suc t in 1s
    for a in below:
        for t in above:
            assert not p_test(pred(s, a), suc(s, t))
    # _sampled_downward_closure: orbit mates of a linked pair are linked
    for x in sample:
        for y in sample:
            for mode in Mode:
                if linked(mode, x, y):
                    assert linked(mode, *_orbit_mates(s, x, y))
