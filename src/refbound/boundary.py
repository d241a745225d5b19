"""Piecewise boundary functions and the cylinder linkage tests.

A boundary function assigns to every point y a value phi(y) below it
(order mode) describing where an ideal set's fiber over y tops out.
This module represents them as finite piecewise functions whose pieces
are order intervals carrying one of three leaves: the identity, the
left-limit of the identity, or a constant.  Everything here is exact
and symbolic: evaluation, normalization, extensional equality, the
validity checker, the lattice operations, and the open/closed linkage
tests between matched-tail cylinder pairs.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from .order import (
    EmptyIntervalError,
    OrderInterval,
    Point,
    RefinementError,
    RefinementSystem,
    check_digits,
    compare_beyond,
    construct_between_no_gap_below,
    cylinder_bounds,
    format_point,
    has_gap_above,
    has_gap_below,
    interval,
    interval_contains,
    interval_inf,
    interval_intersect,
    interval_small_points,
    interval_sup,
    le,
    lt,
    merge_level,
    orbit_test,
    order_compare,
    parse_point,
    p_max,
    p_min,
    p_test,
    pred,
    suc,
)


class Mode(enum.Enum):
    IDEAL = "ideal"
    MODULE = "module"


class Strictness(enum.Enum):
    NONSTRICT = "nonstrict"
    STRICT = "strict"
    RAISED = "raised"


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class IdentityMinus:
    pass


@dataclass(frozen=True)
class Const:
    value: Point


# not typing.Union, whose cache would keep this module alive after a re-import
Leaf = Identity | IdentityMinus | Const
Piece = tuple[OrderInterval, Leaf]

ID = Identity()
ID_MINUS = IdentityMinus()


def minus_point(sys: RefinementSystem, x: Point) -> Point:
    """Left limit of the identity: the predecessor across a gap, else x."""
    return pred(sys, x) if has_gap_below(sys, x) else x


def plus_point(sys: RefinementSystem, x: Point) -> Point:
    return suc(sys, x) if has_gap_above(sys, x) else x


def leaf_value(sys: RefinementSystem, leaf: Leaf, y: Point) -> Point:
    if isinstance(leaf, Identity):
        return y
    if isinstance(leaf, IdentityMinus):
        return minus_point(sys, y)
    return leaf.value


def leaf_sup(sys: RefinementSystem, ival: OrderInterval, leaf: Leaf) -> tuple[Point, bool]:
    """Sup of the leaf's values over the interval, with attainment."""
    if isinstance(leaf, Const):
        return leaf.value, True
    m, attained = interval_sup(sys, ival)
    if isinstance(leaf, Identity):
        return m, attained
    # left-limit leaf: an unattained sup sits at a point with no gap below,
    # where the left limit changes nothing
    return minus_point(sys, m), attained


def leaf_inf(sys: RefinementSystem, ival: OrderInterval, leaf: Leaf) -> tuple[Point, bool]:
    if isinstance(leaf, Const):
        return leaf.value, True
    m, attained = interval_inf(sys, ival)
    if isinstance(leaf, Identity):
        return m, attained
    if attained:
        return minus_point(sys, m), True
    return m, False


@dataclass(frozen=True)
class PiecewiseBF:
    """Piecewise boundary function in its normal form.

    Many piece lists spell one function; normalize_bf picks the
    canonical one.  Build through make_bf, parse_bf, normalize_bf or a
    library operation, which all return that spelling, so == and hash
    compare functions.  Pieces spelled by hand compare as spelled until
    they go through normalize_bf; lists are stored as tuples, so every
    function hashes.  The hash is hash((pieces, mode)), stored once as
    Point's is.  Mode's hash depends on PYTHONHASHSEED, so pickling and
    copying keep only pieces and mode and rebuild the hash.
    """

    pieces: tuple[Piece, ...]
    mode: Mode = Mode.IDEAL

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(map(tuple, self.pieces)))

    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.pieces, self.mode))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return PiecewiseBF, (self.pieces, self.mode)


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


class InvalidBoundaryFunctionError(RefinementError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        text = "; ".join(f"{v.code}: {v.detail}" for v in self.violations)
        super().__init__(text or "invalid boundary function")


@dataclass(frozen=True)
class Verdict:
    kind: str  # "yes" | "no" | "unknown"
    level: Optional[int] = None

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"


def verdict_yes(level: int) -> Verdict:
    return Verdict("yes", level)


VERDICT_NO = Verdict("no")


def verdict_unknown(depth: int) -> Verdict:
    return Verdict("unknown", depth)


# ---------------------------------------------------------------------------
# evaluation and partition structure


def eval_bf(sys: RefinementSystem, bf: PiecewiseBF, x: Point) -> Point:
    for ival, leaf in bf.pieces:
        if interval_contains(ival, x):
            return leaf_value(sys, leaf, x)
    raise RefinementError("point not covered by any piece")


def _adjacent(sys: RefinementSystem, left: OrderInterval, right: OrderInterval) -> bool:
    if left.hi == right.lo:
        return left.hi_open != right.lo_open
    if left.hi_open or right.lo_open:
        return False
    return has_gap_above(sys, left.hi) and suc(sys, left.hi) == right.lo


def _partition_violations(sys: RefinementSystem, pieces: Sequence[Piece]) -> list[Violation]:
    out = []
    if not pieces:
        return [Violation("Partition", "no pieces")]
    first, last = pieces[0][0], pieces[-1][0]
    if first.lo != p_min(sys) or first.lo_open:
        out.append(Violation("Partition", "must start closed at the minimum point"))
    if last.hi != p_max(sys) or last.hi_open:
        out.append(Violation("Partition", "must end closed at the maximum point"))
    for (a, _), (b, _) in zip(pieces, pieces[1:]):
        if not _adjacent(sys, a, b):
            out.append(Violation(
                "Partition", "pieces neither touch with one open end nor sit across a gap"))
    return out


# ---------------------------------------------------------------------------
# normalization


def normalize_bf(sys: RefinementSystem, bf: PiecewiseBF) -> PiecewiseBF:
    """Canonical form: the one spelling of the function's values.

    Intervals carry canonical flags, one- and two-point pieces carry an
    identity or constant leaf, neighbors differ in leaf, and no small
    piece is computed in full by a neighbor's leaf.  A point that two
    neighbors both compute goes left when it has a gap above, else to
    the leaf ranked first among constant, identity, left limit.  On an
    infinite interval the values fix the leaf, so extensionally equal
    functions normalize to equal pieces.  One left-to-right sweep:
    small pieces are split into points, then each piece settles
    against the top of a stack.  The pieces must partition the points
    in order (the Partition law of validate_bf).  make_bf and the
    companion and lattice operations call it once on the pieces they
    build; a function they return is its own normal form.  Call it on
    pieces spelled by hand before comparing or classifying them.
    """
    out: list[tuple[OrderInterval, Leaf, Optional[list[Point]]]] = []
    for ival, leaf in bf.pieces:
        ival = interval(sys, ival.lo, ival.hi, ival.lo_open, ival.hi_open)
        pts = interval_small_points(sys, ival)
        if pts is None:
            _settle(sys, out, ival, leaf, None)
            continue
        for y in pts:
            val = leaf_value(sys, leaf, y)
            _settle(sys, out, OrderInterval(y, y), ID if val == y else Const(val), [y])
    return PiecewiseBF(tuple((ival, leaf) for ival, leaf, _ in out), bf.mode)


_LEAF_RANK = {Const: 0, Identity: 1, IdentityMinus: 2}


def _covers(sys: RefinementSystem, leaf: Leaf, pts: Optional[list[Point]],
            own: Leaf) -> bool:
    """Does leaf give own's values on all of a one- or two-point piece?"""
    return pts is not None and all(
        leaf_value(sys, leaf, y) == leaf_value(sys, own, y) for y in pts)


def _settle(sys: RefinementSystem, out: list, ival: OrderInterval, leaf: Leaf,
            pts: Optional[list[Point]]) -> None:
    """Push a piece onto the normalized stack, merging or trading points with its top.

    Stack entries carry the piece's points when it has at most two (pts);
    the pieces come in order, each starting where the last one ends.
    """
    while out:
        top, top_leaf, top_pts = out[-1]
        joined = OrderInterval(top.lo, ival.hi, top.lo_open, ival.hi_open)
        both = None if top_pts is None or pts is None else top_pts + pts
        if top_leaf == leaf or _covers(sys, top_leaf, pts, leaf):
            out[-1] = (joined, top_leaf, both)
            return
        if not _covers(sys, leaf, top_pts, top_leaf):
            new_top, new_ival = _border(sys, top, top_leaf, ival, leaf)
            if new_top is not top:
                out[-1] = (new_top, top_leaf, interval_small_points(sys, new_top))
                ival, pts = new_ival, interval_small_points(sys, new_ival)
            break
        out.pop()
        ival, pts = joined, both
    out.append((ival, leaf, pts))


def _border(sys: RefinementSystem, li: OrderInterval, ll: Leaf,
            ri: OrderInterval, rl: Leaf) -> tuple[OrderInterval, OrderInterval]:
    """Hand the points both leaves compute at a border to the side the rule picks.

    Those points are at most one gap pair.  Its lower point (the one with
    a gap above) stays left; any other goes to the leaf of lower rank.
    Returns the two intervals, the same objects when nothing moves.
    """
    left_wins = _LEAF_RANK[type(ll)] < _LEAF_RANK[type(rl)]

    def to_left(y: Point) -> Optional[bool]:
        if leaf_value(sys, ll, y) != leaf_value(sys, rl, y):
            return None
        return left_wins or has_gap_above(sys, y)

    if not li.hi_open and to_left(li.hi) is False:
        y = li.hi
        return (interval(sys, li.lo, y, li.lo_open, True),
                interval(sys, y, ri.hi, False, ri.hi_open))
    last, y = None, None if ri.lo_open else ri.lo
    while y is not None and to_left(y):
        last, y = y, (suc(sys, y) if has_gap_above(sys, y) else None)
    if last is None:
        return li, ri
    return (interval(sys, li.lo, last, li.lo_open, False),
            interval(sys, last, ri.hi, True, ri.hi_open))


# ---------------------------------------------------------------------------
# overlay and extensional comparisons


def _end_order(a: OrderInterval, b: OrderInterval) -> int:
    c = order_compare(a.hi, b.hi)
    if c != 0:
        return c
    if a.hi_open == b.hi_open:
        return 0
    return -1 if a.hi_open else 1


def overlay(sys: RefinementSystem, f: PiecewiseBF,
            g: PiecewiseBF) -> list[tuple[OrderInterval, Leaf, Leaf]]:
    """Common refinement of two partitions with both leaves per cell."""
    cells = []
    i = j = 0
    while i < len(f.pieces) and j < len(g.pieces):
        fi, fl = f.pieces[i]
        gi, gl = g.pieces[j]
        cell = interval_intersect(sys, fi, gi)
        if cell is not None:
            cells.append((cell, fl, gl))
        c = _end_order(fi, gi)
        if c <= 0:
            i += 1
        if c >= 0:
            j += 1
    return cells


def bf_eq(sys: RefinementSystem, f: PiecewiseBF, g: PiecewiseBF) -> bool:
    """Extensional equality: the same mode and the same value at every point.

    Both functions are in the normal form, which is canonical, so this
    is f == g.
    """
    return f == g


def _cell_le(sys: RefinementSystem, cell: OrderInterval, lf: Leaf, lg: Leaf) -> bool:
    if isinstance(lf, Const) and isinstance(lg, Const):
        return le(lf.value, lg.value)
    if isinstance(lg, Const):
        v, _ = leaf_sup(sys, cell, lf)
        return le(v, lg.value)
    if isinstance(lf, Const):
        v, _ = leaf_inf(sys, cell, lg)
        return le(lf.value, v)
    if isinstance(lf, IdentityMinus):
        return True
    if isinstance(lg, IdentityMinus):
        pts = interval_small_points(sys, cell)
        if pts is None:
            return False
        return all(not has_gap_below(sys, y) for y in pts)
    return True


def pointwise_le(sys: RefinementSystem, f: PiecewiseBF, g: PiecewiseBF) -> bool:
    return all(_cell_le(sys, cell, lf, lg) for cell, lf, lg in overlay(sys, f, g))


# ---------------------------------------------------------------------------
# one-sided companions


# The companions, the lattice core and make_bf's body keep their answers in
# bounded tables, as point() does; errors are never stored.  Both distinct
# suites passes of the benchmark ask make_bf for 1,100 distinct piece lists,
# the lattice for 648 pairs and bf_minus for 258, so 4,096 entries hold a run.
@lru_cache(maxsize=4096)
def bf_minus(sys: RefinementSystem, f: PiecewiseBF) -> PiecewiseBF:
    """Left-limit companion: the value's predecessor across value gaps.

    Memoized: a repeat returns the same object.
    """
    pieces = []
    for ival, leaf in f.pieces:
        if isinstance(leaf, Identity):
            pieces.append((ival, ID_MINUS))
        elif isinstance(leaf, IdentityMinus):
            pieces.append((ival, leaf))
        else:
            pieces.append((ival, Const(minus_point(sys, leaf.value))))
    return normalize_bf(sys, PiecewiseBF(tuple(pieces), f.mode))


# ---------------------------------------------------------------------------
# cylinder linkage against a boundary function
#
# For level-n words u, v the matched-tail cylinder pair is
# {(u w, v w) : w a tail}.  The test below decides, per strictness,
# whether every matched pair lies weakly below phi, strictly below phi,
# or weakly below the gap-raised phi.  It works on digit words: a piece
# end lies below, inside or above the v-cylinder as its first n digits
# compare with v.  Identity leaves compare u with v, and a constant leaf
# compares u and then the digits beyond n of the cell's top (its upper
# end, or the cylinder max, whose tail is the maximal point's) with
# those of the value.  Both cylinder extremes are attained, and once an
# open end with a gap on its open side is closed onto its neighbour, a
# cell is empty only when both its ends lie inside and cross: an open
# end inside the cylinder could face the extreme it sits on only as
# p_min or p_max, and then no point lies beyond that extreme for the
# other end to occupy.


# What a level search reads off the function depends only on the system
# and the function, so it is built once per (system, function) and kept in
# a table like bf_minus's; errors are never stored.
@lru_cache(maxsize=4096)
def _search_data(sys: RefinementSystem, bf: PiecewiseBF) -> tuple[tuple, int, int]:
    """(closed pieces, longest preamble, period lcm) of the function.

    Each closed piece is (lo, lo_open, hi, hi_open, leaf) with every open
    end that has a gap on its open side closed onto its neighbour.  The
    preamble and the lcm run over the system and the points the function
    is built from.
    """
    closed = []
    pre, per = sys.prefix_len, sys.cycle_len
    for ival, leaf in bf.pieces:
        lo, lo_open, hi, hi_open = ival.lo, ival.lo_open, ival.hi, ival.hi_open
        if lo_open and has_gap_above(sys, lo):
            lo, lo_open = suc(sys, lo), False
        if hi_open and has_gap_below(sys, hi):
            hi, hi_open = pred(sys, hi), False
        closed.append((lo, lo_open, hi, hi_open, leaf))
        for pt in (ival.lo, ival.hi) + ((leaf.value,) if isinstance(leaf, Const) else ()):
            pre = max(pre, len(pt.preamble))
            per = lcm(per, len(pt.period))
    return tuple(closed), pre, per


def cylinder_within_eta(sys: RefinementSystem, bf: PiecewiseBF,
                        u: Sequence[int], v: Sequence[int],
                        strictness: Strictness = Strictness.NONSTRICT) -> bool:
    """Does every matched-tail pair (u w, v w) sit below the function?

    Nonstrict compares against phi(v w), strict demands strict order,
    and raised compares against phi(v w) pushed through its gap above.
    Each piece meets the v-cylinder in a cell, decided on digit words
    without building points; only a left-limit leaf with u = v,
    nonstrict, lists the cell's points.  The pieces, their open ends
    closed across gaps, come from _search_data.  v is range-checked on
    every call, u where a constant leaf reads it (DigitRangeError).
    """
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError("cylinder words must have one length")
    n = len(v)
    ks = sys.k_word(n)
    check_digits(v, ks)
    for lo, lo_open, hi, hi_open, leaf in _search_data(sys, bf)[0]:
        hw = hi.word(n)
        if hw < v:
            continue
        lw = lo.word(n)
        if lw > v:
            continue
        lo_in, hi_in = lw == v, hw == v
        if lo_in and hi_in:
            c = order_compare(lo, hi)
            if c > 0 or (c == 0 and (lo_open or hi_open)):
                continue
        if isinstance(leaf, Identity):
            if strictness is Strictness.STRICT:
                if not u < v:
                    return False
            elif not u <= v:
                return False
        elif isinstance(leaf, IdentityMinus):
            if u > v:
                return False
            if u == v:
                if strictness is Strictness.STRICT:
                    return False
                if strictness is Strictness.NONSTRICT:
                    cmin, cmax = cylinder_bounds(sys, v)
                    cell = OrderInterval(lo if lo_in else cmin, hi if hi_in else cmax,
                                         lo_open and lo_in, hi_open and hi_in)
                    pts = interval_small_points(sys, cell)
                    if pts is None or any(has_gap_below(sys, z) for z in pts):
                        return False
        else:
            target = leaf.value
            if strictness is Strictness.RAISED:
                target = plus_point(sys, target)
            check_digits(u, ks)
            head = target.word(n)
            if u != head:
                if u > head:
                    return False
                continue
            c = compare_beyond(hi if hi_in else p_max(sys), target, n)
            if c > 0 or (c == 0 and strictness is Strictness.STRICT
                         and not (hi_in and hi_open)):
                return False
    return True


def _level_bounds(sys: RefinementSystem, bf: PiecewiseBF, x: Point, y: Point) -> tuple[int, int]:
    """(data level, scan bound) of a level search on the pair (x, y).

    The data level is the longest preamble among the system, x, y and the
    points the function is built from; the scan bound adds twice the lcm
    of all their periods.  The function's share comes from _search_data.
    """
    _, pre, per = _search_data(sys, bf)
    pre = max(pre, len(x.preamble), len(y.preamble))
    per = lcm(per, len(x.period), len(y.period))
    return pre, pre + 2 * per


def _least_level(sys: RefinementSystem, bf: PiecewiseBF, x: Point, y: Point,
                 strictness: Strictness, depth_cap: Optional[int] = None) -> Verdict:
    """Least level m >= merge_level(x, y) whose matched-tail cylinder passes.

    x and y share digit m + 1, so the level m + 1 cylinder pairs are a
    subset of the level m ones and a passing level stays passing deeper
    down.  Levels up to the data level are scanned in order, where most
    answers lie.  Past it the last level the search may reach (the
    bound, or depth_cap below it) is checked once: by monotonicity it
    fails exactly when every level fails, so a No costs the scan plus
    that one check.  When it passes, the search gallops and then bisects
    below it, so a deep Yes costs O(log lcm) checks more rather than the
    2 lcm of a scan to the bound.  The verdict is the one a scan of every
    level up to the bound (or up to depth_cap, which then leaves it
    unknown) would give.
    """
    def passes(m: int) -> bool:
        return cylinder_within_eta(sys, bf, x.word(m), y.word(m),
                                   strictness)

    start = merge_level(x, y)
    if depth_cap is not None and depth_cap < start:
        return verdict_unknown(depth_cap)
    if passes(start):
        return verdict_yes(start)
    data, bound = _level_bounds(sys, bf, x, y)
    bound = max(start, bound)
    stop = bound if depth_cap is None else min(depth_cap, bound)
    lo = start  # deepest level known to fail
    for m in range(start + 1, min(data, stop) + 1):
        if passes(m):
            return verdict_yes(m)
        lo = m
    if lo == stop or not passes(stop):
        return verdict_unknown(stop) if stop < bound else VERDICT_NO
    base, step, hi = lo, 1, stop  # hi: shallowest level known to pass
    while base + step < stop:
        if passes(base + step):
            hi = base + step
            break
        lo, step = base + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return verdict_yes(hi)


def sigma_member(sys: RefinementSystem, bf: PiecewiseBF, x: Point, y: Point,
                 depth_cap: Optional[int] = None) -> Verdict:
    """Membership of the pair (x, y) in the open set carved out by bf.

    The pair belongs iff some matched-tail cylinder around it sits
    entirely below the function.  The cylinder at level m + 1 is a
    subset of the one at level m (x and y agree beyond merge_level), so
    the test is monotone in m and the least passing level is searched
    for rather than scanned to.  The search is complete: beyond the
    preamble data everything repeats, so levels up to the computed
    bound decide.  A No costs the scan up to the data level plus one
    check at the bound; a Yes costs that scan, or one check at the bound
    plus a gallop and bisection below it.  A depth cap below that bound
    can leave the answer unknown.
    """
    if bf.mode is Mode.IDEAL:
        if not p_test(x, y):
            return VERDICT_NO
    else:
        if not orbit_test(x, y):
            return VERDICT_NO
    return _least_level(sys, bf, x, y, Strictness.NONSTRICT, depth_cap)


def eta_member(sys: RefinementSystem, bf: PiecewiseBF, x: Point, y: Point) -> bool:
    """Membership of (x, y) in the closed companion: x weakly below phi(y)."""
    if bf.mode is Mode.IDEAL:
        if not p_test(x, y):
            return False
    elif not orbit_test(x, y):
        return False
    return le(x, eval_bf(sys, bf, y))


# ---------------------------------------------------------------------------
# the gap-raised companion


def level_set_max(sys: RefinementSystem, bf: PiecewiseBF,
                  c: Point) -> Optional[tuple[Point, bool]]:
    """Largest solution of phi(y) = c, with attainment, scanning from the top."""
    for ival, leaf in reversed(bf.pieces):
        if isinstance(leaf, Const):
            if leaf.value == c:
                return interval_sup(sys, ival)
            continue
        if isinstance(leaf, IdentityMinus):
            if has_gap_above(sys, c):
                cand = suc(sys, c)
                if interval_contains(ival, cand):
                    return cand, True
            if not has_gap_below(sys, c) and interval_contains(ival, c):
                return c, True
            continue
        if interval_contains(ival, c):
            return c, True
    return None


def modification_certificate(sys: RefinementSystem, bf: PiecewiseBF, y: Point) -> Verdict:
    """Can the value at y be raised through its gap without leaving the class?

    Needs a gap below y, a gap above phi(y), and the raised linkage of
    (suc phi(y), y) through some matched-tail cylinder.  A Yes carries
    the least witnessing level m; its cylinder words are the first m
    digits of suc phi(y) and of y.  As in sigma_member, deeper cylinders
    are subsets of shallower ones, so the raised linkage is monotone in
    the level and the least witnessing level is searched for, at the
    costs sigma_member states.
    """
    if not has_gap_below(sys, y):
        return VERDICT_NO
    fy = eval_bf(sys, bf, y)
    if not has_gap_above(sys, fy):
        return VERDICT_NO
    target = suc(sys, fy)
    if not orbit_test(target, y):
        return VERDICT_NO
    return _least_level(sys, bf, target, y, Strictness.RAISED)


def is_point_of_modification(sys: RefinementSystem, bf: PiecewiseBF, y: Point) -> bool:
    return modification_certificate(sys, bf, y).is_yes


@lru_cache(maxsize=4096)
def bf_plus(sys: RefinementSystem, f: PiecewiseBF) -> PiecewiseBF:
    """Right companion: raise the value through its gap at every point
    of modification.

    Identity pieces have no such points.  On a left-limit piece every
    point with a gap below is one, except possibly a closed right
    endpoint, which gets checked individually.  On a constant piece
    only the top of the value's level set qualifies, and only when
    attained here.  Memoized like bf_minus.
    """
    out: list[Piece] = []
    for ival, leaf in f.pieces:
        if isinstance(leaf, Identity):
            out.append((ival, leaf))
            continue
        if isinstance(leaf, IdentityMinus):
            top_stays = not ival.hi_open and has_gap_below(sys, ival.hi) \
                and not is_point_of_modification(sys, f, ival.hi)
            if not top_stays:
                out.append((ival, ID))
                continue
            try:
                head = interval(sys, ival.lo, ival.hi, ival.lo_open, True)
            except EmptyIntervalError:
                head = None
            if head is not None:
                out.append((head, ID))
            out.append((interval(sys, ival.hi, ival.hi), Const(pred(sys, ival.hi))))
            continue
        c = leaf.value
        split = False
        if has_gap_above(sys, c) and not ival.hi_open:
            top = level_set_max(sys, f, c)
            if top == (ival.hi, True) and has_gap_below(sys, ival.hi) \
                    and is_point_of_modification(sys, f, ival.hi):
                split = True
        if split:
            try:
                head = interval(sys, ival.lo, ival.hi, ival.lo_open, True)
            except EmptyIntervalError:
                head = None
            if head is not None:
                out.append((head, leaf))
            out.append((interval(sys, ival.hi, ival.hi), Const(suc(sys, c))))
        else:
            out.append((ival, leaf))
    return normalize_bf(sys, PiecewiseBF(tuple(out), f.mode))


def bf_equiv(sys: RefinementSystem, f: PiecewiseBF, g: PiecewiseBF) -> bool:
    """Same left limits everywhere: the two carve out the same open set."""
    return bf_eq(sys, bf_minus(sys, f), bf_minus(sys, g))


def bf_between(sys: RefinementSystem, f: PiecewiseBF, g: PiecewiseBF) -> bool:
    """Does g lie between the left and right companions of f?"""
    return pointwise_le(sys, bf_minus(sys, f), g) \
        and pointwise_le(sys, g, bf_plus(sys, f))


# ---------------------------------------------------------------------------
# validity


def _attained_top_gap_value(sys: RefinementSystem, ival: OrderInterval,
                            leaf: Leaf) -> Optional[Point]:
    """Value attained at the top of the piece, if it has a gap below."""
    if ival.hi_open:
        return None
    val = leaf_value(sys, leaf, ival.hi)
    if has_gap_below(sys, val):
        return val
    return None


def validate_bf(sys: RefinementSystem, bf: PiecewiseBF) -> list[Violation]:
    """All violations of the boundary function laws, empty when valid.

    Checks the partition, the below-the-identity law (order mode), the
    two laws about values with a gap below (their pair linkage and the
    climb just above them), monotonicity between pieces, and left
    continuity at piece starts.
    """
    out = _partition_violations(sys, bf.pieces)
    if out:
        return out
    pieces = bf.pieces

    def fmt(p: Point) -> str:
        return format_point(sys, p)

    if bf.mode is Mode.IDEAL:
        for ival, leaf in pieces:
            if isinstance(leaf, Const):
                m, _ = interval_inf(sys, ival)
                if not le(leaf.value, m):
                    out.append(Violation(
                        "Property1", f"constant value {fmt(leaf.value)} above points of its piece"))

    for ival, leaf in pieces:
        if not isinstance(leaf, Const) or not has_gap_below(sys, leaf.value):
            continue
        c = leaf.value
        pts = interval_small_points(sys, ival)
        if pts is None:
            # an infinite piece always holds a point with no gap below
            pts = [construct_between_no_gap_below(sys, ival.lo, ival.hi) or ival.hi]
        for y in pts:
            if not has_gap_below(sys, y):
                out.append(Violation(
                    "Property2b",
                    f"value {fmt(c)} with a gap below is taken at {fmt(y)} "
                    "which has no gap below"))
            linked = p_test(c, y) if bf.mode is Mode.IDEAL else orbit_test(c, y)
            if not linked:
                out.append(Violation(
                    "Property2a",
                    f"value {fmt(c)} with a gap below is not orbit-linked below {fmt(y)}"))

    for i, (ival, leaf) in enumerate(pieces):
        gap_val = _attained_top_gap_value(sys, ival, leaf)
        if gap_val is None or i + 1 >= len(pieces):
            continue
        nxt_i, nxt_leaf = pieces[i + 1]
        m, attained = leaf_inf(sys, nxt_i, nxt_leaf)
        ok = lt(gap_val, m) if attained else le(gap_val, m)
        if not ok:
            out.append(Violation(
                "Property2c",
                f"values just above {fmt(ival.hi)} do not climb past {fmt(gap_val)}"))

    for i, (ival, leaf) in enumerate(pieces):
        gap_val = _attained_top_gap_value(sys, ival, leaf)
        if gap_val is None:
            continue
        if isinstance(leaf, Identity):
            if i + 1 >= len(pieces):
                continue
            nxt_leaf = pieces[i + 1][1]
            if isinstance(nxt_leaf, IdentityMinus):
                out.append(Violation(
                    "Property2d",
                    f"left limits right after {fmt(ival.hi)} fall back onto it"))
            elif isinstance(nxt_leaf, Const) and not lt(ival.hi, nxt_leaf.value):
                out.append(Violation(
                    "Property2d",
                    f"the pair at {fmt(ival.hi)} has no matched-tail cylinder below the function"))
        elif isinstance(leaf, Const):
            if not sigma_member(sys, bf, gap_val, ival.hi).is_yes:
                out.append(Violation(
                    "Property2d",
                    f"the pair ({fmt(gap_val)}, {fmt(ival.hi)}) has no matched-tail "
                    "cylinder below the function"))

    for (a_i, a_l), (b_i, b_l) in zip(pieces, pieces[1:]):
        s, _ = leaf_sup(sys, a_i, a_l)
        m, _ = leaf_inf(sys, b_i, b_l)
        if not le(s, m):
            out.append(Violation(
                "Property3", f"values drop from {fmt(s)} to {fmt(m)} across pieces"))

    for i in range(1, len(pieces)):
        ival, leaf = pieces[i]
        if ival.lo_open:
            continue
        y = ival.lo
        if has_gap_below(sys, y):
            continue
        if bf.mode is Mode.MODULE and y == p_min(sys):
            continue
        s, _ = leaf_sup(sys, pieces[i - 1][0], pieces[i - 1][1])
        if leaf_value(sys, leaf, y) != s:
            out.append(Violation(
                "Property4",
                f"value at {fmt(y)} is not the limit {fmt(s)} from below"))

    return out


def make_bf(sys: RefinementSystem, pieces: Sequence[Piece],
            mode: Mode = Mode.IDEAL) -> PiecewiseBF:
    """Validating constructor: normalize, then reject any law violation.

    Memoized like bf_minus on the pieces as tuples, so each distinct
    piece list (lists or tuples) is normalized and validated once.
    """
    return _checked_bf(sys, tuple((ival, leaf) for ival, leaf in pieces), mode)


@lru_cache(maxsize=4096)
def _checked_bf(sys: RefinementSystem, pieces: tuple[Piece, ...],
                mode: Mode) -> PiecewiseBF:
    raw = PiecewiseBF(pieces, mode)
    structural = _partition_violations(sys, raw.pieces)
    if structural:
        raise InvalidBoundaryFunctionError(structural)
    bf = normalize_bf(sys, raw)
    violations = validate_bf(sys, bf)
    if violations:
        raise InvalidBoundaryFunctionError(violations)
    return bf


def identity_bf(sys: RefinementSystem, mode: Mode = Mode.IDEAL) -> PiecewiseBF:
    return PiecewiseBF(((interval(sys, p_min(sys), p_max(sys)), ID),), mode)


def const_bf(sys: RefinementSystem, c: Point, mode: Mode = Mode.IDEAL) -> PiecewiseBF:
    return make_bf(sys, ((interval(sys, p_min(sys), p_max(sys)), Const(c)),), mode)


def _format_leaf(sys: RefinementSystem, leaf: Leaf) -> str:
    if isinstance(leaf, Identity):
        return "id"
    if isinstance(leaf, IdentityMinus):
        return "id-"
    return f"const({format_point(sys, leaf.value)})"


def format_bf(sys: RefinementSystem, bf: PiecewiseBF) -> str:
    """Literal form: `[lo, hi] -> leaf` pieces joined by `;`.

    The pieces are printed as spelled, which is the normal form, so
    parse_bf(format_bf(f)) == f.
    """
    bits = []
    for ival, leaf in bf.pieces:
        lo_br = "(" if ival.lo_open else "["
        hi_br = ")" if ival.hi_open else "]"
        bits.append(f"{lo_br}{format_point(sys, ival.lo)}, "
                    f"{format_point(sys, ival.hi)}{hi_br}"
                    f" -> {_format_leaf(sys, leaf)}")
    text = "; ".join(bits)
    return f"module {text}" if bf.mode is Mode.MODULE else text


_PIECE_RE = re.compile(
    r"^\s*([\[(])\s*([^,\s]+)\s*,\s*([^\s\])]+)\s*([\])])\s*->\s*"
    r"(id-|id|const\(\s*([^)\s]+)\s*\))\s*$")


def parse_bf(sys: RefinementSystem, text: str) -> PiecewiseBF:
    """Parse the piece-list literal emitted by format_bf.

    Raises ValueError on grammar problems and
    InvalidBoundaryFunctionError when the pieces break the laws.
    """
    body = text.strip()
    mode = Mode.IDEAL
    if body.startswith("module"):
        mode = Mode.MODULE
        body = body[len("module"):].strip()
    if not body:
        raise ValueError("empty boundary function literal")
    pieces = []
    for chunk in body.split(";"):
        m = _PIECE_RE.match(chunk)
        if not m:
            raise ValueError(f"bad piece {chunk.strip()!r}; "
                             "expected '[lo, hi] -> id | id- | const(point)'")
        lo = parse_point(sys, m.group(2))
        hi = parse_point(sys, m.group(3))
        ival = interval(sys, lo, hi, m.group(1) == "(", m.group(4) == ")")
        if m.group(5) == "id":
            leaf: Leaf = ID
        elif m.group(5) == "id-":
            leaf = ID_MINUS
        else:
            leaf = Const(parse_point(sys, m.group(6)))
        pieces.append((ival, leaf))
    return make_bf(sys, pieces, mode)


# ---------------------------------------------------------------------------
# lattice operations


def _split_cell(sys: RefinementSystem, cell: OrderInterval, idish: Leaf,
                c: Point, const_low: bool) -> list[Piece]:
    """Pieces of the join/meet of an identity-like leaf with a constant."""
    lo_part = interval_intersect(sys, cell, interval(sys, p_min(sys), c))
    hi_part = None
    try:
        above = interval(sys, c, p_max(sys), lo_open=True)
    except EmptyIntervalError:
        above = None
    if above is not None:
        hi_part = interval_intersect(sys, cell, above)
    out: list[Piece] = []
    if lo_part is not None:
        out.append((lo_part, Const(c) if const_low else idish))
    if hi_part is not None:
        out.append((hi_part, idish if const_low else Const(c)))
    return out


def _cell_lattice(sys: RefinementSystem, cell: OrderInterval, lf: Leaf, lg: Leaf,
                  join: bool) -> list[Piece]:
    if isinstance(lf, Const) and isinstance(lg, Const):
        if join:
            v = lf.value if le(lg.value, lf.value) else lg.value
        else:
            v = lf.value if le(lf.value, lg.value) else lg.value
        return [(cell, Const(v))]
    if isinstance(lf, Const) or isinstance(lg, Const):
        const = lf if isinstance(lf, Const) else lg
        idish = lg if isinstance(lf, Const) else lf
        return _split_cell(sys, cell, idish, const.value, const_low=join)
    if type(lf) is type(lg):
        return [(cell, lf)]
    # identity against its left limit
    return [(cell, ID if join else ID_MINUS)]


@lru_cache(maxsize=4096)
def _lattice(sys: RefinementSystem, f: PiecewiseBF, g: PiecewiseBF,
             join: bool) -> PiecewiseBF:
    if f.mode is not g.mode:
        raise ValueError("cannot combine functions across modes")
    pieces: list[Piece] = []
    for cell, lf, lg in overlay(sys, f, g):
        pieces.extend(_cell_lattice(sys, cell, lf, lg, join))
    return normalize_bf(sys, PiecewiseBF(tuple(pieces), f.mode))


def bf_join(sys: RefinementSystem, f: PiecewiseBF, g: PiecewiseBF) -> PiecewiseBF:
    """Pointwise maximum; stays inside the class.  Memoized like bf_minus."""
    return _lattice(sys, f, g, join=True)


def bf_meet(sys: RefinementSystem, f: PiecewiseBF, g: PiecewiseBF) -> PiecewiseBF:
    """Pointwise minimum; stays inside the class.  Memoized like bf_minus."""
    return _lattice(sys, f, g, join=False)
