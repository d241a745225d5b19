"""Expressions denoting ideal sets of linked pairs.

An expression describes a set of pairs (x, y) that is closed downward
in x and upward in y.  Membership is literal per variant; boundary_of
reports the boundary function of the expression's closed hull.

Two wrappers tie the class to boundary functions: the strict sub-level
set (everything below the function) and the neighborhood hull (pairs
with a whole matched-tail cylinder below the function).  The first is
decided directly, the second by the cylinder search.  Every membership
verdict is yes, with the level it holds from, or no.

Wrapping an expression in Module drops the x <= y requirement, so the
pair set only has to respect the shared-orbit relation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .boundary import (
    Const,
    ID,
    InvalidBoundaryFunctionError,
    Mode,
    PiecewiseBF,
    Strictness,
    VERDICT_NO,
    Verdict,
    Violation,
    bf_join,
    bf_meet,
    bf_minus,
    const_bf,
    cylinder_within_eta,
    eval_bf,
    identity_bf,
    linked,
    make_bf,
    minus_point,
    sigma_member,
    verdict_yes,
)
from .order import (
    EmptyIntervalError,
    OrderInterval,
    Point,
    RefinementError,
    RefinementSystem,
    check_digits,
    cylinder_bounds,
    format_point,
    full_interval,
    has_gap_above,
    has_gap_below,
    interval,
    interval_contains,
    interval_intersect,
    le,
    level_words,
    lt,
    max_tail_point,
    min_tail_point,
    order_compare,
    p_max,
    p_min,
    pred,
    prepend,
    replace_prefix,
    suc,
    tail_of,
    word_count,
)

Word = tuple[int, ...]

# beyond this many level words the per-cylinder catalogs stop being cheap
_MAX_LEVEL_WORDS = 10_000


# ---------------------------------------------------------------------------
# finite matrix-unit sets


@dataclass(frozen=True)
class MatrixUnitSet:
    """Word pairs at one level, closed under shrinking u and growing v."""

    level: int
    pairs: frozenset
    mode: Mode = Mode.IDEAL


def _checked_words(sys: RefinementSystem, level: int) -> list[Word]:
    if word_count(sys, level) > _MAX_LEVEL_WORDS:
        raise RefinementError(f"level {level} has too many words to enumerate")
    return list(level_words(sys, level))


def _check_word(sys: RefinementSystem, w, level: int) -> Word:
    w = tuple(w)
    if len(w) != level:
        raise RefinementError(f"word {w} is not at level {level}")
    check_digits(w, sys.k_word(level))
    return w


def close_finite_level(sys: RefinementSystem, level: int, generators,
                       mode: Mode = Mode.IDEAL) -> MatrixUnitSet:
    """Smallest level set containing the generators and closed under
    the replacement u' <= u, v <= v'."""
    if level < 1:
        raise RefinementError("level must be at least 1")
    gens = []
    for u, v in generators:
        u, v = _check_word(sys, u, level), _check_word(sys, v, level)
        if mode is Mode.IDEAL and u > v:
            raise RefinementError(f"pair {u} > {v} cannot link in an ideal set")
        gens.append((u, v))
    words = _checked_words(sys, level)
    out = set()
    for u, v in gens:
        for up in words:
            if up > u:
                continue
            for vp in words:
                if vp >= v:
                    out.add((up, vp))
    return MatrixUnitSet(level, frozenset(out), mode)


# ---------------------------------------------------------------------------
# expression variants


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Full:
    pass


@dataclass(frozen=True)
class Strip:
    """Everything outside the block a <= x, y <= b."""

    a: Point
    b: Point


@dataclass(frozen=True)
class StripPlus:
    """The strip with the single pair (a, b) put back in."""

    a: Point
    b: Point


@dataclass(frozen=True)
class Corner:
    """Pairs strictly past both thresholds: x < a and t < y."""

    a: Point
    t: Point


@dataclass(frozen=True)
class FiniteLevel:
    """Generated by a closed matrix-unit set at one level."""

    units: MatrixUnitSet


@dataclass(frozen=True)
class OfBFOpen:
    """Strict sub-level set of a boundary function: x < phi(y)."""

    bf: PiecewiseBF


@dataclass(frozen=True)
class OfBFClosed:
    """Neighborhood hull: pairs with a whole cylinder below the function."""

    bf: PiecewiseBF


@dataclass(frozen=True)
class Union:
    parts: tuple

    def __post_init__(self):
        # parts given as a list still hash, and a part that cannot hash is
        # refused here rather than inside a memo lookup
        parts = tuple(self.parts)
        for part in parts:
            try:
                hash(part)
            except TypeError:
                raise TypeError(f"not an ideal-set expression: {part!r}") from None
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class Intersection:
    parts: tuple

    __post_init__ = Union.__post_init__


@dataclass(frozen=True)
class Module:
    """Outermost wrapper switching the pair order to orbit-only."""

    inner: object


_EXPRESSIONS = (Empty, Full, Strip, StripPlus, Corner, FiniteLevel, OfBFOpen,
                OfBFClosed, Union, Intersection, Module)


def union(*parts) -> Union:
    return Union(tuple(parts))


def intersection(*parts) -> Intersection:
    return Intersection(tuple(parts))


def module(expr) -> Module:
    if isinstance(expr, Module):
        return expr
    return Module(expr)


def expr_mode(expr) -> Mode:
    return Mode.MODULE if isinstance(expr, Module) else Mode.IDEAL


def _unwrap(expr):
    return expr.inner if isinstance(expr, Module) else expr


# ---------------------------------------------------------------------------
# membership


def member(sys: RefinementSystem, expr, x: Point, y: Point) -> Verdict:
    """Membership of the pair (x, y) in the expression: yes or no."""
    if isinstance(expr, Module):
        expr, mode = expr.inner, Mode.MODULE
    else:
        mode = Mode.IDEAL
    if isinstance(expr, OfBFClosed) and expr.bf.mode is mode:
        return sigma_member(sys, expr.bf, x, y)  # it tests this linkage
    if not linked(mode, x, y):
        return VERDICT_NO
    return _member(sys, expr, x, y)


def _member(sys, expr, x, y) -> Verdict:
    # the sets of a function come first: they carry the read path's queries
    if isinstance(expr, OfBFClosed):
        return sigma_member(sys, expr.bf, x, y)
    if isinstance(expr, OfBFOpen):
        if lt(x, eval_bf(sys, expr.bf, y)):
            return verdict_yes(0)
        return VERDICT_NO
    if isinstance(expr, Module):
        raise RefinementError("module wrapper must be outermost")
    if isinstance(expr, Empty):
        return VERDICT_NO
    if isinstance(expr, Full):
        return verdict_yes(0)
    if isinstance(expr, Strip):
        if le(expr.a, x) and le(y, expr.b):
            return VERDICT_NO
        return verdict_yes(0)
    if isinstance(expr, StripPlus):
        if not (le(expr.a, x) and le(y, expr.b)):
            return verdict_yes(0)
        if x == expr.a and y == expr.b:
            return verdict_yes(0)
        return VERDICT_NO
    if isinstance(expr, Corner):
        if lt(x, expr.a) and lt(expr.t, y):
            return verdict_yes(0)
        return VERDICT_NO
    if isinstance(expr, FiniteLevel):
        level = expr.units.level
        px, py = x.word(level), y.word(level)
        for u, v in expr.units.pairs:
            if px <= u and v <= py:
                return verdict_yes(level)
        return VERDICT_NO
    if isinstance(expr, Union):
        for part in expr.parts:
            k = _member(sys, part, x, y)
            if k.is_yes:
                return k
        return VERDICT_NO
    if isinstance(expr, Intersection):
        level = 0
        for part in expr.parts:
            k = _member(sys, part, x, y)
            if k.is_no:
                return VERDICT_NO
            level = max(level, k.level)
        return verdict_yes(level)
    raise TypeError(f"not an ideal-set expression: {expr!r}")


# ---------------------------------------------------------------------------
# boundary functions of closed hulls


def boundary_of(sys: RefinementSystem, expr) -> PiecewiseBF:
    """Boundary function of the closed hull of the expression.

    A union is the join, and an intersection the meet, of its parts'
    boundaries, folded from the first part: n >= 2 parts take n - 1
    lattice operations.  None or one part start from the boundary of
    Empty (a union) or Full (an intersection), so one part comes back
    normalized and in the expression's mode.  Each subexpression's
    boundary is memoized like bf_minus, so a repeat returns the same
    object and no expression's pieces are validated twice.
    """
    inner = _unwrap(expr)
    # checked before the memo lookup, which would fail on an unhashable input
    if not isinstance(inner, _EXPRESSIONS):
        raise TypeError(f"not an ideal-set expression: {inner!r}")
    return _boundary(sys, inner, expr_mode(expr))


# Memoized like bf_minus: both distinct suites passes of the benchmark ask
# for 1,524 distinct (expression, mode) pairs, a construction run for 1,138.
@functools.lru_cache(maxsize=4096)
def _boundary(sys, expr, mode) -> PiecewiseBF:
    if isinstance(expr, Module):
        raise RefinementError("module wrapper must be outermost")
    lo, hi = p_min(sys), p_max(sys)
    if isinstance(expr, Empty):
        return const_bf(sys, lo, mode)
    if isinstance(expr, Full):
        if mode is Mode.MODULE:
            return const_bf(sys, hi, mode)
        return identity_bf(sys, mode)
    if isinstance(expr, Strip):
        if not le(expr.a, expr.b):
            # the blocked box is empty, so the strip is everything
            return _boundary(sys, Full(), mode)
        return make_bf(sys, _strip_pieces(sys, expr.a, expr.b, mode), mode)
    if isinstance(expr, StripPlus):
        return make_bf(sys, _strip_plus_pieces(sys, expr.a, expr.b, mode), mode)
    if isinstance(expr, Corner):
        pieces = [(interval(sys, lo, expr.t), Const(lo))]
        if expr.t != hi:
            tail = interval(sys, expr.t, hi, lo_open=True)
            pieces.append((tail, Const(minus_point(sys, expr.a))))
        return make_bf(sys, pieces, mode)
    if isinstance(expr, FiniteLevel):
        return make_bf(sys, _finite_level_pieces(sys, expr.units, mode), mode)
    if isinstance(expr, OfBFOpen):
        return bf_minus(sys, expr.bf)
    if isinstance(expr, OfBFClosed):
        return expr.bf
    if isinstance(expr, (Union, Intersection)):
        op, start = (bf_join, Empty()) if isinstance(expr, Union) else (bf_meet, Full())
        parts = list(expr.parts)
        if len(parts) < 2:
            # every boundary lies between bottom and top (Property1), so
            # only a fold of fewer than two parts starts from one of them
            parts.insert(0, start)
        acc = _boundary(sys, parts[0], mode)
        for part in parts[1:]:
            acc = op(sys, acc, _boundary(sys, part, mode))
        return acc
    raise TypeError(f"not an ideal-set expression: {expr!r}")


def _strip_pieces(sys, a, b, mode):
    lo, hi = p_min(sys), p_max(sys)
    am = minus_point(sys, a)
    pieces = []
    if mode is Mode.MODULE:
        pieces.append((interval(sys, lo, b), Const(am)))
        if b != hi:
            pieces.append((interval(sys, b, hi, lo_open=True), Const(hi)))
        return pieces
    if a != lo:
        pieces.append((interval(sys, lo, a, hi_open=True), ID))
    pieces.append((interval(sys, a, b), Const(am)))
    if b != hi:
        pieces.append((interval(sys, b, hi, lo_open=True), ID))
    return pieces


def _strip_plus_pieces(sys, a, b, mode):
    if not has_gap_below(sys, a):
        # the reinstated pair is a limit of the strip already
        return _strip_pieces(sys, a, b, mode)
    lo, hi = p_min(sys), p_max(sys)
    pa = pred(sys, a)
    pieces = []
    if mode is Mode.MODULE:
        if lt(lo, b):
            pieces.append((interval(sys, lo, b, hi_open=True), Const(pa)))
        pieces.append((interval(sys, b, b), Const(a)))
        if b != hi:
            pieces.append((interval(sys, b, hi, lo_open=True), Const(hi)))
        return pieces
    pieces.append((interval(sys, lo, a, hi_open=True), ID))
    if lt(a, b):
        pieces.append((interval(sys, a, b, hi_open=True), Const(pa)))
    pieces.append((interval(sys, b, b), Const(a)))
    if b != hi:
        pieces.append((interval(sys, b, hi, lo_open=True), ID))
    return pieces


def _finite_level_pieces(sys, units: MatrixUnitSet, mode):
    bottom = p_min(sys)
    pieces = []
    for v in _checked_words(sys, units.level):
        clo, chi = cylinder_bounds(sys, v)
        ival = interval(sys, clo, chi)
        us = [u for u, vv in units.pairs if vv == v]
        if not us:
            pieces.append((ival, Const(bottom)))
            continue
        ustar = max(us)
        if mode is Mode.IDEAL and ustar >= v:
            pieces.append((ival, ID))
        else:
            pieces.append((ival, Const(max_tail_point(sys, ustar))))
    return pieces


# ---------------------------------------------------------------------------
# tail sets: normalized interval collections in a shifted system


TailSet = tuple[OrderInterval, ...]


def _ts_all(s: RefinementSystem) -> TailSet:
    return (full_interval(s),)


def _lo_key(s: RefinementSystem):
    def cmp(a: OrderInterval, b: OrderInterval) -> int:
        c = order_compare(a.lo, b.lo)
        if c:
            return c
        if a.lo_open != b.lo_open:
            return 1 if a.lo_open else -1
        return order_compare(a.hi, b.hi)
    return functools.cmp_to_key(cmp)


def _joinable(s, cur: OrderInterval, nxt: OrderInterval) -> bool:
    c = order_compare(nxt.lo, cur.hi)
    if c < 0:
        return True
    if c == 0:
        return not (cur.hi_open and nxt.lo_open)
    if cur.hi_open or nxt.lo_open:
        return False
    return has_gap_above(s, cur.hi) and suc(s, cur.hi) == nxt.lo


def _join2(s, cur: OrderInterval, nxt: OrderInterval) -> OrderInterval:
    c = order_compare(cur.hi, nxt.hi)
    if c < 0:
        hi, hi_open = nxt.hi, nxt.hi_open
    elif c > 0:
        hi, hi_open = cur.hi, cur.hi_open
    else:
        hi, hi_open = cur.hi, cur.hi_open and nxt.hi_open
    return interval(s, cur.lo, hi, cur.lo_open, hi_open)


def tailset_union(s: RefinementSystem, *sets: TailSet) -> TailSet:
    ivals = sorted((iv for ts in sets for iv in ts), key=_lo_key(s))
    out: list[OrderInterval] = []
    for iv in ivals:
        if out and _joinable(s, out[-1], iv):
            out[-1] = _join2(s, out[-1], iv)
        else:
            out.append(iv)
    return tuple(out)


def tailset_intersect(s: RefinementSystem, ts1: TailSet, ts2: TailSet) -> TailSet:
    out = []
    for a in ts1:
        for b in ts2:
            got = interval_intersect(s, a, b)
            if got is not None:
                out.append(got)
    return tailset_union(s, tuple(out))


def tailset_remove_point(s: RefinementSystem, ts: TailSet, w: Point) -> TailSet:
    out = []
    for iv in ts:
        if not interval_contains(iv, w):
            out.append(iv)
            continue
        for lo, hi, lo_open, hi_open in (
            (iv.lo, w, iv.lo_open, True),
            (w, iv.hi, True, iv.hi_open),
        ):
            try:
                out.append(interval(s, lo, hi, lo_open, hi_open))
            except EmptyIntervalError:
                pass
    return tailset_union(s, tuple(out))


def tailset_is_all(s: RefinementSystem, ts: TailSet) -> bool:
    return len(ts) == 1 and ts[0] == full_interval(s)


# ---------------------------------------------------------------------------
# restriction to matched-tail blocks


def _threshold_up(sys, s, word: Word, a: Point) -> TailSet:
    # {w : a <= word w}
    pa = a.word(len(word))
    if word > pa:
        return _ts_all(s)
    if word < pa:
        return ()
    return (interval(s, tail_of(sys, a, len(word)), p_max(s)),)


def _threshold_down(sys, s, word: Word, b: Point) -> TailSet:
    # {w : word w <= b}
    pb = b.word(len(word))
    if word < pb:
        return _ts_all(s)
    if word > pb:
        return ()
    return (interval(s, p_min(s), tail_of(sys, b, len(word))),)


def _matched_tail(sys, u: Word, v: Word, a: Point, b: Point) -> Optional[Point]:
    n = len(u)
    if a.word(n) != u or b.word(n) != v:
        return None
    ta, tb = tail_of(sys, a, n), tail_of(sys, b, n)
    return ta if ta == tb else None


def _viol(sys, s, expr, u: Word, v: Word) -> TailSet:
    """Tails w whose pair (u w, v w) falls outside expr.

    The intervals live in s = sys.shift(len(u)), the system that governs
    the tails.  For the boundary-function wrappers the answer is all or
    nothing per block; that is exact for the restriction question, which
    only asks whether a block is wholly inside.
    """
    if isinstance(expr, Module):
        raise RefinementError("module wrapper must be outermost")
    if isinstance(expr, Empty):
        return _ts_all(s)
    if isinstance(expr, Full):
        return ()
    if isinstance(expr, Strip):
        inside_x = _threshold_up(sys, s, u, expr.a)
        inside_y = _threshold_down(sys, s, v, expr.b)
        return tailset_intersect(s, inside_x, inside_y)
    if isinstance(expr, StripPlus):
        base = _viol(sys, s, Strip(expr.a, expr.b), u, v)
        wstar = _matched_tail(sys, u, v, expr.a, expr.b)
        if wstar is not None:
            base = tailset_remove_point(s, base, wstar)
        return base
    if isinstance(expr, Corner):
        not_past_x = _threshold_up(sys, s, u, expr.a)
        not_past_y = _threshold_down(sys, s, v, expr.t)
        return tailset_union(s, not_past_x, not_past_y)
    if isinstance(expr, FiniteLevel):
        return _viol_finite(sys, s, expr.units, u, v)
    if isinstance(expr, OfBFOpen):
        # a block is strictly below the function iff every matched pair is
        if cylinder_within_eta(sys, expr.bf, u, v, Strictness.STRICT):
            return ()
        return _ts_all(s)
    if isinstance(expr, OfBFClosed):
        # a block lies in the hull iff it sits below the function
        if cylinder_within_eta(sys, expr.bf, u, v):
            return ()
        return _ts_all(s)
    if isinstance(expr, Union):
        acc = _ts_all(s)
        for part in expr.parts:
            acc = tailset_intersect(s, acc, _viol(sys, s, part, u, v))
            if not acc:
                break
        return acc
    if isinstance(expr, Intersection):
        acc: TailSet = ()
        for part in expr.parts:
            acc = tailset_union(s, acc, _viol(sys, s, part, u, v))
            if tailset_is_all(s, acc):
                break
        return acc
    raise TypeError(f"not an ideal-set expression: {expr!r}")


def _viol_finite(sys, s, units: MatrixUnitSet, u: Word, v: Word) -> TailSet:
    n = len(u)

    def hit(uu: Word, vv: Word) -> bool:
        return any(uu <= p and q <= vv for p, q in units.pairs)

    if n >= units.level:
        return () if hit(u[:units.level], v[:units.level]) else _ts_all(s)
    depth = units.level - n
    bad = []
    for sub in level_words(s, depth):
        if not hit(u + sub, v + sub):
            clo, chi = cylinder_bounds(s, sub)
            bad.append(interval(s, clo, chi))
    return tailset_union(s, tuple(bad))


def restrict_to_level(sys: RefinementSystem, expr, n: int) -> MatrixUnitSet:
    """Level-n word pairs whose whole matched-tail block lies inside.

    The block of (u, v) is every pair (u w, v w) with w a tail in the
    shifted system sys.shift(n); it lies inside when _viol finds no tail
    that falls outside.  The shifted system, the mode and the unwrapped
    expression are resolved once per level, then _viol runs once per
    block; in ideal mode a pair with u > v is never inside.
    """
    mode = expr_mode(expr)
    words = _checked_words(sys, n)
    shifted, inner = sys.shift(n), _unwrap(expr)
    out = set()
    for u in words:
        for v in words:
            if mode is Mode.IDEAL and u > v:
                continue
            if not _viol(sys, shifted, inner, u, v):
                out.add((u, v))
    return MatrixUnitSet(n, frozenset(out), mode)


# ---------------------------------------------------------------------------
# validation


def validate_ideal_expr(sys: RefinementSystem, expr) -> list[Violation]:
    """Constructor invariants and closure checks; empty means well formed."""
    out: list[Violation] = []
    _validate(sys, _unwrap(expr), expr_mode(expr), out)
    if not out:
        _sampled_downward_closure(sys, expr, out)
    return out


def _constructor(detail: str) -> Violation:
    return Violation("ConstructorViolation", detail)


def _validate(sys, expr, mode, out: list[Violation]) -> None:
    if isinstance(expr, Module):
        out.append(_constructor("module wrapper must be outermost"))
        return
    if isinstance(expr, (Empty, Full, Strip)):
        return
    if isinstance(expr, StripPlus):
        if not linked(mode, expr.a, expr.b) or not le(expr.a, expr.b):
            out.append(_constructor(
                f"the reinstated pair ({format_point(sys, expr.a)}, "
                f"{format_point(sys, expr.b)}) must itself be linkable"))
        return
    if isinstance(expr, Corner):
        lo, hi = p_min(sys), p_max(sys)
        if not (lt(lo, expr.a) and le(expr.a, expr.t) and lt(expr.t, hi)):
            out.append(_constructor(
                f"corner needs p_min < {format_point(sys, expr.a)} <= "
                f"{format_point(sys, expr.t)} < p_max"))
        return
    if isinstance(expr, FiniteLevel):
        _validate_finite(sys, expr.units, mode, out)
        return
    if isinstance(expr, (OfBFOpen, OfBFClosed)):
        if expr.bf.mode is not mode:
            out.append(_constructor(
                f"boundary function mode {expr.bf.mode.value} under "
                f"{mode.value} expression"))
            return
        try:
            make_bf(sys, expr.bf.pieces, mode)
        except InvalidBoundaryFunctionError as err:
            codes = ", ".join(v.code for v in err.violations)
            out.append(_constructor(f"invalid boundary function: {codes}"))
        return
    if isinstance(expr, (Union, Intersection)):
        for part in expr.parts:
            _validate(sys, part, mode, out)
        return
    out.append(_constructor(f"not an ideal-set expression: {expr!r}"))


def _validate_finite(sys, units: MatrixUnitSet, mode, out: list[Violation]) -> None:
    if units.mode is not mode:
        out.append(_constructor(
            f"matrix-unit set mode {units.mode.value} under {mode.value} expression"))
        return
    # a closed set is its own closure, which reports the first bad word or pair
    gens = sorted(units.pairs)
    try:
        missing = close_finite_level(sys, units.level, gens, mode).pairs - units.pairs
    except RefinementError as err:
        out.append(_constructor(str(err)))
        return
    if not missing:
        return
    # the witness is the least missing pair the first generator forces
    gen = next(g for g in gens if any(u <= g[0] and g[1] <= v for u, v in missing))
    up, vp = min((u, v) for u, v in missing if u <= gen[0] and gen[1] <= v)
    tau = min_tail_point(sys.shift(units.level), ())
    w, x = prepend(sys, up, tau), prepend(sys, gen[0], tau)
    y, z = prepend(sys, gen[1], tau), prepend(sys, vp, tau)
    out.append(Violation(
        "IdealPropertyViolation",
        f"pairs omit ({up}, {vp}) forced by ({gen[0]}, {gen[1]}): "
        f"({format_point(sys, x)}, {format_point(sys, y)}) is inside while "
        f"({format_point(sys, w)}, {format_point(sys, z)}) escapes despite "
        f"{format_point(sys, w)} <= {format_point(sys, x)} and "
        f"{format_point(sys, y)} <= {format_point(sys, z)}"))


def _expr_points(sys, expr, acc: list[Point]) -> None:
    if isinstance(expr, Module):
        _expr_points(sys, expr.inner, acc)
    elif isinstance(expr, (Strip, StripPlus)):
        acc.extend((expr.a, expr.b))
    elif isinstance(expr, Corner):
        acc.extend((expr.a, expr.t))
    elif isinstance(expr, FiniteLevel):
        for u, v in sorted(expr.units.pairs):
            acc.append(min_tail_point(sys, u))
            acc.append(max_tail_point(sys, v))
    elif isinstance(expr, (OfBFOpen, OfBFClosed)):
        for ival, leaf in expr.bf.pieces:
            acc.extend((ival.lo, ival.hi))
            if isinstance(leaf, Const):
                acc.append(leaf.value)
    elif isinstance(expr, (Union, Intersection)):
        for part in expr.parts:
            _expr_points(sys, part, acc)


def _sample_pairs(sys, expr) -> list[tuple[Point, Point]]:
    base = [p_min(sys), p_max(sys)]
    _expr_points(sys, expr, base)
    points = []
    for p in base:
        if p not in points:
            points.append(p)
    mode = expr_mode(expr)
    pairs = []
    for x in points:
        for y in points:
            if linked(mode, x, y):
                pairs.append((x, y))
            if len(pairs) >= 64:
                return pairs
    return pairs


def _orbit_mates(sys, x: Point, y: Point) -> tuple[Point, Point]:
    depth = max(len(x.preamble), len(y.preamble)) + 2
    ones = tuple(1 for _ in range(depth))
    tops = tuple(sys.k_at(i + 1) for i in range(depth))
    return replace_prefix(sys, x, ones), replace_prefix(sys, y, tops)


def _sampled_downward_closure(sys, expr, out: list[Violation]) -> None:
    for x, y in _sample_pairs(sys, expr):
        if not member(sys, expr, x, y).is_yes:
            continue
        # the mates start with 1s and with maximal digits, in one orbit: linked
        w, z = _orbit_mates(sys, x, y)
        if member(sys, expr, w, z).is_no:
            out.append(Violation(
                "IdealPropertyViolation",
                f"({format_point(sys, x)}, {format_point(sys, y)}) is inside but "
                f"the dominated pair ({format_point(sys, w)}, "
                f"{format_point(sys, z)}) is not"))
            return


# ---------------------------------------------------------------------------
# graph sets and the sandwich test


def in_B_phi(sys: RefinementSystem, bf: PiecewiseBF, y: Point) -> Verdict:
    """Does the graph point (phi(y), y) lie in the neighborhood hull?"""
    return sigma_member(sys, bf, eval_bf(sys, bf, y), y)


def in_L_phi(sys: RefinementSystem, bf: PiecewiseBF, y: Point) -> Verdict:
    """Like in_B_phi, but only at values with a gap below."""
    if not has_gap_below(sys, eval_bf(sys, bf, y)):
        return VERDICT_NO
    return in_B_phi(sys, bf, y)


def sandwich_check(sys: RefinementSystem, expr, phi: PiecewiseBF) -> Verdict:
    """Is phi the boundary function of the expression?

    Decided by piecewise equality of boundary_of(expr) with phi.  A Yes
    is cross-checked against the squeeze every such set satisfies:
    the strict sub-level pairs and the attained gap values sit inside,
    and the set sits inside the neighborhood hull.  A failed cross
    check raises: it would contradict the equality just computed.
    """
    if boundary_of(sys, expr) != phi:
        return VERDICT_NO
    for x, y in _sample_pairs(sys, expr):
        below = member(sys, OfBFOpen(phi) if phi.mode is Mode.IDEAL
                       else module(OfBFOpen(phi)), x, y)
        mine = member(sys, expr, x, y)
        hull = sigma_member(sys, phi, x, y)
        if below.is_yes and mine.is_no:
            raise RefinementError(
                f"boundary matches but the strict sub-level pair "
                f"({format_point(sys, x)}, {format_point(sys, y)}) escapes")
        if mine.is_yes and hull.is_no:
            raise RefinementError(
                f"boundary matches but ({format_point(sys, x)}, "
                f"{format_point(sys, y)}) escapes the neighborhood hull")
        if in_L_phi(sys, phi, y).is_yes and member(
                sys, expr, eval_bf(sys, phi, y), y).is_no:
            raise RefinementError(
                f"boundary matches but the attained gap value at "
                f"{format_point(sys, y)} escapes")
    return verdict_yes(0)
