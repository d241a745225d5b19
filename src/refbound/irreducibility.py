"""Lattice irreducibility for boundary functions and ideal sets.

A boundary function is meet (join) irreducible when it cannot be
written as a pointwise min (max) of two other boundary functions
different from it.  The classifiers here return normal-form tags for
the irreducible shapes and, in every reducible case, a witness pair
that is verified exactly before it is returned.

The ideal-set classifiers cover the strip / strip-plus catalog for
meets and the corner catalog for joins; anything else comes back
not-in-catalog rather than guessed at.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .boundary import (
    Const,
    ID,
    IdentityMinus,
    Mode,
    PiecewiseBF,
    bf_join,
    bf_meet,
    eval_bf,
    level_set_max,
    make_bf,
    minus_point,
    plus_point,
)
from .idealsets import (
    Corner,
    Empty,
    Full,
    Strip,
    StripPlus,
    boundary_of,
    member,
    _sample_pairs,
)
from .order import (
    OrderInterval,
    Point,
    RefinementError,
    RefinementSystem,
    construct_between_no_gap_below,
    first_difference,
    format_point,
    has_gap_above,
    has_gap_below,
    interval,
    interval_inf,
    interval_intersect,
    interval_small_points,
    interval_sup,
    le,
    lt,
    max_tail_point,
    order_compare,
    p_max,
    p_min,
    p_test,
    pred,
    suc,
    word_at,
    word_rank,
)

_KEY = functools.cmp_to_key(order_compare)


# ---------------------------------------------------------------------------
# values read off the normal form


def _values(sys: RefinementSystem, bf: PiecewiseBF,
            dropped: bool) -> Optional[list[Point]]:
    """Sorted distinct image values, or with dropped set the values the
    function drops to (phi(y) < y); None when there are infinitely many.

    In the normal form a piece with one or two points carries an id or
    const leaf, so an id- piece is infinite, and so are its image and
    the values it drops to.  A const piece always drops to its value:
    Property1 puts the value at or below every point of the piece, and
    the normal form spells a one-point piece [c, c] -> const(c) as id,
    so the piece holds a point above the value.
    """
    out = []
    for ival, leaf in bf.pieces:
        if isinstance(leaf, IdentityMinus):
            return None
        if isinstance(leaf, Const):
            out.append(leaf.value)
        elif not dropped:
            small = interval_small_points(sys, ival)
            if small is None:
                return None
            out.extend(small)
    return sorted(set(out), key=_KEY)


def _infinite_image(sys, bf: PiecewiseBF) -> OrderInterval:
    """Image of the first piece whose image is infinite."""
    for ival, leaf in bf.pieces:
        if isinstance(leaf, IdentityMinus):
            lo = ival.lo if ival.lo_open else minus_point(sys, ival.lo)
            hi = ival.hi if ival.hi_open else minus_point(sys, ival.hi)
            return interval(sys, lo, hi, ival.lo_open, ival.hi_open)
        if leaf == ID and interval_small_points(sys, ival) is None:
            return ival
    raise _internal("no piece has an infinite image")


# ---------------------------------------------------------------------------
# normal-form recognition


@dataclass(frozen=True)
class BFForm:
    """Pattern tag for the named families, with their parameters."""

    tag: str  # identity | minimal | phi_ab | psi_paab | phi_at | general
    params: tuple = ()


def bf_form(sys: RefinementSystem, bf: PiecewiseBF) -> BFForm:
    pieces = bf.pieces
    shape = "".join("I" if leaf == ID else
                    "C" if isinstance(leaf, Const) else "M"
                    for _, leaf in pieces)
    bottom = p_min(sys)
    if shape == "I":
        return BFForm("identity")
    if shape == "C":
        if pieces[0][1].value == bottom:
            return BFForm("minimal")
        return BFForm("general")
    if shape in ("IC", "CI", "ICI"):
        ival, leaf = pieces[shape.index("C")]
        a = leaf.value
        if ival.lo == plus_point(sys, a):
            return BFForm("phi_ab", (a, ival.hi))
        return BFForm("general")
    if shape == "CC":
        (iv1, c1), (_, c2) = pieces
        if c1.value == bottom and lt(bottom, c2.value):
            return BFForm("phi_at", (c2.value, iv1.hi))
        return BFForm("general")
    if shape in ("ICC", "ICCI"):
        (iv1, c1), (iv2, c2) = pieces[1], pieces[2]
        v1, v2 = c1.value, c2.value
        if (has_gap_above(sys, v1) and suc(sys, v1) == v2
                and iv2.lo == iv2.hi and iv1.lo == v2):
            return BFForm("psi_paab", (v1, v2, iv2.lo))
        return BFForm("general")
    return BFForm("general")


# ---------------------------------------------------------------------------
# classification verdicts


@dataclass(frozen=True)
class MeetClass:
    kind: str  # identity_form | phi_ab | psi_paab | reducible
    params: tuple = ()
    witnesses: Optional[tuple] = None

    @property
    def irreducible(self) -> bool:
        return self.kind != "reducible"


class JoinClass(MeetClass):
    """MeetClass's body; kind is minimal_form, phi_at or reducible."""


def _require_ideal(bf: PiecewiseBF) -> None:
    if bf.mode is not Mode.IDEAL:
        raise RefinementError("classification covers ideal-mode functions only")


def _internal(msg: str) -> RefinementError:
    return RefinementError(f"classification self-check failed: {msg}")


def _cylinder_tops_inside(sys: RefinementSystem, ival: OrderInterval, count: int,
                          picks: Sequence[int]) -> list[Point]:
    """Tops picked from count consecutive level-n cylinders, each just
    below a gap-below point inside the infinite interval.

    Let n be the first level at which more than count words lie strictly
    between the ends' words, of ranks ra < rb.  Each word w_r with
    ra < r <= ra + count starts the eventually-1 point min_tail_point(w_r),
    which lies strictly inside the interval (its first n digits differ
    from both ends' there) and is not p_min (r >= 1), so it has a gap
    below; its predecessor is max_tail_point(w_(r-1)), the top of the
    cylinder one rank down.  The tops of ranks ra + i, for i in picks
    (each below count), are built and returned in that order.

    Below the first difference of the ends their words are equal.  Once
    one word lies strictly between them, each further level at least
    doubles that count (every word has k >= 2 extensions), so
    ceil(log2(count + 1)) levels more suffice.  One word lies between by
    the window (the largest of the first difference, the longer preamble
    and the system prefix) plus the longer period: otherwise the lower
    end runs maximal and the upper end minimal through a whole period
    past the window, so forever, and the interval would be a gap pair.
    """
    lo, hi = ival.lo, ival.hi
    n = first_difference(lo, hi)
    window = max(n, len(lo.preamble), len(hi.preamble), sys.prefix_len)
    bound = window + max(len(lo.period), len(hi.period)) + count.bit_length()
    lw, hw, ks = lo.word(bound), hi.word(bound), sys.k_word(bound)
    ra, rb = word_rank(sys, lw[:n]), word_rank(sys, hw[:n])
    while rb - ra <= count:
        if n == bound:
            raise _internal(f"could not find {count} interior points")
        ra = ra * ks[n] + lw[n] - 1
        rb = rb * ks[n] + hw[n] - 1
        n += 1
    return [max_tail_point(sys, word_at(sys, n, ra + i)) for i in picks]


def _sup_leq(sys: RefinementSystem, bf: PiecewiseBF, c: Point) -> Point:
    """Largest y with phi(y) <= c (the split point of that level set)."""
    for ival, leaf in reversed(bf.pieces):
        if isinstance(leaf, Const):
            if le(leaf.value, c):
                return interval_sup(sys, ival)[0]
            continue
        bound = plus_point(sys, c) if isinstance(leaf, IdentityMinus) else c
        lo_pt, lo_att = interval_inf(sys, ival)
        if lt(bound, lo_pt) or (bound == lo_pt and not lo_att):
            continue
        hi_pt, _ = interval_sup(sys, ival)
        return hi_pt if le(hi_pt, bound) else bound
    raise _internal("no point maps at or below the target")


def _split_bf(sys, bf: PiecewiseBF, t: Point, left, right) -> PiecewiseBF:
    """Reassemble a function from [p_min, t] and (t, p_max] halves.

    Each side is either "keep" (copy the pieces of bf over that side)
    or a leaf to apply to the whole side.
    """
    pieces = []
    for side_ival, spec in ((interval(sys, p_min(sys), t), left),
                            (interval(sys, t, p_max(sys), lo_open=True),
                             right)):
        if spec == "keep":
            for ival, leaf in bf.pieces:
                inter = interval_intersect(sys, ival, side_ival)
                if inter is not None:
                    pieces.append((inter, leaf))
        else:
            pieces.append((side_ival, spec))
    return make_bf(sys, pieces, bf.mode)


def _check_witnesses(sys, phi, w1, w2, combine, what: str) -> None:
    if w1 == phi or w2 == phi:
        raise _internal(f"{what} witness equals the function")
    if combine(sys, w1, w2) != phi:
        raise _internal(f"{what} witnesses do not recompose the function")


def classify_meet_bf(sys: RefinementSystem, phi: PiecewiseBF) -> MeetClass:
    """Meet irreducibility, decided by the set of dropped-to values."""
    _require_ideal(phi)
    vals = _values(sys, phi, dropped=True)

    if vals is not None and not vals:
        if bf_form(sys, phi).tag != "identity":
            raise _internal("empty drop set off the identity")
        return MeetClass("identity_form")

    if vals is None:
        # a stretch drops densely; harvest two well-separated dropped-to
        # values from inside it
        ival = next(iv for iv, leaf in phi.pieces
                    if isinstance(leaf, IdentityMinus))
        return _reduce_meet(sys, phi, *_cylinder_tops_inside(sys, ival, 4, (0, 3)))

    if len(vals) == 1:
        a = vals[0]
        if has_gap_below(sys, a):
            raise _internal("single dropped-to value sits above a gap")
        b = _drop_sup(sys, phi)
        if phi != construct_family(sys, "phi_ab", a=a, b=b):
            raise _internal("single-value drop is not the plateau form")
        return MeetClass("phi_ab", (a, b))

    if (len(vals) == 2 and has_gap_above(sys, vals[0])
            and suc(sys, vals[0]) == vals[1]):
        pa, a = vals
        got = level_set_max(sys, phi, a)
        if got is None or not got[1]:
            raise _internal("upper gap value never attained")
        b = got[0]
        if phi != construct_family(sys, "psi_paab", a=a, b=b):
            raise _internal("gap-pair drop is not the stepped form")
        return MeetClass("psi_paab", (pa, a, b))

    u, w = _spread_pair(sys, vals)
    return _reduce_meet(sys, phi, u, w)


def _drop_sup(sys, phi: PiecewiseBF) -> Point:
    for ival, leaf in reversed(phi.pieces):
        if isinstance(leaf, Const):
            hi_pt = interval_sup(sys, ival)[0]
            if lt(leaf.value, hi_pt):
                return hi_pt
    raise _internal("no dropping stretch found")


def _spread_pair(sys, vals: list[Point]) -> tuple[Point, Point]:
    """First consecutive listed values with more points strictly between."""
    for u, w in zip(vals, vals[1:]):
        if not (has_gap_above(sys, u) and suc(sys, u) == w):
            return u, w
    raise _internal("value list is a single gap chain")


def _reduce_meet(sys, phi, a: Point, c: Point) -> MeetClass:
    b = construct_between_no_gap_below(sys, a, c)
    if b is None:
        raise _internal("no room between the chosen dropped-to values")
    eta = make_bf(sys, [
        (interval(sys, p_min(sys), b), ID),
        (interval(sys, b, p_max(sys), lo_open=True), Const(b)),
    ])
    w1 = bf_join(sys, phi, eta)
    w2 = _split_bf(sys, phi, _sup_leq(sys, phi, b), "keep", ID)
    _check_witnesses(sys, phi, w1, w2, bf_meet, "meet")
    return MeetClass("reducible", (), (w1, w2))


def classify_join_bf(sys: RefinementSystem, phi: PiecewiseBF) -> JoinClass:
    """Join irreducibility, decided by the size of the image."""
    _require_ideal(phi)
    vals = _values(sys, phi, dropped=False)
    bottom = p_min(sys)

    if vals is None:
        c = construct_between_no_gap_below(
            sys, *_cylinder_tops_inside(sys, _infinite_image(sys, phi), 4, (1, 3)))
        if c is None:
            raise _internal("no room between the chosen image values")
        return _reduce_join(sys, phi, c)

    if len(vals) == 1:
        if vals[0] != bottom:
            raise _internal("constant function misses the bottom")
        return JoinClass("minimal_form")

    if len(vals) == 2:
        a = vals[1]
        s = _sup_leq(sys, phi, bottom)
        t = s if eval_bf(sys, phi, s) == bottom else pred(sys, s)
        if phi != construct_family(sys, "phi_at", a=a, t=t):
            raise _internal("two-valued function is not the step form")
        return JoinClass("phi_at", (a, t))

    u, w = _spread_pair(sys, vals[1:])
    c = construct_between_no_gap_below(sys, u, w)
    if c is None:
        raise _internal("no room between the chosen image values")
    return _reduce_join(sys, phi, c)


def _reduce_join(sys, phi, c: Point) -> JoinClass:
    t = _sup_leq(sys, phi, c)
    w1 = _split_bf(sys, phi, t, "keep", Const(c))
    w2 = _split_bf(sys, phi, t, Const(p_min(sys)), "keep")
    _check_witnesses(sys, phi, w1, w2, bf_join, "join")
    return JoinClass("reducible", (), (w1, w2))


# ---------------------------------------------------------------------------
# ideal-set catalogs


@dataclass(frozen=True)
class IdealVerdict:
    """Catalog verdict for one ideal-set expression.

    irreducible is None when the expression falls outside the catalog
    handled here.  Reducible verdicts carry expression witnesses when
    a valid decomposition exists; the boundary function and its own
    classification ride along.
    """

    kind: str
    irreducible: Optional[bool]
    params: tuple = ()
    witnesses: Optional[tuple] = None
    boundary: Optional[PiecewiseBF] = None
    boundary_class: object = None
    note: str = ""


def _verify_members_equal(sys, lhs, parts, op: str) -> None:
    for x, y in _sample_pairs(sys, lhs):
        got = member(sys, lhs, x, y).is_yes
        ins = [member(sys, p, x, y).is_yes for p in parts]
        want = all(ins) if op == "intersection" else any(ins)
        if got != want:
            raise _internal(
                f"decomposition disagrees at ({format_point(sys, x)}, "
                f"{format_point(sys, y)})")


def classify_meet_ideal(sys: RefinementSystem, expr) -> IdealVerdict:
    """Meet irreducibility for strips and strips with an adjoined pair."""
    note = ""
    if isinstance(expr, Empty):
        kind, a, b = "strip", p_min(sys), p_max(sys)
    elif isinstance(expr, Full):
        kind, a, b = "strip", p_max(sys), p_min(sys)
    elif isinstance(expr, Strip):
        kind, a, b = "strip", expr.a, expr.b
        if lt(b, a):
            # nothing is squeezed out; same set as the full relation
            a, b = p_max(sys), p_min(sys)
            note = "degenerate bounds denote the full relation"
    elif isinstance(expr, StripPlus):
        kind, a, b = "strip_plus", expr.a, expr.b
    else:
        return IdealVerdict("not_in_catalog", None)
    linked = p_test(a, b)
    relieved = not has_gap_above(sys, a) or not has_gap_below(sys, b)
    boundary = boundary_of(sys, expr)
    bclass = classify_meet_bf(sys, boundary)
    if kind == "strip":
        irr = linked or relieved
        witnesses = None
        if not irr:
            w1, w2 = Strip(suc(sys, a), b), Strip(a, pred(sys, b))
            _verify_members_equal(sys, expr, (w1, w2), "intersection")
            for w, probe in ((w1, (a, a)), (w2, (b, b))):
                if member(sys, w, *probe).is_yes == \
                        member(sys, expr, *probe).is_yes:
                    raise _internal("strip witness does not differ")
            witnesses = (w1, w2)
        return IdealVerdict(kind, irr, (a, b), witnesses, boundary, bclass,
                            note)
    irr = linked and relieved
    if not irr:
        if linked:
            note = "catalog rule fired on a pair no valid constructor produces"
        else:
            note = "the adjoined pair is not linked"
    return IdealVerdict(kind, irr, (a, b), None, boundary, bclass, note)


def classify_join_ideal(sys: RefinementSystem, expr) -> IdealVerdict:
    """Join irreducibility for corners and the empty set."""
    if isinstance(expr, Empty):
        boundary = boundary_of(sys, expr)
        return IdealVerdict("empty", True, (), None, boundary,
                            classify_join_bf(sys, boundary))
    if not isinstance(expr, Corner):
        return IdealVerdict("not_in_catalog", None)
    a, t = expr.a, expr.t
    boundary = boundary_of(sys, expr)
    bclass = classify_join_bf(sys, boundary)
    if not (has_gap_below(sys, a) and has_gap_above(sys, t)):
        return IdealVerdict("corner", True, (a, t), None, boundary, bclass)
    # pred a ends in maximal digits and suc t in 1s, so they never link
    pa, st = pred(sys, a), suc(sys, t)
    w1, w2 = Corner(a, st), Corner(pa, t)
    _verify_members_equal(sys, expr, (w1, w2), "union")
    for w, probe in ((w1, (p_min(sys), st)), (w2, (pa, p_max(sys)))):
        if member(sys, w, *probe).is_yes == member(sys, expr, *probe).is_yes:
            raise _internal("corner witness does not differ")
    return IdealVerdict("corner", False, (a, t), (w1, w2), boundary, bclass)


# ---------------------------------------------------------------------------
# the named families


def _family_error(clause: str) -> RefinementError:
    return RefinementError(f"family constraint violated: {clause}")


def construct_family(sys: RefinementSystem, kind: str, *,
                     a: Optional[Point] = None, b: Optional[Point] = None,
                     t: Optional[Point] = None):
    """Build one of the named boundary functions phi_ab, psi_paab, phi_at.

    Parameter constraints are enforced here with the violated clause named.
    Under them the three are the boundaries of Strip(a, b), StripPlus(a, b)
    and Corner(a, t), sets built by their own constructors only.
    """
    if kind == "phi_ab":
        if not lt(a, b):
            raise _family_error("plateau needs a < b")
        if has_gap_below(sys, a):
            raise _family_error("Property2b: the plateau value has a gap below")
        return boundary_of(sys, Strip(a, b))
    if kind == "psi_paab":
        if not has_gap_below(sys, a):
            raise _family_error("the step form needs a gap below a")
        if not lt(a, b):
            raise _family_error("the step form needs a < b")
        if not p_test(a, b):
            raise _family_error("Property2a: (a, b) must be linked")
        if not has_gap_below(sys, b):
            raise _family_error("Property2b: b must have a gap below")
        return boundary_of(sys, StripPlus(a, b))
    if kind == "phi_at":
        if not (le(a, t) and lt(t, p_max(sys))):
            raise _family_error("the step needs a <= t < p_max")
        if has_gap_below(sys, a):
            raise _family_error("Property2b: the upper value has a gap below")
        return boundary_of(sys, Corner(a, t))
    raise ValueError(f"unknown family: {kind!r}")
