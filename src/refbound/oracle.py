"""Brute-force finite oracle, deterministic samplers, and invariant suites.

The oracle half works with level-n words and the closure definition
only.  It never touches the piecewise machinery, so agreement between
brute_boundary and the symbolic boundary is evidence, not tautology.

The suite half replays deterministically from (seed, budget): the same
arguments produce the same checks in the same order, and a violation
records enough context to rebuild the failing inputs by hand.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .order import (
    EmptyIntervalError,
    Point,
    RefinementError,
    RefinementSystem,
    construct_between,
    cylinder_bounds,
    format_point,
    format_system,
    has_gap_above,
    has_gap_below,
    interval,
    le,
    lt,
    max_tail_point,
    merge_level,
    min_tail_point,
    orbit_test,
    order_compare,
    p_max,
    p_min,
    p_test,
    parse_point,
    parse_system,
    point,
    pred,
    replace_prefix,
    suc,
    word_at,
    word_count,
    word_rank,
)
from .boundary import (
    Mode,
    PiecewiseBF,
    bf_between,
    bf_equiv,
    bf_join,
    bf_meet,
    bf_minus,
    bf_plus,
    const_bf,
    eval_bf,
    format_bf,
    identity_bf,
    normalize_bf,
    pointwise_le,
    sigma_member,
    validate_bf,
)
from .idealsets import (
    Corner,
    Empty,
    FiniteLevel,
    Full,
    Intersection,
    MatrixUnitSet,
    Module,
    OfBFClosed,
    OfBFOpen,
    Strip,
    StripPlus,
    Union,
    boundary_of,
    close_finite_level,
    in_L_phi,
    intersection,
    member,
    module,
    restrict_to_level,
    sandwich_check,
    union,
    validate_ideal_expr,
)
from .cocycle import b_approx, btilde, ctilde, gap_index, gap_point, order_by_cocycle
from .irreducibility import (
    classify_join_bf,
    classify_join_ideal,
    classify_meet_bf,
    classify_meet_ideal,
    bf_form,
    construct_family,
)


# ---------------------------------------------------------------------------
# the finite model and the brute-force boundary


@dataclass(frozen=True)
class FiniteModel:
    """All level-n words and the ordered pairs among them."""

    level: int
    words: tuple
    pairs: tuple


def build_finite_model(sys: RefinementSystem, level: int,
                       cap: int = 10_000) -> FiniteModel:
    """Words in lexicographic order plus every pair u <= v, u first."""
    if level < 1:
        raise RefinementError("level must be at least 1")
    n = word_count(sys, level)
    if n > cap:
        raise RefinementError(f"level {level} has {n} words, over the cap {cap}")
    words = tuple(_level_words(sys, level))
    pairs = tuple((u, v) for u in words for v in words if u <= v)
    return FiniteModel(level, words, pairs)


def _level_words(sys, n):
    # local product to keep the oracle free of the symbolic helpers
    out = [()]
    for i in range(1, n + 1):
        out = [w + (d,) for w in out for d in range(1, sys.k_at(i) + 1)]
    return out


def brute_boundary(model: FiniteModel, units: MatrixUnitSet, v) -> Optional[tuple]:
    """Largest u with (u, v) in the set, or None when the column is empty.

    A plain maximum scan over the word list; the only structure used is
    the lexicographic order on same-length words.
    """
    if units.level != model.level:
        raise RefinementError(
            f"matrix-unit set at level {units.level} against a level "
            f"{model.level} model")
    v = tuple(v)
    if v not in model.words:
        raise RefinementError(f"word {v} is not at level {model.level}")
    best = None
    for u in model.words:
        if (u, v) in units.pairs and (best is None or u > best):
            best = u
    return best


def enumerate_closed_sets(sys: RefinementSystem, model: FiniteModel,
                          mode: Mode = Mode.IDEAL) -> list[MatrixUnitSet]:
    """Every matrix-unit set at the model level closed under u' <= u, v <= v'."""
    if mode is Mode.IDEAL:
        cand = list(model.pairs)
    else:
        cand = [(u, v) for u in model.words for v in model.words]
    if len(cand) > 16:
        raise RefinementError(f"{len(cand)} pairs is too many to enumerate subsets")
    index = {p: i for i, p in enumerate(cand)}
    cones = []
    for u, v in cand:
        mask = 0
        for up, vp in cand:
            if up <= u and vp >= v:
                mask |= 1 << index[(up, vp)]
        cones.append(mask)
    out = []
    for mask in range(1 << len(cand)):
        need = 0
        for i, cone in enumerate(cones):
            if mask >> i & 1:
                need |= cone
        if need & ~mask:
            continue
        pairs = frozenset(p for i, p in enumerate(cand) if mask >> i & 1)
        out.append(MatrixUnitSet(model.level, pairs, mode))
    return out


def random_units(sys: RefinementSystem, model: FiniteModel, rng,
                 mode: Mode = Mode.IDEAL) -> MatrixUnitSet:
    """Closure of a few random generator pairs; may be empty."""
    gens = []
    for _ in range(rng.randrange(0, 3)):
        u, v = rng.choice(model.words), rng.choice(model.words)
        if mode is Mode.IDEAL and u > v:
            u, v = v, u
        gens.append((u, v))
    return close_finite_level(sys, model.level, gens, mode)


# ---------------------------------------------------------------------------
# deterministic samplers


def _random_point(sys, rng, max_preamble=4, max_period=2) -> Point:
    head = sys.prefix_len + rng.randrange(0, max_preamble + 1)
    cycles = rng.randrange(1, max_period + 1)
    ks = sys.k_word(head + cycles * sys.cycle_len)
    pre = tuple(rng.randrange(1, k + 1) for k in ks[:head])
    per = tuple(rng.randrange(1, k + 1) for k in ks[head:])
    return point(sys, pre, per)


def _random_mate(sys, rng, x: Point) -> Point:
    """A point in the orbit of x: same tail behind a fresh prefix."""
    ks = sys.k_word(max(1, len(x.preamble)))
    w = tuple(rng.randrange(1, k + 1) for k in ks)
    return replace_prefix(sys, x, w)


def _random_linked_pair(sys, rng) -> tuple[Point, Point]:
    x = _random_point(sys, rng)
    a, b = _random_mate(sys, rng, x), _random_mate(sys, rng, x)
    if lt(b, a):
        a, b = b, a
    return a, b


def _random_interior(sys, rng) -> Point:
    for _ in range(8):
        x = _random_point(sys, rng)
        if x != p_min(sys) and x != p_max(sys):
            return x
    return gap_point(sys, 1)


def _no_gap_below(sys, rng) -> Point:
    for _ in range(8):
        x = _random_point(sys, rng)
        if not has_gap_below(sys, x):
            return x
    return p_min(sys)


def _random_gap_pair_linked(sys, rng) -> tuple[Point, Point]:
    """Two orbit-linked points that both have a gap below."""
    a = suc(sys, gap_point(sys, rng.randrange(1, 9)))
    n = max(1, len(a.preamble))
    r = word_rank(sys, a.word(n))
    total = word_count(sys, n)
    if r + 1 >= total:
        return a, a
    b = replace_prefix(sys, a, word_at(sys, n, rng.randrange(r + 1, total)))
    return a, b


def _point_batch(sys, rng, count, max_preamble=4, max_period=2) -> list[Point]:
    out = [p_min(sys), p_max(sys)]
    g = gap_point(sys, 1)
    out.extend((g, suc(sys, g)))
    while len(out) < count:
        x = _random_point(sys, rng, max_preamble, max_period)
        out.append(x)
        if len(out) < count and rng.random() < 0.5:
            out.append(_random_mate(sys, rng, x))
    return out[:count]


def sample_points(sys: RefinementSystem, seed: int, count: int,
                  max_preamble: int = 4, max_period: int = 2) -> list[Point]:
    """Deterministic point batch keyed by (seed, system).

    The batch always opens with the two endpoints, the first gap pair
    (one point with a gap above, its successor with a gap below), and
    then mixes fresh random points with orbit mates of earlier draws so
    correlated pairs are always on hand.  Short counts truncate that
    list.  max_period counts whole multiplicity cycles.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = random.Random(f"{seed}|points|{format_system(sys)}")
    return _point_batch(sys, rng, count, max_preamble, max_period)


def random_bf(sys: RefinementSystem, rng, depth: int = 2) -> PiecewiseBF:
    """A lawful order-mode function.

    Draws from the named families, boundaries of random expressions,
    companions, and lattice blends.  Family parameters that miss their
    constraints fall back to the identity, so every return value is
    valid by construction.
    """
    roll = rng.random()
    if depth <= 0 or roll < 0.40:
        kind = rng.randrange(5)
        if kind == 1:
            # the only global constant below the identity
            return const_bf(sys, p_min(sys))
        if kind == 2:
            a = _no_gap_below(sys, rng)
            b = _random_point(sys, rng)
            if lt(b, a):
                b = p_max(sys)
            return _family_or_identity(sys, "phi_ab", a=a, b=b)
        if kind == 3:
            a, b = _random_gap_pair_linked(sys, rng)
            return _family_or_identity(sys, "psi_paab", a=a, b=b)
        if kind == 4:
            a = _no_gap_below(sys, rng)
            t = _random_interior(sys, rng)
            if lt(t, a):
                a, t = p_min(sys), a
            return _family_or_identity(sys, "phi_at", a=a, t=t)
        return identity_bf(sys)
    if roll < 0.60:
        return boundary_of(sys, random_ideal_expr(sys, rng, depth - 1, True))
    if roll < 0.75:
        f = random_bf(sys, rng, depth - 1)
        return bf_minus(sys, f) if rng.random() < 0.5 else bf_plus(sys, f)
    f, g = random_bf(sys, rng, depth - 1), random_bf(sys, rng, depth - 1)
    return bf_join(sys, f, g) if rng.random() < 0.5 else bf_meet(sys, f, g)


def _family_or_identity(sys, kind, **params):
    try:
        return construct_family(sys, kind, **params)
    except (RefinementError, ValueError):
        return identity_bf(sys)


def _random_catalog_expr(sys, rng):
    """A leaf from the catalog shapes; well formed in either mode."""
    kind = rng.randrange(5)
    if kind == 0:
        return Empty()
    if kind == 1:
        return Full()
    if kind == 2:
        a, b = _random_point(sys, rng), _random_point(sys, rng)
        if lt(b, a):
            a, b = b, a
        return Strip(a, b)
    if kind == 3:
        a, b = _random_linked_pair(sys, rng)
        return StripPlus(a, b)
    a, t = _random_interior(sys, rng), _random_interior(sys, rng)
    if lt(t, a):
        a, t = t, a
    return Corner(a, t)


def _small_level(sys, rng) -> Optional[int]:
    # keep finite-level work quadratic in a small word count
    lvl = rng.randrange(1, 3)
    if word_count(sys, lvl) > 16:
        lvl = 1
    return lvl if word_count(sys, lvl) <= 16 else None


def random_ideal_expr(sys: RefinementSystem, rng, depth: int = 2,
                      closed_only: bool = False):
    """A well formed order-mode expression.

    closed_only skips the strict sub-level leaf, leaving only closed
    sets (closed under finite union and intersection).
    """
    if depth > 0 and rng.random() < 0.35:
        parts = tuple(random_ideal_expr(sys, rng, depth - 1, closed_only)
                      for _ in range(2))
        return union(*parts) if rng.random() < 0.5 else intersection(*parts)
    kind = rng.randrange(7 if closed_only else 8)
    if kind <= 4:
        return _random_catalog_expr(sys, rng)
    if kind == 5:
        lvl = _small_level(sys, rng)
        if lvl is None:
            return _random_catalog_expr(sys, rng)
        return FiniteLevel(random_units(sys, build_finite_model(sys, lvl), rng))
    if kind == 6:
        return OfBFClosed(random_bf(sys, rng, max(0, depth - 1)))
    return OfBFOpen(random_bf(sys, rng, max(0, depth - 1)))


def random_module_expr(sys: RefinementSystem, rng, depth: int = 1) -> Module:
    """A well formed module-mode expression, wrapper applied last."""
    return module(_random_module_inner(sys, rng, depth))


def _random_module_inner(sys, rng, depth):
    if depth > 0 and rng.random() < 0.35:
        parts = tuple(_random_module_inner(sys, rng, depth - 1)
                      for _ in range(2))
        return Union(parts) if rng.random() < 0.5 else Intersection(parts)
    if rng.random() < 0.25:
        lvl = _small_level(sys, rng)
        if lvl is not None:
            model = build_finite_model(sys, lvl)
            return FiniteLevel(random_units(sys, model, rng, Mode.MODULE))
    return _random_catalog_expr(sys, rng)


# ---------------------------------------------------------------------------
# descriptions used in witnesses and on the command line


def fmt_word(w) -> str:
    return "".join(str(d) for d in w) if w else "()"


def fmt_units(units: MatrixUnitSet) -> str:
    body = ",".join(f"({fmt_word(u)},{fmt_word(v)})"
                    for u, v in sorted(units.pairs))
    return f"L{units.level}{{{body}}}"


def describe_expr(sys: RefinementSystem, expr) -> str:
    if isinstance(expr, Module):
        return f"module({describe_expr(sys, expr.inner)})"
    if isinstance(expr, Empty):
        return "empty"
    if isinstance(expr, Full):
        return "full"
    if isinstance(expr, Strip):
        return (f"strip({format_point(sys, expr.a)}, "
                f"{format_point(sys, expr.b)})")
    if isinstance(expr, StripPlus):
        return (f"strip_plus({format_point(sys, expr.a)}, "
                f"{format_point(sys, expr.b)})")
    if isinstance(expr, Corner):
        return (f"corner({format_point(sys, expr.a)}, "
                f"{format_point(sys, expr.t)})")
    if isinstance(expr, FiniteLevel):
        return f"finite {fmt_units(expr.units)}"
    if isinstance(expr, OfBFOpen):
        return f"open[{format_bf(sys, expr.bf)}]"
    if isinstance(expr, OfBFClosed):
        return f"hull[{format_bf(sys, expr.bf)}]"
    if isinstance(expr, Union):
        return "union(" + ", ".join(describe_expr(sys, p) for p in expr.parts) + ")"
    if isinstance(expr, Intersection):
        return ("intersection("
                + ", ".join(describe_expr(sys, p) for p in expr.parts) + ")")
    return repr(expr)


def _wp(sys, **named) -> str:
    return " ".join(f"{k}={format_point(sys, v)}" for k, v in named.items())


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SuiteViolation:
    index: int
    description: str
    witness: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    system: str
    seed: int
    budget: int
    samples: int
    violations: tuple
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        """Canonical form; elapsed is wall clock and stays out of it."""
        return json.dumps({
            "suite": self.suite,
            "system": self.system,
            "seed": self.seed,
            "budget": self.budget,
            "samples": self.samples,
            "violations": [
                {"index": v.index, "description": v.description,
                 "witness": v.witness}
                for v in self.violations],
        }, sort_keys=True, separators=(",", ":"))


class _Recorder:
    def __init__(self):
        self.samples = 0
        self.violations = []

    def check(self, ok, description: str, witness="") -> bool:
        """Count one sample and record a violation when ok is false.

        witness is a string, or a function of no arguments that returns
        one; a function is called only on failure.  The suites pass every
        formatted witness (format_bf, describe_expr, _wp) as such a
        function, so a check that holds builds no witness text.
        """
        idx = self.samples
        self.samples += 1
        if not ok:
            if callable(witness):
                witness = witness()
            self.violations.append(SuiteViolation(idx, description, witness))
        return bool(ok)


def _lawful(sys, *fs) -> bool:
    """Do the functions all keep the laws?

    bf_join and bf_meet do not validate what they return; the suites
    check every lattice result they build through this.
    """
    return not any(validate_bf(sys, f) for f in fs)


def _maybe(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RefinementError):
        return None


# ---------------------------------------------------------------------------
# suites


def _suite_prop1(sys, rng, budget, rec):
    # every well formed expression closes to a lawful boundary function
    for _ in range(4 * budget):
        expr = random_ideal_expr(sys, rng, 2)
        wit = lambda: describe_expr(sys, expr)
        shape = validate_ideal_expr(sys, expr)
        rec.check(not shape, "generated expression is not well formed",
                  lambda: wit() + "; " + ", ".join(v.code for v in shape))
        if shape:
            continue
        phi = boundary_of(sys, expr)
        bad = validate_bf(sys, phi)
        rec.check(not bad, "set boundary breaks the function laws",
                  lambda: wit() + "; " + ", ".join(v.code for v in bad))
        rec.check(eval_bf(sys, phi, p_min(sys)) == p_min(sys),
                  "the boundary must fix the bottom point", wit)


def _suite_def_biconditions(sys, rng, budget, rec):
    pts = _point_batch(sys, rng, 8 + 4 * budget)
    for x in pts:
        s = _maybe(suc, sys, x)
        rec.check((s is not None) == has_gap_above(sys, x),
                  "gap above must match the successor probe", lambda: _wp(sys, x=x))
        if s is not None:
            rec.check(pred(sys, s) == x and lt(x, s),
                      "successor and predecessor must invert each other",
                      lambda: _wp(sys, x=x, s=s))
            rec.check(construct_between(sys, x, s) is None,
                      "nothing may sit strictly inside a gap", lambda: _wp(sys, x=x, s=s))
            try:
                interval(sys, x, s, lo_open=True, hi_open=True)
                rec.check(False, "the open gap interval must be empty",
                          lambda: _wp(sys, x=x, s=s))
            except EmptyIntervalError:
                rec.check(True, "")
        p = _maybe(pred, sys, x)
        rec.check((p is not None) == has_gap_below(sys, x),
                  "gap below must match the predecessor probe", lambda: _wp(sys, x=x))
        if p is not None:
            rec.check(suc(sys, p) == x and lt(p, x),
                      "predecessor and successor must invert each other",
                      lambda: _wp(sys, x=x, p=p))
        w = x.word(max(len(x.preamble), sys.prefix_len))
        rec.check(has_gap_above(sys, x)
                  == (x != p_max(sys) and x == max_tail_point(sys, w)),
                  "gap above means a maximal tail short of the top",
                  lambda: _wp(sys, x=x))
        rec.check(has_gap_below(sys, x)
                  == (x != p_min(sys) and x == min_tail_point(sys, w)),
                  "gap below means a minimal tail short of the bottom",
                  lambda: _wp(sys, x=x))
    for x in pts:
        for y in pts:
            c = order_compare(x, y)
            rec.check(le(x, y) == (c <= 0) and lt(x, y) == (c < 0),
                      "comparisons must agree with the three-way form",
                      lambda: _wp(sys, x=x, y=y))
            rec.check(p_test(x, y) == (orbit_test(x, y) and le(x, y)),
                      "the pair test is orbit membership plus order",
                      lambda: _wp(sys, x=x, y=y))
            # read off the digit words, not the orbit keys: past the longer
            # preamble both strings are periodic, and periodic strings that
            # agree on lx + ly - gcd(lx, ly) places are equal (Fine and Wilf)
            w = max(len(x.preamble), len(y.preamble))
            lx, ly = len(x.period), len(y.period)
            span = w + lx + ly - gcd(lx, ly)
            mates = x.word(span)[w:] == y.word(span)[w:]
            rec.check(orbit_test(x, y) == mates
                      and (_maybe(merge_level, x, y) is not None) == mates,
                      "orbit mates are exactly the points with merging tails",
                      lambda: _wp(sys, x=x, y=y))
    for x in pts[:4 + budget]:
        for n in (1, 2, 3):
            lo, hi = cylinder_bounds(sys, x.word(n))
            rec.check(le(lo, x) and le(x, hi),
                      "a point must sit inside its own cylinder",
                      lambda: _wp(sys, x=x, lo=lo, hi=hi))


def _end_points_and_gap_mates(sys, bf) -> list[Point]:
    out = []
    for ival, _ in bf.pieces:
        for y in (ival.lo, ival.hi):
            out.append(y)
            if has_gap_above(sys, y):
                out.append(suc(sys, y))
            if has_gap_below(sys, y):
                out.append(pred(sys, y))
    return out


def _suite_prop4_5(sys, rng, budget, rec):
    for _ in range(2 * budget):
        phi = random_bf(sys, rng)
        wit = lambda: format_bf(sys, phi)
        pts = _point_batch(sys, rng, 8)
        rec.check(not validate_bf(sys, phi),
                  "generated function must satisfy the laws", wit)
        norm = normalize_bf(sys, phi)
        probes = pts + _end_points_and_gap_mates(sys, phi) \
            + _end_points_and_gap_mates(sys, norm)
        rec.check(all(eval_bf(sys, phi, y) == eval_bf(sys, norm, y) for y in probes),
                  "normalization must not move a valid function", wit)
        vals = [eval_bf(sys, phi, y) for y in pts]
        for y, v in zip(pts, vals):
            rec.check(le(v, y), "order-mode values stay below the identity",
                      lambda: _wp(sys, y=y, value=v))
            rec.check(not has_gap_below(sys, v) or p_test(v, y),
                      "a value with a gap below must link to its argument",
                      lambda: _wp(sys, y=y, value=v))
        for x, fx in zip(pts, vals):
            for y, fy in zip(pts, vals):
                if le(x, y):
                    rec.check(le(fx, fy),
                              "the function must be monotone",
                              lambda: _wp(sys, x=x, y=y) + "; " + wit())


def _suite_prop6(sys, rng, budget, rec):
    for _ in range(2 * budget):
        phi = random_bf(sys, rng)
        wit = lambda: format_bf(sys, phi)
        rec.check(boundary_of(sys, OfBFClosed(phi)) == phi,
                  "the neighborhood hull keeps its function as boundary", wit)
        rec.check(boundary_of(sys, OfBFOpen(phi)) == bf_minus(sys, phi),
                  "the strict sub-level set closes to the left companion", wit)
        for _ in range(5):
            x, y = _random_linked_pair(sys, rng)
            strict = lt(x, eval_bf(sys, phi, y))
            rec.check(member(sys, OfBFOpen(phi), x, y).is_yes == strict,
                      "strict sub-level membership is the strict comparison",
                      lambda: _wp(sys, x=x, y=y) + "; " + wit())
            if strict:
                rec.check(sigma_member(sys, phi, x, y).is_yes,
                          "the open set sits inside the hull",
                          lambda: _wp(sys, x=x, y=y) + "; " + wit())


def _suite_prop7(sys, rng, budget, rec):
    for _ in range(2 * budget):
        expr = random_ideal_expr(sys, rng, 2, closed_only=True)
        wit = lambda: describe_expr(sys, expr)
        phi = boundary_of(sys, expr)
        rec.check(sandwich_check(sys, expr, phi).is_yes,
                  "a set must squeeze around its own boundary", wit)
        for _ in range(5):
            x, y = _random_linked_pair(sys, rng)
            inside = member(sys, expr, x, y).is_yes
            if lt(x, eval_bf(sys, phi, y)):
                rec.check(inside, "strict sub-level pairs lie inside the set",
                          lambda: _wp(sys, x=x, y=y) + "; " + wit())
            if inside:
                rec.check(sigma_member(sys, phi, x, y).is_yes,
                          "members stay inside the neighborhood hull",
                          lambda: _wp(sys, x=x, y=y) + "; " + wit())
        for y in _point_batch(sys, rng, 6):
            if in_L_phi(sys, phi, y).is_yes:
                rec.check(member(sys, expr, eval_bf(sys, phi, y), y).is_yes,
                          "attained gap values on the graph lie inside the set",
                          lambda: _wp(sys, y=y) + "; " + wit())


def _suite_lemma8(sys, rng, budget, rec):
    for _ in range(2 * budget):
        phi = random_bf(sys, rng)
        wit = lambda: format_bf(sys, phi)
        low, high = bf_minus(sys, phi), bf_plus(sys, phi)
        rec.check(not validate_bf(sys, low),
                  "the left companion stays lawful", wit)
        rec.check(not validate_bf(sys, high),
                  "the right companion stays lawful", wit)
        rec.check(pointwise_le(sys, low, phi) and pointwise_le(sys, phi, high),
                  "the companions bracket the function", wit)
        rec.check(bf_minus(sys, low) == low,
                  "the left companion is its own left companion", wit)
        rec.check(bf_plus(sys, high) == high,
                  "the right companion is its own right companion", wit)


def _suite_prop9(sys, rng, budget, rec):
    for _ in range(2 * budget):
        phi = random_bf(sys, rng)
        wit = lambda: format_bf(sys, phi)
        low, high = bf_minus(sys, phi), bf_plus(sys, phi)
        rec.check(boundary_of(sys, OfBFOpen(phi)) == boundary_of(sys, OfBFOpen(low)),
                  "a function and its left companion close identically", wit)
        for _ in range(6):
            x, y = _random_linked_pair(sys, rng)
            rec.check(member(sys, OfBFOpen(phi), x, y)
                      == member(sys, OfBFOpen(low), x, y),
                      "strict sub-level membership sees only the left companion",
                      lambda: _wp(sys, x=x, y=y) + "; " + wit())
            rec.check(sigma_member(sys, phi, x, y)
                      == sigma_member(sys, high, x, y),
                      "hull membership sees only the right companion",
                      lambda: _wp(sys, x=x, y=y) + "; " + wit())


def _suite_lemma10(sys, rng, budget, rec):
    for _ in range(3 * budget):
        phi = random_bf(sys, rng)
        wit = lambda: format_bf(sys, phi)
        low, high = bf_minus(sys, phi), bf_plus(sys, phi)
        rec.check(bf_minus(sys, high) == low,
                  "lowering after raising recovers the left companion", wit)
        rec.check(bf_plus(sys, low) == high,
                  "raising after lowering recovers the right companion", wit)


def _suite_prop11(sys, rng, budget, rec):
    for _ in range(2 * budget):
        f = random_bf(sys, rng)
        g = random_bf(sys, rng)
        wit = lambda: format_bf(sys, f) + " | " + format_bf(sys, g)
        rec.check(bf_equiv(sys, f, g) == bf_between(sys, f, g),
                  "equivalence and the companion bracket agree", wit)
        rec.check(bf_equiv(sys, f, g) == bf_equiv(sys, g, f),
                  "equivalence is symmetric", wit)
        eta = random_bf(sys, rng)
        inner = bf_meet(sys, bf_plus(sys, f), eta)
        blend = bf_join(sys, bf_minus(sys, f), inner)
        rec.check(bf_equiv(sys, f, blend) and _lawful(sys, inner, blend),
                  "a blend inside the bracket is lawful and equivalent to its source",
                  lambda: wit() + " | " + format_bf(sys, eta))


def _suite_lemma12(sys, rng, budget, rec):
    for _ in range(budget):
        e1 = random_ideal_expr(sys, rng, 1, closed_only=True)
        e2 = random_ideal_expr(sys, rng, 1, closed_only=True)
        f1, f2 = boundary_of(sys, e1), boundary_of(sys, e2)
        wit = lambda: describe_expr(sys, e1) + " | " + describe_expr(sys, e2)
        joined, met = bf_join(sys, f1, f2), bf_meet(sys, f1, f2)
        rec.check(boundary_of(sys, union(e1, e2)) == joined and _lawful(sys, joined),
                  "a union closes to the lawful join of the boundaries", wit)
        rec.check(boundary_of(sys, intersection(e1, e2)) == met and _lawful(sys, met),
                  "an intersection closes to the lawful meet of the boundaries", wit)
    # independent finite cross-check: combine closed level sets directly
    lvl = 2 if word_count(sys, 2) <= 16 else 1
    if word_count(sys, lvl) > 30:
        return
    model = build_finite_model(sys, lvl)
    for _ in range(budget):
        s1 = random_units(sys, model, rng)
        s2 = random_units(sys, model, rng)
        g1 = boundary_of(sys, FiniteLevel(s1))
        g2 = boundary_of(sys, FiniteLevel(s2))
        for op, combined, got in (
                ("union", MatrixUnitSet(lvl, s1.pairs | s2.pairs),
                 bf_join(sys, g1, g2)),
                ("intersection", MatrixUnitSet(lvl, s1.pairs & s2.pairs),
                 bf_meet(sys, g1, g2))):
            lawful = _lawful(sys, got)
            for v in model.words:
                best = brute_boundary(model, combined, v)
                want = max_tail_point(sys, best) if best else p_min(sys)
                rec.check(lawful and eval_bf(sys, got, max_tail_point(sys, v)) == want,
                          f"the lattice {op} is unlawful or disagrees with the brute maximum",
                          lambda: f"{fmt_units(s1)} {op} {fmt_units(s2)} at {fmt_word(v)}")


def _classify_random_bfs(sys, rng, budget, rec, op, classify, combine, forms):
    """3 * budget random functions through one classifier (op is meet or join).

    A reducible verdict's lawful witnesses must combine back to the
    function; an irreducible one's kind must match the function's
    catalog shape (forms maps the kind to the bf_form tags it allows).
    """
    for _ in range(3 * budget):
        phi = random_bf(sys, rng)
        wit = lambda: format_bf(sys, phi)
        try:
            cls = classify(sys, phi)
        except RefinementError as err:
            rec.check(False, f"{op} classification self-check failed",
                      lambda: wit() + "; " + str(err))
            continue
        if cls.kind == "reducible":
            w1, w2 = cls.witnesses
            both = combine(sys, w1, w2)
            rec.check(both == phi and _lawful(sys, w1, w2, both),
                      f"lawful {op} witnesses must recompose the function", wit)
        else:
            rec.check(bf_form(sys, phi).tag in forms[cls.kind],
                      "an irreducible function must carry its catalog shape",
                      lambda: wit() + "; kind=" + cls.kind)


def _suite_prop13(sys, rng, budget, rec):
    _classify_random_bfs(sys, rng, budget, rec, "meet", classify_meet_bf, bf_meet, {
        "identity_form": {"identity"}, "phi_ab": {"phi_ab", "minimal"},
        "psi_paab": {"psi_paab"}})
    for _ in range(2 * budget):
        a, b = _random_linked_pair(sys, rng)
        for expr in (Strip(a, b), StripPlus(a, b)):
            v = classify_meet_ideal(sys, expr)
            wit = lambda: describe_expr(sys, expr)
            rec.check(v.irreducible is not None,
                      "catalog sets must get a verdict", wit)
            rec.check(v.irreducible == (not v.witnesses),
                      "witnesses appear exactly for reducible sets", wit)
            if v.irreducible and v.boundary_class is not None:
                rec.check(v.boundary_class.irreducible,
                          "an irreducible set must have an irreducible boundary",
                          wit)


def _suite_prop14(sys, rng, budget, rec):
    rec.check(classify_join_bf(sys, identity_bf(sys)).kind == "reducible",
              "the identity must split under join", "identity")
    rec.check(classify_join_bf(sys, const_bf(sys, p_min(sys))).kind
              == "minimal_form",
              "the minimal function is join-irreducible", "const bottom")
    _classify_random_bfs(sys, rng, budget, rec, "join", classify_join_bf, bf_join, {
        "minimal_form": {"minimal"}, "phi_at": {"phi_at"}})


def _suite_prop15(sys, rng, budget, rec):
    for _ in range(3 * budget):
        a, t = _random_interior(sys, rng), _random_interior(sys, rng)
        if lt(t, a):
            a, t = t, a
        expr = Corner(a, t)
        wit = lambda: describe_expr(sys, expr)
        v = classify_join_ideal(sys, expr)
        rec.check(v.irreducible is not None,
                  "corners must get a verdict", wit)
        rec.check(v.irreducible == (not v.witnesses),
                  "witnesses appear exactly for reducible corners", wit)
        if v.irreducible and v.boundary_class is not None:
            rec.check(v.boundary_class.irreducible,
                      "an irreducible corner must have an irreducible boundary",
                      wit)
        if not v.irreducible:
            for _ in range(4):
                x, y = _random_linked_pair(sys, rng)
                got = member(sys, expr, x, y).is_yes
                split = any(member(sys, w, x, y).is_yes for w in v.witnesses)
                rec.check(got == split,
                          "a split corner must be the union of its witnesses",
                          lambda: wit() + "; " + _wp(sys, x=x, y=y))
    if format_system(sys) == ";2":
        a = parse_point(sys, "2|1")
        t = parse_point(sys, "21|2")
        v = classify_join_ideal(sys, Corner(a, t))
        rec.check(v.irreducible is False and len(v.witnesses) == 2,
                  "the exceptional corner must split",
                  lambda: describe_expr(sys, Corner(a, t)))


def _cocycle_series(sys, x, y) -> Fraction:
    # sum of (y_n - x_n) / (k_1 ... k_n) over n up to the merge level,
    # past which the terms vanish: the telescoped expansion values,
    # summed digit by digit rather than through btilde's closed form
    total, scale = Fraction(0), 1
    n = merge_level(x, y)
    for a, b, k in zip(x.word(n), y.word(n), sys.k_word(n)):
        scale *= k
        total += Fraction(b - a, scale)
    return total


def _suite_cocycle(sys, rng, budget, rec):
    rec.check(btilde(sys, p_min(sys)) == 0 and btilde(sys, p_max(sys)) == 1,
              "the expansion value must run from 0 to 1", "")
    pts = _point_batch(sys, rng, 6 + 2 * budget)
    values = [btilde(sys, x) for x in pts]
    for x, bx in zip(pts, values):
        for y, by in zip(pts, values):
            if le(x, y):
                rec.check(bx <= by, "the expansion value must be monotone",
                          lambda: _wp(sys, x=x, y=y))
            if x != y and bx == by:
                mates = ((has_gap_above(sys, x) and suc(sys, x) == y)
                         or (has_gap_above(sys, y) and suc(sys, y) == x))
                rec.check(mates,
                          "only gap pairs may share an expansion value",
                          lambda: _wp(sys, x=x, y=y))
    gaps = [gap_point(sys, n) for n in range(1, 11)]
    for x in pts:
        for y in pts:
            if le(x, y):
                for g in gaps:
                    rec.check(not lt(g, x) or lt(g, y),
                              "gap terms charged below x stay charged below y",
                              lambda: _wp(sys, g=g, x=x, y=y))
                break
    for _ in range(4 * budget):
        x, y = _random_linked_pair(sys, rng)
        c = ctilde(sys, x, y)
        rec.check(c == _cocycle_series(sys, x, y),
                  "the cocycle must telescope through expansion values",
                  lambda: _wp(sys, x=x, y=y))
        rec.check((c >= 0) == le(x, y),
                  "a nonnegative cocycle must detect the order",
                  lambda: _wp(sys, x=x, y=y))
        rec.check((ctilde(sys, y, x) >= 0) == le(y, x),
                  "a nonnegative cocycle must detect the order",
                  lambda: _wp(sys, x=y, y=x))
        z = _random_mate(sys, rng, x)
        rec.check(ctilde(sys, x, z) == c + ctilde(sys, y, z),
                  "the cocycle must be additive along an orbit",
                  lambda: _wp(sys, x=x, y=y, z=z))
    for n, g in enumerate(gaps[:8], 1):
        rec.check(gap_index(sys, g) == n,
                  "the gap enumeration must invert its index", f"n={n}")
    for x in pts[:4 + budget]:
        lo1, hi1 = b_approx(sys, x, Fraction(1, 8))
        lo2, hi2 = b_approx(sys, x, Fraction(1, 64))
        rec.check(lo1 <= lo2 <= hi2 <= hi1,
                  "tighter enclosures must nest inside looser ones",
                  lambda: _wp(sys, x=x))
        for y in pts[:4 + budget]:
            got = order_by_cocycle(sys, x, y)
            rec.check(got == order_compare(x, y),
                      "the embedding must decide the order",
                      lambda: _wp(sys, x=x, y=y))
    if format_system(sys) == ";2":
        rec.check(btilde(sys, parse_point(sys, "|2")) == 1,
                  "pinned expansion value for the top point", "|2")
        rec.check(btilde(sys, parse_point(sys, "|12")) == Fraction(1, 3),
                  "pinned expansion value for the period-two point", "|12")
        rec.check(gaps[0] == parse_point(sys, "1|2"),
                  "pinned first gap point", "1|2")


def _check_units_against_brute(sys, model, units, rec):
    expr = FiniteLevel(units)
    if units.mode is Mode.MODULE:
        expr = module(expr)
    phi = boundary_of(sys, expr)
    for v in model.words:
        best = brute_boundary(model, units, v)
        want = max_tail_point(sys, best) if best else p_min(sys)
        got = eval_bf(sys, phi, max_tail_point(sys, v))
        rec.check(got == want,
                  "symbolic boundary disagrees with the brute maximum",
                  lambda: f"{fmt_units(units)} at {fmt_word(v)}: "
                          f"{format_point(sys, got)} vs {format_point(sys, want)}")
    packed = restrict_to_level(sys, expr, model.level)
    rec.check(packed.pairs == units.pairs,
              "restriction must recover the level set it came from",
              lambda: fmt_units(units))


def _suite_oracle_equivalence(sys, rng, budget, rec):
    for n in (1, 2, 3):
        if word_count(sys, n) > 30:
            continue
        model = build_finite_model(sys, n)
        if len(model.pairs) <= 10:
            for units in enumerate_closed_sets(sys, model):
                _check_units_against_brute(sys, model, units, rec)
        else:
            for _ in range(4 * budget):
                units = random_units(sys, model, rng)
                _check_units_against_brute(sys, model, units, rec)


def _suite_module_set_mode(sys, rng, budget, rec):
    full = module(Full())
    x, y = _random_linked_pair(sys, rng)
    rec.check(member(sys, full, y, x).is_yes,
              "the full module holds reversed orbit pairs", lambda: _wp(sys, x=y, y=x))
    for _ in range(2 * budget):
        wrapped = random_module_expr(sys, rng, 1)
        wit = lambda: describe_expr(sys, wrapped)
        shape = validate_ideal_expr(sys, wrapped)
        rec.check(not shape, "module expression must be well formed",
                  lambda: wit() + "; " + ", ".join(v.code for v in shape))
        if shape:
            continue
        phi_m = boundary_of(sys, wrapped)
        rec.check(phi_m.mode is Mode.MODULE and not validate_bf(sys, phi_m),
                  "a module boundary keeps the module-mode laws", wit)
    for _ in range(2 * budget):
        # catalog shapes are well formed in both modes: compare directly
        inner = _random_catalog_expr(sys, rng)
        wit = lambda: describe_expr(sys, inner)
        phi_i = boundary_of(sys, inner)
        phi_m = boundary_of(sys, module(inner))
        for z in _point_batch(sys, rng, 5):
            rec.check(le(eval_bf(sys, phi_i, z), eval_bf(sys, phi_m, z)),
                      "widening to a module can only raise the boundary",
                      lambda: _wp(sys, y=z) + "; " + wit())
    lvl = 2 if word_count(sys, 2) <= 16 else 1
    if word_count(sys, lvl) <= 30:
        model = build_finite_model(sys, lvl)
        for _ in range(2 * budget):
            units = random_units(sys, model, rng, Mode.MODULE)
            _check_units_against_brute(sys, model, units, rec)


_SUITE_FUNCS = {
    "prop1": _suite_prop1,
    "def-biconditions": _suite_def_biconditions,
    "prop4_5": _suite_prop4_5,
    "prop6": _suite_prop6,
    "prop7": _suite_prop7,
    "lemma8": _suite_lemma8,
    "prop9": _suite_prop9,
    "lemma10": _suite_lemma10,
    "prop11": _suite_prop11,
    "lemma12": _suite_lemma12,
    "prop13": _suite_prop13,
    "prop14": _suite_prop14,
    "prop15": _suite_prop15,
    "cocycle": _suite_cocycle,
    "oracle-equivalence": _suite_oracle_equivalence,
    "module-set-mode": _suite_module_set_mode,
}

SUITE_NAMES = tuple(_SUITE_FUNCS)


def run_suite(name: str, sys: RefinementSystem = None, seed: int = 0,
              budget: int = 1) -> SuiteReport:
    """Run one named suite; same (name, system, seed, budget) replays bit
    for bit."""
    if name not in _SUITE_FUNCS:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if sys is None:
        sys = parse_system(";2")
    elif isinstance(sys, str):
        sys = parse_system(sys)
    rng = random.Random(f"{seed}|{name}|{format_system(sys)}")
    rec = _Recorder()
    start = time.perf_counter()
    _SUITE_FUNCS[name](sys, rng, budget, rec)
    return SuiteReport(name, format_system(sys), seed, budget, rec.samples,
                       tuple(rec.violations), time.perf_counter() - start)
