"""Exact cocycle values and the order embedding built from them.

btilde is the base expansion value of a point: the digit string read as
a mixed-radix fraction in [0, 1].  It is monotone but collapses each
gap pair to one value, so an extra dyadic term is added per gap to make
the embedding strictly monotone.  All values are exact: they are built
as integer numerators over integer denominators and handed out as
fractions.Fraction; the only approximation is the explicitly requested
enclosure width in b_approx.

btilde has a closed form.  Past s = max(preamble, prefix_len) the digits
and the multiplicities both repeat with the period length p.  If h is
the mixed-radix rank of the first s digits among d = k_1 ... k_s words,
and t the rank of one period block among r = k_{s+1} ... k_{s+p} words,
the value is h/d plus the geometric series t/(d r) * r/(r - 1), that is
(h (r - 1) + t) / (d (r - 1)).  Both ranks are read off the digit words
x.word(s + p) and sys.k_word(s + p).

The gap terms have a closed form per level too.  Gap points are
enumerated level by level (word length L), and within a level in word
order, so the gap points below x at level L are the first
word_rank(x_1 .. x_{L-1}) * (k_L - 1) + (x_L - 1) of that level's block.
The blocks of levels 1 .. L-1 hold k_1 ... k_{L-1} - 1 points, so level
L's block starts after that index `offset`, and its points below x add
the geometric run 2^-offset - 2^-end with end = offset + that count,
clipped at the enclosure depth D.  Only the levels whose block starts
before index D contribute, and there are at most log2(D) + 1 of them.
Summed in units of 2^-D, the whole gap term is one integer.

A gap pair is decided in closed form.  A mixed-radix value has at most
two expansions, so equal btilde with x != y is exactly a gap pair, and
its lower point is the one with a gap above.  The upper point's gap sum
counts the lower point, a gap point; the lower point's does not count
itself, and no gap point lies between them.  So the two embedding
values differ by exactly 2^-n, n the gap index of the lower point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .order import (
    Point,
    RefinementSystem,
    has_gap_above,
    max_tail_point,
    mixed_radix,
    orbit_test,
    p_min,
    word_at,
)

Rational = Union[int, float, Fraction]


def _btilde_int(sys: RefinementSystem, x: Point) -> tuple[int, int]:
    """btilde(x) as a numerator and a positive denominator, not reduced."""
    s = max(len(x.preamble), sys.prefix_len)
    n = s + len(x.period)
    xs, ks = x.word(n), sys.k_word(n)
    h, d = mixed_radix(xs[:s], ks[:s])
    t, r = mixed_radix(xs[s:], ks[s:])
    return h * (r - 1) + t, d * (r - 1)


def btilde(sys: RefinementSystem, x: Point) -> Fraction:
    """Mixed-radix expansion value sum (x_n - 1) / (k_1 ... k_n), exactly.

    Computed in closed form from two mixed-radix ranks (see the module
    docstring), with no per-digit fraction arithmetic.
    """
    return Fraction(*_btilde_int(sys, x))


def ctilde(sys: RefinementSystem, x: Point, y: Point) -> Fraction:
    """Cocycle value btilde(y) - btilde(x) for points in one orbit."""
    if not orbit_test(x, y):
        raise ValueError("ctilde needs points in the same orbit")
    return btilde(sys, y) - btilde(sys, x)


# ---------------------------------------------------------------------------
# enumeration of gap points
#
# A point with a gap above is w * (maximal tail) for a unique shortest
# word w, and w is exactly a nonempty word whose last digit is below the
# multiplicity at its position.  Enumerate those words by length, then
# lexicographically.


def gap_count_at_level(sys: RefinementSystem, n: int) -> int:
    return sys.prod(0, n - 1) * (sys.k_at(n) - 1)


def gap_point(sys: RefinementSystem, n: int) -> Point:
    """The n-th point with a gap above, 1-based."""
    if n < 1:
        raise ValueError("gap points are enumerated from 1")
    level, rest = 1, n - 1
    while True:
        c = gap_count_at_level(sys, level)
        if rest < c:
            break
        rest -= c
        level += 1
    head_rank, last = divmod(rest, sys.k_at(level) - 1)
    word = word_at(sys, level - 1, head_rank) + (last + 1,)
    return max_tail_point(sys, word)


def gap_index(sys: RefinementSystem, x: Point) -> int:
    """Position of x in the gap point enumeration (inverse of gap_point)."""
    if not has_gap_above(sys, x):
        raise ValueError("point has no gap above")
    w = max(len(x.preamble), sys.prefix_len)
    xs, ks = x.word(w), sys.k_word(w)
    # the shortest word w with x = w * (maximal tail) ends at the last
    # non-maximal digit; levels 1 .. j-1 hold k_1 ... k_{j-1} - 1 gap points
    j = next(n for n in range(w, 0, -1) if xs[n - 1] < ks[n - 1])
    rank, block = mixed_radix(xs[:j - 1], ks[:j - 1])
    return block - 1 + rank * (ks[j - 1] - 1) + xs[j - 1]


# ---------------------------------------------------------------------------
# the strictly monotone embedding


def _gap_units(sys: RefinementSystem, x: Point, depth: int) -> int:
    """Sum of 2^-n over the gap points n <= depth below x, in units of 2^-depth.

    One geometric run per level (see the module docstring).  The block
    of level L starts after index k_1 ... k_{L-1} - 1, so a running
    product locates it, and levels past depth.bit_length() start at or
    beyond index depth.
    """
    n = depth.bit_length()
    gaps, block, rank = 0, 1, 0
    for d, k in zip(x.word(n), sys.k_word(n)):
        offset = block - 1
        if offset >= depth:
            break
        end = min(offset + rank * (k - 1) + d - 1, depth)
        gaps += (1 << (depth - offset)) - (1 << (depth - end))
        block *= k
        rank = rank * k + d - 1
    return gaps


def b_approx(sys: RefinementSystem, x: Point,
             eps: Rational) -> tuple[Fraction, Fraction]:
    """Exact enclosure [lo, hi] of the embedding value, hi - lo <= eps.

    The embedding adds 2^-n to btilde(x) for every enumerated gap point
    strictly below x.  The partial sum over the first D terms pins the
    value to within 2^-D, where D is the least depth with 2^-D <= eps.
    Per level L the sum is one geometric run (see the module docstring),
    so the enclosure costs O(levels) integer operations, not D gap
    points.  The minimum point is exact: nothing lies below it, so its
    enclosure is [0, 0].
    """
    width = Fraction(eps)
    if width <= 0:
        raise ValueError("eps must be positive")
    if x == p_min(sys):
        return Fraction(0), Fraction(0)
    # least D with 2^D >= 1/width, i.e. 2^D >= ceil(1/width)
    depth = (-(-width.denominator // width.numerator) - 1).bit_length()
    num, den = _btilde_int(sys, x)
    lo = Fraction((num << depth) + _gap_units(sys, x, depth) * den, den << depth)
    return lo, lo + Fraction(1, 1 << depth)


def order_by_cocycle(sys: RefinementSystem, x: Point, y: Point) -> int:
    """Order decision through embedding values only.

    The embedding is btilde plus the gap terms.  btilde is monotone, so
    unequal btilde values decide the order at once; each point's btilde
    is computed once, as an integer fraction.  Equal btilde values with
    x != y mark a gap pair, whose embedding values differ by exactly
    2^-n, n the gap index of its lower point, the one with a gap above
    (see the module docstring).  So one gap test on x decides it, with
    no comparison between the two points' digits and no enclosure of
    the gap terms, whatever n is.
    """
    if x == y:
        return 0
    (nx, dx), (ny, dy) = _btilde_int(sys, x), _btilde_int(sys, y)
    lhs, rhs = nx * dy, ny * dx
    if lhs != rhs:
        return -1 if lhs < rhs else 1
    return -1 if has_gap_above(sys, x) else 1
