"""Exact cocycle values and the order embedding built from them.

btilde is the base expansion value of a point: the digit string read as
a mixed-radix fraction in [0, 1].  It is monotone but collapses each
gap pair to one value, so an extra dyadic term is added per gap to make
the embedding strictly monotone.  All arithmetic is exact
(fractions.Fraction); the only approximation is the explicitly
requested enclosure width in b_approx.

The gap terms have a closed form per level.  Gap points are enumerated
level by level (word length L), and within a level in word order, so
the gap points below x at level L are the first
word_rank(x_1 .. x_{L-1}) * (k_L - 1) + (x_L - 1) of that level's block.
If the block starts after index `offset`, they add the geometric run
2^-offset - 2^-end with end = offset + that count, clipped at the
enclosure depth D.  Only the levels whose block starts before index D
contribute, and there are about log2(D) of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .order import (
    Point,
    RefinementSystem,
    has_gap_above,
    max_tail_point,
    orbit_test,
    p_min,
    word_at,
    word_rank,
)

Rational = Union[int, float, Fraction]


def btilde(sys: RefinementSystem, x: Point) -> Fraction:
    """Mixed-radix expansion value sum (x_n - 1) / (k_1 ... k_n), exactly."""
    s = max(len(x.preamble), sys.prefix_len)
    head = Fraction(0)
    d = 1
    for n in range(1, s + 1):
        d *= sys.k_at(n)
        head += Fraction(x.digit(n) - 1, d)
    # beyond s both digits and multiplicities repeat with the period length
    r = 1
    tail = Fraction(0)
    for j in range(1, len(x.period) + 1):
        r *= sys.k_at(s + j)
        tail += Fraction(x.digit(s + j) - 1, r)
    return head + tail * Fraction(r, r - 1) / d


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
    j = next(n for n in range(w, 0, -1) if x.digit(n) < sys.k_at(n))
    word = tuple(x.digit(i) for i in range(1, j + 1))
    n = sum(gap_count_at_level(sys, lv) for lv in range(1, j))
    n += word_rank(sys, word[:-1]) * (sys.k_at(j) - 1) + (word[-1] - 1)
    return n + 1


# ---------------------------------------------------------------------------
# the strictly monotone embedding


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
    # gap terms in units of 2^-D: level L adds 2^(D-offset) - 2^(D-end)
    gaps = 0
    offset, level, head_rank = 0, 1, 0
    while offset < depth:
        k, d = sys.k_at(level), x.digit(level)
        end = min(offset + head_rank * (k - 1) + d - 1, depth)
        gaps += (1 << (depth - offset)) - (1 << (depth - end))
        offset += gap_count_at_level(sys, level)
        head_rank = head_rank * k + d - 1
        level += 1
    partial = btilde(sys, x) + Fraction(gaps, 1 << depth)
    return partial, partial + Fraction(1, 1 << depth)


def order_by_cocycle(sys: RefinementSystem, x: Point, y: Point) -> int:
    """Order decision through embedding values only.

    Shrinks the enclosures until they separate; terminates because the
    embedding is strictly monotone (gap pairs are pushed apart by
    exactly 2^-n, everything else already differs in btilde).  Squaring
    the width each round separates a gap pair at index n after about
    log2(n) rounds.
    """
    if x == y:
        return 0
    eps = Fraction(1, 4)
    while True:
        xlo, xhi = b_approx(sys, x, eps)
        ylo, yhi = b_approx(sys, y, eps)
        if xhi < ylo:
            return -1
        if yhi < xlo:
            return 1
        eps *= eps
