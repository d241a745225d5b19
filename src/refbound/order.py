"""Core order structure of refinement systems.

A refinement system is an eventually periodic sequence of multiplicities
k_1, k_2, ... (all >= 2).  Points are infinite digit strings x = (x_1,
x_2, ...) with 1 <= x_n <= k_n, ordered lexicographically.  Everything
downstream (cocycles, ideal sets, boundary functions) works on the exact
finite representations defined here: eventually periodic digit strings
whose period length is locked to a multiple of the system's cycle
length, so that shifting a point never leaves the representable class.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Iterator, Optional, Sequence


class RefinementError(Exception):
    """Base class for representation errors in this package."""


class MisalignedPeriodError(RefinementError):
    """Period length is not a multiple of the system's cycle length."""


class DigitRangeError(RefinementError):
    """A digit falls outside 1..k_n at its position."""


class EmptyIntervalError(RefinementError):
    pass


# Every Point stores at least its first HEAD_LEN digits, and every system
# its first HEAD_LEN multiplicities, so most words the order primitives
# read are slices.  On the benchmark's suites, read and write paths no
# word or k_word call asks for more than 14 digits; its hostile plateau
# scans reach 506, but 86 % of their calls ask for at most 32.
HEAD_LEN = 32


def _unroll(head: tuple[int, ...], loop: tuple[int, ...], n: int) -> tuple[int, ...]:
    # first n terms of head followed by loop repeated forever
    if n <= len(head):
        return head[:max(n, 0)]
    reps = -(-(n - len(head)) // len(loop))
    return (head + loop * reps)[:n]


def stored_hash(cls):
    """Class decorator: store the hash of a frozen dataclass that keys memo tables.

    The hash is that of the init-field tuple (what the generated hash
    gives), computed on first use and stored as _hash, a class attribute
    and not a field, so it is outside ==, repr and dataclasses.fields.
    Pickles and copies keep only the init fields (Mode hashes its name,
    so a hash depends on PYTHONHASHSEED).  The two methods are compiled
    from source, as dataclasses compiles its own, so the field tuple is
    built inline, as cheaply as in a hand-written __hash__.
    """
    key = "(" + "".join(f"self.{f.name}, " for f in fields(cls) if f.init) + ")"
    scope = {"cls": cls}
    exec("def __hash__(self):\n"
         "    h = self._hash\n"
         "    if h is None:\n"
         f"        h = hash({key})\n"
         '        object.__setattr__(self, "_hash", h)\n'
         "    return h\n"
         "def __reduce__(self):\n"
         f"    return cls, {key}\n", scope)
    cls._hash, cls.__hash__, cls.__reduce__ = None, scope["__hash__"], scope["__reduce__"]
    return cls


def _primitive_root(cycle: tuple[int, ...]) -> tuple[int, ...]:
    # smallest block whose repetition gives the cycle
    n = len(cycle)
    for d in range(1, n):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


@stored_hash
@dataclass(frozen=True)
class RefinementSystem:
    """Multiplicity sequence k_1 k_2 ... given as a prefix and a repeating cycle.

    Instances are canonical: the cycle is primitive, and the prefix never
    ends with the digit the cycle would supply at that position anyway.
    Always build through make() so equal sequences compare equal.  The
    system is the first key of every memo table; its hash is stored
    (stored_hash).
    """

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    @staticmethod
    def make(prefix: Sequence[int] = (), cycle: Sequence[int] = ()) -> "RefinementSystem":
        pre = tuple(int(k) for k in prefix)
        cyc = tuple(int(k) for k in cycle)
        if not cyc:
            raise ValueError("cycle must be nonempty")
        if any(k < 2 for k in pre + cyc):
            raise ValueError("all multiplicities must be >= 2")
        cyc = _primitive_root(cyc)
        work = list(pre)
        while work and work[-1] == cyc[-1]:
            work.pop()
            cyc = (cyc[-1],) + cyc[:-1]
        return RefinementSystem(tuple(work), cyc)

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def cycle_len(self) -> int:
        return len(self.cycle)

    @property
    def k_max(self) -> int:
        return max(self.prefix + self.cycle)

    def k_word(self, n: int) -> tuple[int, ...]:
        """The multiplicities at positions 1..n as one tuple.

        A slice of the stored first HEAD_LEN multiplicities when n fits in
        them, unrolled from prefix and cycle only beyond.
        """
        if 0 <= n <= HEAD_LEN:
            return self._k_head[:n]
        return _unroll(self.prefix, self.cycle, n)

    def k_at(self, n: int) -> int:
        """Multiplicity at position n (1-based)."""
        if n < 1:
            raise ValueError(f"position must be >= 1, got {n}")
        p = len(self.prefix)
        if n <= p:
            return self.prefix[n - 1]
        return self.cycle[(n - p - 1) % len(self.cycle)]

    def prod(self, i: int, j: int) -> int:
        """Product of the multiplicities at positions i+1 through j."""
        if i < 0 and j > i:
            raise ValueError(f"position must be >= 1, got {i + 1}")
        return prod(self.k_word(j)[i:])

    def shift(self, m: int) -> "RefinementSystem":
        """The system whose multiplicity sequence is k_{m+1}, k_{m+2}, ..."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        p = len(self.prefix)
        if m > p:
            m = p + (m - p) % len(self.cycle)
        out = self._shift_cache.get(m)
        if out is None:
            if m <= p:
                out = RefinementSystem.make(self.prefix[m:], self.cycle)
            else:
                r = m - p
                out = RefinementSystem.make((), self.cycle[r:] + self.cycle[:r])
            self._shift_cache[m] = out
        return out

    @cached_property
    def _shift_cache(self) -> dict[int, "RefinementSystem"]:
        # shift() by reduced offset, so at most prefix_len + cycle_len entries
        return {}

    @cached_property
    def _k_head(self) -> tuple[int, ...]:
        return _unroll(self.prefix, self.cycle, HEAD_LEN)

    @cached_property
    def _p_min(self) -> "Point":
        return point(self, (), (1,) * self.cycle_len)

    @cached_property
    def _p_max(self) -> "Point":
        # digits of the maximum point are the multiplicities themselves
        return point(self, self.prefix, self.cycle)

    @cached_property
    def _full_interval(self) -> "OrderInterval":
        return OrderInterval(self._p_min, self._p_max)

    @cached_property
    def _rotations(self) -> tuple[tuple[int, ...], ...]:
        # _rotations[r] is the cycle started r places in
        return tuple(self.cycle[r:] + self.cycle[:r] for r in range(self.cycle_len))


@stored_hash
@dataclass(frozen=True)
class Point:
    """Eventually periodic digit string in canonical form.

    digit(1), digit(2), ... runs through the preamble and then repeats
    the period forever.  Canonical means: the period length is the lcm of
    the minimal eventual period and the system's cycle length, and the
    preamble is as short as possible.  Build through point() which
    canonicalizes and interns; two canonical points are equal iff their
    digit strings are.  point() range-checks the digits, once: nothing
    checks them again, so a Point(...) built by hand must keep them in
    range.  word(n) gives the first n digits as one tuple, which is how
    the order primitives below read them.

    Two fields are set once at construction and take no part in ==,
    hash or repr.  head is the first max(HEAD_LEN, len(preamble) +
    len(period)) digits, so order_compare and word(n) for n up to
    len(head) read a slice instead of unrolling; it costs one tuple of
    at least HEAD_LEN small ints per point, about 0.3 KB.  head need not
    end on a period boundary, so equal heads alone do not make equal
    points (see order_compare).
    orbit_key is the primitive root r of the period (length d) rotated
    right by len(preamble) mod d, so orbit_key[j] is the digit at every
    position n = j + 1 (mod d) past the preamble.  It is the tail
    itself, indexed by absolute position mod the minimal eventual
    period, so it does not depend on spelling (a doubled period or a
    period digit moved into the preamble gives the same key), and two
    points share an orbit exactly when their keys are equal.  Points
    key every memo table; their hash is stored (stored_hash).
    """

    preamble: tuple[int, ...]
    period: tuple[int, ...]
    head: tuple[int, ...] = field(init=False, repr=False, compare=False)
    orbit_key: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = max(HEAD_LEN, len(self.preamble) + len(self.period))
        object.__setattr__(self, "head", _unroll(self.preamble, self.period, n))
        root = _primitive_root(self.period)
        r = len(self.preamble) % len(root)
        object.__setattr__(self, "orbit_key", root[-r:] + root[:-r] if r else root)

    def digit(self, n: int) -> int:
        if n <= len(self.preamble):
            return self.preamble[n - 1]
        return self.period[(n - len(self.preamble) - 1) % len(self.period)]

    def word(self, n: int) -> tuple[int, ...]:
        """digit(1), ..., digit(n) as one tuple.

        A slice of head when n fits in it; beyond, unrolled from preamble
        and period, since head need not end on a period boundary.
        """
        head = self.head
        if 0 <= n <= len(head):
            return head[:n]
        return _unroll(self.preamble, self.period, n)


def check_digits(word: Sequence[int], ks: Sequence[int]) -> None:
    """Raise DigitRangeError unless each digit of word lies in 1..k at its position.

    ks holds the multiplicities k_1, k_2, ... for at least len(word) positions.
    """
    for d, k in zip(word, ks):
        if not 1 <= d <= k:
            # counting positions would slow every clean word, so only an error counts
            n = next(i for i, (e, j) in enumerate(zip(word, ks), start=1) if not 1 <= e <= j)
            raise DigitRangeError(f"digit {d} at position {n} outside 1..{k}")


def point(sys: RefinementSystem, preamble: Sequence[int], period: Sequence[int]) -> Point:
    """Canonical point with the given digit string.

    The period must be a multiple of the system's cycle length
    (MisalignedPeriodError otherwise) and every digit must lie in
    1..k_n at its position (DigitRangeError).  Points are interned:
    equal (system, preamble, period) inputs, as lists or tuples, return
    the same Point object while the input stays in a bounded
    process-wide table.  Errors are never stored, so a bad input raises
    the same error on every call.
    """
    return _canonical_point(sys, tuple(map(int, preamble)), tuple(map(int, period)))


# Both distinct passes of the benchmark's suites workload (16 suites on
# three systems, two seeds) ask for about 1,500 distinct points, and a
# construction or hull-typical run for about 600 with its set-up, so
# 4,096 entries hold a whole run with room to spare while bounding memory.
@lru_cache(maxsize=4096)
def _canonical_point(sys: RefinementSystem, pre: tuple[int, ...],
                     per: tuple[int, ...]) -> Point:
    if not per:
        raise ValueError("period must be nonempty")
    big_l = sys.cycle_len
    ln = len(per)
    if ln % big_l != 0:
        raise MisalignedPeriodError(
            f"period length {ln} is not a multiple of cycle length {big_l}")
    # one full joint period past the prefix/preamble region covers all residues
    limit = max(sys.prefix_len, len(pre)) + ln
    check_digits(_unroll(pre, per, limit), sys.k_word(limit))
    lstar = next(d for d in range(1, ln + 1)
                 if ln % d == 0 and per[d:] + per[:d] == per)
    # lc divides ln, so pre + per holds every digit up to position m + lc
    lc = lcm(lstar, big_l)
    s = pre + per
    m = len(pre)
    while m > 0 and s[m - 1] == s[m - 1 + lc]:
        m -= 1
    return Point(s[:m], s[m:m + lc])


# ---------------------------------------------------------------------------
# order and orbit


def _periodic_span(x: Point, y: Point) -> int:
    # past the longer preamble both digit strings are periodic, and two
    # such strings that agree on lx + ly - gcd(lx, ly) places are equal
    # (Fine and Wilf, 1965)
    lx, ly = len(x.period), len(y.period)
    return lx + ly - gcd(lx, ly)


def _joint_words(x: Point, y: Point) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    # (w, x's word, y's word), where w is the longer preamble: the digit
    # strings are equal iff these words are, and the words hold their
    # first difference
    w = max(len(x.preamble), len(y.preamble))
    span = w + _periodic_span(x, y)
    return w, x.word(span), y.word(span)


def first_difference(x: Point, y: Point) -> Optional[int]:
    """First position where the digit strings differ, or None if equal.

    The heads are read first; only heads that agree unroll the joint words.
    """
    if x is y:
        return None
    n = next(itertools.compress(itertools.count(1), map(operator.ne, x.head, y.head)), None)
    if n is None:
        _, a, b = _joint_words(x, y)
        n = next(itertools.compress(itertools.count(1), map(operator.ne, a, b)), None)
    return n


def order_compare(x: Point, y: Point) -> int:
    """-1, 0 or 1 as the digit string of x is below, equal to or above y's.

    Interned points are often the same object.  Otherwise each head holds
    its point's first len(head) digits exactly, and most heads are
    HEAD_LEN long: heads of one length that differ decide in one tuple
    comparison.  Equal heads make equal points when the period lengths
    agree: each head reaches one whole period p past both preambles, and
    two p-periodic strings that agree on p places are equal.  Equal heads
    with different period lengths need not be equal points: minimal
    periods 20 and 30 on ;2 can share their first 32 digits and differ
    at the 40th.  When only the head lengths differ, the longer head
    against the other point's word of its length decides next, unrolling
    one word.  Only what is left unrolls the joint words.
    """
    if x is y:
        return 0
    a, b = x.head, y.head
    if len(a) == len(b):
        if a < b:
            return -1
        if a > b:
            return 1
        if len(x.period) == len(y.period):
            return 0
    elif len(a) > len(b):
        if a[:len(b)] == b:
            b = y.word(len(a))
    elif b[:len(a)] == a:
        a = x.word(len(b))
    if a == b:
        _, a, b = _joint_words(x, y)
        if a == b:
            return 0
    return -1 if a < b else 1


def compare_beyond(x: Point, y: Point, n: int) -> int:
    """Order of the digit strings of x and y from position n + 1 on."""
    span = max(n, len(x.preamble), len(y.preamble)) + _periodic_span(x, y)
    a, b = x.word(span)[n:], y.word(span)[n:]
    if a == b:
        return 0
    return -1 if a < b else 1


def le(x: Point, y: Point) -> bool:
    return order_compare(x, y) <= 0


def lt(x: Point, y: Point) -> bool:
    return order_compare(x, y) < 0


def orbit_test(x: Point, y: Point) -> bool:
    """Do x and y agree from some position on (lie in the same orbit)?

    Past the longer preamble both digit strings are periodic with their
    minimal periods, and they agree there exactly when those periods
    have one length d and the same digit at each position mod d: that
    is, when the orbit keys are equal.
    """
    return x is y or x.orbit_key == y.orbit_key


def p_test(x: Point, y: Point) -> bool:
    """Same orbit and x below y: membership in the canonical order P."""
    return orbit_test(x, y) and le(x, y)


def merge_level(x: Point, y: Point) -> int:
    """Smallest N such that x and y agree at every position beyond N.

    Only defined for points in the same orbit.
    """
    if not orbit_test(x, y):
        raise ValueError("merge_level needs points in the same orbit")
    w = max(len(x.preamble), len(y.preamble))
    a, b = x.word(w), y.word(w)
    if a == b:
        return 0
    # the last difference, scanning back from the end
    while a[w - 1] == b[w - 1]:
        w -= 1
    return w


# ---------------------------------------------------------------------------
# extremes and gaps


def p_min(sys: RefinementSystem) -> Point:
    return sys._p_min


def p_max(sys: RefinementSystem) -> Point:
    return sys._p_max


def _window(sys: RefinementSystem, x: Point) -> int:
    return max(len(x.preamble), sys.prefix_len)


def has_gap_above(sys: RefinementSystem, x: Point) -> bool:
    """True iff x has an immediate successor.

    Happens exactly when the digits are eventually maximal (d_n = k_n
    from some point on) and x is not the maximum point.  The period
    holds every digit of the tail, and period digit i sits where the
    multiplicities read the cycle rotated by len(preamble) - prefix_len,
    so the test is one compare of the period with that rotation,
    repeated to its length; x is then p_max, however spelled, exactly
    when its digits up to the window are the multiplicities.
    """
    big_l, pre = sys.cycle_len, x.preamble
    over = len(pre) - sys.prefix_len
    if x.period != sys._rotations[over % big_l] * (len(x.period) // big_l):
        return False
    if over >= 0:
        return pre != sys.k_word(len(pre))
    return x.word(sys.prefix_len) != sys.prefix


def has_gap_below(sys: RefinementSystem, x: Point) -> bool:
    """True iff x has an immediate predecessor (digits eventually 1, x not minimal).

    Every period digit is 1 exactly when the digits are eventually 1; then
    x is p_min, however spelled, exactly when its preamble is all 1s too.
    """
    if x.period.count(1) != len(x.period):
        return False
    return x.preamble.count(1) != len(x.preamble)


def suc(sys: RefinementSystem, x: Point) -> Point:
    if not has_gap_above(sys, x):
        raise ValueError("point has no immediate successor")
    w = _window(sys, x)
    a, ks = x.word(w), sys.k_word(w)
    j = next(n for n in range(w, 0, -1) if a[n - 1] < ks[n - 1])
    return min_tail_point(sys, a[:j - 1] + (a[j - 1] + 1,))


def pred(sys: RefinementSystem, x: Point) -> Point:
    if not has_gap_below(sys, x):
        raise ValueError("point has no immediate predecessor")
    w = _window(sys, x)
    a = x.word(w)
    j = next(n for n in range(w, 0, -1) if a[n - 1] > 1)
    return max_tail_point(sys, a[:j - 1] + (a[j - 1] - 1,))


def min_tail_point(sys: RefinementSystem, word: Sequence[int]) -> Point:
    """The smallest point whose digits start with word."""
    return point(sys, word, (1,) * sys.cycle_len)


def max_tail_point(sys: RefinementSystem, word: Sequence[int]) -> Point:
    """The largest point whose digits start with word."""
    j = len(word)
    w = max(j, sys.prefix_len)
    ks = sys.k_word(w + sys.cycle_len)
    return point(sys, tuple(word) + ks[j:w], ks[w:])


def cylinder_bounds(sys: RefinementSystem, word: Sequence[int]) -> tuple[Point, Point]:
    return min_tail_point(sys, word), max_tail_point(sys, word)


# ---------------------------------------------------------------------------
# shifting digits in and out


def tail_of(sys: RefinementSystem, x: Point, m: int) -> Point:
    """x with its first m digits removed, as a point of sys.shift(m)."""
    w = max(m, len(x.preamble))
    a = x.word(w + len(x.period))
    return point(sys.shift(m), a[m:w], a[w:])


def prepend(sys: RefinementSystem, word: Sequence[int], y: Point) -> Point:
    """Digits of word followed by the digits of y.

    y must be a point of sys.shift(len(word)); the result is a point of sys.
    """
    return point(sys, tuple(word) + y.preamble, y.period)


def replace_prefix(sys: RefinementSystem, x: Point, word: Sequence[int]) -> Point:
    """Swap the first len(word) digits of x for word (an orbit mate of x)."""
    return prepend(sys, word, tail_of(sys, x, len(word)))


# ---------------------------------------------------------------------------
# order intervals


@stored_hash
@dataclass(frozen=True)
class OrderInterval:
    """Points from lo to hi, each end open or closed; the hash is stored (stored_hash)."""

    lo: Point
    hi: Point
    lo_open: bool = False
    hi_open: bool = False


def interval(sys: RefinementSystem, lo: Point, hi: Point,
             lo_open: bool = False, hi_open: bool = False) -> OrderInterval:
    """Canonical nonempty order interval.

    An open flag survives only when the endpoint is a genuine limit from
    inside the interval; an open endpoint with a gap is replaced by the
    closed neighbor.  Raises EmptyIntervalError on empty intervals.
    """
    if lo_open and has_gap_above(sys, lo):
        lo, lo_open = suc(sys, lo), False
    if hi_open and has_gap_below(sys, hi):
        hi, hi_open = pred(sys, hi), False
    c = order_compare(lo, hi)
    if c > 0 or (c == 0 and (lo_open or hi_open)):
        raise EmptyIntervalError("interval is empty")
    return OrderInterval(lo, hi, lo_open, hi_open)


def full_interval(sys: RefinementSystem) -> OrderInterval:
    return sys._full_interval


def interval_contains(ival: OrderInterval, x: Point) -> bool:
    c = order_compare(ival.lo, x)
    if c > 0 or (c == 0 and ival.lo_open):
        return False
    c = order_compare(x, ival.hi)
    return not (c > 0 or (c == 0 and ival.hi_open))


def interval_intersect(sys: RefinementSystem, a: OrderInterval,
                       b: OrderInterval) -> Optional[OrderInterval]:
    c = order_compare(a.lo, b.lo)
    if c < 0:
        lo, lo_open = b.lo, b.lo_open
    elif c > 0:
        lo, lo_open = a.lo, a.lo_open
    else:
        lo, lo_open = a.lo, a.lo_open or b.lo_open
    c = order_compare(a.hi, b.hi)
    if c < 0:
        hi, hi_open = a.hi, a.hi_open
    elif c > 0:
        hi, hi_open = b.hi, b.hi_open
    else:
        hi, hi_open = a.hi, a.hi_open or b.hi_open
    try:
        return interval(sys, lo, hi, lo_open, hi_open)
    except EmptyIntervalError:
        return None


def interval_sup(sys: RefinementSystem, ival: OrderInterval) -> tuple[Point, bool]:
    """Least upper bound of the interval plus whether it is attained."""
    if not ival.hi_open:
        return ival.hi, True
    if has_gap_below(sys, ival.hi):
        # canonical intervals never reach here, raw ones may
        return pred(sys, ival.hi), True
    return ival.hi, False


def interval_inf(sys: RefinementSystem, ival: OrderInterval) -> tuple[Point, bool]:
    if not ival.lo_open:
        return ival.lo, True
    if has_gap_above(sys, ival.lo):
        return suc(sys, ival.lo), True
    return ival.lo, False


def interval_small_points(sys: RefinementSystem, ival: OrderInterval) -> Optional[list[Point]]:
    """The members of the interval if there are at most two, else None.

    Singletons and gap-adjacent doubletons are the only finite order
    intervals here, because a successor point is never itself succeeded.
    """
    if order_compare(ival.lo, ival.hi) == 0:
        return [ival.lo]
    if ival.lo_open or ival.hi_open:
        return None
    if has_gap_above(sys, ival.lo) and suc(sys, ival.lo) == ival.hi:
        return [ival.lo, ival.hi]
    return None


# ---------------------------------------------------------------------------
# constructing points inside intervals


def construct_between(sys: RefinementSystem, a: Point, b: Point) -> Optional[Point]:
    """Some point strictly between a and b, or None when (a, b) is empty."""
    n = first_difference(a, b)
    if n is None or a.digit(n) > b.digit(n):
        raise ValueError("construct_between needs a strictly below b")
    if a.digit(n) + 1 < b.digit(n):
        return min_tail_point(sys, a.word(n - 1) + (a.digit(n) + 1,))
    # b_n = a_n + 1: bump a somewhere past the cut, or lower b there
    la = max(len(a.preamble), sys.prefix_len, n) + len(a.period)
    aw, ks = a.word(la), sys.k_word(la)
    p = next((i for i in range(n + 1, la + 1) if aw[i - 1] < ks[i - 1]), None)
    if p is not None:
        return min_tail_point(sys, aw[:p - 1] + (aw[p - 1] + 1,))
    lb = max(len(b.preamble), sys.prefix_len, n) + len(b.period)
    bw = b.word(lb)
    q = next((i for i in range(n + 1, lb + 1) if bw[i - 1] > 1), None)
    if q is not None:
        return max_tail_point(sys, bw[:q - 1] + (bw[q - 1] - 1,))
    return None  # a runs maximal and b minimal after the cut: b = suc(a)


def construct_between_no_gap_below(sys: RefinementSystem, a: Point,
                                   b: Point) -> Optional[Point]:
    """A point strictly between a and b that is a limit from below."""
    c = construct_between(sys, a, b)
    if c is None:
        return None
    if not has_gap_below(sys, c):
        return c
    # c = w 1 1 1 ...; slide an all-2 tail down toward it until below b
    work = list(c.preamble)
    while True:
        cand = point(sys, work, (2,) * sys.cycle_len)
        if lt(cand, b):
            return cand
        work.append(1)


# ---------------------------------------------------------------------------
# finite words


def level_words(sys: RefinementSystem, n: int) -> Iterator[tuple[int, ...]]:
    """All digit words of length n in lexicographic order."""
    return itertools.product(*(range(1, sys.k_at(i) + 1) for i in range(1, n + 1)))


def word_count(sys: RefinementSystem, n: int) -> int:
    return sys.prod(0, n)


def mixed_radix(digits: Sequence[int], ks: Sequence[int]) -> tuple[int, int]:
    """Rank of digits among the words over radices ks, and how many words there are."""
    rank, count = 0, 1
    for d, k in zip(digits, ks):
        rank = rank * k + d - 1
        count *= k
    return rank, count


def word_rank(sys: RefinementSystem, word: Sequence[int]) -> int:
    """Zero-based lexicographic rank of word among words of its length."""
    return mixed_radix(word, sys.k_word(len(word)))[0]


def word_at(sys: RefinementSystem, n: int, rank: int) -> tuple[int, ...]:
    digits = []
    for k in reversed(sys.k_word(n)):
        rank, d = divmod(rank, k)
        digits.append(d + 1)
    return tuple(reversed(digits))


# ---------------------------------------------------------------------------
# literals

# Digit strings use one character per digit when every multiplicity is a
# single digit, and dot-separated digits otherwise.  The parser accepts
# both spellings.


def _format_digits(sys: RefinementSystem, digits: Sequence[int]) -> str:
    sep = "." if sys.k_max > 9 else ""
    return sep.join(str(d) for d in digits)


def _ints(tokens, kind: str, literal: str) -> tuple[int, ...]:
    # int() of each token; a bad one raises a ValueError that names it
    # and the literal it came from
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"{kind} {literal!r}: {tok!r} is not a number") from None
    return tuple(out)


def _digits(sys: RefinementSystem, text: str, kind: str, literal: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    if "." in text:
        return _ints(text.split("."), kind, literal)
    if sys.k_max > 9:
        # without dots a wide system literal can only be one digit
        return _ints((text,), kind, literal)
    return _ints(text, kind, literal)


def parse_digits(sys: RefinementSystem, text: str) -> tuple[int, ...]:
    return _digits(sys, text, "digit string", text)


def format_point(sys: RefinementSystem, x: Point) -> str:
    return _format_digits(sys, x.preamble) + "|" + _format_digits(sys, x.period)


def parse_point(sys: RefinementSystem, text: str) -> Point:
    head, sep, tail = text.strip().partition("|")
    if not sep:
        raise ValueError(f"point literal needs a '|' between preamble and period: {text!r}")
    pre = _digits(sys, head, "point literal", text)
    per = _digits(sys, tail, "point literal", text)
    try:
        return point(sys, pre, per)
    except (RefinementError, ValueError) as err:
        # same class, but the message names the literal, as _ints does
        raise type(err)(f"point literal {text!r}: {err}") from None


def format_system(sys: RefinementSystem) -> str:
    return (",".join(str(k) for k in sys.prefix)
            + ";" + ",".join(str(k) for k in sys.cycle))


def parse_system(text: str) -> RefinementSystem:
    head, sep, tail = text.strip().partition(";")
    if not sep:
        raise ValueError(f"system literal needs a ';' before the cycle: {text!r}")
    def ints(s: str) -> tuple[int, ...]:
        s = s.strip()
        return _ints(s.split(","), "system literal", text) if s else ()
    pre, cyc = ints(head), ints(tail)
    try:
        return RefinementSystem.make(pre, cyc)
    except ValueError as err:
        raise ValueError(f"system literal {text!r}: {err}") from None
