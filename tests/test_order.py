import dataclasses
import itertools
import pickle
import random
from math import lcm

import pytest

from refbound.order import (
    HEAD_LEN,
    _canonical_point,
    _joint_words,
    DigitRangeError,
    EmptyIntervalError,
    MisalignedPeriodError,
    Point,
    RefinementError,
    RefinementSystem,
    check_digits,
    compare_beyond,
    construct_between,
    construct_between_no_gap_below,
    cylinder_bounds,
    first_difference,
    format_point,
    format_system,
    has_gap_above,
    has_gap_below,
    interval,
    interval_contains,
    interval_inf,
    interval_intersect,
    interval_small_points,
    interval_sup,
    le,
    level_words,
    lt,
    max_tail_point,
    merge_level,
    min_tail_point,
    orbit_test,
    order_compare,
    p_max,
    p_min,
    p_test,
    parse_digits,
    parse_point,
    parse_system,
    point,
    pred,
    prepend,
    replace_prefix,
    suc,
    tail_of,
    word_at,
    word_count,
    word_rank,
)

BIN = RefinementSystem.make((), (2,))
K23 = RefinementSystem.make((), (2, 3))
PRE = RefinementSystem.make((3,), (2,))


def pt(sys, text):
    return parse_point(sys, text)


class TestSystemCanonicalization:
    def test_prefix_folds_into_cycle(self):
        assert RefinementSystem.make((2, 3), (2, 3)) == K23

    def test_cycle_is_primitive(self):
        assert RefinementSystem.make((), (2, 3, 2, 3)) == K23

    def test_partial_fold_rotates(self):
        s = RefinementSystem.make((2, 2), (3, 2))
        # trailing 2 folds onto the rotated cycle, then folding stops
        assert s == RefinementSystem((2,), (2, 3))

    def test_k_sequence_preserved_by_canonicalization(self):
        raw_prefix, raw_cycle = (2, 3), (2, 3)
        s = RefinementSystem.make(raw_prefix, raw_cycle)
        seq = raw_prefix + raw_cycle * 3
        for n, k in enumerate(seq, start=1):
            assert s.k_at(n) == k

    def test_rejects_small_multiplicity(self):
        with pytest.raises(ValueError):
            RefinementSystem.make((), (1,))

    def test_shift_rotates_cycle(self):
        assert K23.shift(1) == RefinementSystem.make((), (3, 2))
        assert K23.shift(2) == K23
        assert PRE.shift(1) == RefinementSystem.make((), (2,))

    def test_shift_composes(self):
        s = RefinementSystem.make((2, 2, 4), (3, 5))
        for m in range(6):
            for n in range(1, 8):
                assert s.shift(m).k_at(n) == s.k_at(m + n)

    def test_prod(self):
        assert K23.prod(0, 3) == 2 * 3 * 2
        assert K23.prod(2, 2) == 1
        assert PRE.prod(0, 2) == 6


class TestPointCanonicalization:
    def test_preamble_folds_into_period(self):
        assert point(K23, (1,), (2, 1)) == Point((), (1, 2))

    def test_period_shrinks_to_primitive(self):
        assert point(BIN, (1, 2), (2, 2)) == Point((1,), (2,))

    def test_period_locked_to_cycle_length(self):
        # primitive period 1, but cycle length 2 forces length 2
        assert point(K23, (), (1, 1)).period == (1, 1)

    def test_misaligned_period_rejected(self):
        with pytest.raises(MisalignedPeriodError):
            point(K23, (), (1,))

    def test_digit_range_checked_in_period_repeats(self):
        # digit 3 is fine at position 2 but not at position 3
        with pytest.raises(DigitRangeError):
            point(K23, (), (3, 1))
        with pytest.raises(DigitRangeError):
            point(K23, (1, 3), (3, 1))

    def test_digit_range_checked_against_prefix(self):
        assert point(PRE, (3,), (2,)).preamble == (3,)
        with pytest.raises(DigitRangeError):
            point(PRE, (1, 3), (2,))

    def test_equal_digit_strings_are_equal_points(self):
        a = point(K23, (1, 2, 1, 2), (1, 2))
        b = point(K23, (), (1, 2))
        assert a == b


class TestOrder:
    def test_compare_first_difference(self):
        assert order_compare(pt(BIN, "11|2"), pt(BIN, "2|2")) == -1
        assert order_compare(pt(BIN, "2|2"), pt(BIN, "11|2")) == 1
        assert order_compare(pt(BIN, "|12"), pt(BIN, "|12")) == 0

    def test_compare_needs_full_period_window(self):
        # agree on any common prefix of length lcm-1, differ inside the window
        a = point(K23, (), (1, 2, 1, 3))
        b = point(K23, (), (1, 2))
        assert order_compare(a, b) == 1
        assert first_difference(a, b) == 4

    def test_periodic_span_is_tight(self):
        # periods 2 and 3 agree on 2 + 3 - gcd(2, 3) - 1 = 3 places, so the
        # first difference sits on the last place of the compared span
        a, b = pt(BIN, "|12"), pt(BIN, "|121")
        assert first_difference(a, b) == 4
        assert order_compare(a, b) == 1
        assert compare_beyond(a, b, 0) == 1
        assert not orbit_test(a, b)

    def test_extremes(self):
        xs = [pt(BIN, "|1"), pt(BIN, "1|2"), pt(BIN, "2|1"), pt(BIN, "|12"), pt(BIN, "|2")]
        lo, hi = p_min(BIN), p_max(BIN)
        for x in xs:
            assert le(lo, x) and le(x, hi)

    def test_orbit_same_tail(self):
        assert orbit_test(pt(BIN, "11|2"), pt(BIN, "2|2"))
        assert not orbit_test(pt(BIN, "|1"), pt(BIN, "|2"))
        # same eventual digits at shifted positions is not enough
        assert not orbit_test(pt(K23, "|12"), pt(K23, "|21"))

    def test_p_test_orders_orbit(self):
        assert p_test(pt(BIN, "11|2"), pt(BIN, "2|2"))
        assert not p_test(pt(BIN, "2|2"), pt(BIN, "11|2"))

    def test_merge_level(self):
        assert merge_level(pt(BIN, "11|2"), pt(BIN, "2|2")) == 2
        assert merge_level(pt(BIN, "|2"), pt(BIN, "|2")) == 0
        with pytest.raises(ValueError):
            merge_level(pt(BIN, "|1"), pt(BIN, "|2"))

    def test_merge_level_is_the_last_difference(self):
        # one digit changed at each position of a 7-digit preamble, the
        # first and the last included, and equal words
        base = (1, 2, 1, 1, 2, 2, 1)
        x = Point(base, (1, 2))
        assert merge_level(x, x) == merge_level(x, Point(base, (1, 2, 1, 2))) == 0
        for n in range(1, 8):
            word = base[:n - 1] + (3 - base[n - 1],) + base[n:]
            y = Point(word, (1, 2))
            assert merge_level(x, y) == merge_level(y, x) == n == ref_merge_level(x, y)
            z = Point(word + (1,), (2, 1))  # a longer preamble, same tail
            assert merge_level(x, z) == n == ref_merge_level(x, z)


class TestGaps:
    def test_gap_pair_in_binary(self):
        below, above = pt(BIN, "1|2"), pt(BIN, "2|1")
        assert has_gap_above(BIN, below)
        assert has_gap_below(BIN, above)
        assert suc(BIN, below) == above
        assert pred(BIN, above) == below

    def test_extremes_have_no_gaps(self):
        for sys in (BIN, K23, PRE):
            assert not has_gap_above(sys, p_max(sys))
            assert not has_gap_below(sys, p_min(sys))

    def test_successor_points_have_no_gap_above(self):
        s = suc(BIN, pt(BIN, "1|2"))
        assert not has_gap_above(BIN, s)

    def test_gap_probe(self):
        x = pt(K23, "21|23")
        assert has_gap_above(K23, x) and not has_gap_below(K23, x)
        y = pt(K23, "2|11")
        assert has_gap_below(K23, y) and not has_gap_above(K23, y)

    def test_suc_pred_roundtrip(self):
        for text in ("1|32", "11|23", "211|32"):
            x = pt(K23, text)
            assert pred(K23, suc(K23, x)) == x
        for text in ("2|11", "22|11", "121|11"):
            x = pt(K23, text)
            assert suc(K23, pred(K23, x)) == x

    def test_suc_in_mixed_radix(self):
        # 1 3 | 2 3 max-tail: bump last non-max digit
        x = pt(K23, "13|23")
        assert suc(K23, x) == pt(K23, "2|11")

    def test_no_gap_at_limits(self):
        assert not has_gap_above(BIN, pt(BIN, "|12"))
        assert not has_gap_below(BIN, pt(BIN, "|12"))

    def test_suc_requires_gap(self):
        with pytest.raises(ValueError):
            suc(BIN, p_max(BIN))
        with pytest.raises(ValueError):
            pred(BIN, p_min(BIN))


class TestCylinders:
    def test_bounds(self):
        lo, hi = cylinder_bounds(K23, (2, 1))
        assert lo == pt(K23, "21|11")
        assert hi == pt(K23, "21|23")

    def test_bounds_cover_prefix_region(self):
        lo, hi = cylinder_bounds(PRE, (2,))
        assert lo == point(PRE, (2,), (1,))
        assert hi == point(PRE, (2,), (2,))

    def test_tail_and_prepend_roundtrip(self):
        x = pt(K23, "212|31")
        t = tail_of(K23, x, 2)
        assert prepend(K23, (2, 1), t) == x

    def test_tail_shifts_system(self):
        t = tail_of(K23, pt(K23, "2|31"), 1)
        assert t == point(K23.shift(1), (), (3, 1))

    def test_replace_prefix_keeps_orbit(self):
        x = pt(K23, "212|31")
        y = replace_prefix(K23, x, (1, 1, 1))
        assert orbit_test(x, y)
        assert y.word(3) == (1, 1, 1)


class TestIntervals:
    def test_open_flag_with_gap_becomes_closed_neighbor(self):
        iv = interval(BIN, pt(BIN, "1|2"), p_max(BIN), lo_open=True)
        assert iv.lo == pt(BIN, "2|1") and not iv.lo_open

    def test_gap_pair_open_interval_is_empty(self):
        with pytest.raises(EmptyIntervalError):
            interval(BIN, pt(BIN, "1|2"), pt(BIN, "2|1"), lo_open=True, hi_open=True)

    def test_contains_respects_flags(self):
        iv = interval(BIN, p_min(BIN), pt(BIN, "|12"), hi_open=True)
        assert interval_contains(iv, p_min(BIN))
        assert not interval_contains(iv, pt(BIN, "|12"))
        assert interval_contains(iv, pt(BIN, "11|12"))

    def test_intersect(self):
        a = interval(BIN, p_min(BIN), pt(BIN, "1|2"))
        b = interval(BIN, pt(BIN, "|12"), p_max(BIN))
        both = interval_intersect(BIN, a, b)
        assert both == interval(BIN, pt(BIN, "|12"), pt(BIN, "1|2"))
        assert interval_intersect(BIN, interval(BIN, p_min(BIN), pt(BIN, "|12")),
                                  interval(BIN, pt(BIN, "1|2"), p_max(BIN))) is None

    def test_sup_inf_attainment(self):
        iv = interval(BIN, p_min(BIN), pt(BIN, "|12"), hi_open=True)
        x, attained = interval_sup(BIN, iv)
        assert x == pt(BIN, "|12") and not attained
        iv = interval(BIN, p_min(BIN), pt(BIN, "|12"))
        assert interval_sup(BIN, iv) == (pt(BIN, "|12"), True)
        iv = interval(BIN, pt(BIN, "|12"), p_max(BIN), lo_open=True)
        assert interval_inf(BIN, iv) == (pt(BIN, "|12"), False)

    def test_small_points(self):
        single = interval(BIN, pt(BIN, "1|2"), pt(BIN, "1|2"))
        assert interval_small_points(BIN, single) == [pt(BIN, "1|2")]
        double = interval(BIN, pt(BIN, "1|2"), pt(BIN, "2|1"))
        assert interval_small_points(BIN, double) == [pt(BIN, "1|2"), pt(BIN, "2|1")]
        assert interval_small_points(BIN, interval(BIN, p_min(BIN), p_max(BIN))) is None


class TestConstructBetween:
    def test_none_exactly_at_gaps(self):
        assert construct_between(BIN, pt(BIN, "1|2"), pt(BIN, "2|1")) is None
        assert construct_between(K23, pt(K23, "13|23"), pt(K23, "2|11")) is None

    def test_strictly_between(self):
        pairs = [
            (p_min(BIN), p_max(BIN)),
            (pt(BIN, "1|2"), p_max(BIN)),
            (p_min(BIN), pt(BIN, "1|2")),
            (pt(K23, "11|12"), pt(K23, "12|12")),
        ]
        for sys, (a, b) in zip((BIN, BIN, BIN, K23), pairs):
            c = construct_between(sys, a, b)
            assert c is not None and lt(a, c) and lt(c, b)

    def test_no_gap_below_variant(self):
        c = construct_between_no_gap_below(BIN, p_min(BIN), p_max(BIN))
        assert not has_gap_below(BIN, c)
        c = construct_between_no_gap_below(K23, pt(K23, "11|11"), pt(K23, "12|11"))
        assert c is not None and not has_gap_below(K23, c)
        assert lt(pt(K23, "11|11"), c) and lt(c, pt(K23, "12|11"))


class TestWords:
    def test_level_words_lex(self):
        assert list(level_words(K23, 2)) == [
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]

    def test_count_and_rank(self):
        assert word_count(K23, 3) == 12
        for n in range(4):
            for i, w in enumerate(level_words(K23, n)):
                assert word_rank(K23, w) == i
                assert word_at(K23, n, i) == w


class TestLiterals:
    def test_point_roundtrip(self):
        for text in ("|12", "1|2", "21|2", "|1"):
            x = parse_point(BIN, text)
            assert parse_point(BIN, format_point(BIN, x)) == x

    def test_dots_for_wide_digits(self):
        wide = RefinementSystem.make((), (12,))
        x = point(wide, (10,), (3,))
        lit = format_point(wide, x)
        assert lit == "10|3"
        assert parse_point(wide, lit) == x
        assert parse_point(wide, "10|3") == x

    def test_system_roundtrip(self):
        for text in (";2", ";2,3", "3;2", "2,2,4;3,5"):
            s = parse_system(text)
            assert parse_system(format_system(s)) == s

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            parse_point(BIN, "12")
        with pytest.raises(ValueError):
            parse_system("2,3")

    @pytest.mark.parametrize("parse,text,message", [
        (parse_system, ";2,x", "system literal ';2,x': 'x' is not a number"),
        (parse_system, "3,,2;2", "system literal '3,,2;2': '' is not a number"),
        (lambda text: parse_point(BIN, text), "|x",
         "point literal '|x': 'x' is not a number"),
        (lambda text: parse_point(BIN, text), "1a|2",
         "point literal '1a|2': 'a' is not a number"),
        (lambda text: parse_point(RefinementSystem.make((), (12,)), text), "10.b|3",
         "point literal '10.b|3': 'b' is not a number"),
        (lambda text: parse_digits(BIN, text), "12?", "digit string '12?': '?' is not a number"),
    ])
    def test_bad_tokens_are_named(self, parse, text, message):
        with pytest.raises(ValueError) as err:
            parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("parse,text,error,message", [
        (parse_system, ";1", ValueError,
         "system literal ';1': all multiplicities must be >= 2"),
        (parse_system, "2; ", ValueError, "system literal '2; ': cycle must be nonempty"),
        (lambda text: parse_point(BIN, text), "|3", DigitRangeError,
         "point literal '|3': digit 3 at position 1 outside 1..2"),
        (lambda text: parse_point(BIN, text), "1|", ValueError,
         "point literal '1|': period must be nonempty"),
        (lambda text: parse_point(parse_system(";2,3"), text), "|2", MisalignedPeriodError,
         "point literal '|2': period length 1 is not a multiple of cycle length 2"),
    ])
    def test_bad_values_are_named(self, parse, text, error, message):
        # the literal is named and the exception class is kept
        with pytest.raises(error) as err:
            parse(text)
        assert type(err.value) is error and str(err.value) == message


# ---------------------------------------------------------------------------
# digit-by-digit reference for the primitives that read digit words


def ref_point(sys, pre, per):
    """Canonical point spelled out one digit at a time: same errors, same result."""
    pre, per = tuple(pre), tuple(per)
    if not per:
        raise ValueError("period must be nonempty")
    if len(per) % sys.cycle_len != 0:
        raise MisalignedPeriodError(
            f"period length {len(per)} is not a multiple of cycle length {sys.cycle_len}")

    def digit(n):
        return pre[n - 1] if n <= len(pre) else per[(n - len(pre) - 1) % len(per)]

    for n in range(1, max(sys.prefix_len, len(pre)) + len(per) + 1):
        if not 1 <= digit(n) <= sys.k_at(n):
            raise DigitRangeError(f"digit {digit(n)} at position {n} outside 1..{sys.k_at(n)}")
    ln = len(per)
    lstar = min(d for d in range(1, ln + 1)
                if ln % d == 0 and all(per[i] == per[(i + d) % ln] for i in range(ln)))
    lc = lcm(lstar, sys.cycle_len)
    # the shortest preamble m whose next lc digits repeat forever
    window = len(pre) + 2 * ln + lc
    for m in range(len(pre) + 1):
        if all(digit(n) == digit(n + lc) for n in range(m + 1, window + 1)):
            return Point(tuple(digit(n) for n in range(1, m + 1)),
                         tuple(digit(n) for n in range(m + 1, m + lc + 1)))
    raise AssertionError("no preamble found")


def ref_shift(sys, m):
    w = max(sys.prefix_len, m)
    return RefinementSystem.make([sys.k_at(n) for n in range(m + 1, w + 1)],
                                 [sys.k_at(n) for n in range(w + 1, w + sys.cycle_len + 1)])


def ref_first_difference(x, y):
    w = max(len(x.preamble), len(y.preamble))
    for n in range(1, w + lcm(len(x.period), len(y.period)) + 1):
        if x.digit(n) != y.digit(n):
            return n
    return None


def ref_compare(x, y):
    n = ref_first_difference(x, y)
    return 0 if n is None else (-1 if x.digit(n) < y.digit(n) else 1)


def ref_orbit(x, y):
    w = max(len(x.preamble), len(y.preamble))
    return all(x.digit(n) == y.digit(n)
               for n in range(w + 1, w + lcm(len(x.period), len(y.period)) + 1))


def ref_merge_level(x, y):
    if not ref_orbit(x, y):
        raise ValueError("merge_level needs points in the same orbit")
    w = max(len(x.preamble), len(y.preamble))
    return max((n for n in range(1, w + 1) if x.digit(n) != y.digit(n)), default=0)


def ref_min_tail(sys, word):
    return ref_point(sys, word, (1,) * sys.cycle_len)


def ref_max_tail(sys, word):
    w = max(len(word), sys.prefix_len)
    return ref_point(sys, tuple(word) + tuple(sys.k_at(n) for n in range(len(word) + 1, w + 1)),
                     tuple(sys.k_at(n) for n in range(w + 1, w + sys.cycle_len + 1)))


def ref_gap_above(sys, x):
    w = max(len(x.preamble), sys.prefix_len)
    top = all(x.digit(n) == sys.k_at(n) for n in range(w + 1, w + len(x.period) + 1))
    return top and ref_compare(x, ref_max_tail(sys, ())) != 0


def ref_gap_below(sys, x):
    return all(d == 1 for d in x.period) and ref_compare(x, ref_min_tail(sys, ())) != 0


def ref_suc(sys, x):
    if not ref_gap_above(sys, x):
        raise ValueError("point has no immediate successor")
    w = max(len(x.preamble), sys.prefix_len)
    j = max(n for n in range(1, w + 1) if x.digit(n) < sys.k_at(n))
    return ref_min_tail(sys, [x.digit(n) for n in range(1, j)] + [x.digit(j) + 1])


def ref_pred(sys, x):
    if not ref_gap_below(sys, x):
        raise ValueError("point has no immediate predecessor")
    w = max(len(x.preamble), sys.prefix_len)
    j = max(n for n in range(1, w + 1) if x.digit(n) > 1)
    return ref_max_tail(sys, [x.digit(n) for n in range(1, j)] + [x.digit(j) - 1])


def ref_tail_of(sys, x, m):
    w = max(m, len(x.preamble))
    return ref_point(ref_shift(sys, m), [x.digit(n) for n in range(m + 1, w + 1)],
                     [x.digit(n) for n in range(w + 1, w + len(x.period) + 1)])


def ref_prepend(sys, word, y):
    return ref_point(sys, tuple(word) + y.preamble, y.period)


def outcome(f, *args):
    """The value f returns, or the type and text of what it raises."""
    try:
        return f(*args)
    except (ValueError, RefinementError) as err:
        return type(err), str(err)


REF_SYSTEMS = [parse_system(t) for t in (";2", ";2,3", "3;2", ";11", "2;2,2,3", "12;2,13")]


def raw_digits(rng, sys, start, count, bad):
    out = []
    for n in range(start, start + count):
        k = sys.k_at(n)
        if bad and rng.random() < 0.25:
            out.append(rng.choice((0, k + 1, sys.k_max + 1)))
        else:
            out.append(rng.choice((1, k, rng.randint(1, k))))
    return out


class TestAgainstDigitReference:
    """Each word-based primitive gives what a digit-by-digit reading gives."""

    @pytest.mark.parametrize("sys", REF_SYSTEMS, ids=format_system)
    def test_primitives_match_reference(self, sys):
        rng = random.Random(format_system(sys))
        L = sys.cycle_len
        points, errors = [p_min(sys), p_max(sys)], set()
        for i in range(120):
            bad = i % 3 == 0
            plen = rng.choice((0, 1, 2, 3, 5))
            plen_per = L * rng.choice((1, 2, 3)) + (rng.choice((-1, 1)) if bad and i % 2 else 0)
            pre = raw_digits(rng, sys, 1, plen, bad)
            per = raw_digits(rng, sys, plen + 1, max(plen_per, 1), bad)
            if i % 5 == 1:
                per = [sys.k_at(plen + n) for n in range(1, L + 1)] * (plen_per // L or 1)
            if i % 5 == 2:
                per = [1] * max(plen_per, 1)
            got = outcome(point, sys, pre, per)
            assert got == outcome(ref_point, sys, pre, per), (pre, per)
            if isinstance(got, Point):
                points.append(got)
            else:
                errors.add(got[0])
        assert DigitRangeError in errors and (L == 1 or MisalignedPeriodError in errors)
        assert len(points) > 60
        for x in points:
            assert outcome(has_gap_above, sys, x) == ref_gap_above(sys, x)
            assert outcome(has_gap_below, sys, x) == ref_gap_below(sys, x)
            assert outcome(suc, sys, x) == outcome(ref_suc, sys, x)
            assert outcome(pred, sys, x) == outcome(ref_pred, sys, x)
            for m in range(len(x.preamble) + len(x.period) + 3):
                word = x.word(m)
                assert word == tuple(x.digit(n) for n in range(1, m + 1))
                t = tail_of(sys, x, m)
                assert t == ref_tail_of(sys, x, m)
                assert prepend(sys, word, t) == ref_prepend(sys, word, t) == x
                # a random word of length m, out of range now and then
                w = raw_digits(rng, sys, 1, m, bad=m % 2 == 1)
                assert outcome(min_tail_point, sys, w) == outcome(ref_min_tail, sys, w)
                assert outcome(max_tail_point, sys, w) == outcome(ref_max_tail, sys, w)
                assert outcome(prepend, sys, w, t) == outcome(ref_prepend, sys, w, t)
        for _ in range(600):
            x = rng.choice(points)
            r = rng.random()
            if r < 0.3:  # an orbit mate that agrees with x deep into its digits
                m = rng.randint(0, len(x.preamble) + len(x.period) + 2)
                y = replace_prefix(sys, x, raw_digits(rng, sys, 1, m, bad=False))
            elif r < 0.45:
                # one cycle more of x's period: neither period need divide the
                # other, and the digits agree beyond the longer one
                y = outcome(point, sys, x.preamble, x.period + x.period[:L])
                if not isinstance(y, Point):
                    y = rng.choice(points)
            else:
                y = rng.choice(points)
            assert first_difference(x, y) == ref_first_difference(x, y)
            assert order_compare(x, y) == ref_compare(x, y)
            m = rng.randint(0, len(x.preamble) + len(x.period) + 2)
            assert compare_beyond(x, y, m) == ref_compare(ref_tail_of(sys, x, m),
                                                          ref_tail_of(sys, y, m))
            assert orbit_test(x, y) == ref_orbit(x, y)
            assert outcome(merge_level, x, y) == outcome(ref_merge_level, x, y)


class TestWordPrimitives:
    """merge_level, check_digits and Point.word against digit-by-digit readings."""

    def test_merge_level_matches_reference_on_hand_spellings(self):
        # each pair is one tail spelled two ways (a doubled period, period
        # digits moved into the preamble) behind preambles that differ at
        # one or two chosen places, long equal runs included
        rng = random.Random(5)
        seen = set()
        for _ in range(400):
            period = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            w = rng.choice((0, 1, 2, 5, 40, 300))
            a = [rng.randint(1, 3) for _ in range(w)]
            b = list(a)
            for n in rng.sample(range(w), min(w, rng.randint(0, 2))):
                b[n] = a[n] % 3 + 1
            moved = rng.randrange(len(period) + 1)
            x = Point(tuple(a), period)
            y = Point(tuple(b) + period[:moved], (period[moved:] + period[:moved]) * 2)
            want = ref_merge_level(x, y)
            assert merge_level(x, y) == merge_level(y, x) == want
            seen.add(min(want, 3))
        assert seen == {0, 1, 2, 3}

    def test_merge_level_of_a_first_digit_difference_behind_a_long_run(self):
        x = Point((1,) + (2,) * 500, (1,))
        y = Point((2,) + (2,) * 500, (1,))
        assert merge_level(x, y) == 1
        assert merge_level(x, Point(x.preamble + (1, 1), (1,))) == 0

    @pytest.mark.parametrize("word, ks, message", [
        ((1, 3, 0, 5), (2, 2, 2, 2), "digit 3 at position 2 outside 1..2"),
        ((0, 3), (2, 2), "digit 0 at position 1 outside 1..2"),
        ((2, 3, 4, 0), (2, 3, 3, 3), "digit 4 at position 3 outside 1..3"),
        ((1,) * 499 + (12, 0), (11,) * 501, "digit 12 at position 500 outside 1..11"),
    ])
    def test_check_digits_names_the_first_bad_digit(self, word, ks, message):
        with pytest.raises(DigitRangeError) as err:
            check_digits(word, ks)
        assert str(err.value) == message

    def test_check_digits_matches_reference(self):
        rng = random.Random(3)
        for sys in REF_SYSTEMS:
            for count in (0, 1, 2, 7, 40):
                ks = sys.k_word(count)
                for bad in (False, True):
                    word = tuple(raw_digits(rng, sys, 1, count, bad))
                    first = next((n for n in range(1, count + 1)
                                  if not 1 <= word[n - 1] <= ks[n - 1]), None)
                    want = None if first is None else (
                        DigitRangeError,
                        f"digit {word[first - 1]} at position {first} outside 1..{ks[first - 1]}")
                    assert outcome(check_digits, word, ks) == want

    def test_word_reads_head_then_period(self):
        x = Point((3, 1), (2, 1, 1))
        for n in range(12):
            assert x.word(n) == tuple(x.digit(i) for i in range(1, n + 1))
        assert x.word(-1) == ()


class TestWordsAndCaches:
    def test_words(self):
        x = pt(K23, "212|31")
        assert x.word(7) == (2, 1, 2, 3, 1, 3, 1)
        assert x.word(2) == (2, 1) and x.word(0) == ()
        assert PRE.k_word(4) == (3, 2, 2, 2) and PRE.k_word(0) == ()
        assert K23.k_word(5) == (2, 3, 2, 3, 2)

    def test_shift_cache_is_bounded(self):
        s = RefinementSystem.make((2, 2, 4), (3, 5, 2))
        for m in range(5001):
            assert s.shift(m) == ref_shift(s, m)
            if m >= s.prefix_len:
                assert s.shift(m) == s.shift(m + s.cycle_len)
        assert len(s._shift_cache) <= s.prefix_len + s.cycle_len
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            s.shift(-1)

    def test_extremes_are_built_once(self):
        s = RefinementSystem.make((3,), (2, 5))
        assert p_min(s) is p_min(s) and p_max(s) is p_max(s)
        assert p_max(s) == point(s, (3,), (2, 5))


# ---------------------------------------------------------------------------
# interned points and the head compare, against the joint-word definition

CHANGES_SYSTEMS = [parse_system(t) for t in (
    ";2", ";2,3", "3;2", ";3", ";11", "2;2,2,3", "12;2,13", ";2,3,5", ";7,11", "5,13;3,4,7")]


def assert_order_matches_reference(x, y):
    assert order_compare(x, y) == ref_compare(x, y), (x, y)
    assert order_compare(y, x) == ref_compare(y, x), (x, y)
    assert first_difference(x, y) == ref_first_difference(x, y), (x, y)
    assert orbit_test(x, y) == ref_orbit(x, y), (x, y)


def respelled(x):
    """x's digit string with one period digit moved into the preamble: not canonical."""
    return Point(x.preamble + x.period[:1], x.period[1:] + x.period[:1])


class TestInternedPoints:
    def test_head_is_the_first_digits(self):
        x = pt(K23, "212|31")
        assert len(x.head) == HEAD_LEN and x.head == x.word(HEAD_LEN)
        assert x.head == tuple(x.digit(n) for n in range(1, HEAD_LEN + 1))
        assert Point((1,), (2,)).head == (1,) + (2,) * (HEAD_LEN - 1)
        # a head reaches past the preamble and one whole period
        long = Point((1,) * 30, (2, 1, 2, 1, 1))
        assert long.head == (1,) * 30 + (2, 1, 2, 1, 1)
        assert "head" not in repr(x)

    def test_equal_heads_different_points(self):
        # minimal periods 20 and 30 agree on their first 39 digits
        x, y = pt(BIN, "|" + "1" * 19 + "2"), pt(BIN, "|" + "1" * 19 + "2" + "1" * 10)
        assert x.head == y.head and x != y
        assert len(x.preamble) == len(y.preamble) and len(x.period) != len(y.period)
        assert_order_matches_reference(x, y)
        assert order_compare(x, y) == 1 and first_difference(x, y) == 40

    def test_head_a_proper_prefix_of_the_other(self):
        for a, b in (("|12", "12" * 16 + "|1"), ("|1", "1" * 32 + "|2"),
                     ("|12", "12" * 17 + "|2"), ("|2", "2" * 40 + "|1"),
                     ("|1", "|" + "1" * 32 + "2")):
            x, y = pt(BIN, a), pt(BIN, b)
            assert y.head[:len(x.head)] == x.head and len(y.head) > len(x.head)
            assert_order_matches_reference(x, y)

    def test_coprime_periods(self):
        x = point(BIN, (), (1,) * 10 + (2,))
        y = point(BIN, (), (1,) * 10 + (2,) + (1,) * 10 + (2, 1))
        z = point(BIN, (), (1,) * 10 + (2,) + (1,) * 10 + (2, 2))
        assert (len(x.period), len(y.period), len(z.period)) == (11, 23, 23)
        for a, b in ((x, y), (x, z), (y, z)):
            assert a.head[:11] == b.head[:11]
            assert_order_matches_reference(a, b)
        assert order_compare(x, y) == 1 and order_compare(x, z) == -1

    def test_identity_and_equal_copies(self):
        x = pt(K23, "21|1312")
        copy = Point(x.preamble, x.period)
        assert copy is not x and copy == x and hash(copy) == hash(x)
        for y in (x, copy, respelled(x)):
            assert order_compare(x, y) == 0 and first_difference(x, y) is None
            assert orbit_test(x, y)

    @pytest.mark.parametrize("sys", CHANGES_SYSTEMS, ids=format_system)
    def test_random_pairs_match_joint_words(self, sys):
        rng = random.Random("interned|" + format_system(sys))
        L = sys.cycle_len
        interned = [p_min(sys), p_max(sys)]
        while len(interned) < 40:
            if rng.random() < 0.3:
                # share a long prefix with an earlier point
                base = rng.choice(interned)
                pre = base.word(rng.randint(0, len(base.head) + len(base.period)))
            else:
                pre = raw_digits(rng, sys, 1, rng.choice((0, 1, 2, 4)), bad=False)
            per = raw_digits(rng, sys, len(pre) + 1, L * rng.choice((1, 2, 3)), bad=False)
            x = outcome(point, sys, pre, per)
            if isinstance(x, Point):  # a period that overlaps the prefix may not fit
                interned.append(x)
        built = [Point(x.preamble, x.period) for x in interned]
        built += [respelled(x) for x in interned[:10]]
        for _ in range(400):
            x, y = rng.choice(interned), rng.choice(built)
            assert_order_matches_reference(x, y)
            assert_order_matches_reference(rng.choice(interned), rng.choice(interned))

    def test_list_and_tuple_inputs_give_one_object(self):
        for sys, pre, per in ((BIN, [1, 2], [2]), (K23, [], [1, 2]), (PRE, [3], [2])):
            x = point(sys, list(pre), list(per))
            assert point(sys, tuple(pre), tuple(per)) is x
            assert point(sys, pre, per) is x
        assert parse_point(K23, "1|21") is point(K23, (1,), (2, 1))

    @pytest.mark.parametrize("sys,pre,per,kind", [
        (K23, (), (1,), MisalignedPeriodError),
        (K23, (1, 3), (3, 1), DigitRangeError),
        (PRE, (1, 3), (2,), DigitRangeError),
        (BIN, (1,), (), ValueError),
    ])
    def test_bad_input_raises_the_same_every_time(self, sys, pre, per, kind):
        seen = set()
        for _ in range(3):
            with pytest.raises(kind) as err:
                point(sys, pre, per)
            seen.add((type(err.value), str(err.value)))
        assert len(seen) == 1

    def test_intern_table_is_bounded(self):
        bound = _canonical_point.cache_info().maxsize
        assert bound is not None
        words = list(itertools.islice(level_words(BIN, 13), bound + 500))
        first = [min_tail_point(BIN, w) for w in words]
        assert _canonical_point.cache_info().currsize <= bound
        # evicted points come back equal, and still order by their digits
        again = [min_tail_point(BIN, w) for w in words[:50]]
        assert again == first[:50]
        assert [order_compare(a, b) for a, b in zip(again, again[1:])] == [-1] * 49


# ---------------------------------------------------------------------------
# the gap kernel and the head compare


def unrolled_gap_above(sys, x):
    """The gap test read off unrolled words: digits equal the multiplicities past the window."""
    w = max(len(x.preamble), sys.prefix_len)
    n = w + len(x.period)
    if x.word(n)[w:] != sys.k_word(n)[w:]:
        return False
    # the digit strings, not the spellings: Point((), (2, 2)) is p_max on ;2
    return ref_compare(x, p_max(sys)) != 0


def unrolled_gap_below(sys, x):
    if x.period != (1,) * len(x.period):
        return False
    return ref_compare(x, p_min(sys)) != 0


def assert_gaps_match_unrolled(sys, x):
    assert has_gap_above(sys, x) == unrolled_gap_above(sys, x), (format_system(sys), x)
    assert has_gap_below(sys, x) == unrolled_gap_below(sys, x), (format_system(sys), x)


class TestGapFacts:
    @pytest.mark.parametrize("sys", CHANGES_SYSTEMS, ids=format_system)
    def test_rotation_test_matches_unrolled_words(self, sys):
        rng = random.Random("gap-facts|" + format_system(sys))
        L = sys.cycle_len
        points = [p_min(sys), p_max(sys)]
        while len(points) < 60:
            word = raw_digits(rng, sys, 1, rng.choice((0, 1, 2, 3, 5)), bad=False)
            r = rng.random()
            if r < 0.3:
                points.append(max_tail_point(sys, word))
            elif r < 0.5:
                points.append(min_tail_point(sys, word))
            else:
                per = raw_digits(rng, sys, len(word) + 1, L * rng.choice((1, 2)), bad=False)
                x = outcome(point, sys, word, per)
                if isinstance(x, Point):
                    points.append(x)
        # directly built spellings: the period twice over, a digit moved
        # into the preamble, and the maximal tail written out by hand
        built = [Point(x.preamble, x.period * 2) for x in points]
        built += [respelled(x) for x in points]
        for pre_len in range(sys.prefix_len + 3):
            word = sys.k_word(pre_len + 2 * L)
            built.append(Point(word[:pre_len], word[pre_len:]))
        above = below = 0
        for x in points + built:
            assert_gaps_match_unrolled(sys, x)
            above += has_gap_above(sys, x)
            below += has_gap_below(sys, x)
        assert above > 0 and below > 0

    @pytest.mark.parametrize("sys_text,text,above,below", [
        # preambles shorter than the system prefix
        ("3;2", "|2", True, False),
        ("12;2,13", "|1.2", False, False),
        ("12;2,13", "|2.2", False, False),
        ("12;2,13", "5|2.13", True, False),
        ("12;2,13", "|12.2.13.2", False, False),
        # the extremes themselves
        ("3;2", "3|2", False, False),
        ("3;2", "|1", False, False),
        ("12;2,13", "12|2.13", False, False),
        ("12;2,13", "|1.1", False, False),
        # wide digits
        (";11", "3|11", True, False),
        (";11", "4|1", False, True),
        (";11", "|11", False, False),
        (";11", "|1", False, False),
        (";11", "|10.11", False, False),
        ("5,13;3,4,7", "5.12|3.4.7", True, False),
        ("5,13;3,4,7", "5.13.2|1.1.1", False, True),
    ])
    def test_named_points(self, sys_text, text, above, below):
        sys = parse_system(sys_text)
        x = pt(sys, text)
        assert (has_gap_above(sys, x), has_gap_below(sys, x)) == (above, below)
        assert_gaps_match_unrolled(sys, x)
        if above:
            assert pred(sys, suc(sys, x)) == x

    def test_directly_built_double_periods(self):
        # spellings that point() would shorten still read their period
        for sys, pre, per in ((BIN, (1,), (2, 2)), (K23, (1,), (3, 2, 3, 2)),
                              (PRE, (), (2, 2)), (K23, (2,), (1, 1, 1, 1))):
            assert_gaps_match_unrolled(sys, Point(pre, per))
        assert has_gap_above(BIN, Point((1,), (2, 2)))
        assert has_gap_above(PRE, Point((), (2, 2)))
        assert has_gap_below(K23, Point((2,), (1, 1, 1, 1)))
        assert not has_gap_above(K23, Point((1,), (2, 3, 2, 3)))

    @pytest.mark.parametrize("sys,pre,per", [
        (BIN, (), (2,)), (BIN, (), (2, 2)), (BIN, (2,), (2,)), (BIN, (2, 2), (2, 2)),
        (K23, (), (2, 3, 2, 3)), (K23, (2,), (3, 2)), (PRE, (3,), (2, 2)), (PRE, (3, 2), (2,)),
    ])
    def test_spellings_of_the_maximum_have_no_gap_above(self, sys, pre, per):
        x = Point(pre, per)
        assert order_compare(x, p_max(sys)) == 0
        assert not has_gap_above(sys, x) and not has_gap_below(sys, x)
        with pytest.raises(ValueError, match="no immediate successor"):
            suc(sys, x)

    @pytest.mark.parametrize("sys,pre,per", [
        (BIN, (), (1,)), (BIN, (), (1, 1)), (BIN, (1,), (1,)), (BIN, (1, 1), (1, 1)),
        (K23, (), (1, 1, 1, 1)), (K23, (1,), (1, 1)), (PRE, (1,), (1, 1)), (PRE, (), (1,)),
    ])
    def test_spellings_of_the_minimum_have_no_gap_below(self, sys, pre, per):
        x = Point(pre, per)
        assert order_compare(x, p_min(sys)) == 0
        assert not has_gap_below(sys, x) and not has_gap_above(sys, x)
        with pytest.raises(ValueError, match="no immediate predecessor"):
            pred(sys, x)


def count_joint_words(monkeypatch):
    """Record the calls order_compare makes to _joint_words."""
    calls = []
    real = _joint_words

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr("refbound.order._joint_words", counted)
    return calls


class TestHeadCompare:
    @pytest.mark.parametrize("sys,a,b", [
        (BIN, "|1", "1" * 32 + "|2"), (BIN, "|2", "2" * 32 + "|1"),
        (BIN, "|12", "12" * 16 + "11|2"), (BIN, "|21", "21" * 16 + "1|2"),
        (BIN, "|12", "12" * 16 + "2|1"), (K23, "|12", "12" * 16 + "|13"),
        (K23, "|13", "13" * 16 + "|12"),
    ])
    def test_longer_head_decides(self, monkeypatch, sys, a, b):
        x, y = pt(sys, a), pt(sys, b)
        calls = count_joint_words(monkeypatch)
        assert y.head[:len(x.head)] == x.head and len(y.head) > len(x.head)
        assert order_compare(x, y) == ref_compare(x, y) != 0
        assert order_compare(y, x) == ref_compare(y, x)
        assert calls == []

    @pytest.mark.parametrize("sys,a,b", [
        (BIN, "|12", "12" * 16 + "|121"),   # the longer head agrees with x's word
        (BIN, "|12", "12" * 16 + "1|2"),
        (K23, "|1312", "1312" * 8 + "|13"),
        # equal head lengths, period lengths differ
        (BIN, "|" + "1" * 19 + "2", "|" + "1" * 19 + "2" + "1" * 10),
        (BIN, "|" + "1" * 9 + "2", "111|" + "1" * 6 + "2" + ("1" * 9 + "2") * 2),
    ])
    def test_joint_words_when_heads_agree(self, monkeypatch, sys, a, b):
        x, y = pt(sys, a), pt(sys, b)
        calls = count_joint_words(monkeypatch)
        assert x.head[:len(y.head)] == y.head[:len(x.head)]
        assert order_compare(x, y) == ref_compare(x, y) != 0
        assert order_compare(y, x) == ref_compare(y, x)
        assert len(calls) == 2

    def test_equal_points_decide_on_heads(self, monkeypatch):
        x = pt(K23, "21|1312")
        calls = count_joint_words(monkeypatch)
        assert order_compare(x, Point(x.preamble, x.period)) == 0
        # equal heads and period lengths, preamble lengths differ
        assert order_compare(x, respelled(x)) == 0
        assert calls == []


# ---------------------------------------------------------------------------
# heads of at least HEAD_LEN digits, against digit-by-digit readings


def digit_word(x, n):
    return tuple(x.digit(i) for i in range(1, n + 1))


ACROSS_HEAD = (0, 1, HEAD_LEN - 1, HEAD_LEN, HEAD_LEN + 1, 2 * HEAD_LEN + 7, 300)
LONG_PERIOD_SYSTEMS = [parse_system(t) for t in (";2", ";2,3", "3;2", ";2,3,5")]


def sparse_period(rng, sys, start, length):
    """A period of mostly 1s, so that points share long runs of digits."""
    return [rng.randint(1, sys.k_at(n)) if rng.random() < 0.15 else 1
            for n in range(start, start + length)]


def long_period_points(sys, rng, count):
    """Canonical points with periods up to 40 digits and preambles past HEAD_LEN."""
    L = sys.cycle_len
    points = [p_min(sys), p_max(sys)]
    while len(points) < count:
        r = rng.random()
        if len(points) > 4 and r < 0.3:
            # share the first digits of an earlier point, often all of its head
            base = rng.choice(points)
            pre = base.word(rng.choice((5, HEAD_LEN - 1, HEAD_LEN, HEAD_LEN + 3)))
        elif len(points) > 4 and r < 0.6:
            # an earlier point's period extended by its own first digits, as
            # 1^19 2 1^10 extends 1^19 2: both agree past one whole period
            base = rng.choice(points)
            room = min(len(base.period), 40 - len(base.period)) // L
            if room < 1:
                continue
            q = L * rng.randint(1, room)
            x = outcome(point, sys, base.preamble, base.period + base.period[:q])
            if isinstance(x, Point):
                points.append(x)
            continue
        else:
            pre = raw_digits(rng, sys, 1, rng.choice((0, 1, 4, 30, 36)), bad=False)
        per = sparse_period(rng, sys, len(pre) + 1, L * rng.randint(1, 40 // L))
        x = outcome(point, sys, pre, per)
        if isinstance(x, Point):
            points.append(x)
    return points


class TestHead:
    def test_periods_20_and_30(self):
        x = pt(BIN, "|" + "1" * 19 + "2")
        y = pt(BIN, "|" + "1" * 19 + "2" + "1" * 10)
        assert (len(x.period), len(y.period)) == (20, 30) and x.head == y.head
        # behind one preamble the heads still agree
        xs, ys = prepend(BIN, (2, 1), x), prepend(BIN, (2, 1), y)
        assert xs.head == ys.head
        for a, b in ((x, y), (xs, ys), (x, Point(x.preamble, x.period)), (ys, xs)):
            for u, v in ((a, b), (b, a)):
                want = ref_compare(u, v)
                assert order_compare(u, v) == want, (u, v)
                assert le(u, v) == (want <= 0) and lt(u, v) == (want < 0)
                assert first_difference(u, v) == ref_first_difference(u, v)
        assert first_difference(x, y) == 40 and first_difference(xs, ys) == 42
        assert lt(y, x) and lt(ys, xs)

    @pytest.mark.parametrize("sys", LONG_PERIOD_SYSTEMS + [parse_system("12;2,13")],
                             ids=format_system)
    def test_words_across_the_head(self, sys):
        rng = random.Random("head-words|" + format_system(sys))
        points = long_period_points(sys, rng, 24)
        built = [Point(x.preamble, x.period * 2) for x in points]
        built += [Point(tuple(raw_digits(rng, sys, 1, n, bad=False)), x.period)
                  for n, x in zip((33, 40, 70), points)]
        copies = [pickle.loads(pickle.dumps(x)) for x in points + built]
        assert max(len(x.preamble) for x in points + built) > HEAD_LEN
        for x in points + built + copies:
            assert len(x.head) == max(HEAD_LEN, len(x.preamble) + len(x.period))
            assert x.head == digit_word(x, len(x.head))
            for n in ACROSS_HEAD + (len(x.head) + 1,):
                assert x.word(n) == digit_word(x, n), (x, n)
        # a prefix past HEAD_LEN: its last multiplicity is not the cycle's
        long = RefinementSystem.make(sys.k_word(39) + (sys.cycle[-1] + 1,), sys.cycle)
        assert long.prefix_len == 40
        for s in (sys, pickle.loads(pickle.dumps(sys)), long):
            for n in ACROSS_HEAD:
                assert s.k_word(n) == tuple(s.k_at(i) for i in range(1, n + 1)), n

    @pytest.mark.parametrize("sys", LONG_PERIOD_SYSTEMS, ids=format_system)
    def test_long_periods_match_reference(self, sys):
        rng = random.Random("head-pairs|" + format_system(sys))
        points = long_period_points(sys, rng, 40)
        built = [Point(x.preamble, x.period * 2) for x in points[:10]]
        built += [respelled(x) for x in points[:10]]
        # every pair whose heads do not decide, and random pairs
        pairs = [(x, y) for x in points for y in points + built
                 if x.head[:len(y.head)] == y.head[:len(x.head)]]
        undecided = len(pairs)
        pairs += [(rng.choice(points), rng.choice(points + built)) for _ in range(300)]
        unequal = 0
        for i, (x, y) in enumerate(pairs):
            want = ref_compare(x, y)
            assert order_compare(x, y) == want and order_compare(y, x) == -want, (x, y)
            assert le(x, y) == (want <= 0) and lt(x, y) == (want < 0)
            assert first_difference(x, y) == ref_first_difference(x, y), (x, y)
            unequal += i < undecided and want != 0
        assert unequal > 20


# ---------------------------------------------------------------------------
# the orbit key


def orbit_spellings(sys, rng, count):
    """Canonical points with orbit mates among them, plus directly built spellings."""
    L = sys.cycle_len
    points = [p_min(sys), p_max(sys)]
    while len(points) < count:
        if len(points) > 4 and rng.random() < 0.4:
            # an orbit mate of an earlier point
            base = rng.choice(points)
            word = raw_digits(rng, sys, 1, rng.choice((1, 2, 3, 5)), bad=False)
            points.append(replace_prefix(sys, base, word))
            continue
        pre = raw_digits(rng, sys, 1, rng.choice((0, 1, 2, 4)), bad=False)
        per = raw_digits(rng, sys, len(pre) + 1, L * rng.choice((1, 2, 3)), bad=False)
        x = outcome(point, sys, pre, per)
        if isinstance(x, Point):
            points.append(x)
    built = [Point(x.preamble, x.period * 2) for x in points]
    built += [respelled(x) for x in points]
    return points, built


class TestOrbitKey:
    @pytest.mark.parametrize("sys", CHANGES_SYSTEMS, ids=format_system)
    def test_equal_keys_are_reference_orbits(self, sys):
        rng = random.Random("orbit-key|" + format_system(sys))
        points, built = orbit_spellings(sys, rng, 40)
        mates = 0
        for x in points + built:
            for y in points:
                same = ref_orbit(x, y)
                assert (x.orbit_key == y.orbit_key) == same == orbit_test(x, y), (x, y)
                mates += same and x != y
        assert mates > len(points)
        for x, y in zip(points, built[:len(points)]):
            assert x.orbit_key == y.orbit_key == respelled(x).orbit_key

    def test_key_is_the_tail_by_position(self):
        # key[j] is the digit at every position n = j + 1 (mod d) past the preamble
        for sys, text, key in ((BIN, "|12", (1, 2)), (BIN, "1|12", (2, 1)),
                               (BIN, "12|2", (2,)), (K23, "212|3112", (1, 1, 2, 3)),
                               (K23, "2|1211", (1, 1, 2, 1))):
            x = pt(sys, text)
            assert x.orbit_key == key, (text, x.orbit_key)
            d, w = len(key), len(x.preamble)
            assert all(x.digit(n) == key[(n - 1) % d] for n in range(w + 1, w + 3 * d + 1))

    @pytest.mark.parametrize("sys", CHANGES_SYSTEMS, ids=format_system)
    def test_replace_prefix_keeps_the_key(self, sys):
        rng = random.Random("orbit-key-prefix|" + format_system(sys))
        points, _ = orbit_spellings(sys, rng, 20)
        for x in points:
            for n in (1, 2, 3, 6):
                y = replace_prefix(sys, x, raw_digits(rng, sys, 1, n, bad=False))
                assert y.orbit_key == x.orbit_key and orbit_test(x, y)

    def test_key_takes_no_part_in_eq_hash_or_repr(self):
        x = pt(K23, "21|1312")
        field = {f.name: f for f in dataclasses.fields(Point)}["orbit_key"]
        assert not (field.init or field.repr or field.compare)
        assert "orbit_key" not in repr(x)
        assert repr(x) == "Point(preamble=(2, 1), period=(1, 3, 1, 2))"
        assert hash(x) == hash((x.preamble, x.period))
        y = respelled(x)
        assert y.orbit_key == x.orbit_key and y != x
        assert Point(x.preamble, x.period) == x

    @pytest.mark.parametrize("sys", CHANGES_SYSTEMS[:6], ids=format_system)
    def test_orbit_primitives_unroll_no_joint_words(self, monkeypatch, sys):
        rng = random.Random("orbit-key-calls|" + format_system(sys))
        points, built = orbit_spellings(sys, rng, 30)
        pairs = [(rng.choice(points + built), rng.choice(points)) for _ in range(300)]
        calls = count_joint_words(monkeypatch)
        mates = 0
        for x, y in pairs:
            same = ref_orbit(x, y)
            mates += same
            assert orbit_test(x, y) == same
            assert outcome(merge_level, x, y) == outcome(ref_merge_level, x, y)
            n = min(len(x.head), len(y.head))
            if x.head[:n] != y.head[:n]:
                # the heads decide the order, so le unrolls nothing either
                assert p_test(x, y) == (same and ref_compare(x, y) <= 0)
        assert calls == [] and mates > 0
