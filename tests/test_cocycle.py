import random
from fractions import Fraction

import pytest

from refbound import cocycle
from refbound.cocycle import (
    b_approx,
    btilde,
    ctilde,
    gap_count_at_level,
    gap_index,
    gap_point,
    order_by_cocycle,
)
from refbound.oracle import sample_points
from refbound.order import (
    RefinementSystem,
    has_gap_above,
    le,
    level_words,
    lt,
    max_tail_point,
    order_compare,
    p_max,
    p_min,
    parse_point,
    parse_system,
    suc,
)

BIN = RefinementSystem.make((), (2,))
K23 = RefinementSystem.make((), (2, 3))
PRE = RefinementSystem.make((3,), (2,))


def pt(sys, text):
    return parse_point(sys, text)


class TestBtilde:
    def test_extremes(self):
        for sys in (BIN, K23, PRE):
            assert btilde(sys, p_min(sys)) == 0
            assert btilde(sys, p_max(sys)) == 1

    def test_frozen_values(self):
        assert btilde(BIN, pt(BIN, "|2")) == 1
        assert btilde(BIN, pt(BIN, "|12")) == Fraction(1, 3)
        assert btilde(BIN, pt(BIN, "11|2")) == Fraction(1, 4)
        assert btilde(BIN, pt(BIN, "2|1")) == Fraction(1, 2)
        assert btilde(K23, pt(K23, "|12")) == Fraction(1, 5)

    def test_collapses_gap_pairs(self):
        below = pt(BIN, "1|2")
        assert btilde(BIN, below) == btilde(BIN, suc(BIN, below))

    def test_monotone(self):
        xs = [pt(BIN, t) for t in ("|1", "11|2", "|12", "1|2", "2|1", "21|2", "|2")]
        for a in xs:
            for b in xs:
                if lt(a, b):
                    assert btilde(BIN, a) <= btilde(BIN, b)


class TestCtilde:
    def test_frozen_value(self):
        assert ctilde(BIN, pt(BIN, "11|2"), pt(BIN, "|2")) == Fraction(3, 4)

    def test_antisymmetry(self):
        x, y = pt(BIN, "11|2"), pt(BIN, "2|2")
        assert ctilde(BIN, x, y) == -ctilde(BIN, y, x)

    def test_additive_along_orbit(self):
        x, y, z = pt(BIN, "11|2"), pt(BIN, "12|2"), pt(BIN, "2|2")
        assert ctilde(BIN, x, z) == ctilde(BIN, x, y) + ctilde(BIN, y, z)

    def test_rejects_cross_orbit(self):
        with pytest.raises(ValueError):
            ctilde(BIN, pt(BIN, "|1"), pt(BIN, "|2"))


class TestGapEnumeration:
    def test_first_points_binary(self):
        assert gap_point(BIN, 1) == pt(BIN, "1|2")
        assert gap_point(BIN, 2) == pt(BIN, "11|2")
        assert gap_point(BIN, 3) == pt(BIN, "21|2")

    def test_counts(self):
        assert gap_count_at_level(BIN, 1) == 1
        assert gap_count_at_level(BIN, 3) == 4
        assert gap_count_at_level(K23, 2) == 4
        assert gap_count_at_level(PRE, 1) == 2

    def test_roundtrip(self):
        for sys in (BIN, K23, PRE):
            for n in range(1, 40):
                g = gap_point(sys, n)
                assert has_gap_above(sys, g)
                assert gap_index(sys, g) == n

    def test_enumeration_is_exhaustive_per_level(self):
        # every bumpable word of length <= 3 shows up exactly once
        seen = set()
        total = sum(gap_count_at_level(K23, n) for n in (1, 2, 3))
        for n in range(1, total + 1):
            seen.add(gap_point(K23, n))
        expect = set()
        for n in (1, 2, 3):
            for w in level_words(K23, n):
                if w[-1] < K23.k_at(n):
                    expect.add(max_tail_point(K23, w))
        assert seen == expect


class TestBApprox:
    def test_minimum_is_exact(self):
        assert b_approx(BIN, p_min(BIN), Fraction(1, 2)) == (0, 0)

    def test_frozen_enclosures(self):
        lo, hi = b_approx(BIN, pt(BIN, "2|1"), Fraction(1, 4))
        assert (lo, hi) == (Fraction(5, 4), Fraction(3, 2))
        lo, hi = b_approx(BIN, p_max(BIN), Fraction(1, 8))
        assert (lo, hi) == (Fraction(15, 8), Fraction(2, 1))

    def test_width_shrinks(self):
        x = pt(K23, "21|12")
        last = None
        for d in range(1, 10):
            lo, hi = b_approx(K23, x, Fraction(1, 2 ** d))
            assert hi - lo == Fraction(1, 2 ** d)
            if last is not None:
                assert last[0] <= lo and hi <= last[1]
            last = (lo, hi)

    def test_separates_gap_pair_by_its_index(self):
        g = pt(BIN, "11|2")
        n = gap_index(BIN, g)
        eps = Fraction(1, 2 ** (n + 3))
        glo, ghi = b_approx(BIN, g, eps)
        slo, shi = b_approx(BIN, suc(BIN, g), eps)
        assert slo - ghi >= Fraction(1, 2 ** n) - 2 * eps

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            b_approx(BIN, p_min(BIN), 0)


class TestOrderByCocycle:
    def test_agrees_with_digit_order(self):
        pts = [pt(BIN, t) for t in ("|1", "11|2", "|12", "1|2", "2|1", "12|1", "21|2", "|2")]
        for a in pts:
            for b in pts:
                assert order_by_cocycle(BIN, a, b) == order_compare(a, b)

    def test_agrees_in_mixed_radix(self):
        pts = [pt(K23, t) for t in ("|11", "1|32", "2|11", "|12", "21|13", "|23")]
        for a in pts:
            for b in pts:
                assert order_by_cocycle(K23, a, b) == order_compare(a, b)


def _btilde_by_digits(sys, x):
    """Reference: the expansion summed one digit at a time, as Fractions."""
    s = max(len(x.preamble), sys.prefix_len)
    head, d = Fraction(0), 1
    for n in range(1, s + 1):
        d *= sys.k_at(n)
        head += Fraction(x.digit(n) - 1, d)
    # beyond s both digits and multiplicities repeat with the period length
    tail, r = Fraction(0), 1
    for j in range(1, len(x.period) + 1):
        r *= sys.k_at(s + j)
        tail += Fraction(x.digit(s + j) - 1, r)
    return head + tail * Fraction(r, r - 1) / d


def _b_approx_by_gap_points(sys, x, eps):
    """Reference: the partial sum over the first D gap points, term by term."""
    if x == p_min(sys):
        return Fraction(0), Fraction(0)
    depth = 0
    while Fraction(1, 2 ** depth) > Fraction(eps):
        depth += 1
    lo = _btilde_by_digits(sys, x)
    for n in range(1, depth + 1):
        if lt(gap_point(sys, n), x):
            lo += Fraction(1, 2 ** n)
    return lo, lo + Fraction(1, 2 ** depth)


class TestClosedForm:
    def test_b_approx_matches_gap_point_sum(self):
        rng = random.Random(0)
        for lit in (";2", ";2,3", "3;2", ";11", "2;2,2,3"):
            sys = parse_system(lit)
            xs = sample_points(sys, 3, 10, 5, 3)
            for n in (1, 5, 17, 40):
                xs += [gap_point(sys, n), suc(sys, gap_point(sys, n))]
            for x in xs:
                widths = (Fraction(1, rng.randrange(1, 600)),
                          Fraction(rng.randrange(1, 9), rng.randrange(1, 600)), 3, 0.1)
                for eps in widths:
                    assert b_approx(sys, x, eps) == _b_approx_by_gap_points(sys, x, eps)

    def test_deep_gap_pair_needs_no_enclosure(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a gap pair must be decided without gap sums")

        monkeypatch.setattr(cocycle, "_gap_units", refuse)
        for sys in (BIN, parse_system(";2,3,5")):
            for n in (2 ** 10, 2 ** 28, 2 ** 60):
                g = gap_point(sys, n)
                s = suc(sys, g)
                assert order_by_cocycle(sys, g, s) == order_compare(g, s) == -1
                assert order_by_cocycle(sys, s, g) == order_compare(s, g) == 1


def _gap_pairs_by_level(sys, top_level=11, max_index=4096):
    """First, middle and last gap point of each level up to top_level, with successors."""
    pairs, start = [], 1
    for level in range(1, top_level + 1):
        end = start + gap_count_at_level(sys, level) - 1
        for n in (start, (start + end) // 2, end):
            if n <= max_index:
                g = gap_point(sys, n)
                pairs.append((g, suc(sys, g)))
        start = end + 1
    return pairs


class TestIntegerForm:
    """The integer forms of btilde, b_approx and order_by_cocycle against per-digit sums."""

    SYSTEMS = (";2", ";2,3", "3;2", ";11", "2;2,2,3", "12;2,13", ";2,3,5")
    EPS = (Fraction(1, 3), Fraction(1, 64), Fraction(2, 1000003))

    @pytest.mark.parametrize("lit", SYSTEMS)
    def test_matches_per_digit_sums(self, lit):
        sys = parse_system(lit)
        pairs = _gap_pairs_by_level(sys)
        xs = sample_points(sys, 7, 12, 5, 3) + [x for pair in pairs for x in pair]
        for x in xs:
            assert btilde(sys, x) == _btilde_by_digits(sys, x)
            last = None
            for eps in self.EPS:
                lo, hi = b_approx(sys, x, eps)
                assert (lo, hi) == _b_approx_by_gap_points(sys, x, eps)
                assert hi - lo <= eps
                if last is not None:
                    assert last[0] <= lo <= hi <= last[1]
                last = (lo, hi)

    @pytest.mark.parametrize("lit", SYSTEMS)
    def test_gap_pair_embeddings_differ_by_the_gap_term(self, lit):
        # the identity order_by_cocycle decides a gap pair by, read off the
        # lower ends of enclosures of width 2^-n and 2^-(n+3)
        sys = parse_system(lit)
        for g, s in _gap_pairs_by_level(sys):
            n = gap_index(sys, g)
            for eps in (Fraction(1, 2 ** n), Fraction(1, 2 ** (n + 3))):
                assert b_approx(sys, s, eps)[0] - b_approx(sys, g, eps)[0] == Fraction(1, 2 ** n)

    @pytest.mark.parametrize("lit", SYSTEMS)
    def test_order_matches_digit_order(self, lit):
        sys = parse_system(lit)
        pairs = _gap_pairs_by_level(sys)
        xs = sample_points(sys, 7, 12, 5, 3)
        for g, s in pairs:
            assert order_by_cocycle(sys, g, s) == order_compare(g, s) == -1
            assert order_by_cocycle(sys, s, g) == order_compare(s, g) == 1
            xs += [g, s]
        low = p_min(sys)
        for x in xs:
            assert order_by_cocycle(sys, low, x) == order_compare(low, x)
            assert order_by_cocycle(sys, x, low) == order_compare(x, low)
        for x in xs[:12]:
            for y in xs:
                assert order_by_cocycle(sys, x, y) == order_compare(x, y)
