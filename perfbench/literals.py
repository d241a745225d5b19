"""Seeded input literals, built without touching the library.

Every workload input except the suites' (suite, system, seed, budget)
tuples is generated here as plain data: points as `preamble|period`
strings, ideal expressions and boundary functions as nested lists whose
leaves are point strings.  Set-up parses them with the library.  A later
change to the library's own samplers therefore cannot change a workload.
Function and expression shapes come from mix.json (see tally.py); the
points in them are drawn here.

A generator point is a pair (preamble, period) of digit tuples whose
preamble is never shorter than the system prefix, so period digits sit
where the multiplicities already repeat.
"""

from __future__ import annotations

import itertools
from math import lcm, prod


FAMILIES = ("identity", "bottom", "phi_ab", "psi_paab", "phi_at")
CATALOG = ("empty", "full", "strip", "strip_plus", "corner")


class Spec:
    """A refinement system literal and its multiplicity at each position."""

    def __init__(self, text: str):
        head, _, tail = text.partition(";")
        self.text = text
        self.prefix = tuple(int(s) for s in head.split(",") if s)
        self.cycle = tuple(int(s) for s in tail.split(",") if s)
        self.sep = "." if max(self.prefix + self.cycle) > 9 else ""

    def k(self, n: int) -> int:
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.cycle[(n - len(self.prefix) - 1) % len(self.cycle)]

    def lit(self, pt) -> str:
        pre, per = pt
        return self.sep.join(map(str, pre)) + "|" + self.sep.join(map(str, per))

    @property
    def p_max(self):
        return self.prefix, self.cycle


def digit(pt, n: int) -> int:
    pre, per = pt
    if n <= len(pre):
        return pre[n - 1]
    return per[(n - len(pre) - 1) % len(per)]


def compare(x, y) -> int:
    """Lexicographic order of two eventually periodic digit strings."""
    span = max(len(x[0]), len(y[0])) + lcm(len(x[1]), len(y[1]))
    for n in range(1, span + 1):
        a, b = digit(x, n), digit(y, n)
        if a != b:
            return -1 if a < b else 1
    return 0


def primitive(block) -> bool:
    n = len(block)
    return not any(n % d == 0 and block == block[:d] * (n // d) for d in range(1, n))


class Gen:
    """Random literals for one system from one seeded stream."""

    def __init__(self, spec: Spec, rng):
        self.spec = spec
        self.rng = rng

    # -- points

    def word(self, n: int, start: int = 1) -> tuple:
        k = self.spec.k
        return tuple(self.rng.randint(1, k(i)) for i in range(start, start + n))

    def point(self):
        """Up to 4 digits past the system prefix, then 1 or 2 system cycles."""
        m = len(self.spec.prefix) + self.rng.randrange(5)
        per_len = len(self.spec.cycle) * self.rng.randint(1, 2)
        return self.word(m), self.word(per_len, m + 1)

    def mate(self, x):
        """A point with the tail of x behind a fresh prefix."""
        n = max(1, len(x[0]))
        return self.word(n), tuple(digit(x, i) for i in range(n + 1, n + 1 + len(x[1])))

    def linked_pair(self):
        x = self.point()
        a, b = self.mate(x), self.mate(x)
        return (a, b) if compare(a, b) <= 0 else (b, a)

    def is_min(self, pt) -> bool:
        return all(d == 1 for d in pt[0] + pt[1])

    def is_max(self, pt) -> bool:
        pre, per = pt
        k = self.spec.k
        return all(digit(pt, n) == k(n) for n in range(1, len(pre) + len(per) + 1))

    def gap_below(self, pt) -> bool:
        return all(d == 1 for d in pt[1]) and not self.is_min(pt)

    def interior(self):
        while True:
            x = self.point()
            if not self.is_min(x) and not self.is_max(x):
                return x

    def ordered(self, a, b):
        return (a, b) if compare(a, b) <= 0 else (b, a)

    # -- ideal expressions

    def catalog(self, kind: int | None = None):
        lit = self.spec.lit
        if kind is None:
            kind = self.rng.randrange(5)
        if kind == 0:
            return ["empty"]
        if kind == 1:
            return ["full"]
        if kind == 2:
            a, b = self.ordered(self.point(), self.point())
            return ["strip", lit(a), lit(b)]
        if kind == 3:
            a, b = self.linked_pair()
            return ["strip_plus", lit(a), lit(b)]
        a, t = self.ordered(self.interior(), self.interior())
        return ["corner", lit(a), lit(t)]

    def finite(self):
        k = self.spec.k
        level = self.rng.randint(1, 2)
        if k(1) * k(2) > 16:
            level = 1
        words = list(itertools.product(*(range(1, k(i) + 1) for i in range(1, level + 1))))
        gens = []
        for _ in range(self.rng.randrange(3)):
            u, v = sorted((self.rng.choice(words), self.rng.choice(words)))
            gens.append([list(u), list(v)])
        return ["finite", level, gens]

    # -- boundary functions

    def phi_ab(self):
        lit = self.spec.lit
        while True:
            a, b = self.point(), self.point()
            if self.gap_below(a):
                continue
            if compare(b, a) <= 0:
                b = self.spec.p_max
            if compare(a, b) < 0:
                return ["phi_ab", lit(a), lit(b)]

    def psi_paab(self):
        lit = self.spec.lit
        ones = (1,) * len(self.spec.cycle)
        while True:
            n = max(1, len(self.spec.prefix)) + self.rng.randrange(3)
            w1, w2 = sorted((self.word(n), self.word(n)))
            if w1 != w2 and any(d != 1 for d in w1):
                return ["psi_paab", lit((w1, ones)), lit((w2, ones))]

    def phi_at(self):
        lit = self.spec.lit
        while True:
            a, t = self.ordered(self.interior(), self.interior())
            if not self.gap_below(a):
                return ["phi_at", lit(a), lit(t)]

    def family(self, kind: int):
        """Family FAMILIES[kind] with random parameters."""
        if kind < 2:
            return [FAMILIES[kind]]
        return getattr(self, FAMILIES[kind])()

    def bf_of_shape(self, shape):
        """A function literal of the given shape tree (see tally.py), with fresh points."""
        head = shape[0]
        if head in FAMILIES:
            return self.family(FAMILIES.index(head))
        if head == "boundary":
            return ["boundary", self.expr_of_shape(shape[1])]
        return [head] + [self.bf_of_shape(s) for s in shape[1:]]

    def expr_of_shape(self, shape):
        """An expression literal of the given shape tree, with fresh points."""
        head = shape[0]
        if head in CATALOG:
            return self.catalog(CATALOG.index(head))
        if head == "finite":
            return self.finite()
        if head in ("hull", "open"):
            return [head, self.bf_of_shape(shape[1])]
        return [head] + [self.expr_of_shape(s) for s in shape[1:]]

    def point_batch(self, count: int):
        """Points like the library's sample batches: the two endpoints and
        the first gap pair, then fresh points, each followed by an orbit
        mate half of the time."""
        lit = self.spec.lit
        ones = (1,) * len(self.spec.prefix), (1,) * len(self.spec.cycle)
        out = [lit(ones), lit(self.spec.p_max), *self.gap_pair(1)]
        while len(out) < count:
            x = self.point()
            out.append(lit(x))
            if self.rng.random() < 0.5:
                out.append(lit(self.mate(x)))
        return out[:count]

    # -- hard but valid inputs

    def _period(self, n: int, head: tuple, last: int | None = None, start: int = 1) -> tuple:
        """A primitive period of length n opening with head."""
        while True:
            body = head + self.word(n - len(head), start + len(head))
            if last is not None:
                body = body[:-1] + (last,)
            if primitive(body):
                return body

    def plateau(self, lengths: tuple, diagonal: bool):
        """A plateau phi_ab(a, b) and a pair (x, y) with a < x <= y <= b.

        phi(y) = a < x, so the hull must answer no; the answer needs a
        scan up to preamble + 2 lcm(periods), which the coprime period
        lengths make long.
        """
        lit = self.spec.lit
        p, q, r = lengths
        a = (1,), self._period(p, (1,), last=2, start=2)
        b = (2,), self._period(q, (1, 2), start=2)
        y = (2, 1), self._period(r, (1,), start=3)
        x = y if diagonal else ((1, 2), y[1])
        return ["phi_ab", lit(a), lit(b)], lit(x), lit(y)

    def gap_pair(self, n: int):
        """The n-th point with a gap above and its successor, as literals."""
        spec = self.spec
        k = spec.k
        level, rest = 1, n - 1
        while True:
            count = prod(k(i) for i in range(1, level)) * (k(level) - 1)
            if rest < count:
                break
            rest -= count
            level += 1
        head_rank, last = divmod(rest, k(level) - 1)
        head = []
        for i in range(level - 1, 0, -1):
            head_rank, d = divmod(head_rank, k(i))
            head.append(d + 1)
        word = tuple(reversed(head)) + (last + 1,)
        m = max(level, len(spec.prefix))
        span = range(m + 1, m + len(spec.cycle) + 1)
        x = word + tuple(k(i) for i in range(level + 1, m + 1)), tuple(k(i) for i in span)
        y = word[:-1] + (last + 2,) + (1,) * (m - level), (1,) * len(spec.cycle)
        return spec.lit(x), spec.lit(y)
