"""The four workloads: set-up, requests per pass, and answer checks.

A workload is built by set-up from the seed: it generates literals
(literals.py) and parses them with the library.  The timed loop then
asks it for pass after pass of requests.  A request is a tuple
(function name, arguments, keyword arguments, check): the loop looks the
function up on the `refbound` package, so a traced run sees the wrapped
binding, and hands the answer to `check` outside the timed region.

`check(answer)` returns (ops, failed, mismatch, text):
  ops       operations the answer stands for (suite samples for a suite
            report, commands for a fixture run, else 1);
  failed    how many of those failed;
  mismatch  an independent reference disagreed (the run is not correct);
  text      canonical rendering of the answer, fed to the digest.

References are module-level functions so a test can break one on purpose.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from literals import Gen, Spec

SUITE_NAMES = (
    "prop1", "def-biconditions", "prop4_5", "prop6", "prop7", "lemma8",
    "prop9", "lemma10", "prop11", "lemma12", "prop13", "prop14", "prop15",
    "cocycle", "oracle-equivalence", "module-set-mode",
)
SUITE_SYSTEMS = (";2", ";2,3", "3;2")
SUITE_BUDGET = 5
# suite seeds, one distinct pass each: the first of the seeds 0-19 that
# ROADMAP item 1's done-criterion runs.  They do not depend on --seed, so
# every run meets the same suite samples and the same violations among them
SUITE_SEEDS = (0, 1)
FIXTURE_NAMES = ("trivial", "full", "maximal-gap", "maximal-nogap",
                 "strip-pair", "prime-variant")

# traffic shapes tallied once from the acceptance gates (tally.py)
SHAPES = json.loads((Path(__file__).resolve().parent / "mix.json").read_text())["shapes"]

HULL_SYSTEMS = (";2", ";2,3")
# functions per ACCEPT-3 shape and system, each with its own points; with
# one, the p99 latency hangs on a few costly functions and swings with the seed
HULL_COPIES = 8
HULL_PAIRS = 200  # linked pairs per system, and as many plain ones, like ACCEPT-3's 500 + 500
# open-set queries per system and pass, and how many of them say yes (each
# then asks the hull twice): ACCEPT-3's 50000 open-set and 23530 hull
# queries (mix.json) in proportion, fixed so that the mix, and with it
# the median, does not move with the seed.  1000 requests per pass
HULL_OPEN, HULL_OPEN_YES = 340, 80
# distinct passes: 16000 request positions, so the p99 tail has 160 beyond it
HULL_CYCLE = 16

CONSTRUCTION_SYSTEMS = (";2", ";2,3")
CONSTRUCTION_PASS = 1000
# distinct passes: 4000 request positions, so the p99 tail has 40 beyond it
CONSTRUCTION_CYCLE = 4
# the gate loops replayed per system, each time with fresh points
CONSTRUCTION_REPLAYS = 2
# per system, the sizes of the loops of ACCEPT-4 (functions, pairs) and
# ACCEPT-6 (functions); ACCEPT-5's 50 expression pairs are in mix.json
A4_FUNCTIONS, A4_PAIRS, A6_FUNCTIONS = 25, 50, 100
# the gates call the ideal classifiers 3 times in all and construct_family
# never; per system they get this many requests each, and one per family,
# so that every public builder is measured
IDEAL_CLASSIFIER_REQUESTS = 2
# ACCEPT-6's rule for irreducible verdicts: the catalog shape of the function
MEET_FORMS = {"identity_form": {"identity"}, "phi_ab": {"phi_ab", "minimal"},
              "psi_paab": {"psi_paab"}}
JOIN_FORMS = {"minimal_form": {"minimal"}, "phi_at": {"phi_at"}}

# (count, system, kind, parameter): a plateau takes (period lengths,
# diagonal query), a gap pair the lowest gap index of its band.  100
# requests: six heavy ones on ;2 (90 ms to 0.5 s), then eight (3, 5, 7)
# plateaus (about 50 ms) that hold ranks 87-94, so the p90 tail sits
# inside one homogeneous group, then light ones on ;2 and on the
# wide-digit and long-cycle systems.
HOSTILE_MIX = (
    (1, ";2", "plateau", ((4, 7, 9), True)),
    (1, ";2", "gap", 128),
    (2, ";2", "plateau", ((4, 5, 7), False)),
    (2, ";2", "gap", 64),
    (8, ";2", "plateau", ((3, 5, 7), True)),
    (3, ";2", "gap", 32),
    (10, ";11", "plateau", ((2, 3, 5), True)),
    (11, ";11", "gap", 20),
    (10, "12;2,13", "plateau", ((4, 6, 10), True)),
    (11, "12;2,13", "gap", 20),
    (10, "2;2,2,3", "plateau", ((3, 6, 9), False)),
    (11, "2;2,2,3", "gap", 20),
    (10, ";2,3,5", "plateau", ((3, 6, 9), True)),
    (10, ";2,3,5", "gap", 20),
)
NO_KWARGS: dict = {}


def rng_for(seed: int, *tags) -> random.Random:
    return random.Random("|".join(map(str, (seed,) + tags)))


# ---------------------------------------------------------------------------
# parsing literals


class Build:
    """Parses literals of one system with the library."""

    def __init__(self, rb, system: str):
        self.rb = rb
        self.S = rb.parse_system(system)
        self.built = {}  # function literal -> function, so shared parts parse once

    def point(self, text: str):
        return self.rb.parse_point(self.S, text)

    def expr(self, e):
        rb, head = self.rb, e[0]
        if head == "empty":
            return rb.Empty()
        if head == "full":
            return rb.Full()
        if head in ("strip", "strip_plus", "corner"):
            cls = {"strip": rb.Strip, "strip_plus": rb.StripPlus, "corner": rb.Corner}[head]
            return cls(self.point(e[1]), self.point(e[2]))
        if head == "finite":
            pairs = [(tuple(u), tuple(v)) for u, v in e[2]]
            return rb.FiniteLevel(rb.close_finite_level(self.S, e[1], pairs))
        if head in ("union", "intersection"):
            parts = [self.expr(p) for p in e[1:]]
            return rb.union(*parts) if head == "union" else rb.intersection(*parts)
        if head == "hull":
            return rb.OfBFClosed(self.bf(e[1]))
        if head == "open":
            return rb.OfBFOpen(self.bf(e[1]))
        raise ValueError(f"unknown expression literal {head!r}")

    def bf(self, f):
        key = json.dumps(f)
        if key not in self.built:
            self.built[key] = self._bf(f)
        return self.built[key]

    def _bf(self, f):
        rb, S, head = self.rb, self.S, f[0]
        if head == "identity":
            return rb.identity_bf(S)
        if head == "bottom":
            return rb.const_bf(S, rb.p_min(S))
        if head in ("phi_ab", "psi_paab"):
            return rb.construct_family(S, head, a=self.point(f[1]), b=self.point(f[2]))
        if head == "phi_at":
            return rb.construct_family(S, head, a=self.point(f[1]), t=self.point(f[2]))
        if head == "boundary":
            return rb.boundary_of(S, self.expr(f[1]))
        if head in ("minus", "plus"):
            op = rb.bf_minus if head == "minus" else rb.bf_plus
            return op(S, self.bf(f[1]))
        if head in ("join", "meet"):
            op = rb.bf_join if head == "join" else rb.bf_meet
            return op(S, self.bf(f[1]), self.bf(f[2]))
        raise ValueError(f"unknown function literal {head!r}")


# ---------------------------------------------------------------------------
# independent references


def hull_reference(rb, S, bf, x, y):
    """Kind the hull must answer, or None where the sandwich leaves it open.

    The hull lies inside the closed set (eta_member: linked, x <= phi(y))
    and contains the strict sub-level set (linked, x < phi(y)).
    """
    if not rb.eta_member(S, bf, x, y):
        return "no"
    return "yes" if rb.order_compare(x, rb.eval_bf(S, bf, y)) < 0 else None


def open_reference(rb, S, bf, x, y):
    """Kind the strict sub-level set must answer."""
    if rb.p_test(x, y) and rb.order_compare(x, rb.eval_bf(S, bf, y)) < 0:
        return "yes"
    return "no"


def plateau_reference():
    """phi(y) = a < x on the plateau, so the pair lies outside the hull."""
    return "no"


def brute_reference(rb, S, units, v):
    """Boundary value at the top of the v-cylinder from the finite oracle."""
    model = rb.build_finite_model(S, units.level)
    best = rb.brute_boundary(model, units, v)
    return rb.cylinder_bounds(S, best)[1] if best else rb.p_min(S)


def once(check):
    """check, run once per distinct answer (told apart by repr)."""
    seen = {}

    def cached(ans):
        key = repr(ans)
        if key not in seen:
            seen[key] = check(ans)
        return seen[key]
    return cached


def verdict_check(expected):
    """Check of a verdict against the expected kind (None accepts yes or no)."""
    def check(v):
        bad = v.kind not in ("yes", "no") or (expected is not None and v.kind != expected)
        return 1, int(bad), bad, f"{v.kind}@{v.level}"
    return check


# ---------------------------------------------------------------------------
# workloads


class Suites:
    """All 16 suites over three systems at budget 5, plus the six fixtures.

    Each distinct pass runs every suite with one of SUITE_SEEDS; the seed
    of the run only shuffles the order of the requests in a pass.
    """

    cycle = len(SUITE_SEEDS)

    def __init__(self, rb, seed: int):
        self.rb = rb
        self.seed = seed
        self.systems = [rb.parse_system(s) for s in SUITE_SYSTEMS]
        self.fixtures = [rb.emit_fixture(name) for name in FIXTURE_NAMES]
        self.passes = {}

    def requests(self, p: int):
        c = p % self.cycle
        if c not in self.passes:
            out = [("run_suite", (name, S, SUITE_SEEDS[c], SUITE_BUDGET), NO_KWARGS,
                    self.check_report)
                   for S in self.systems for name in SUITE_NAMES]
            out += [("run_scenario_text", (text,), NO_KWARGS, self.check_fixture)
                    for text in self.fixtures]
            rng_for(self.seed, "suites-pass", c).shuffle(out)
            self.passes[c] = out
        return self.passes[c]

    @staticmethod
    def check_report(rep):
        # a suite violation is the program contradicting a lemma it
        # encodes: it counts as a failed sample, not as a benchmark mismatch
        return rep.samples, len(rep.violations), rep.samples < 1, rep.to_json()

    @staticmethod
    def check_fixture(out):
        bad = sum(1 for r in out.results if r.status != "ok")
        return len(out.results), bad, bad > 0 or not out.results, out.to_json()


class HullTypical:
    """ACCEPT-3's membership queries against functions built in set-up.

    The functions have the shapes of ACCEPT-3's 25 draws per system,
    HULL_COPIES functions per shape; the
    pair pool is half linked pairs, half pairs of sample points.  Like
    ACCEPT-3, a query asks the strict sub-level set of a function, and
    when that says yes it asks the function's hull twice (once for the
    inclusion, once because x < phi(y) on a linked pair).  A pass draws
    (function, pair) at random until each system has HULL_OPEN_YES
    queries that say yes and HULL_OPEN - HULL_OPEN_YES that say no, then
    shuffles the queries.
    """

    cycle = HULL_CYCLE

    def __init__(self, rb, seed: int):
        self.rb = rb
        self.seed = seed
        self.passes = {}
        self.systems = []
        for system in HULL_SYSTEMS:
            gen = Gen(Spec(system), rng_for(seed, "hull", system))
            funcs = [gen.bf_of_shape(shape) for _ in range(HULL_COPIES)
                     for shape in SHAPES["accept3"][system]]
            pairs = [tuple(map(gen.spec.lit, gen.linked_pair())) for _ in range(HULL_PAIRS)]
            points = gen.point_batch(max(2, HULL_PAIRS // 10))
            pairs += [(gen.rng.choice(points), gen.rng.choice(points)) for _ in range(HULL_PAIRS)]
            b = Build(rb, system)
            bfs = [b.bf(f) for f in funcs]
            self.systems.append((b.S, bfs,
                                 [rb.OfBFClosed(f) for f in bfs],
                                 [rb.OfBFOpen(f) for f in bfs],
                                 [(b.point(x), b.point(y)) for x, y in pairs]))

    def requests(self, p: int):
        c = p % self.cycle
        if c not in self.passes:
            self.passes[c] = self._pass(c)
        return self.passes[c]

    def _pass(self, c: int):
        rb, rng = self.rb, rng_for(self.seed, "hull-pass", c)
        queries = []
        for S, bfs, hulls, opens, pairs in self.systems:
            want = {"yes": HULL_OPEN_YES, "no": HULL_OPEN - HULL_OPEN_YES}
            while want["yes"] or want["no"]:
                i = rng.randrange(len(bfs))
                x, y = rng.choice(pairs)
                inside = open_reference(rb, S, bfs[i], x, y)
                if not want[inside]:
                    continue
                want[inside] -= 1
                query = [("member", (S, opens[i], x, y), NO_KWARGS, verdict_check(inside))]
                if inside == "yes":
                    check = verdict_check(hull_reference(rb, S, bfs[i], x, y))
                    query += [("member", (S, hulls[i], x, y), NO_KWARGS, check)] * 2
                queries.append(query)
        rng.shuffle(queries)
        return [request for query in queries for request in query]


class Construction:
    """Builders and classifiers drawn with replacement from a fixed pool.

    The pool replays, CONSTRUCTION_REPLAYS times per system with fresh
    points, the loops of ACCEPT-4 (companions and blends), ACCEPT-5
    (boundaries of expressions, their unions and intersections, joins
    and meets) and ACCEPT-6 (function classifiers), on functions and
    expressions with the gates' shapes.
    """

    cycle = CONSTRUCTION_CYCLE

    def __init__(self, rb, seed: int):
        self.rb = rb
        self.seed = seed
        self.pool = []
        for system in CONSTRUCTION_SYSTEMS:
            gen = Gen(Spec(system), rng_for(seed, "construction", system))
            b = Build(rb, system)
            for _ in range(CONSTRUCTION_REPLAYS):
                self._fill(gen, b, system)
        # a pool request gets the same answer again and again: check it once
        self.pool = [(name, args, kwargs, once(check)) for name, args, kwargs, check in self.pool]

    def _fill(self, gen, b, system):
        rb, S, pool = self.rb, b.S, self.pool
        points = [rb.p_min(S), rb.p_max(S)] + [b.point(gen.spec.lit(gen.point())) for _ in range(6)]
        shapes = itertools.cycle(SHAPES["accept3"][system])

        def fresh():
            return gen.bf_of_shape(next(shapes))

        def companion(op, lit):
            f = b.bf(lit)
            pool.append((op, (S, f), NO_KWARGS, self._companion(S, f, op == "bf_plus")))

        def lattice(op, lit1, lit2):
            f, g = b.bf(lit1), b.bf(lit2)
            pool.append((op, (S, f, g), NO_KWARGS, self._lattice(S, f, g, op == "bf_join", points)))

        def boundary(lit):
            e = b.expr(lit)
            check = self._brute(S, e.units) if lit[0] == "finite" else self._lawful(S)
            pool.append(("boundary_of", (S, e), NO_KWARGS, check))

        # ACCEPT-4
        fs = [fresh() for _ in range(A4_FUNCTIONS)]
        for f in fs:
            companion("bf_minus", f)
            companion("bf_plus", f)
            companion("bf_minus", ["plus", f])
            companion("bf_plus", ["minus", f])
        for i in range(A4_PAIRS):
            f, g = fs[i % len(fs)], fresh()
            if i % 3 == 0:
                companion("bf_minus", f)
            elif i % 3 == 1:
                companion("bf_minus", f)
                companion("bf_plus", f)
                lattice("bf_meet", ["plus", f], g)
                lattice("bf_join", ["minus", f], ["meet", ["plus", f], g])
        # ACCEPT-5
        for shape1, shape2 in SHAPES["accept5"][system]:
            e1, e2 = gen.expr_of_shape(shape1), gen.expr_of_shape(shape2)
            for e in (e1, e2, ["union", e1, e2], ["intersection", e1, e2]):
                boundary(e)
            lattice("bf_join", ["boundary", e1], ["boundary", e2])
            lattice("bf_meet", ["boundary", e1], ["boundary", e2])
        # ACCEPT-6
        meet_pins = {"identity": "identity_form", "phi_ab": "phi_ab", "psi_paab": "psi_paab"}
        join_pins = {"bottom": "minimal_form", "phi_at": "phi_at"}
        for _ in range(A6_FUNCTIONS):
            lit = fresh()
            f = b.bf(lit)
            pool.append(("classify_meet_bf", (S, f), NO_KWARGS,
                         self._classified(S, f, meet_pins.get(lit[0]), rb.bf_meet, MEET_FORMS)))
            pool.append(("classify_join_bf", (S, f), NO_KWARGS,
                         self._classified(S, f, join_pins.get(lit[0]), rb.bf_join, JOIN_FORMS)))
        # the rarely called ones
        for _ in range(IDEAL_CLASSIFIER_REQUESTS):
            e = b.expr(self._draw(gen, ("empty", "full", "strip", "strip_plus")))
            pool.append(("classify_meet_ideal", (S, e), NO_KWARGS, self._catalog(S, e)))
            e = b.expr(self._draw(gen, ("empty", "corner")))
            pool.append(("classify_join_ideal", (S, e), NO_KWARGS, self._catalog(S, e)))
        for kind in ("phi_ab", "psi_paab", "phi_at"):
            lit = getattr(gen, kind)()
            args = {"a": b.point(lit[1]), ("t" if kind == "phi_at" else "b"): b.point(lit[2])}
            pool.append(("construct_family", (S, kind), args, self._family(S, kind, args)))

    @staticmethod
    def _draw(gen, kinds):
        while True:
            e = gen.catalog()
            if e[0] in kinds:
                return e

    def requests(self, p: int):
        rng = rng_for(self.seed, "construction-pass", p % self.cycle)
        return [rng.choice(self.pool) for _ in range(CONSTRUCTION_PASS)]

    # -- checks

    def _text(self, S, f):
        return self.rb.format_bf(S, f)

    def _lawful(self, S):
        def check(f):
            bad = bool(self.rb.validate_bf(S, f))
            return 1, int(bad), bad, self._text(S, f)
        return check

    def _brute(self, S, units):
        rb = self.rb
        model = rb.build_finite_model(S, units.level)
        wants = [(rb.cylinder_bounds(S, v)[1], brute_reference(rb, S, units, v))
                 for v in model.words]

        def check(f):
            bad = any(rb.eval_bf(S, f, top) != want for top, want in wants)
            return 1, int(bad), bad, self._text(S, f)
        return check

    def _companion(self, S, f, plus: bool):
        rb = self.rb

        def check(g):
            lo, hi = (f, g) if plus else (g, f)
            bad = bool(rb.validate_bf(S, g)) or not rb.pointwise_le(S, lo, hi)
            return 1, int(bad), bad, self._text(S, g)
        return check

    def _lattice(self, S, f, g, join: bool, points):
        rb = self.rb
        wants = []
        for y in points:
            u, v = rb.eval_bf(S, f, y), rb.eval_bf(S, g, y)
            pick_u = rb.order_compare(u, v) >= 0 if join else rb.order_compare(u, v) <= 0
            wants.append((y, u if pick_u else v))

        def check(h):
            bad = any(rb.eval_bf(S, h, y) != want for y, want in wants)
            return 1, int(bad), bad, self._text(S, h)
        return check

    def _classified(self, S, f, pinned, combine, forms):
        rb = self.rb

        def check(c):
            bad = pinned is not None and c.kind != pinned
            if c.kind != "reducible":
                bad = bad or rb.bf_form(S, f).tag not in forms.get(c.kind, ())
            text = c.kind + "".join(" " + rb.format_point(S, p) for p in c.params)
            if c.kind == "reducible":
                w1, w2 = c.witnesses
                bad = bad or not rb.bf_eq(S, combine(S, w1, w2), f) \
                    or rb.bf_eq(S, w1, f) or rb.bf_eq(S, w2, f)
                text += " " + self._text(S, w1) + " / " + self._text(S, w2)
            return 1, int(bad), bad, text
        return check

    def _catalog(self, S, e):
        """The catalog theorems: which strips and corners split."""
        rb = self.rb
        lo, hi = rb.p_min(S), rb.p_max(S)
        if isinstance(e, rb.Empty):
            want = True
        elif isinstance(e, rb.Full):
            want = True
        elif isinstance(e, rb.Corner):
            a, t = e.a, e.t
            want = not (rb.has_gap_below(S, a) and rb.has_gap_above(S, t)) \
                or rb.p_test(rb.pred(S, a), rb.suc(S, t))
        else:
            a, b = e.a, e.b
            if isinstance(e, rb.Strip) and rb.order_compare(b, a) < 0:
                a, b = hi, lo
            linked = rb.p_test(a, b)
            relieved = not rb.has_gap_above(S, a) or not rb.has_gap_below(S, b)
            want = (linked or relieved) if isinstance(e, rb.Strip) else (linked and relieved)

        def check(v):
            bad = v.irreducible is not want
            return 1, int(bad), bad, f"{v.kind} {v.irreducible}"
        return check

    def _family(self, S, kind, args):
        rb = self.rb
        a = args["a"]
        if kind == "phi_ab":
            wants = [(a, a), (args["b"], a)]
        elif kind == "psi_paab":
            wants = [(a, rb.pred(S, a)), (args["b"], a)]
        else:
            wants = [(args["t"], rb.p_min(S)), (rb.p_max(S), a)]

        def check(f):
            bad = bool(rb.validate_bf(S, f)) \
                or any(rb.eval_bf(S, f, y) != want for y, want in wants)
            return 1, int(bad), bad, self._text(S, f)
        return check


class Hostile:
    """Hard but valid inputs: long level scans, deep gap pairs, wide digits."""

    cycle = 1

    def __init__(self, rb, seed: int):
        rng = rng_for(seed, "hostile")
        builds = {}
        self.reqs = []
        for count, system, kind, param in HOSTILE_MIX:
            b = builds.setdefault(system, Build(rb, system))
            gen = Gen(Spec(system), rng)
            for _ in range(count):
                if kind == "plateau":
                    f, x, y = gen.plateau(*param)
                    self.reqs.append(("sigma_member", (b.S, b.bf(f), b.point(x), b.point(y)),
                                      NO_KWARGS, verdict_check(plateau_reference())))
                    continue
                x, y = map(b.point, gen.gap_pair(param + rng.randrange(param // 8)))
                if rng.random() < 0.5:
                    x, y = y, x
                self.reqs.append(("order_by_cocycle", (b.S, x, y), NO_KWARGS,
                                  self._order_check(rb.order_compare(x, y))))

    @staticmethod
    def _order_check(want):
        def check(c):
            bad = c != want
            return 1, int(bad), bad, str(c)
        return check

    def requests(self, p: int):
        return self.reqs


WORKLOADS = {
    "suites": Suites,
    "hull-typical": HullTypical,
    "construction": Construction,
    "hostile": Hostile,
}
