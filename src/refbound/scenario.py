"""Line-oriented scenario driver.

A scenario declares a system, names points, ideal-set expressions and
boundary functions, then runs assertion commands against them.  Every
command line carries an `expect` clause, so a scenario file doubles as
an executable record of its outputs.

Grammar, one statement per line, `#` starts a comment:

    system LITERAL
    point NAME = POINT
    ideal NAME = empty | full | strip P P | strip_plus P P
               | corner P P | union I I... | intersection I I...
               | module I | finite N (W,W)... | open F | hull F
    bf NAME = boundary I | identity | const P | minus F | plus F
            | join F F | meet F F
            | family phi_ab P P | family phi_at P P | family psi_paab P P
    eval F P expect P
    member I P P expect yes|no|unknown
    boundary I expect F
    minus F expect F
    plus F expect F
    lattice join|meet F F expect F
    classify meet|join F expect KIND
    classify meet-set|join-set I expect irreducible|reducible|none
    equiv F F expect yes|no
    sandwich I F expect yes|no|unknown
    suite NAME expect ok
    paper-examples GROUP expect ok

P is a declared point name or an inline literal (it contains `|`);
I and F are declared names; W is a digit word.  A statement takes
exactly the arguments shown; a surplus token is an error located at
the first one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .order import (
    RefinementError,
    format_point,
    parse_digits,
    parse_point,
    parse_system,
)
from .boundary import (
    bf_eq,
    bf_equiv,
    bf_join,
    bf_meet,
    bf_minus,
    bf_plus,
    const_bf,
    eval_bf,
    format_bf,
    identity_bf,
)
from .idealsets import (
    Corner,
    Empty,
    FiniteLevel,
    Full,
    OfBFClosed,
    OfBFOpen,
    Strip,
    StripPlus,
    boundary_of,
    close_finite_level,
    intersection,
    member,
    module,
    sandwich_check,
    union,
    validate_ideal_expr,
)
from .irreducibility import (
    classify_join_bf,
    classify_join_ideal,
    classify_meet_bf,
    classify_meet_ideal,
    construct_family,
)
from .oracle import SUITE_NAMES, describe_expr, run_suite


class ScenarioError(Exception):
    """Input problem, reported with its line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class CommandResult:
    line: int
    text: str
    status: str  # "ok" or "fail"
    detail: str = ""


@dataclass
class ScenarioOutcome:
    results: list = field(default_factory=list)
    reports: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if any(r.status == "fail" for r in self.results) else 0

    def to_json(self) -> str:
        return json.dumps({
            "exit": self.exit_code,
            "commands": [
                {"line": r.line, "text": r.text, "status": r.status,
                 "detail": r.detail}
                for r in self.results],
            "suites": [json.loads(rep.to_json()) for rep in self.reports],
        }, sort_keys=True, indent=2)


_WORD_PAIR = re.compile(r"^\(([0-9.]+),([0-9.]+)\)$")
# keyword -> number of arguments it takes; union, intersection and
# finite take any number
_IDEAL_ARGS = {"empty": 0, "full": 0, "strip": 2, "strip_plus": 2, "corner": 2,
               "module": 1, "open": 1, "hull": 1}
_BF_ARGS = {"identity": 0, "const": 1, "boundary": 1, "minus": 1, "plus": 1,
            "join": 2, "meet": 2, "family": 3}
_VERB_ARGS = {"eval": 2, "member": 3, "boundary": 1, "minus": 1, "plus": 1,
              "lattice": 3, "classify": 2, "equiv": 2, "sandwich": 2, "suite": 1,
              "paper-examples": 1}
_VERDICTS = ("yes", "no", "unknown")
# classification mode -> the kinds its verdict can take
_BF_KINDS = {"meet": ("identity_form", "phi_ab", "psi_paab", "reducible"),
             "join": ("minimal_form", "phi_at", "reducible")}


def _tokens(line: str):
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


class _Engine:
    def __init__(self, system=None, seed=0, budget=1, depth_cap=None):
        self.sys = parse_system(system) if isinstance(system, str) else system
        self.seed = seed
        self.budget = budget
        self.depth_cap = depth_cap
        self.points = {}
        self.ideals = {}
        self.bfs = {}
        self.out = ScenarioOutcome()

    # -- resolution helpers

    def _fail(self, line, col, msg):
        raise ScenarioError(line, col, msg)

    def _system_or_fail(self, line, col):
        if self.sys is None:
            self._fail(line, col, "no system declared yet (or pass --system)")
        return self.sys

    def _take(self, toks, i, line, what):
        """toks[i]; toks starts at the command word, so a missing argument
        is reported just past the last token given."""
        if i >= len(toks):
            self._fail(line, toks[-1][1] + len(toks[-1][0]), f"expected {what}")
        return toks[i]

    def _no_surplus(self, toks, n, line):
        """Reject any token past the first n, located at the first one."""
        if len(toks) > n:
            tok, col = toks[n]
            self._fail(line, col, f"unexpected {tok!r}")

    def _point(self, tok, col, line):
        if tok in self.points:
            return self.points[tok]
        if "|" in tok:
            s = self._system_or_fail(line, col)
            try:
                return parse_point(s, tok)
            except (ValueError, RefinementError) as err:
                self._fail(line, col, str(err))
        self._fail(line, col, f"unknown point {tok!r}")

    def _ideal(self, tok, col, line):
        if tok not in self.ideals:
            self._fail(line, col, f"unknown ideal expression {tok!r}")
        return self.ideals[tok]

    def _bf(self, tok, col, line):
        if tok not in self.bfs:
            self._fail(line, col, f"unknown boundary function {tok!r}")
        return self.bfs[tok]

    # -- statement execution

    def execute(self, line, text, toks):
        head, col = toks[0]
        if head == "system":
            self._decl_system(line, toks)
        elif head == "point":
            self._decl_point(line, toks)
        elif head == "ideal":
            self._decl_ideal(line, text, toks)
        elif head == "bf":
            self._decl_bf(line, text, toks)
        elif head in _VERB_ARGS:
            self._run_verb(head, line, text, toks)
        else:
            self._fail(line, col, f"unknown command {head!r}")

    def _decl_system(self, line, toks):
        tok, col = self._take(toks, 1, line, "a system literal")
        self._no_surplus(toks, 2, line)
        if self.sys is not None:
            self._fail(line, col, "system is already set")
        try:
            self.sys = parse_system(tok)
        except ValueError as err:
            self._fail(line, col, str(err))

    def _decl_name(self, toks, line, kind):
        name, col = self._take(toks, 1, line, f"a {kind} name")
        if name in self.points or name in self.ideals or name in self.bfs:
            self._fail(line, col, f"name {name!r} is already bound")
        eq, eqcol = self._take(toks, 2, line, "'='")
        if eq != "=":
            self._fail(line, eqcol, "expected '='")
        return name

    def _decl_point(self, line, toks):
        name = self._decl_name(toks, line, "point")
        tok, col = self._take(toks, 3, line, "a point literal")
        self._no_surplus(toks, 4, line)
        s = self._system_or_fail(line, col)
        try:
            self.points[name] = parse_point(s, tok)
        except (ValueError, RefinementError) as err:
            self._fail(line, col, str(err))

    def _decl_ideal(self, line, text, toks):
        name = self._decl_name(toks, line, "ideal")
        kw, col = self._take(toks, 3, line, "an ideal constructor")
        if kw in _IDEAL_ARGS:
            self._no_surplus(toks, 4 + _IDEAL_ARGS[kw], line)
        s = self._system_or_fail(line, col)
        expr = self._build_ideal(kw, col, toks, 4, line)
        bad = validate_ideal_expr(s, expr)
        if bad:
            self._fail(line, col, "; ".join(v.detail for v in bad))
        self.ideals[name] = expr
        self.out.results.append(CommandResult(
            line, text, "ok", describe_expr(s, expr)))

    def _build_ideal(self, kw, col, toks, i, line):
        """The ideal expression kw builds from the arguments toks[i:]."""
        s = self.sys
        if kw == "empty":
            return Empty()
        if kw == "full":
            return Full()
        if kw in ("strip", "strip_plus", "corner"):
            a_tok, a_col = self._take(toks, i, line, "a point")
            b_tok, b_col = self._take(toks, i + 1, line, "a point")
            a = self._point(a_tok, a_col, line)
            b = self._point(b_tok, b_col, line)
            if kw == "strip":
                return Strip(a, b)
            if kw == "strip_plus":
                return StripPlus(a, b)
            return Corner(a, b)
        if kw in ("union", "intersection"):
            if len(toks) < i + 2:
                self._fail(line, col, f"{kw} needs at least two parts")
            parts = [self._ideal(t, c, line) for t, c in toks[i:]]
            return union(*parts) if kw == "union" else intersection(*parts)
        if kw == "module":
            tok, tcol = self._take(toks, i, line, "an ideal name")
            return module(self._ideal(tok, tcol, line))
        if kw == "finite":
            lvl_tok, lvl_col = self._take(toks, i, line, "a level")
            if not lvl_tok.isdigit():
                self._fail(line, lvl_col, "level must be a number")
            pairs = []
            for tok, tcol in toks[i + 1:]:
                m = _WORD_PAIR.match(tok)
                if not m:
                    self._fail(line, tcol, f"expected a word pair, got {tok!r}")
                pairs.append((parse_digits(s, m.group(1)),
                              parse_digits(s, m.group(2))))
            try:
                units = close_finite_level(s, int(lvl_tok), pairs)
            except RefinementError as err:
                self._fail(line, lvl_col, str(err))
            return FiniteLevel(units)
        if kw in ("open", "hull"):
            tok, tcol = self._take(toks, i, line, "a boundary function name")
            bf = self._bf(tok, tcol, line)
            return OfBFOpen(bf) if kw == "open" else OfBFClosed(bf)
        self._fail(line, col, f"unknown ideal constructor {kw!r}")

    def _decl_bf(self, line, text, toks):
        name = self._decl_name(toks, line, "boundary function")
        kw, col = self._take(toks, 3, line, "a function constructor")
        if kw in _BF_ARGS:
            self._no_surplus(toks, 4 + _BF_ARGS[kw], line)
        s = self._system_or_fail(line, col)
        try:
            bf = self._build_bf(kw, col, toks, 4, line)
        except (ValueError, RefinementError) as err:
            self._fail(line, col, str(err))
        self.bfs[name] = bf
        self.out.results.append(CommandResult(
            line, text, "ok", format_bf(s, bf)))

    def _build_bf(self, kw, col, toks, i, line):
        """The function kw builds from the arguments toks[i:]."""
        s = self.sys
        if kw == "identity":
            return identity_bf(s)
        if kw == "const":
            tok, tcol = self._take(toks, i, line, "a point")
            return const_bf(s, self._point(tok, tcol, line))
        if kw == "boundary":
            tok, tcol = self._take(toks, i, line, "an ideal name")
            return boundary_of(s, self._ideal(tok, tcol, line))
        if kw in ("minus", "plus"):
            tok, tcol = self._take(toks, i, line, "a function name")
            f = self._bf(tok, tcol, line)
            return bf_minus(s, f) if kw == "minus" else bf_plus(s, f)
        if kw in ("join", "meet"):
            f_tok, f_col = self._take(toks, i, line, "a function name")
            g_tok, g_col = self._take(toks, i + 1, line, "a function name")
            f = self._bf(f_tok, f_col, line)
            g = self._bf(g_tok, g_col, line)
            return bf_join(s, f, g) if kw == "join" else bf_meet(s, f, g)
        if kw == "family":
            fam, fam_col = self._take(toks, i, line, "a family name")
            a_tok, a_col = self._take(toks, i + 1, line, "a point")
            b_tok, b_col = self._take(toks, i + 2, line, "a point")
            a = self._point(a_tok, a_col, line)
            b = self._point(b_tok, b_col, line)
            if fam == "phi_at":
                return construct_family(s, fam, a=a, t=b)
            if fam in ("phi_ab", "psi_paab"):
                return construct_family(s, fam, a=a, b=b)
            self._fail(line, fam_col, f"unknown family {fam!r}")
        self._fail(line, col, f"unknown function constructor {kw!r}")

    # -- assertion commands

    def _split_expect(self, toks, line):
        for i, (tok, _) in enumerate(toks):
            if tok == "expect":
                if i + 1 >= len(toks):
                    self._fail(line, toks[i][1], "expected a value after 'expect'")
                if i + 2 < len(toks):
                    self._fail(line, toks[i + 2][1], "trailing input after the expectation")
                return toks[:i], toks[i + 1]
        last = toks[-1][1] + len(toks[-1][0])
        self._fail(line, last, "command needs an 'expect' clause")

    def _record(self, line, text, ok, detail):
        self.out.results.append(CommandResult(
            line, text, "ok" if ok else "fail", detail))

    def _expect_verdict(self, tok, col, line):
        if tok not in _VERDICTS:
            self._fail(line, col, f"expected one of {', '.join(_VERDICTS)}")
        return tok

    def _run_verb(self, head, line, text, toks):
        left, (want, want_col) = self._split_expect(toks, line)
        self._no_surplus(left, 1 + _VERB_ARGS[head], line)
        if head not in ("suite", "paper-examples"):
            s = self._system_or_fail(line, left[0][1])
        else:
            s = self.sys

        if head == "eval":
            f_tok, f_col = self._take(left, 1, line, "a function name")
            x_tok, x_col = self._take(left, 2, line, "a point")
            f = self._bf(f_tok, f_col, line)
            x = self._point(x_tok, x_col, line)
            got = eval_bf(s, f, x)
            wanted = self._point(want, want_col, line)
            self._record(line, text, got == wanted, format_point(s, got))

        elif head == "member":
            i_tok, i_col = self._take(left, 1, line, "an ideal name")
            x_tok, x_col = self._take(left, 2, line, "a point")
            y_tok, y_col = self._take(left, 3, line, "a point")
            expr = self._ideal(i_tok, i_col, line)
            x = self._point(x_tok, x_col, line)
            y = self._point(y_tok, y_col, line)
            wanted = self._expect_verdict(want, want_col, line)
            got = member(s, expr, x, y, self.depth_cap)
            self._record(line, text, got.kind == wanted, got.kind)

        elif head in ("boundary", "minus", "plus", "lattice"):
            if head == "lattice":
                kw, kw_col = self._take(left, 1, line, "'join' or 'meet'")
                if kw not in ("join", "meet"):
                    self._fail(line, kw_col, "expected 'join' or 'meet'")
                got = self._build_bf(kw, kw_col, left, 2, line)
            else:
                got = self._build_bf(head, left[0][1], left, 1, line)
            wanted = self._bf(want, want_col, line)
            self._record(line, text, bf_eq(s, got, wanted), format_bf(s, got))

        elif head == "classify":
            self._run_classify(line, text, left, want, want_col)

        elif head == "equiv":
            f_tok, f_col = self._take(left, 1, line, "a function name")
            g_tok, g_col = self._take(left, 2, line, "a function name")
            f = self._bf(f_tok, f_col, line)
            g = self._bf(g_tok, g_col, line)
            if want not in ("yes", "no"):
                self._fail(line, want_col, "expected 'yes' or 'no'")
            got = "yes" if bf_equiv(s, f, g) else "no"
            self._record(line, text, got == want, got)

        elif head == "sandwich":
            i_tok, i_col = self._take(left, 1, line, "an ideal name")
            f_tok, f_col = self._take(left, 2, line, "a function name")
            expr = self._ideal(i_tok, i_col, line)
            f = self._bf(f_tok, f_col, line)
            wanted = self._expect_verdict(want, want_col, line)
            got = sandwich_check(s, expr, f, self.depth_cap)
            self._record(line, text, got.kind == wanted, got.kind)

        elif head == "suite":
            n_tok, n_col = self._take(left, 1, line, "a suite name")
            if n_tok not in SUITE_NAMES:
                self._fail(line, n_col, f"unknown suite {n_tok!r}")
            if want != "ok":
                self._fail(line, want_col, "suites can only expect 'ok'")
            rep = run_suite(n_tok, s, self.seed, self.budget)
            self.out.reports.append(rep)
            detail = f"{rep.samples} samples, {len(rep.violations)} violations"
            self._record(line, text, rep.ok, detail)

        elif head == "paper-examples":
            g_tok, g_col = self._take(left, 1, line, "a fixture group")
            if want != "ok":
                self._fail(line, want_col, "fixture groups can only expect 'ok'")
            from .fixtures import emit_fixture, fixture_group
            try:
                names = fixture_group(g_tok)
            except ValueError as err:
                self._fail(line, g_col, str(err))
            bits, all_ok = [], True
            for fname in names:
                sub = run_scenario_text(
                    emit_fixture(fname), seed=self.seed, budget=self.budget,
                    depth_cap=self.depth_cap)
                self.out.reports.extend(sub.reports)
                ok = sub.exit_code == 0
                all_ok = all_ok and ok
                bits.append(f"{fname}: {'ok' if ok else 'fail'}")
            self._record(line, text, all_ok, "; ".join(bits))


    def _run_classify(self, line, text, left, want, want_col):
        s = self.sys
        mode_tok, mode_col = self._take(left, 1, line, "a classification mode")
        arg_tok, arg_col = self._take(left, 2, line, "a name")
        if mode_tok in _BF_KINDS:
            kinds = _BF_KINDS[mode_tok]
            if want not in kinds:
                self._fail(line, want_col,
                           f"expected {', '.join(kinds[:-1])} or {kinds[-1]}")
            f = self._bf(arg_tok, arg_col, line)
            verdict = (classify_meet_bf(s, f) if mode_tok == "meet"
                       else classify_join_bf(s, f))
            self._record(line, text, verdict.kind == want, verdict.kind)
        elif mode_tok in ("meet-set", "join-set"):
            expr = self._ideal(arg_tok, arg_col, line)
            verdict = (classify_meet_ideal(s, expr) if mode_tok == "meet-set"
                       else classify_join_ideal(s, expr))
            if want == "irreducible":
                ok = verdict.irreducible is True
            elif want == "reducible":
                ok = verdict.irreducible is False
            elif want == "none":
                ok = verdict.irreducible is None
            else:
                self._fail(line, want_col,
                           "expected irreducible, reducible or none")
            self._record(line, text, ok, verdict.kind)
        else:
            self._fail(line, mode_col,
                       "expected meet, join, meet-set or join-set")


def run_scenario_text(text: str, *, system=None, seed: int = 0,
                      budget: int = 1, depth_cap=None) -> ScenarioOutcome:
    """Execute scenario text; raises ScenarioError on malformed input."""
    eng = _Engine(system, seed, budget, depth_cap)
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        toks = _tokens(body)
        try:
            eng.execute(lineno, body.strip(), toks)
        except ScenarioError:
            raise
        except (ValueError, RefinementError) as err:
            raise ScenarioError(lineno, toks[0][1], str(err))
    return eng.out


def run_scenario(path, *, system=None, seed: int = 0, budget: int = 1,
                 depth_cap=None) -> ScenarioOutcome:
    """Execute a scenario file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return run_scenario_text(text, system=system, seed=seed, budget=budget,
                             depth_cap=depth_cap)
