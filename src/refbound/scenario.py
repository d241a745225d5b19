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
    member I P P expect yes|no
    boundary I expect F
    minus F expect F
    plus F expect F
    lattice join|meet F F expect F
    classify meet|join F expect KIND
    classify meet-set|join-set I expect irreducible|reducible|none
    equiv F F expect yes|no
    sandwich I F expect yes|no
    suite NAME expect ok
    paper-examples GROUP expect ok

P is a declared point name or an inline literal (it contains `|`);
I and F are declared names; W is a digit word; GROUP is a fixture
group or fixture name.  A statement takes exactly the arguments shown;
a surplus token is an error located at the first one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .order import RefinementError, format_point, parse_digits, parse_point, parse_system
from .boundary import (bf_eq, bf_equiv, bf_join, bf_meet, bf_minus, bf_plus, const_bf,
                       eval_bf, format_bf, identity_bf)
from .idealsets import (Corner, Empty, FiniteLevel, Full, MatrixUnitSet, OfBFClosed, OfBFOpen,
                        Strip, StripPlus, boundary_of, close_finite_level, intersection,
                        member, module, sandwich_check, union, validate_ideal_expr)
from .irreducibility import (classify_join_bf, classify_join_ideal, classify_meet_bf,
                             classify_meet_ideal, construct_family)
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

# argument kinds: what a missing one is called, and the engine method that
# resolves its token (None hands the token and its column to a branch)
_POINT = ("a point", "_point")
_IDEAL = ("an ideal name", "_ideal")
_BF = ("a function name", "_bf")
_SET_BF = ("a boundary function name", "_bf")
_SUITE = ("a suite name", "_suite")

# ideal constructor -> (argument kinds, what builds the expression);
# union, intersection and finite take any number of arguments and have
# branches of their own
_IDEALS = {
    "empty": ((), Empty), "full": ((), Full),
    "strip": ((_POINT, _POINT), Strip),
    "strip_plus": ((_POINT, _POINT), StripPlus),
    "corner": ((_POINT, _POINT), Corner),
    "module": ((_IDEAL,), module),
    "open": ((_SET_BF,), OfBFOpen), "hull": ((_SET_BF,), OfBFClosed),
}
# function constructor -> (argument kinds, library call on the system and
# the arguments); family, with no call, has a branch of its own
_BFS = {
    "identity": ((), identity_bf),
    "const": ((_POINT,), const_bf),
    "boundary": ((_IDEAL,), boundary_of),
    "minus": ((_BF,), bf_minus), "plus": ((_BF,), bf_plus),
    "join": ((_BF, _BF), bf_join), "meet": ((_BF, _BF), bf_meet),
    "family": ((("a family name", None), _POINT, _POINT), None),
}
# classification mode -> (argument kind, library call, the answers `expect`
# may name); a function's answer is its verdict's kind, a set's says whether
# it is irreducible, reducible or neither
_SET_ANSWERS = ("irreducible", "reducible", "none")
_CLASSIFY = {
    "meet": (_BF, classify_meet_bf, ("identity_form", "phi_ab", "psi_paab", "reducible")),
    "join": (_BF, classify_join_bf, ("minimal_form", "phi_at", "reducible")),
    "meet-set": (_IDEAL, classify_meet_ideal, _SET_ANSWERS),
    "join-set": (_IDEAL, classify_join_ideal, _SET_ANSWERS),
}
# the words an `expect` value may be, and the message that refuses others
_YES_NO = (("yes", "no"), "expected 'yes' or 'no'")
# verb -> (argument kinds, library call on the system and the arguments,
# what its `expect` value is: a point, a function or one of some words);
# verbs with no call have branches of their own
_VERBS = {
    "eval": ((_BF, _POINT), eval_bf, _POINT),
    "member": ((_IDEAL, _POINT, _POINT), member, _YES_NO),
    "boundary": (*_BFS["boundary"], _BF),
    "minus": (*_BFS["minus"], _BF), "plus": (*_BFS["plus"], _BF),
    "lattice": ((("'join' or 'meet'", None), _BF, _BF), None, _BF),
    "classify": ((("a classification mode", None), ("a name", None)), None, None),
    "equiv": ((_BF, _BF), bf_equiv, _YES_NO),
    "sandwich": ((_IDEAL, _BF), sandwich_check, _YES_NO),
    "suite": ((_SUITE,), None, (("ok",), "suites can only expect 'ok'")),
    "paper-examples": ((("a fixture group", None),), None,
                       (("ok",), "fixture groups can only expect 'ok'")),
}


def _tokens(line: str):
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


class _Engine:
    def __init__(self, system=None, seed=0, budget=1):
        self.sys = parse_system(system) if isinstance(system, str) else system
        self.seed = seed
        self.budget = budget
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

    def _located(self, line, col, call, *args):
        """call(*args), with an error the library raises reported at col."""
        try:
            return call(*args)
        except (ValueError, RefinementError) as err:
            self._fail(line, col, str(err))

    def _no_surplus(self, toks, n, line):
        """Reject any token past the first n, located at the first one."""
        if len(toks) > n:
            tok, col = toks[n]
            self._fail(line, col, f"unexpected {tok!r}")

    def _args(self, toks, i, kinds, line):
        """toks[i:] read as arguments of the given kinds: all must be
        present before the first is resolved."""
        if len(toks) < i + len(kinds):
            self._take(toks, len(toks), line, kinds[len(toks) - i][0])
        return [getattr(self, method)(tok, col, line) if method else (tok, col)
                for (tok, col), (_, method) in zip(toks[i:], kinds)]

    def _point(self, tok, col, line):
        if tok in self.points:
            return self.points[tok]
        if "|" in tok:
            return self._located(line, col, parse_point, self._system_or_fail(line, col), tok)
        self._fail(line, col, f"unknown point {tok!r}")

    def _ideal(self, tok, col, line):
        if tok not in self.ideals:
            self._fail(line, col, f"unknown ideal expression {tok!r}")
        return self.ideals[tok]

    def _bf(self, tok, col, line):
        if tok not in self.bfs:
            self._fail(line, col, f"unknown boundary function {tok!r}")
        return self.bfs[tok]

    def _suite(self, tok, col, line):
        if tok not in SUITE_NAMES:
            self._fail(line, col, f"unknown suite {tok!r}")
        return tok

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
        elif head in _VERBS:
            self._run_verb(head, line, text, toks)
        else:
            self._fail(line, col, f"unknown command {head!r}")

    def _decl_system(self, line, toks):
        tok, col = self._take(toks, 1, line, "a system literal")
        self._no_surplus(toks, 2, line)
        if self.sys is not None:
            self._fail(line, col, "system is already set")
        self.sys = self._located(line, col, parse_system, tok)

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
        self.points[name] = self._located(line, col, parse_point, s, tok)

    def _decl_ideal(self, line, text, toks):
        name = self._decl_name(toks, line, "ideal")
        kw, col = self._take(toks, 3, line, "an ideal constructor")
        if kw in _IDEALS:
            self._no_surplus(toks, 4 + len(_IDEALS[kw][0]), line)
        s = self._system_or_fail(line, col)
        if kw in _IDEALS:
            kinds, build = _IDEALS[kw]
            expr = build(*self._args(toks, 4, kinds, line))
        elif kw in ("union", "intersection"):
            if len(toks) < 6:
                self._fail(line, col, f"{kw} needs at least two parts")
            parts = [self._ideal(t, c, line) for t, c in toks[4:]]
            expr = union(*parts) if kw == "union" else intersection(*parts)
        elif kw == "finite":
            expr = self._finite(toks, line)
        else:
            self._fail(line, col, f"unknown ideal constructor {kw!r}")
        bad = validate_ideal_expr(s, expr)
        if bad:
            self._fail(line, col, "; ".join(v.detail for v in bad))
        self.ideals[name] = expr
        self.out.results.append(CommandResult(
            line, text, "ok", describe_expr(s, expr)))

    def _finite(self, toks, line):
        """`finite N (W,W)...`: the level-N set closed over the pairs.

        The closure of several pairs is the union of their own closures,
        so each pair is closed alone and a fault it causes is reported
        at the pair; the level's faults are reported at the level.
        """
        s = self.sys
        lvl_tok, lvl_col = self._take(toks, 4, line, "a level")
        if not (lvl_tok.isascii() and lvl_tok.isdigit()):
            self._fail(line, lvl_col, "level must be a number")
        level = int(lvl_tok)
        closed = [self._located(line, lvl_col, close_finite_level, s, level, ())]
        for tok, tcol in toks[5:]:
            m = _WORD_PAIR.match(tok)
            if not m:
                self._fail(line, tcol, f"expected a word pair, got {tok!r}")
            pair = [self._located(line, tcol, parse_digits, s, word) for word in m.groups()]
            closed.append(self._located(line, tcol, close_finite_level, s, level, [pair]))
        return FiniteLevel(MatrixUnitSet(level, frozenset().union(*(c.pairs for c in closed))))

    def _decl_bf(self, line, text, toks):
        name = self._decl_name(toks, line, "boundary function")
        kw, col = self._take(toks, 3, line, "a function constructor")
        if kw in _BFS:
            self._no_surplus(toks, 4 + len(_BFS[kw][0]), line)
        s = self._system_or_fail(line, col)
        if kw not in _BFS:
            self._fail(line, col, f"unknown function constructor {kw!r}")
        bf = self._located(line, col, self._build_bf, kw, toks, 4, line)
        self.bfs[name] = bf
        self.out.results.append(CommandResult(
            line, text, "ok", format_bf(s, bf)))

    def _build_bf(self, kw, toks, i, line):
        """The function kw builds from the arguments toks[i:]."""
        kinds, call = _BFS[kw]
        args = self._args(toks, i, kinds, line)
        if call is not None:
            return call(self.sys, *args)
        (fam, fam_col), a, b = args
        if fam == "phi_at":
            return construct_family(self.sys, fam, a=a, t=b)
        if fam in ("phi_ab", "psi_paab"):
            return construct_family(self.sys, fam, a=a, b=b)
        self._fail(line, fam_col, f"unknown family {fam!r}")

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

    def _run_verb(self, head, line, text, toks):
        left, (want, want_col) = self._split_expect(toks, line)
        kinds, call, expect = _VERBS[head]
        self._no_surplus(left, 1 + len(kinds), line)
        if head in ("suite", "paper-examples"):
            s = self.sys
        else:
            s = self._system_or_fail(line, left[0][1])
        if head == "lattice":
            kw, kw_col = self._take(left, 1, line, kinds[0][0])
            if kw not in ("join", "meet"):
                self._fail(line, kw_col, "expected 'join' or 'meet'")
            got = self._located(line, kw_col, self._build_bf, kw, left, 2, line)
        else:
            args = self._args(left, 1, kinds, line)
            if head == "classify":
                return self._run_classify(s, line, text, *args, want, want_col)
            if expect not in (_POINT, _BF) and want not in expect[0]:
                self._fail(line, want_col, expect[1])
            if head == "suite":
                rep = run_suite(args[0], s, self.seed, self.budget)
                self.out.reports.append(rep)
                detail = f"{rep.samples} samples, {len(rep.violations)} violations"
                return self._record(line, text, rep.ok, detail)
            if head == "paper-examples":
                return self._run_examples(line, text, *args[0])
            got = call(s, *args)
        if expect is _POINT:
            wanted = self._point(want, want_col, line)
            self._record(line, text, got == wanted, format_point(s, got))
        elif expect is _BF:
            wanted = self._bf(want, want_col, line)
            self._record(line, text, bf_eq(s, got, wanted), format_bf(s, got))
        else:
            # equiv answers a bool, member and sandwich a verdict
            got = ("yes" if got else "no") if isinstance(got, bool) else got.kind
            self._record(line, text, got == want, got)

    def _run_examples(self, line, text, group, col):
        from .fixtures import emit_fixture, fixture_group
        names = self._located(line, col, fixture_group, group)
        bits, all_ok = [], True
        for fname in names:
            sub = run_scenario_text(
                emit_fixture(fname), seed=self.seed, budget=self.budget)
            self.out.reports.extend(sub.reports)
            ok = sub.exit_code == 0
            all_ok = all_ok and ok
            bits.append(f"{fname}: {'ok' if ok else 'fail'}")
        self._record(line, text, all_ok, "; ".join(bits))

    def _run_classify(self, s, line, text, mode, arg, want, want_col):
        (mode, mode_col), (arg, arg_col) = mode, arg
        if mode not in _CLASSIFY:
            self._fail(line, mode_col, "expected meet, join, meet-set or join-set")
        kind, call, answers = _CLASSIFY[mode]
        refusal = f"expected {', '.join(answers[:-1])} or {answers[-1]}"
        # which of two faults on a line is reported rests on this order: a
        # function's answer is checked before its name, a set's after
        if kind is _BF and want not in answers:
            self._fail(line, want_col, refusal)
        verdict = call(s, getattr(self, kind[1])(arg, arg_col, line))
        if kind is _BF:
            return self._record(line, text, verdict.kind == want, verdict.kind)
        if want not in answers:
            self._fail(line, want_col, refusal)
        got = {True: "irreducible", False: "reducible", None: "none"}[verdict.irreducible]
        self._record(line, text, got == want, verdict.kind)


def run_scenario_text(text: str, *, system=None, seed: int = 0,
                      budget: int = 1) -> ScenarioOutcome:
    """Execute scenario text; raises ScenarioError on malformed input."""
    eng = _Engine(system, seed, budget)
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


def run_scenario(path, *, system=None, seed: int = 0,
                 budget: int = 1) -> ScenarioOutcome:
    """Execute a scenario file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return run_scenario_text(text, system=system, seed=seed, budget=budget)
