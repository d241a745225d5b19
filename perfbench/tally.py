"""Tally the acceptance gates' traffic once, as the source of the workload mixes.

    python3 perfbench/tally.py > perfbench/mix.json

Run from the root of a checkout at the commit whose gates define the
mix.  The benchmark itself never runs this script; it reads the result,
`mix.json`, so later changes to the library's samplers or to the tests
cannot change a workload.  Two things are recorded:

- `shapes`: the shape tree of every function ACCEPT-3 draws with
  `random_bf` (25 per system) and of the 50 expression pairs ACCEPT-5
  draws with `random_ideal_expr` per system.  A shape keeps
  the constructors and drops the points: ``["join", ["phi_at"],
  ["boundary", ["finite"]]]``.  A family whose parameters missed their
  constraints fell back to the identity in the draw and is recorded as
  ``["identity"]``.
- `calls`: how often each gate's own body calls each public function;
  `member` is split by the kind of set queried.
"""

from __future__ import annotations

import collections
import contextlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from refbound import oracle  # noqa: E402
from tests import test_acceptance as gates  # noqa: E402

CATALOG = {"Empty": "empty", "Full": "full", "Strip": "strip",
           "StripPlus": "strip_plus", "Corner": "corner"}
# oracle builders whose use inside a draw decides its shape
TAGS = {"identity_bf": "identity", "const_bf": "bottom", "boundary_of": "boundary",
        "bf_minus": "minus", "bf_plus": "plus", "bf_join": "join", "bf_meet": "meet",
        "union": "union", "intersection": "intersection", "random_units": "finite",
        "OfBFClosed": "hull", "OfBFOpen": "open"}
EXPR_OPS = ("union", "intersection", "finite", "hull", "open")
COUNTED = ("boundary_of", "bf_plus", "bf_minus", "bf_join", "bf_meet", "bf_eq",
           "member", "classify_meet_bf", "classify_join_bf", "classify_meet_ideal",
           "classify_join_ideal", "construct_family")


class Recorder:
    """Wraps the oracle's samplers so each draw leaves its shape tree behind."""

    def __init__(self):
        self.stack = []
        self.last = None

    def frame(self, fn, shape):
        def wrapped(*args, **kwargs):
            self.stack.append({"children": [], "ops": []})
            result = fn(*args, **kwargs)
            node = shape(self.stack.pop(), result)
            if self.stack:
                self.stack[-1]["children"].append(node)
            self.last = node
            return result
        return wrapped

    def op(self, tag, fn):
        def wrapped(*args, **kwargs):
            if self.stack:
                self.stack[-1]["ops"].append(tag)
            return fn(*args, **kwargs)
        return wrapped

    def family(self, fn):
        def wrapped(sys_, kind, **params):
            self.stack.append({"children": [], "ops": []})
            result = fn(sys_, kind, **params)
            fell_back = "identity" in self.stack.pop()["ops"]
            self.stack[-1]["ops"].append("identity" if fell_back else kind)
            return result
        return wrapped

    @staticmethod
    def bf_shape(fr, _):
        op, ch = fr["ops"][-1], fr["children"]
        return [op] + ch

    @staticmethod
    def expr_shape(fr, _):
        ops = [o for o in fr["ops"] if o in EXPR_OPS]
        if not ops:
            return fr["children"][0]  # a catalog leaf
        return [ops[-1]] + fr["children"]

    def install(self):
        for name, tag in TAGS.items():
            setattr(oracle, name, self.op(tag, getattr(oracle, name)))
        oracle._family_or_identity = self.family(oracle._family_or_identity)
        oracle.random_bf = self.frame(oracle.random_bf, self.bf_shape)
        oracle.random_ideal_expr = self.frame(oracle.random_ideal_expr, self.expr_shape)
        oracle._random_catalog_expr = self.frame(
            oracle._random_catalog_expr, lambda fr, r: [CATALOG[type(r).__name__]])


def shapes():
    rec = Recorder()
    rec.install()
    out = {"accept3": {}, "accept5": {}}
    for S in gates.SYSTEMS:
        name = gates.format_system(S)
        rng = gates._rng(f"sandwich|{name}")
        out["accept3"][name] = [(oracle.random_bf(S, rng), rec.last)[1] for _ in range(25)]
        rng = gates._rng(f"lattice|{name}")
        pairs = []
        for _ in range(50):
            e1 = (oracle.random_ideal_expr(S, rng, depth=1), rec.last)[1]
            e2 = (oracle.random_ideal_expr(S, rng, depth=1), rec.last)[1]
            pairs.append([e1, e2])
        out["accept5"][name] = pairs
    return out


class Capsys:
    def disabled(self):
        return contextlib.nullcontext()


def calls():
    out = {}
    for k, test in ((3, gates.test_accept_3_sandwich_identities),
                    (4, gates.test_accept_4_companion_projections),
                    (5, gates.test_accept_5_lattice_boundary_identities),
                    (6, gates.test_accept_6_classifications_certified)):
        count = collections.Counter()
        saved = {n: getattr(gates, n) for n in COUNTED if hasattr(gates, n)}
        for n, fn in saved.items():
            def counted(*args, _n=n, _fn=fn, **kwargs):
                count[_n if _n != "member" else f"member {type(args[1]).__name__}"] += 1
                return _fn(*args, **kwargs)
            setattr(gates, n, counted)
        with contextlib.redirect_stdout(sys.stderr):
            test(Capsys())
        for n, fn in saved.items():
            setattr(gates, n, fn)
        out[f"ACCEPT-{k}"] = dict(sorted(count.items()))
    return out


if __name__ == "__main__":
    mix = {"calls": calls(), "shapes": shapes()}
    print(json.dumps(mix, indent=1))
