"""Spans around calls into the library's public functions, from outside.

`Tracer.install` replaces each named function in every `refbound.*`
namespace that binds it (``from .order import point`` copies the
binding, so patching `refbound.order` alone would miss calls made from
`refbound.boundary`).  A callable captured at import time, such as the
sort key `irreducibility._KEY` built from `order_compare`, is rebuilt
around the wrapped function (see CAPTURED).  While `on` is set, each
call records a span: name, start, end and the index of its parent span.  The benchmark opens
one root span per request, so every span leads back to the request
that caused it.  Spans stay in flat arrays in memory and are written
out by `dump` after the run.  The program is single-threaded, so spans
nest and no layer ever waits on another.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

ROOT = "request"

# layer -> public functions timed in it
LAYERS = {
    "order": ("point", "order_compare", "orbit_test", "tail_of", "prepend", "interval"),
    "boundary": ("cylinder_within_eta", "sigma_member", "modification_certificate",
                 "normalize_bf", "bf_plus", "bf_minus", "bf_join", "bf_meet",
                 "validate_bf", "bf_eq"),
    "cocycle": ("order_by_cocycle", "b_approx", "gap_point", "btilde"),
    "idealsets": ("boundary_of", "member", "restrict_to_level"),
    "irreducibility": ("classify_meet_bf", "classify_join_bf", "classify_meet_ideal",
                       "classify_join_ideal", "construct_family"),
    "oracle": ("brute_boundary", "enumerate_closed_sets", "run_suite"),
    "scenario": ("run_scenario_text",),
}

# (module, attribute) -> builds the attribute again from the wrapped functions
CAPTURED = {
    ("irreducibility", "_KEY"): lambda wrapped: functools.cmp_to_key(wrapped["order.order_compare"]),
}


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.on = False
        self._patched = []

    def __len__(self):
        return len(self.start)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name_id: int, fn):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    def call(self, fn, args, kwargs):
        """Run one request under a root span with tracing on."""
        self.on = True
        idx = self._open(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self.on = False

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "refbound" or n.startswith("refbound."))]
        wrapped = {}
        for layer, fns in LAYERS.items():
            home = sys.modules[f"refbound.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                wrapped[name] = self._wrap(self.names.index(name), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped[name])
        for (layer, attr), rebuild in CAPTURED.items():
            mod = sys.modules[f"refbound.{layer}"]
            if hasattr(mod, attr):
                self._patch(mod, attr, rebuild(wrapped))

    def _patch(self, mod, attr, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header, then the four arrays back to back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self),
                  "arrays": ["start:q", "end:q", "name:i", "parent:i"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)

    def totals(self):
        """Per name: calls and self time in ns, plus child counts per parent name."""
        n = len(self)
        child_ns = [0] * n
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        nested = {}
        for i in range(n):
            k = name[i]
            calls[k] += 1
            self_ns[k] += end[i] - start[i] - child_ns[i]
            p = parent[i]
            if p >= 0:
                key = (name[p], k)
                nested[key] = nested.get(key, 0) + 1
        return ({self.names[k]: c for k, c in enumerate(calls)},
                {self.names[k]: s for k, s in enumerate(self_ns)},
                {(self.names[a], self.names[b]): c for (a, b), c in nested.items()})
