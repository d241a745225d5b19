"""refbound benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`
directory and nowhere else.  Set-up (import plus seeded input
generation) runs several times and reports its median.  The timed loop
then sends one request at a time, waiting for each answer, pass after
pass, until `--seconds` of measured time are spent; every answer is
checked against an independent reference outside the timed region.
Reported times are rescaled to a fixed host speed (see Phase).

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the
time untraced and half with spans around every public function named in
tracer.LAYERS, then prints the per-layer metrics; the spans are written
to .bench_out/.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7
# Every reported time is rescaled to the host speed at which one call of
# `reference` takes REFERENCE_S (about the fast speed of a 2-vCPU virtual
# machine under Python 3.11); the host's speed is read every PROBE_EVERY
# seconds, between requests.  See Phase.
REFERENCE_S = 3.5e-4
PROBE_EVERY = 0.02
SMOOTHING = 5
# latencies kept per request position: those of the last KEPT repeats
KEPT = 16
SPAN_CAP = 1_500_000
# nearest-rank percentile reported as the tail, per workload; fixed so the
# metric means the same thing on every run (each leaves >= 10 samples beyond)
TAIL_PERCENTILE = {"suites": 90, "hull-typical": 99, "construction": 99, "hostile": 90}


def import_library():
    """Import refbound from this checkout's src, after dropping any earlier import."""
    for name in [n for n in sys.modules if n == "refbound" or n.startswith("refbound.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    rb = importlib.import_module("refbound")
    if not Path(rb.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"refbound was imported from {rb.__file__}, not from {SRC}")
    return rb


def reference():
    """A fixed pure-Python loop that reads the host's speed: tuples, a dict, a keyed sort."""
    counts = {}
    for i in range(600):
        t = (i % 7, i % 11, (i * 5) % 13)
        counts[t] = counts.get(t, 0) + (t < (3, 5, 7))
    order = sorted(counts, key=lambda t: (t[2], t[0], -counts[t]))
    return sum(a < b for a, b in zip(order, order[1:]))


def host_factor() -> float:
    """REFERENCE_S over the best of three reference calls now: multiply a time by it.

    The collector is paused, so that a collection of the library's
    garbage cannot land in a reference call.
    """
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            reference()
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return REFERENCE_S / best


def setup(workload: str, seed: int):
    """Median rescaled set-up time over SETUP_REPS fresh imports; keeps the last build."""
    times = []
    for _ in range(SETUP_REPS):
        factor = statistics.median(host_factor() for _ in range(SMOOTHING))
        t0 = perf_counter()
        rb = import_library()
        wl = workloads.WORKLOADS[workload](rb, seed)
        times.append((perf_counter() - t0) * factor)
    gc.collect()  # the earlier set-ups' garbage, before the timed loop
    return rb, wl, statistics.median(times)


class Phase:
    """Measured results of one timed loop.

    The host is shared, and its speed drifts by up to 2x: in spells of a
    few seconds, and sometimes for minutes.  Two things make the figures
    steady.  Each latency is rescaled by `host_factor`, read just before
    it (the median of the last SMOOTHING readings), which takes out the
    drift.  Each request position of a distinct pass then gets the lower
    quartile of its rescaled latencies over the last KEPT repeats of that
    same input.  That takes out interruptions, which only ever add time,
    and what is left of the drift, which goes either way; the best latency
    would pick up the latter.  A distinct pass's wall is the sum of those
    quartiles.  Memory does not grow with the number of repeats.
    """

    def __init__(self):
        self.kept = {}  # distinct pass -> KEPT latency slots per request position
        self.repeats = {}  # distinct pass -> times it was started
        self.ops_of = {}  # distinct pass -> operations it stands for
        self.measured = 0.0  # seconds spent in calls, not rescaled
        self.factors = array("d")  # every host_factor reading
        self.requests = 0
        self.ops = 0
        self.failed = 0
        self.mismatches = 0
        self.suite_samples = 0
        self.suite_violations = 0
        self.digest = hashlib.sha256()

    def timing(self):
        """Latency of every request position, and (wall, ops) of each distinct pass."""
        samples, passes = [], []
        for c, kept in self.kept.items():
            lows = [lower_quartile([x for x in kept[i:i + KEPT] if not math.isnan(x)])
                    for i in range(0, len(kept), KEPT)]
            samples += lows
            passes.append((math.fsum(lows), self.ops_of[c]))
        return samples, passes


def lower_quartile(xs):
    return statistics.quantiles(xs, n=4)[0] if len(xs) > 1 else xs[0]


def run_phase(rb, wl, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Closed loop over passes until `seconds` of measured time.

    The first `wl.cycle` passes, one of each distinct pass, always
    complete; they alone count towards `ops` and `failed`, so those are
    the same on every run of a seed.  A repeat of a distinct pass must
    give the same answers again.  Only the call is timed: building a
    pass and checking answers happen between timed regions.  Pass 0's
    answers form the digest.
    """
    ph = Phase()
    first = {}
    p = 0
    ph.factors.append(host_factor())
    factor, probed = ph.factors[-1], perf_counter()
    while p < wl.cycle or (ph.measured < seconds
                           and (tracer is None or len(tracer) < SPAN_CAP)):
        c = p % wl.cycle
        reqs = wl.requests(p)
        kept = ph.kept.setdefault(c, array("d", [math.nan]) * (len(reqs) * KEPT))
        slot = ph.repeats.get(c, 0) % KEPT
        ph.repeats[c] = ph.repeats.get(c, 0) + 1
        answers = []
        wall = 0.0
        for j, (name, args, kwargs, _) in enumerate(reqs):
            fn = getattr(rb, name)
            if perf_counter() - probed >= PROBE_EVERY:
                # the median of the last SMOOTHING readings: one reading is
                # noisy, and the host's speed holds for seconds
                ph.factors.append(host_factor())
                factor, probed = statistics.median(ph.factors[-SMOOTHING:]), perf_counter()
            t0 = perf_counter()
            try:
                ans = fn(*args, **kwargs) if tracer is None else tracer.call(fn, args, kwargs)
            except Exception as err:  # a failed request is counted, and the loop goes on
                ans = err
            dt = perf_counter() - t0
            kept[j * KEPT + slot] = dt * factor
            answers.append(ans)
            wall += dt
            if p >= wl.cycle and ph.measured + wall >= seconds:
                break
        ph.measured += wall
        results = []
        for (name, _, _, check), ans in zip(reqs, answers):
            if isinstance(ans, Exception):
                results.append((1, 1, True, f"error {name}: {type(ans).__name__}"))
            else:
                results.append(check(ans))
            ph.requests += 1
        if p < wl.cycle:
            first[c] = results
            ph.ops_of[c] = sum(ops for ops, _, _, _ in results)
            for (name, _, _, _), (ops, failed, mismatch, text) in zip(reqs, results):
                ph.ops += ops
                ph.failed += failed
                ph.mismatches += bool(mismatch)
                if name == "run_suite":
                    ph.suite_samples += ops
                    ph.suite_violations += failed
                if p == 0:
                    ph.digest.update(text.encode() + b"\n")
        else:
            ph.mismatches += sum(r != f for r, f in zip(results, first[c]))
        p += 1
    return ph


def tail(latency, percentile: float):
    """Nearest-rank percentile; falls back to a lower one if fewer than 10 samples lie beyond."""
    xs = sorted(latency)
    n = len(xs)
    for q in [percentile] + [q for q in (90, 75, 50) if q < percentile]:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], q, n
    return xs[-1], 100, n


def end_to_end(workload: str, ph: Phase, setup_s: float):
    samples, passes = ph.timing()
    value, q, n = tail(samples, TAIL_PERCENTILE[workload])
    print(f"timing from {len(passes)} distinct pass(es) and {n} latency samples; "
          f"latency_tail_ms is p{q} with {n - math.ceil(q / 100 * n)} samples beyond")
    print(f"{ph.measured:.3f} s measured in calls; host factor median "
          f"{statistics.median(ph.factors):.4g}, range {min(ph.factors):.4g}-"
          f"{max(ph.factors):.4g} over {len(ph.factors)} readings")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(wall for wall, _ in passes), "s"),
        "ops_per_s": (statistics.median(ops / wall for wall, ops in passes), "1/s"),
        "latency_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "ok_ratio": ((ph.ops - ph.failed) / ph.ops, "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(base: Phase, traced: Phase, tracer: Tracer):
    calls, self_ns, nested = tracer.totals()
    reqs = traced.requests
    out = {}
    for layer, fns in LAYERS.items():
        layer_ns = 0
        for fn in fns:
            key = f"{layer}.{fn}"
            out[f"{key}.calls"] = (calls[key] / reqs, "calls/req")
            out[f"{key}.self_ms"] = (self_ns[key] / 1e6 / reqs, "ms/req")
            layer_ns += self_ns[key]
        out[f"{layer}.self_ms"] = (layer_ns / 1e6 / reqs, "ms/req")

    def ratio(a, b):
        return a / b if b else 0.0

    hull = calls["boundary.sigma_member"]
    out["boundary.levels_per_hull_query"] = (
        ratio(nested.get(("boundary.sigma_member", "boundary.cylinder_within_eta"), 0), hull),
        "levels/query")
    decisions = calls["cocycle.order_by_cocycle"]
    out["cocycle.b_approx_per_decision"] = (
        ratio(nested.get(("cocycle.order_by_cocycle", "cocycle.b_approx"), 0), decisions),
        "calls/decision")
    samples, violations = traced.suite_samples, traced.suite_violations
    out["oracle.suite.samples"] = (samples, "count")
    out["oracle.suite.violations"] = (violations, "count")
    out["oracle.violations_per_sample"] = (ratio(violations, samples), "ratio")
    out["trace.overhead_ratio"] = (
        ratio(sum(wall for wall, _ in traced.timing()[1]),
              sum(wall for wall, _ in base.timing()[1])), "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "refbound" / "__init__.py").is_file():
        print(f"refbound sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rb, wl, setup_s = setup(args.workload, args.seed)

    if args.trace:
        base = run_phase(rb, wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            ph = run_phase(rb, wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(base, ph, tracer)
        tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}.bin")
        phases = [base, ph]
    else:
        ph = run_phase(rb, wl, args.seconds)
        metrics = end_to_end(args.workload, ph, setup_s)
        phases = [ph]

    ops = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    mismatches = sum(p.mismatches for p in phases)
    print(f"digest {args.workload} seed {args.seed}: {phases[0].digest.hexdigest()}")
    print(f"requests {sum(p.requests for p in phases)}, operations {ops}, failed {failed} "
          f"(failed_ratio {failed / ops:.6g}), reference mismatches {mismatches}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
