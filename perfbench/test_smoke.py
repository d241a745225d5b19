"""Smoke test of the benchmark itself, at minimal size (one round of distinct passes).

    python3 perfbench/test_smoke.py        or        python3 -m pytest perfbench

Checks that every workload prints every metric BENCHMARK.json declares,
with its unit, and that a deliberately wrong reference answer shows up
as failed operations instead of passing silently.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads
from tracer import Tracer

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int = 0, seconds: float = 0.01) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "0", "--seconds", str(seconds),
                         "--trace", str(trace)]) == 0
    lines = out.getvalue().splitlines()
    assert any(line.startswith(f"digest {workload} ") for line in lines)
    return json.loads(lines[-1])


def assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_every_workload_prints_every_end_to_end_metric():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        result = bench(name)
        assert_metrics(result, DECLARED["end_to_end"])
        assert result["correct"] is True
        if name != "suites":  # suites count the program's own lemma violations
            assert result["failed"] == 0


def test_traced_run_prints_every_per_layer_metric():
    result = bench("hostile", trace=1)
    assert_metrics(result, DECLARED["per_layer"])
    layers = result["metrics"]
    assert layers["cocycle.order_by_cocycle.calls"]["value"] > 0
    assert layers["trace.overhead_ratio"]["value"] > 0


def test_counts_do_not_depend_on_run_length():
    short, longer = bench("hostile"), bench("hostile", seconds=4)
    assert (short["attempted"], short["failed"]) == (longer["attempted"], longer["failed"])


def test_tracer_sees_the_captured_sort_key():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    rb = run.import_library()
    import refbound.irreducibility as irr
    S = rb.parse_system(";2")
    points = [rb.parse_point(S, text) for text in ("2|1", "1|2", "21|2")]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call(sorted, (points,), {"key": irr._KEY})
    finally:
        tracer.uninstall()
    assert tracer.totals()[0]["order.order_compare"] >= 2


def test_wrong_reference_raises_failures():
    original = workloads.plateau_reference
    workloads.plateau_reference = lambda: "yes"
    try:
        result = bench("hostile")
    finally:
        workloads.plateau_reference = original
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1


if __name__ == "__main__":
    for test in (test_every_workload_prints_every_end_to_end_metric,
                 test_traced_run_prints_every_per_layer_metric,
                 test_counts_do_not_depend_on_run_length,
                 test_tracer_sees_the_captured_sort_key,
                 test_wrong_reference_raises_failures):
        test()
        print(f"ok {test.__name__}")
