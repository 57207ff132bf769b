"""Fast self-test of the benchmark harness (about a minute on 2 cores).

    python3 perfbench/selftest.py

Runs each workload once at reduced size, untraced and traced, and checks
that every metric named in BENCHMARK.json is emitted with its unit and that
the outputs pass their checks.  Then shows that a wrong expectation (degree
+1 for the sunflower index identity) fails every request, i.e. drives the
error rate to 1.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def _fail(message: str):
    print(f"FAIL: {message}")
    sys.exit(1)


def small_inputs(workload: str):
    """Seed-0 inputs shrunk so that one request takes about a second."""
    params, expect = workloads.make_inputs(workload, 0)
    if workload == "forced-branch":
        params["config"]["branch"]["lambda_max"] = 0.15
        expect.update(n_points=3, sup_norm_end=None)
    elif workload == "sunflower-verify-index":
        params["config"]["numerics"]["n_quad"] = 16
    else:
        params["n_quad"] = 16
    return params, expect


def _check_names(record, declared, label):
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        _fail(f"{label}: emitted {got}, BENCHMARK.json declares {want}")
    for name, m in record["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            _fail(f"{label}: {name} has non-numeric value {m['value']!r}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        _fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        params, expect = small_inputs(workload)
        plain = run.run(workload, params, expect, seconds=0, trace=False)
        if not plain["correct"] or plain["failed"]:
            _fail(f"{workload}: untraced request failed: {plain['failures']}")
        _check_names(plain, bench["end_to_end"], f"{workload} untraced")
        traced = run.run(workload, params, expect, seconds=0, trace=True)
        if not traced["correct"] or traced["failed"]:
            _fail(f"{workload}: traced run failed: {traced['failures']}")
        _check_names(traced, bench["per_layer"], f"{workload} traced")
        if traced["metrics"]["integrator.integrations"]["value"] < 1:
            _fail(f"{workload}: the traced run saw no integration")
        print(f"ok   {workload}: {len(plain['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics")

    params, expect = small_inputs("sunflower-verify-index")
    expect.update(lhs_sum=1, rhs=1)
    wrong = run.run("sunflower-verify-index", params, expect, seconds=0, trace=False)
    if wrong["failed"] != wrong["attempted"] or wrong["correct"]:
        _fail("a wrong expected degree did not fail the request")
    if wrong["metrics"]["success_rate"]["value"] != 0.0:
        _fail("success_rate is not 0 when every request fails")
    print(f"ok   wrong expectation: error_rate = {wrong['failed'] / wrong['attempted']:.0f} "
          f"({wrong['failures'][0]})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
