"""ddebranch benchmark: run one workload (or all) for a fixed time and print
its metrics.

    python3 perfbench/run.py --workload forced-branch --seed 0 --seconds 40 --trace 0

Each request runs in a fresh interpreter (perfbench/worker.py), one at a
time, with BLAS pinned to one thread; requests repeat until --seconds have
passed.  With --trace 0 the last stdout line carries the end-to-end metrics,
each the median over the run's requests of a time in reference seconds (see
REF_PROBE_S).  With --trace 1 untraced and traced requests alternate and it
carries the per-layer metrics.  Every request's output is checked; a failed
check is counted, never retried.  Without --workload all workloads run in
turn.  A record of each run, raw times included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A run must end within 180 s; stop starting requests this long before.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}

# Times are reported in reference seconds: measured seconds times
# REF_PROBE_S over the mean iteration time of worker.probe() around the
# timed region.  The shared host's speed drifts by up to 2x over seconds to
# minutes, and a raw time mostly measures how busy the host was; over ten
# runs the spread of raw run medians was 0.10-0.24, and of the scaled ones
# 0.07-0.10 (README.md, "Noise and bounds").  REF_PROBE_S is the probe's
# fastest iteration on an idle core of a 2-core Intel Xeon host with
# Python 3.11.7, so a reference second is about a second of that core.
REF_PROBE_S = 1.1e-3
_SCALED = {"wall_s": "probe_s", "cpu_s": "probe_s", "setup_s": "setup_probe_s"}

_PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({name: "1" for name in _PINNED_THREADS})
    return env


def _request(workload, params, expect, trace, timeout) -> dict:
    job = {
        "workload": workload, "params": params, "expect": expect, "trace": trace,
        "workdir": str(OUT / workload), "src": str(ROOT / "src"),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": f"request timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "why": f"worker exited with code {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def run(workload: str, params: dict, expect: dict, seconds: float, trace: bool) -> dict:
    """Closed loop of requests for `seconds`; returns the run record."""
    start = time.perf_counter()
    requests = []
    while True:
        traced = trace and len(requests) % 2 == 1
        elapsed = time.perf_counter() - start
        rec = _request(workload, params, expect, traced, max(RUN_LIMIT_S - elapsed, 1.0))
        rec["traced"] = traced
        requests.append(rec)
        elapsed = time.perf_counter() - start
        mean = elapsed / len(requests)
        # Start another request only if it is expected to end nearer to
        # `seconds` than stopping now; a traced run needs one of each kind.
        if elapsed + mean / 2 >= seconds and (not trace or len(requests) >= 2):
            break
        if elapsed + mean > RUN_LIMIT_S:
            break
    return _summarize(workload, requests, trace)


def _scaled(requests, name):
    """Median over the requests of a time in reference seconds."""
    return median(r[name] * REF_PROBE_S / r[_SCALED[name]] for r in requests)


def _summarize(workload, requests, trace) -> dict:
    failed = sum(not r["ok"] for r in requests)
    timed = [r for r in requests if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    record = {
        "workload": workload,
        "attempted": len(requests),
        "failed": failed,
        "failures": [r["why"] for r in requests if not r["ok"]],
        "requests": requests,
        "env": next((r["env"] for r in timed), None),
    }
    correct = failed == 0
    if trace:
        if not plain or not traced:
            return dict(record, correct=False, metrics=None)
        layers, mismatched = spans.combine([r["layers"] for r in traced])
        layers["trace.overhead_s"] = _scaled(traced, "wall_s") - _scaled(plain, "wall_s")
        if mismatched:
            correct = False
            record["failures"].append(f"counts differ between traced requests: {mismatched}")
        units = spans.LAYER_METRICS
    else:
        if not plain:
            return dict(record, correct=False, metrics=None)
        layers = {name: _scaled(plain, name) for name in _SCALED}
        layers["peak_rss_mib"] = median(r["peak_rss_mib"] for r in plain)
        layers["success_rate"] = (len(requests) - failed) / len(requests)
        units = END_TO_END
    record["correct"] = correct
    record["metrics"] = {name: {"value": layers[name], "unit": units[name]} for name in units}
    return record


def _spread(values):
    if len(values) < 4:
        return ""
    q1, _, q3 = quantiles(values, n=4)
    return f", quartiles {q1:.4g}..{q3:.4g}, max {max(values):.4g}"


def _report(record, seed, trace):
    env = record["env"] or {}
    print(f"== {record['workload']}  seed={seed}  trace={int(trace)}  "
          f"python={env.get('python')} numpy={env.get('numpy')} scipy={env.get('scipy')} "
          f"nproc={env.get('nproc')} blas_threads={env.get('blas_threads')}")
    n = record["attempted"]
    print(f"requests={n} failed={record['failed']} error_rate={record['failed'] / n:.4g}")
    for why in record["failures"]:
        print(f"  check failed: {why}")
    if record["metrics"] is None:
        return
    sample = [r for r in record["requests"] if "wall_s" in r and r["traced"] == trace]
    speed = [REF_PROBE_S / r["probe_s"] for r in sample]
    print(f"host speed (probe reference / probe now): median {median(speed):.3g}{_spread(speed)}")
    for name, m in record["metrics"].items():
        extra = ""
        if name in _SCALED:
            raw = [r[name] for r in sample]
            extra = (f"  (median of {len(raw)}; raw seconds: median {median(raw):.4g}, "
                     f"min {min(raw):.4g}{_spread(raw)})")
        elif name == "peak_rss_mib":
            extra = f"  (median of {len(sample)})"
        print(f"{name}: {m['value']:.6g} {m['unit']}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ddebranch" / "__init__.py").is_file():
        print(f"error: no ddebranch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        params, expect = workloads.make_inputs(name, args.seed)
        record = run(name, params, expect, args.seconds, bool(args.trace))
        record.update(seed=args.seed, params=params, expect=expect)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        _report(record, args.seed, bool(args.trace))
        records.append(record)
    if any(r["metrics"] is None for r in records):
        print("error: no request produced timings", file=sys.stderr)
        return 1

    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if len(records) == 1:
        summary["metrics"] = records[0]["metrics"]
    else:
        summary["metrics"] = {r["workload"]: r["metrics"] for r in records}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
