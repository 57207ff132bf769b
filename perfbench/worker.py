"""One benchmark request in a fresh interpreter.

Reads a job from stdin as JSON: {"workload", "params", "expect", "trace",
"workdir", "src"}.  Times the import of ddebranch, then one request: the
user's whole command (the CLI call, which loads its own config, or set-up
plus solve for the library workload), optionally under tracing.  A probe
loop is timed before the import, between the import and the request, and
after the request.  The output is checked outside the timed region, and one
JSON line is printed.  ddebranch is imported from the checkout's `src`
directory only.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

import spans
import workloads

# Each probe times _spin() for this long.
PROBE_S = 0.2


def _spin():
    total = 0
    for i in range(20000):
        total += i * i
    return total


def probe() -> float:
    """Mean time of one _spin() over PROBE_S seconds: how fast the host runs
    Python code at this moment."""
    count = 0
    start = perf_counter()
    while True:
        _spin()
        count += 1
        elapsed = perf_counter() - start
        if elapsed >= PROBE_S:
            return elapsed / count


def _import_ddebranch(src: Path):
    sys.path.insert(0, str(src))
    import ddebranch
    import ddebranch.cli  # noqa: F401  (pulls in every module)

    origin = Path(ddebranch.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"ddebranch imported from {origin}, not from {src}")


def run(job: dict) -> dict:
    workload, params, expect = job["workload"], job["params"], job["expect"]
    workdir = Path(job["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workloads.prepare(params, workdir)
    tracer = spans.Tracer() if job["trace"] else None

    probe_before = probe()
    t0 = perf_counter()
    _import_ddebranch(Path(job["src"]))
    import_s = perf_counter() - t0
    probe_between = probe()

    if tracer is not None:
        tracer.install()
    t1, c1 = perf_counter(), process_time()
    try:
        output, problem, load_s = workloads.solve(params, config_path, workdir)
    finally:
        t2, c2 = perf_counter(), process_time()
        if tracer is not None:
            tracer.uninstall()
    probe_after = probe()

    result = {
        "wall_s": t2 - t1,
        "cpu_s": c2 - c1,
        # What a user waits for before the solve starts: the import, then
        # the command's config load or the problem set-up.
        "setup_s": import_s + load_s,
        "probe_s": (probe_between + probe_after) / 2,
        "setup_probe_s": (probe_before + probe_between) / 2,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(workdir / "trace.json")
    why = workloads.check(workload, params, expect, problem, output, workdir)
    result["ok"] = why is None
    result["why"] = why
    result["env"] = _environment()
    return result


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    job = json.load(sys.stdin)
    print(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
