"""The benchmark's three workloads: inputs made from a seed, the timed call
into ddebranch, and the output check.

Every workload is a closed loop of requests, one at a time: a request is
the user's whole command (the CLI call, or set-up plus solve for the library
workload), and the next starts only after the previous one has ended.

* forced-branch          CLI `branch` on an explicit DSL problem whose branch
                         really moves (integrator, translate, Newton, DSL).
* sunflower-verify-index CLI `verify-index` on the sunflower preset: cold
                         Newton solves from a seed lattice plus the
                         degree(-nu) winding number (fields and degree).
* sunflower-homotopy     library call with Python callables at mu = 0.5,
                         the only path through make_wf's memo (no DSL).

The seed changes only the forcing or damping amplitude, so every seed does
about the same work.  Seed 0 is the amplitude 0.5 of the baseline problems.

Functions that touch ddebranch import it when called, so that the worker
can time the import as part of set-up.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

WORKLOADS = ("forced-branch", "sunflower-verify-index", "sunflower-homotopy")

# One discretization for all three workloads.  m and steps_per_delay are the
# smallest values ddebranch accepts (8); together with the quadrature sizes
# below they keep one request at 1.5-6 s on a 2-core machine, so that a
# 40 s run holds 5-15 requests and its medians are steady.
M = 8
STEPS_PER_DELAY = 8
VERIFY_N_QUAD = 64
HOMOTOPY_N_QUAD = 128
NEWTON_TOL = 1e-9
TWO_PI = 2.0 * math.pi

# sup_norm of the forced branch at lambda = 1 for seed 0 (amplitude 0.5),
# as computed by the commit that introduced this benchmark.
FORCED_SEED0_SUP_NORM = 0.3459730572147149


def amplitude(seed: int) -> float:
    """0.5 at seed 0, otherwise uniform in [0.4, 0.6] drawn from the seed."""
    if seed == 0:
        return 0.5
    return 0.4 + 0.2 * random.Random(seed).random()


def make_inputs(workload: str, seed: int):
    """Return (params, expect) for one workload and seed.

    params is everything ddebranch is given; expect is what the check
    requires of its output.
    """
    amp = amplitude(seed)
    numerics = {"m": M, "steps_per_delay": STEPS_PER_DELAY}
    if workload == "forced-branch":
        config = {
            "problem": {
                "dims": {"k": 1, "s": 1},
                "T": TWO_PI,
                "r": 1.0,
                "a": "-1 + 0.5*sin(t)",
                "f": [f"sin(yd1) + {amp!r}*cos(t)"],
                "g": ["x1 - y1"],
            },
            "numerics": numerics,
            "branch": {"origin": [0.0, 0.0], "lambda_max": 1.0, "h0": 0.05, "h_max": 0.1},
        }
        expect = {
            "termination": "reached_lambda_max",
            "n_points": 12,
            "residual_max": NEWTON_TOL,
            "translate_tol": 1e-8,
            "sup_norm_end": FORCED_SEED0_SUP_NORM if seed == 0 else None,
        }
        return {"command": "branch", "config": config}, expect
    if workload == "sunflower-verify-index":
        config = {
            "problem": {"preset": "sunflower", "a": f"-1 + {amp!r}*sin(t)"},
            "numerics": dict(numerics, n_quad=VERIFY_N_QUAD),
            "verify_index": {"lambda": 1e-3, "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}},
        }
        expect = {"lhs_sum": -1, "rhs": -1, "n_fixed_points": 1}
        return {"command": "verify-index", "config": config}, expect
    if workload == "sunflower-homotopy":
        params = {
            "b": amp, "T": TWO_PI, "r": 1.0, "n_quad": HOMOTOPY_N_QUAD,
            "lambda": 1e-3, "mu": 0.5, "m": M, "steps_per_delay": STEPS_PER_DELAY,
        }
        expect = {"n_records": 1, "index": -1, "window": 0.5, "residual_max": NEWTON_TOL}
        return params, expect
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def prepare(params: dict, workdir: Path):
    """Untimed preparation: write the CLI config file."""
    if "command" in params:
        path = workdir / "config.json"
        path.write_text(json.dumps(params["config"], indent=2))
        return path
    return None


@contextmanager
def _timed(module, names, log):
    """Time every call of module.<name> for each name; log gets (name, seconds, result)."""
    originals = {name: getattr(module, name) for name in names}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            log.append((name, perf_counter() - t0, out))
            return out

        return wrapper

    for name, fn in originals.items():
        setattr(module, name, timed(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def _sunflower(params: dict):
    from ddebranch import presets
    from ddebranch.problem import PeriodicFn1D

    b, T, r = params["b"], params["T"], params["r"]
    a = PeriodicFn1D(eval=lambda t: -1.0 + b * math.sin(t), period=T)
    setup = presets.sunflower_setup(a, lambda y, yd: math.sin(yd), T, r)
    return dataclasses.replace(setup.coupled, n_quad=params["n_quad"])


def solve(params: dict, config_path, workdir: Path):
    """The timed request: what a user runs.  Returns (output, problem, load_s).

    CLI workloads run the command end to end; it loads its own config, and
    that load (load_config + load_problem, with the sigma transform for the
    sunflower preset) is timed in place as load_s.  The library workload
    builds the sunflower problem (load_s) and calls find_fixed_points.
    """
    if "command" in params:
        from ddebranch import cli

        log = []
        with _timed(cli, ("load_config", "load_problem"), log):
            code = cli.main([params["command"], "--config", str(config_path),
                             "--out", str(workdir), "--quiet"])
        loaded = [out for name, _, out in log if name == "load_problem"]
        return code, loaded[-1].coupled if loaded else None, sum(s for _, s, _ in log)
    from ddebranch.poincare import TranslationConfig, find_fixed_points
    from ddebranch.problem import History

    t0 = perf_counter()
    problem = _sunflower(params)
    load_s = perf_counter() - t0
    m = params["m"]
    seeds = [History.constant([0.0, 0.0], problem.delay, m=m)]
    tcfg = TranslationConfig(m=m, steps_per_delay=params["steps_per_delay"])
    records = find_fixed_points(problem, params["lambda"], seeds, tcfg, mu=params["mu"])
    return records, problem, load_s


def check(workload: str, params: dict, expect: dict, problem, output, workdir: Path):
    """Return None when the output is correct, else a one-line reason."""
    if "command" in params and output != 0:
        return f"{params['command']} exited with code {output}"
    if workload == "forced-branch":
        return _check_branch(params, expect, problem, workdir)
    if workload == "sunflower-verify-index":
        report = json.loads((workdir / "index_identity.json").read_text())
        if not report["pass"]:
            return f"index identity failed: lhs={report['lhs_sum']} rhs={report['rhs']}"
        for key in ("lhs_sum", "rhs", "n_fixed_points"):
            if report[key] != expect[key]:
                return f"{key} = {report[key]}, expected {expect[key]}"
        return None
    return _check_homotopy(expect, output)


def _check_branch(params, expect, problem, workdir):
    import numpy as np
    from ddebranch.poincare import TranslationConfig, translate
    from ddebranch.problem import History

    report = json.loads((workdir / "branch.json").read_text())
    if report["termination"] != expect["termination"]:
        return f"termination {report['termination']}, expected {expect['termination']}"
    points = report["points"]
    if len(points) != expect["n_points"]:
        return f"{len(points)} branch points, expected {expect['n_points']}"
    worst = max(p["residual"] for p in points)
    if worst > expect["residual_max"]:
        return f"branch residual {worst:.3e} > {expect['residual_max']:.1e}"
    last = points[-1]
    u = np.array(last["history"], dtype=float)
    numerics = params["config"]["numerics"]
    tcfg = TranslationConfig(m=numerics["m"], steps_per_delay=numerics["steps_per_delay"])
    image = translate(problem, last["lambda"], 1.0, History.from_values(u, problem.delay), tcfg)
    defect = float(np.max(np.abs(image.values - u)))
    if defect > expect["translate_tol"]:
        return f"|Q(u) - u| = {defect:.3e} at the last point > {expect['translate_tol']:.1e}"
    want = expect["sup_norm_end"]
    if want is not None and abs(last["sup_norm"] - want) > 1e-8:
        return f"sup_norm at lambda={last['lambda']} is {last['sup_norm']!r}, expected {want!r}"
    return None


def _check_homotopy(expect, records):
    import numpy as np

    if len(records) != expect["n_records"]:
        return f"{len(records)} fixed point(s), expected {expect['n_records']}"
    rec = records[0]
    if rec.index != expect["index"]:
        return f"fixed-point index {rec.index}, expected {expect['index']}"
    if rec.residual > expect["residual_max"]:
        return f"residual {rec.residual:.3e} > {expect['residual_max']:.1e}"
    reach = float(np.max(np.abs(rec.history.values)))
    if reach > expect["window"]:
        return f"history leaves [-{expect['window']}, {expect['window']}]^2 (sup {reach:.3g})"
    return None
