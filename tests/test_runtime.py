"""The runtime needs NumPy only: SciPy is a test oracle, never imported by
the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ddebranch
from ddebranch.cli import EXIT_OK

SRC = Path(ddebranch.__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

import numpy as np
from ddebranch import cli, presets
from ddebranch.poincare import TranslationConfig, translate
from ddebranch.problem import History

setup = presets.default_sunflower()
problem = setup.coupled
values = 0.1 * np.ones((9, 2))
image = translate(problem, 0.5, 1.0, History.from_values(values, problem.delay),
                  TranslationConfig(m=8, steps_per_delay=8))
assert np.all(np.isfinite(image.values))

config, out = sys.argv[1], sys.argv[2]
code = cli.main(["branch", "--config", config, "--out", out, "--quiet"])
loaded = sorted(k for k, v in sys.modules.items() if k.split(".")[0] == "scipy" and v is not None)
print(json.dumps({"code": code, "scipy": loaded}))
"""


def test_runs_without_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "problem": {
            "dims": {"k": 1, "s": 1}, "T": 6.283185307179586, "r": 1.0,
            "a": "-1 + 0.5*sin(t)", "f": ["sin(yd1) + 0.5*cos(t)"], "g": ["x1 - y1"],
        },
        "numerics": {"m": 8, "steps_per_delay": 8},
        "branch": {"origin": [0.0, 0.0], "lambda_max": 0.1, "h0": 0.05, "h_max": 0.05},
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"code": EXIT_OK, "scipy": []}
    assert json.loads((tmp_path / "out" / "branch.json").read_text())["n_points"] >= 2



_PROBE_SCRIPT = """
import sys

import numpy as np
from ddebranch import Box, CoupledProblem, PeriodicFn1D, degree_auto

problem = CoupledProblem(
    dim_x=1, dim_y=1, f=lambda t, x, y, xd, yd: np.sin(yd) + 0.5 * np.cos(t), g=lambda x, y: x - y,
    a=PeriodicFn1D(lambda t: -1.0 + 0.5 * np.sin(t), 2 * np.pi), period=2 * np.pi, delay=1.0,
)
assert degree_auto(lambda z: z[0] ** 2 - 0.25, Box([-1.0], [0.0])).degree == -1
print("numpy.random" in sys.modules)
"""


def test_probes_leave_numpy_random_unimported():
    # The probes of fields, coefficients and the degree's plain callables
    # draw their samples from one golden-ratio sequence (problem._golden).
    # A problem with NumPy Python fields imported numpy.random, about 5 MiB
    # and 10 ms, when _as_batch_field drew its states from a seeded
    # generator.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE_SCRIPT], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_RECORD_SCRIPT = """
import dataclasses, json, sys

import ddebranch.cli, ddebranch.presets

found = [obj for name, module in list(sys.modules.items()) if name.split(".")[0] == "ddebranch"
         for obj in vars(module).values()
         if isinstance(obj, type) and obj.__module__ == name and dataclasses.is_dataclass(obj)]
plain = sorted(cls.__qualname__ for cls in found if "__post_init__" not in vars(cls))
print(json.dumps({"dataclasses": len(found), "plain": plain}))
"""


def test_every_dataclass_validates_its_fields():
    # A record whose fields need no check is a NamedTuple: a frozen
    # dataclass generates and compiles six methods, about 1 ms of every
    # request's import, and a NamedTuple costs about 0.2 ms.  A class
    # stays a dataclass only when its __post_init__ validates or
    # normalizes its fields.  Run in a fresh interpreter, so that the
    # classes are those a request loads.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _RECORD_SCRIPT], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["dataclasses"] > 0 and report["plain"] == []
