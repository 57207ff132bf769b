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

