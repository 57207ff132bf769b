"""Command-line front end: configs, artifacts, exit codes."""

import json

import pytest

from ddebranch.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from ddebranch.config import load_problem


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, extra=()):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    return main([command, "--config", cfg, "--out", str(out), "--quiet", *extra]), out


CUBIC_PROBLEM = {
    "dims": {"k": 0, "s": 1},
    "T": 6.283185307179586,
    "r": 1.0,
    "a": "-1 + 0.5*sin(t)",
    "g": "y1 - y1^3",
}


class TestIntegrate:
    def test_sunflower_trajectory_csv(self, tmp_path):
        code, out = run(tmp_path, "integrate", {
            "problem": {"preset": "sunflower"},
            "numerics": {"m": 16, "steps_per_delay": 16},
            "integrate": {"lambda": 0.1, "t_end": 6.283185307179586, "resolution": 50},
        })
        assert code == EXIT_OK
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x1,y1"
        assert len(lines) == 52

    def test_invalid_expression_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "integrate", {
            "problem": dict(CUBIC_PROBLEM, g="y1 +"),
            "integrate": {"t_end": 1.0},
        })
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert "offset" in err["error"]["message"] or "offset" in err["error"]

    def test_blowup_exits_3(self, tmp_path, capsys):
        code, _ = run(tmp_path, "integrate", {
            "problem": dict(CUBIC_PROBLEM, g="y1^2", a="1"),
            "integrate": {"t_end": 40.0, "init": 1.0},
        })
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BlowupError"


class TestDegree:
    def test_scalar_sine_interval(self, tmp_path):
        code, out = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": ["sin(p)"], "vars": ["p"],
                "box": {"lower": [-1.0], "upper": [1.0]},
            },
        })
        assert code == EXIT_OK
        payload = json.loads((out / "degree.json").read_text())
        assert payload["degree"] == 1
        assert payload["config"]["degree"]["exprs"] == ["sin(p)"]

    def test_planar_averaged_field(self, tmp_path):
        code, out = run(tmp_path, "degree", {
            "degree": {
                "field": "expr",
                "exprs": ["q/sqrt(3)", "p - q"],
                "vars": ["p", "q"],
                "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            },
        })
        assert code == EXIT_OK
        payload = json.loads((out / "degree.json").read_text())
        assert payload["degree"] == -1

    def test_nu_field_from_problem(self, tmp_path):
        code, out = run(tmp_path, "degree", {
            "problem": CUBIC_PROBLEM,
            "degree": {"field": "nu", "box": {"lower": [-2.0], "upper": [2.0]}, "negate": True},
        })
        assert code == EXIT_OK
        payload = json.loads((out / "degree.json").read_text())
        assert payload["degree"] == 1

    @pytest.mark.parametrize("exprs, vars_, lower, upper, method, degree", [
        # Negation keeps the degree of a planar field and flips it in 3-d.
        (["q/sqrt(3)", "p - q"], ["p", "q"], [-1.0, -1.0], [1.0, 1.0], "auto", -1),
        (["p", "q", "r - 0.25"], ["p", "q", "r"], [-1.0] * 3, [1.0] * 3, "auto", -1),
        # A constant component is broadcast over the batch of points.
        (["p - q", "1"], ["p", "q"], [-1.0, -1.0], [1.0, 1.0], "auto", 0),
        (["0.5", "p - q"], ["p", "q"], [-1.0, -1.0], [1.0, 1.0], "jacobian-nd", 0),
    ])
    def test_negated_and_constant_components(self, tmp_path, exprs, vars_, lower, upper,
                                             method, degree):
        code, out = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": exprs, "vars": vars_, "negate": True,
                "box": {"lower": lower, "upper": upper}, "method": method,
            },
        })
        assert code == EXIT_OK
        assert json.loads((out / "degree.json").read_text())["degree"] == degree

    def test_boundary_zero_exits_3(self, tmp_path, capsys):
        code, _ = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": ["p - 1"], "vars": ["p"],
                "box": {"lower": [-1.0], "upper": [1.0]},
            },
        })
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "AdmissibilityError"

    def test_evaluation_error_exits_2_without_traceback(self, tmp_path, capsys):
        # x^0.5 is undefined on the negative half of the interval.
        code, _ = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": ["x^0.5 - 0.5"], "vars": ["x"],
                "box": {"lower": [-1.0], "upper": [1.0]},
            },
        })
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        err = json.loads(captured.err)
        assert err["error"]["type"] == "ExprEvalError"
        assert "(x ^ 0.5)" in err["error"]["message"]

    def test_determinism(self, tmp_path):
        payload = {
            "degree": {
                "field": "expr", "exprs": ["sin(p)"], "vars": ["p"],
                "box": {"lower": [-1.0], "upper": [1.0]},
            },
        }
        _, out1 = run(tmp_path, "degree", payload)
        first = (out1 / "degree.json").read_bytes()
        _, out2 = run(tmp_path, "degree", payload)
        assert (out2 / "degree.json").read_bytes() == first

    def test_nu_field_uses_numerics_n_quad(self, tmp_path, capsys):
        code, _ = run(tmp_path, "degree", {
            "problem": CUBIC_PROBLEM,
            "numerics": {"n_quad": 7},
            "degree": {"field": "nu", "box": {"lower": [-2.0], "upper": [2.0]}},
        })
        assert code == EXIT_CONFIG
        assert "n_quad must be even and >= 8, got 7" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_seed_grid_sets_the_method_resolution(self, tmp_path, capsys):
        code, _ = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": ["q/sqrt(3)", "p - q"], "vars": ["p", "q"],
                "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, "method": "jacobian-nd",
            },
        }, extra=("--seed-grid", "4"))
        assert code == EXIT_NUMERICAL
        assert "grid_per_axis must be >= 8, got 4" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_seed_grid_floor_for_sign_1d(self, tmp_path, capsys):
        # One scan cell would skip the zero scan and report no zeros of p - p^3.
        code, _ = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": ["p - p^3"], "vars": ["p"],
                "box": {"lower": [-2.0], "upper": [2.0]},
            },
        }, extra=("--seed-grid", "1"))
        assert code == EXIT_NUMERICAL
        assert "n_check must be >= 8, got 1" in json.loads(capsys.readouterr().err)["error"]["message"]

    @pytest.mark.parametrize("method, exprs, vars_, lower, upper, needs, got", [
        ("sign-1d", ["p - 0.3", "q + 0.2"], ["p", "q"], [-1.0, -1.0], [1.0, 1.0], 1, 2),
        ("winding-2d", ["p - 0.3"], ["p"], [-1.0], [1.0], 2, 1),
    ])
    def test_method_box_dimension_mismatch_exits_2(
        self, tmp_path, capsys, method, exprs, vars_, lower, upper, needs, got
    ):
        code, _ = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": exprs, "vars": vars_,
                "box": {"lower": lower, "upper": upper}, "method": method,
            },
        })
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert f"'{method}' needs box dimension {needs}, got {got}" in err["message"]


class TestSigma:
    def test_sunflower_preset(self, tmp_path):
        code, out = run(tmp_path, "sigma", {"problem": {"preset": "sunflower"}})
        assert code == EXIT_OK
        payload = json.loads((out / "sigma.json").read_text())
        assert payload["sign"] == 1
        assert abs(payload["avg_sigma"] - 1.0) < 1e-8
        lines = (out / "sigma.csv").read_text().strip().splitlines()
        assert lines[0] == "t,sigma"

    def test_explicit_constant_coefficient(self, tmp_path):
        code, out = run(tmp_path, "sigma", {
            "problem": dict(CUBIC_PROBLEM, a="-2", g="y1"),
        })
        assert code == EXIT_OK
        payload = json.loads((out / "sigma.json").read_text())
        assert abs(payload["c0"] - 0.5) < 1e-8
        assert abs(payload["avg_sigma"] - 2.0) < 1e-8


class TestVerifyIndex:
    def test_cubic_identity(self, tmp_path):
        code, out = run(tmp_path, "verify-index", {
            "problem": CUBIC_PROBLEM,
            "numerics": {"m": 16, "steps_per_delay": 16, "fd_step": 1e-7},
            "verify_index": {"lambda": 1e-3, "box": {"lower": [-2.0], "upper": [2.0]}},
        })
        assert code == EXIT_OK
        payload = json.loads((out / "index_identity.json").read_text())
        assert payload["pass"] is True
        assert payload["lhs_sum"] == payload["rhs"] == -1
        assert payload["config"]["verify_index"]["lambda"] == 1e-3

    def test_seed_grid_not_accepted(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "verify-index", {
                "problem": CUBIC_PROBLEM,
                "verify_index": {"lambda": 1e-3, "box": {"lower": [-2.0], "upper": [2.0]}},
            }, extra=("--seed-grid", "4"))
        assert exc.value.code == 2


class TestBranch:
    def test_sunflower_short_branch(self, tmp_path):
        code, out = run(tmp_path, "branch", {
            "problem": {"preset": "sunflower"},
            "numerics": {"m": 16, "steps_per_delay": 16},
            "branch": {
                "origin": [0.0, 0.0], "lambda_max": 0.1,
                "h0": 0.05, "h_max": 0.05,
            },
        })
        assert code == EXIT_OK
        payload = json.loads((out / "branch.json").read_text())
        assert payload["termination"] == "reached_lambda_max"
        assert payload["n_points"] == 3
        lines = (out / "branch.csv").read_text().strip().splitlines()
        assert lines[0].startswith("lambda,residual,sup_norm,min_dist_to_trivial,u0")


    def test_component_key_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "branch", {
            "problem": CUBIC_PROBLEM,
            "branch": {"origin": [0.0], "lambda_max": 0.1, "component": 0},
        })
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "unknown key(s) ['component']" in err["error"]["message"]


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        code, _ = run(tmp_path, "sigma", {
            "problem": {"preset": "sunflower"}, "bogus": {},
        })
        assert code == EXIT_CONFIG

    def test_unknown_preset(self, tmp_path, capsys):
        code, _ = run(tmp_path, "sigma", {"problem": {"preset": "daisy"}})
        assert code == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sigma", "--config", str(tmp_path / "missing.json"), "--quiet"])
        assert code == EXIT_CONFIG

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["sigma", "--config", str(path), "--quiet"])
        assert code == EXIT_CONFIG

    def test_wrong_variable_for_slot(self, tmp_path, capsys):
        # g may not reference t.
        code, _ = run(tmp_path, "integrate", {
            "problem": dict(CUBIC_PROBLEM, g="y1*sin(t)"),
            "integrate": {"t_end": 1.0},
        })
        assert code == EXIT_CONFIG

    def test_classic_sunflower_preset(self, tmp_path):
        code, out = run(tmp_path, "sigma", {
            "problem": {"preset": "classic-sunflower", "alpha": 6.0, "beta": -1.0, "r": 1.0},
        })
        assert code == EXIT_OK
        payload = json.loads((out / "sigma.json").read_text())
        # a = -alpha/r = -6, so <sigma> = 6.
        assert abs(payload["avg_sigma"] - 6.0) < 1e-6

    def test_positive_beta_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "sigma", {
            "problem": {"preset": "classic-sunflower", "alpha": 6.0, "beta": 1.0, "r": 1.0},
        })
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("problem", [CUBIC_PROBLEM, {"preset": "sunflower"}])
    def test_load_problem_reads_n_quad(self, problem):
        loaded = load_problem({"problem": problem, "numerics": {"n_quad": 64}})
        assert loaded.coupled.n_quad == 64
