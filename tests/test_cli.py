"""Command-line front end: configs, artifacts, exit codes."""

import json
import math

import numpy as np
import pytest

from ddebranch import presets
from ddebranch.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from ddebranch.config import _load_periodic_expr, continuation_config, load_problem
from ddebranch.continuation import ContinuationConfig
from ddebranch.errors import ExprEvalError
from ddebranch.expr import Call, Var, compile_function, parse
from ddebranch.integrator import integrate
from ddebranch.poincare import TranslationConfig
from ddebranch.problem import History

from conftest import FOLD_PROBLEM, TWO_PI, history_at


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

CUBIC_BRANCH = {"origin": [0.0], "lambda_max": 0.1}

BOX_2D = {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]}
BOX_3D = {"lower": [-2.0] * 3, "upper": [2.0] * 3}

#: One valid block per command on CUBIC_PROBLEM; a test overrides some.
CUBIC_RUNS = {
    "problem": CUBIC_PROBLEM,
    "integrate": {"t_end": 1.0},
    "degree": {"field": "nu", "box": {"lower": [-2.0], "upper": [2.0]}},
    "verify_index": {"lambda": 1e-3, "box": {"lower": [-2.0], "upper": [2.0]}},
    "branch": CUBIC_BRANCH,
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

    @pytest.mark.parametrize("exprs, vars_, lower, upper, degree", [
        # Negation keeps the degree of a planar field and flips it in 3-d.
        (["q/sqrt(3)", "p - q"], ["p", "q"], [-1.0, -1.0], [1.0, 1.0], -1),
        (["p", "q", "r - 0.25"], ["p", "q", "r"], [-1.0] * 3, [1.0] * 3, -1),
        # A constant component is broadcast over the batch of points.
        (["p - q", "1"], ["p", "q"], [-1.0, -1.0], [1.0, 1.0], 0),
        (["0.5", "p - q"], ["p", "q"], [-1.0, -1.0], [1.0, 1.0], 0),
    ])
    def test_negated_and_constant_components(self, tmp_path, exprs, vars_, lower, upper, degree):
        code, out = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": exprs, "vars": vars_, "negate": True,
                "box": {"lower": lower, "upper": upper},
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

    def test_non_ascii_digit_exits_2_without_traceback(self, tmp_path, capsys):
        code, _ = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": ["p - 2\u00b2"], "vars": ["p"],
                "box": {"lower": [-5.0], "upper": [5.0]},
            },
        })
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        err = json.loads(captured.err)["error"]
        assert err["type"] == "ConfigError"
        assert "unexpected character '\u00b2' (at offset 5)" in err["message"]

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

    def test_seed_grid_sets_the_cells(self, tmp_path):
        # --seed-grid is degree_auto's cells: the same degree and zero at the
        # floor and at twice the default, the zero search's grid the finer.
        config = {
            "degree": {
                "field": "expr", "exprs": ["q/sqrt(3)", "p - q"], "vars": ["p", "q"],
                "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            },
        }
        for cells in ("4", "32"):
            (tmp_path / cells).mkdir()
            code, out = run(tmp_path / cells, "degree", config, extra=("--seed-grid", cells))
            assert code == EXIT_OK
            payload = json.loads((out / "degree.json").read_text())
            assert payload["degree"] == -1
            (zero,) = payload["zeros"]
            assert max(abs(v) for v in zero["point"]) < 1e-9

    @pytest.mark.parametrize("value", ["3", "0", "-16"])
    def test_seed_grid_below_the_floor_is_a_config_error(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "degree", {
                "degree": {
                    "field": "expr", "exprs": ["p - p^3"], "vars": ["p"],
                    "box": {"lower": [-2.0], "upper": [2.0]},
                },
            }, extra=("--seed-grid", value))
        assert exc.value.code == EXIT_CONFIG
        assert f"argument --seed-grid: must be >= 4, got {value}" in capsys.readouterr().err

    def test_seed_grid_must_be_an_integer(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "degree", {
                "degree": {"field": "expr", "exprs": ["p"], "vars": ["p"],
                           "box": {"lower": [-1.0], "upper": [1.0]}},
            }, extra=("--seed-grid", "abc"))
        assert exc.value.code == 2
        assert "argument --seed-grid: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["sign-1d", "winding-2d", "jacobian-nd", "auto"])
    def test_method_key_is_unknown(self, tmp_path, capsys, method):
        # One method runs in every dimension, so a degree block takes no method.
        code, _ = run(tmp_path, "degree", {
            "degree": {
                "field": "expr", "exprs": ["p - 0.3", "q + 0.2"], "vars": ["p", "q"],
                "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, "method": method,
            },
        })
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert "degree: unknown key(s) ['method']" in err["message"]


class TestSigma:
    def test_sunflower_preset(self, tmp_path):
        code, out = run(tmp_path, "sigma", {"problem": {"preset": "sunflower"}})
        assert code == EXIT_OK
        payload = json.loads((out / "sigma.json").read_text())
        assert payload["sign"] == 1
        assert abs(payload["avg_sigma"] - 1.0) < 1e-8
        assert 0.0 <= payload["residual"] <= 1e-6
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

    def _seed_grid_rejected(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "verify-index", {
                "problem": CUBIC_PROBLEM,
                "verify_index": {"lambda": 1e-3, "box": {"lower": [-2.0], "upper": [2.0]}},
            }, extra=("--seed-grid", value))
        assert exc.value.code == 2
        assert "--seed-grid is accepted only by degree, not verify-index" in capsys.readouterr().err

    def test_seed_grid_not_accepted(self, tmp_path, capsys):
        self._seed_grid_rejected(tmp_path, capsys, "4")

    def test_seed_grid_not_accepted_whatever_its_value(self, tmp_path, capsys):
        # The command is checked before the value is parsed.
        self._seed_grid_rejected(tmp_path, capsys, "abc")


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

    def test_fold_exits_0_ending_in_newton_failure(self, tmp_path, capsys):
        # Trials past the fold overflow y1^3 in the DSL: undefined points
        # of the translation operator, not a config error.
        code, out = run(tmp_path, "branch", {
            "problem": FOLD_PROBLEM,
            "numerics": {"m": 8, "steps_per_delay": 8},
            "branch": {"origin": [0.0], "lambda_max": 1.0, "h0": 0.1, "h_max": 0.1, "h_min": 0.05},
        })
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        payload = json.loads((out / "branch.json").read_text())
        assert payload["termination"] == "newton_failure"
        np.testing.assert_allclose([p["lambda"] for p in payload["points"]],
                                   [0.0, 0.1, 0.2, 0.3, 0.35], rtol=1e-14)

    def test_component_key_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "branch", {
            "problem": CUBIC_PROBLEM,
            "branch": {"origin": [0.0], "lambda_max": 0.1, "component": 0},
        })
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "unknown key(s) ['component']" in err["error"]["message"]


#: y' = a(t) < 0 carries y1 from 0.5 through 0 within one period, where
#: the log in f fails.
LOG_PROBLEM = dict(CUBIC_PROBLEM, dims={"k": 1, "s": 1}, f="x1 + log(y1)", g="1")
SQRT_PROBLEM = dict(CUBIC_PROBLEM, dims={"k": 1, "s": 1}, a="1", f="sqrt(yd1)", g="-1")


class TestExpressionErrorInASweep:
    def test_library_error_names_the_node(self):
        problem = load_problem({"problem": LOG_PROBLEM}).coupled
        init = History.constant([0.0, 0.5], problem.delay, m=8)
        with pytest.raises(ExprEvalError) as exc:
            integrate(problem, 0.5, 1.0, init, 6.283185307179586, steps_per_delay=8)
        assert exc.value.node == Call("log", Var("y1"))
        assert str(exc.value).startswith("log of nonpositive value -")
        assert str(exc.value).endswith(" in 'log(y1)'")

    def test_cli_exits_2_with_the_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "integrate", {
            "problem": LOG_PROBLEM,
            "integrate": {"lambda": 0.5, "t_end": 6.283185307179586, "init": [0.0, 0.5]},
        })
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ExprEvalError"
        assert err["message"].endswith(" in 'log(y1)'")

    def test_state_free_error_names_its_node(self):
        # f = sqrt(yd1) reads only the delayed state, so a sweep evaluates
        # it on a whole delay interval at once.  The history's yd1 falls
        # through 0 at -r/2, so the first stage that reads a negative value
        # is the midpoint of step 4 (tau = -0.4375): the error names the
        # user's own node with the value read there, as when each stage
        # evaluated f on its own.
        problem = load_problem({"problem": SQRT_PROBLEM}).coupled
        grid = np.linspace(-1.0, 0.0, 9)
        init = History(1.0, np.column_stack([np.zeros(9), -(grid + 0.5)]))
        with pytest.raises(ExprEvalError) as exc:
            integrate(problem, 0.5, 1.0, init, TWO_PI, steps_per_delay=8)
        node = problem.f.exprs[0].root
        assert node == Call("sqrt", Var("yd1")) and exc.value.node is node
        first_bad = float(history_at(init, -0.4375)[1])
        assert first_bad < 0.0 and float(history_at(init, -0.5)[1]) == 0.0
        assert str(exc.value) == f"sqrt of negative value {first_bad!r} in 'sqrt(yd1)'"

    def test_cli_exits_2_with_a_state_free_error(self, tmp_path, capsys):
        # From the constant history y1 = 0.5, y1 = 0.5 - t, so yd1 turns
        # negative at t = 1.5, in the second delay interval.
        code, _ = run(tmp_path, "integrate", {
            "problem": SQRT_PROBLEM,
            "integrate": {"lambda": 0.5, "t_end": TWO_PI, "init": [0.0, 0.5]},
        })
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ExprEvalError"
        assert err["message"].startswith("sqrt of negative value -")
        assert err["message"].endswith(" in 'sqrt(yd1)'")


class TestPeriodicCoefficient:
    """problem.a runs its generated function under np.errstate at any t,
    and returns a float at a scalar t and an array at an array t, with the
    same bits either way."""

    def test_values_keep_their_bits(self):
        source = "-1 + 0.5*sin(t) + exp(cos(2*t))/3"
        a = _load_periodic_expr(source, TWO_PI, "problem.a")
        reference = compile_function(parse(source, {"t"}), ["t"])
        for t in (0.0, 0.3, 2.5, 7.0):
            got = a(t)
            assert type(got) is float and got == reference(t)
            assert a(np.float64(t)) == reference(np.float64(t))
        ts = np.linspace(-1.0, 8.0, 37)
        assert a(ts).tobytes() == reference(ts).tobytes()
        assert a(ts[:, None]).tobytes() == reference(ts[:, None]).tobytes()

    def test_float_reads_match_the_array_read(self):
        # The integrator reads a on the array of stage times; a read at one
        # float time must give the same bits, exp included.
        a = _load_periodic_expr("-1 + 0.3*exp(cos(t))", TWO_PI, "problem.a")
        ts = np.linspace(0.0, TWO_PI, 1001)
        assert np.array([a(t) for t in ts.tolist()]).tobytes() == a(ts).tobytes()

    def test_numpy_overflow_stays_silent(self):
        # Under the suite's warnings-as-errors setting, an overflow warning
        # from NumPy arithmetic would raise.
        a = _load_periodic_expr("t*1e300*1e300 - 1", TWO_PI, "problem.a")
        assert a(1.0) == math.inf
        assert a(np.float64(1.0)) == math.inf
        assert a(np.array([0.0, 1.0])).tolist() == [-1.0, math.inf]


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

    @pytest.mark.parametrize("key, constant", [
        ("newton_tol", "NaN"), ("fd_step", "Infinity"), ("newton_tol", "-Infinity"),
    ])
    def test_non_json_constant_exits_2_before_running(self, tmp_path, capsys, key, constant):
        # json.dumps writes float("nan") as NaN, and so on: not JSON numbers.
        value = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}[constant]
        code, out = run(tmp_path, "branch", {**CUBIC_RUNS, "numerics": {key: value}})
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert constant in err["message"]
        assert not (out / "branch.json").exists()

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

    def test_classic_sunflower_reports_lambda(self, tmp_path):
        # lam = -beta/r is the preset's parameter value; plain sunflower has none.
        code, out = run(tmp_path, "sigma", {
            "problem": {"preset": "classic-sunflower", "alpha": 6.0, "beta": -1.0, "r": 2.0},
        })
        assert code == EXIT_OK
        assert json.loads((out / "sigma.json").read_text())["lambda"] == 0.5
        code, out = run(tmp_path, "sigma", {
            "problem": {"preset": "classic-sunflower", "alpha": 6.0, "beta": 0.0, "r": 2.0},
        })
        assert code == EXIT_OK
        assert '"lambda": 0.0,' in (out / "sigma.json").read_text()
        code, out = run(tmp_path, "sigma", {"problem": {"preset": "sunflower"}})
        assert code == EXIT_OK
        assert "lambda" not in json.loads((out / "sigma.json").read_text())

    def test_positive_beta_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "sigma", {
            "problem": {"preset": "classic-sunflower", "alpha": 6.0, "beta": 1.0, "r": 1.0},
        })
        assert code == EXIT_CONFIG

    def test_package_defect_is_not_a_config_error(self, tmp_path, monkeypatch):
        # Only the package's own errors become config errors; a bug such as
        # a TypeError in a preset's set-up must surface as itself.
        def broken(*args):
            raise TypeError("defect in the preset set-up")

        monkeypatch.setattr(presets, "sunflower_setup", broken)
        with pytest.raises(TypeError, match="defect in the preset set-up"):
            run(tmp_path, "sigma", {"problem": {"preset": "sunflower"}})

    @pytest.mark.parametrize("problem", [CUBIC_PROBLEM, {"preset": "sunflower"}])
    def test_load_problem_reads_n_quad(self, problem):
        loaded = load_problem({"problem": problem, "numerics": {"n_quad": 64}})
        assert loaded.coupled.n_quad == 64

    @pytest.mark.parametrize("command, override, key", [
        ("integrate", {"numerics": {"m": 8.9}}, "numerics.m"),
        ("integrate", {"numerics": {"steps_per_delay": 16.5}}, "numerics.steps_per_delay"),
        ("integrate", {"numerics": {"n_quad": 64.5}}, "numerics.n_quad"),
        ("integrate", {"integrate": {"t_end": 1.0, "resolution": 50.5}}, "integrate.resolution"),
        ("integrate", {"integrate": {"t_end": 1.0, "init": ["a"]}}, "integrate.init"),
        ("integrate", {"problem": dict(CUBIC_PROBLEM, dims={"k": 0.5, "s": 1})}, "problem.dims.k"),
        ("integrate", {"problem": dict(CUBIC_PROBLEM, dims={"k": 0, "s": 1.5})}, "problem.dims.s"),
        ("branch", {"branch": dict(CUBIC_BRANCH, max_points=2.7)}, "branch.max_points"),
        ("branch", {"branch": dict(CUBIC_BRANCH, origin=["a"])}, "branch.origin"),
        ("degree", {"degree": dict(CUBIC_RUNS["degree"], negate="no")}, "degree.negate"),
    ])
    def test_wrong_typed_value_exits_2_naming_the_key(self, tmp_path, capsys, command,
                                                       override, key):
        code, _ = run(tmp_path, command, {**CUBIC_RUNS, **override})
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert err["message"].startswith(f"{key}: expected")

    @pytest.mark.parametrize("command, override, message", [
        ("integrate", {"numerics": {"m": 4}}, "numerics: m must be >= 8, got 4"),
        ("verify-index", {"numerics": {"steps_per_delay": 4}},
         "numerics: steps_per_delay must be >= 8, got 4"),
        ("branch", {"numerics": {"fd_step": -1e-6}}, "numerics: fd_step must be positive"),
        ("branch", {"branch": dict(CUBIC_BRANCH, h0=0.5, h_max=0.25)},
         "branch: need 0 < h_min <= h0 <= h_max"),
        ("branch", {"branch": dict(CUBIC_BRANCH, max_points=0)},
         "branch: max_points must be >= 1, got 0"),
        ("branch", {"branch": dict(CUBIC_BRANCH, origin=[0.0, 0.0])},
         "branch.origin: dimension 2 does not match problem dimension 1"),
        ("branch", {"branch": dict(CUBIC_BRANCH, domain=BOX_2D)},
         "branch.domain: dimension 2 does not match problem dimension 1"),
        ("branch", {"branch": dict(CUBIC_BRANCH, lambda_max=0, domain=BOX_3D)},
         "branch.domain: dimension 3 does not match problem dimension 1"),
        ("branch", {"branch": dict(CUBIC_BRANCH, lambda_max=-1)},
         "branch.lambda_max: must be >= 0, got -1"),
        ("integrate", {"integrate": {"t_end": 1.0, "lambda": -0.5}},
         "integrate.lambda: must be >= 0, got -0.5"),
        ("integrate", {"integrate": {"t_end": 1.0, "mu": 1.5}},
         "integrate.mu: must be in [0, 1], got 1.5"),
        ("integrate", {"integrate": {"t_end": 1.0, "mu": -1}},
         "integrate.mu: must be in [0, 1], got -1"),
        ("verify-index", {"verify_index": dict(CUBIC_RUNS["verify_index"], box=BOX_2D)},
         "verify_index.box: dimension 2 does not match problem dimension 1"),
    ])
    def test_rejected_setting_exits_2_naming_the_block(self, tmp_path, capsys, command,
                                                       override, message):
        code, _ = run(tmp_path, command, {**CUBIC_RUNS, **override})
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert err["message"].startswith(message)

    @pytest.mark.parametrize("command, override, message", [
        ("integrate", {"problem": dict(CUBIC_PROBLEM, phi="sin(yd1)")},
         "problem.phi: not allowed without a preset"),
        ("integrate", {"problem": dict(CUBIC_PROBLEM, alpha=6.0)},
         "problem.alpha: not allowed without a preset"),
        ("integrate", {"problem": dict(CUBIC_PROBLEM, beta=-1.0)},
         "problem.beta: not allowed without a preset"),
        ("degree", {"degree": dict(CUBIC_RUNS["degree"], exprs=["bogus"])},
         "degree.exprs: not allowed with field 'nu'"),
        ("degree", {"degree": dict(CUBIC_RUNS["degree"], vars=7)},
         "degree.vars: not allowed with field 'nu'"),
    ])
    def test_key_the_run_would_ignore_exits_2_naming_it(self, tmp_path, capsys, command,
                                                         override, message):
        code, out = run(tmp_path, command, {**CUBIC_RUNS, **override})
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ConfigError", "message": message}
        assert not out.exists() or not any(out.iterdir())

    def test_branch_defaults_to_the_translation_settings(self):
        # A library ContinuationConfig defaults to m = 16; a CLI branch whose
        # numerics block sets no m runs at TranslationConfig's m.
        assert continuation_config({"branch": CUBIC_BRANCH}) == ContinuationConfig(
            m=TranslationConfig().m
        )
        assert continuation_config({"branch": dict(CUBIC_BRANCH, h0=0.1, max_points=9.0),
                                    "numerics": {"m": 12}}) == ContinuationConfig(
            m=12, h0=0.1, max_points=9
        )
