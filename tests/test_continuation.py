"""Branch continuation in (lambda, history) space."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from ddebranch import (
    Box,
    ContinuationConfig,
    CoupledProblem,
    History,
    TranslationConfig,
    continue_branch,
    degree_auto,
    translate,
)
from ddebranch import continuation
from ddebranch.config import load_problem
from ddebranch.continuation import (
    TERMINATION_BLOWUP,
    TERMINATION_LAMBDA_MAX,
    TERMINATION_LEFT_DOMAIN,
    TERMINATION_NEWTON,
)
from ddebranch.errors import InvalidParameterError
from ddebranch.problem import BatchField, _per_row

from conftest import (
    TWO_PI,
    branch_json,
    fold_problem,
    forced_branch_run,
    lambdas,
    periodic,
    scalar_problem,
    sequential_branch,
    sup_distance,
    unit_drive_problem,
)

FAST = ContinuationConfig(h0=0.05, h_max=0.05, m=16, steps_per_delay=16)


class TestTrivialBranches:
    def test_unperturbed_branch_stays_trivial(self):
        # With no perturbation every branch point is the trivial solution.
        prob = scalar_problem(lambda y: y, a_fn=lambda t: -1.0)
        branch = continue_branch(prob, [0.0], 0.3, FAST)
        assert branch.termination == TERMINATION_LAMBDA_MAX
        assert lambdas(branch)[-1] == pytest.approx(0.3)
        for p in branch.points:
            assert p.min_dist_to_trivial <= 1e-10
            assert p.sup_norm <= 1e-10

    def test_lambda_max_zero(self):
        prob = scalar_problem(lambda y: y, a_fn=lambda t: -1.0)
        branch = continue_branch(prob, [0.0], 0.0, FAST)
        assert len(branch.points) == 1
        assert branch.points[0].lam == 0.0
        assert branch.termination == TERMINATION_LAMBDA_MAX

    def test_first_point_is_constant_origin_history(self):
        prob = scalar_problem(lambda y: y - y ** 3)
        branch = continue_branch(prob, [1.0], 0.0, FAST)
        assert np.allclose(branch.points[0].history.values, 1.0)


class TestTerminations:
    @pytest.mark.parametrize("form", ["numpy", "float", "dsl"])
    def test_fold_ends_in_newton_failure_after_halving_to_h_min(self, form):
        # y - y^3 = lam folds at lam* = 2/(3 sqrt 3) = 0.3849: the step to
        # 0.4 fails and halves to 0.35; from there 0.45 and 0.40 fail, and
        # the second failure is at h_min.  Trials past the fold overflow
        # y^3, which ends their sweeps however g is written.
        prob = fold_problem(form)
        cfg = ContinuationConfig(m=8, steps_per_delay=8, h0=0.1, h_max=0.1, h_min=0.05)
        branch = continue_branch(prob, [0.0], 1.0, cfg)
        assert branch.termination == TERMINATION_NEWTON
        np.testing.assert_allclose(lambdas(branch), [0.0, 0.1, 0.2, 0.3, 0.35], rtol=1e-14)
        for p in branch.points[1:]:
            assert p.residual <= cfg.newton_tol
            # The constant solution below the fold.
            y = p.history.values[0, 0]
            assert y - y ** 3 == pytest.approx(p.lam, abs=1e-8)

    def test_numpy_fold_branch_matches_g_and_h_row_by_row(self):
        # The NumPy g takes the batch in one call, and h = 1, which ignores
        # the batch, is broadcast to it; forcing both row by row changes no
        # bit of the branch.
        prob = fold_problem("numpy")
        assert not hasattr(prob.g.fn, "__wrapped__") and not hasattr(prob.h.fn, "__wrapped__")
        rows = dataclasses.replace(prob, g=BatchField(_per_row(prob.g.fn, timed=False)),
                                   h=BatchField(_per_row(prob.h.fn, timed=True)))
        cfg = ContinuationConfig(m=8, steps_per_delay=8, h0=0.1, h_max=0.1, h_min=0.05)
        branches = [continue_branch(p, [0.0], 1.0, cfg) for p in (prob, rows)]
        assert branch_json(branches[0]) == branch_json(branches[1])

    def test_first_step_failing_at_h_min_keeps_the_origin_alone(self):
        prob = unit_drive_problem(lambda x, y: y - y ** 3)
        cfg = ContinuationConfig(m=8, steps_per_delay=8, h0=0.5, h_max=0.5, h_min=0.5)
        branch = continue_branch(prob, [0.0], 1.0, cfg)
        assert branch.termination == TERMINATION_NEWTON
        assert lambdas(branch).tolist() == [0.0]

    def test_sup_norm_above_1e6_ends_in_norm_blowup(self):
        # g = y puts the constant solution at y* = lam: 4e5 and 8e5 are
        # kept, and 1.2e6 is past the blowup bound.
        prob = unit_drive_problem(lambda x, y: y)
        cfg = ContinuationConfig(m=8, steps_per_delay=8, h0=4e5, h_max=4e5, h_min=1.0)
        branch = continue_branch(prob, [0.0], 2e6, cfg)
        assert branch.termination == TERMINATION_BLOWUP
        assert lambdas(branch).tolist() == [0.0, 4e5, 8e5]
        np.testing.assert_allclose([p.sup_norm for p in branch.points], [0.0, 4e5, 8e5], rtol=1e-12)


class TestLookAhead:
    """On a problem whose fields all carry DSL expressions, each attempt's
    sweeps also answer the next attempt's first request; the branch must
    be that of the sequential tracer (conftest.sequential_branch) bit for
    bit."""

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_forced_branch_matches_sequential(self, seed):
        # The benchmark's forced-branch run, m = steps_per_delay = 8.
        run = forced_branch_run(seed)
        branch = continue_branch(*run)
        assert len(branch.points) == 12
        assert branch_json(branch) == branch_json(sequential_branch(*run))

    def test_dsl_fold_matches_sequential(self):
        # Sweeps past the fold raise with the look-ahead block in them.
        prob = fold_problem("dsl")
        cfg = ContinuationConfig(m=8, steps_per_delay=8, h0=0.1, h_max=0.1, h_min=0.05)
        branch = continue_branch(prob, [0.0], 1.0, cfg)
        assert branch.termination == TERMINATION_NEWTON
        assert branch_json(branch) == branch_json(sequential_branch(prob, [0.0], 1.0, cfg))

    def test_sunflower_preset_matches_sequential(self):
        # phi = sin(yd1) keeps the zero (pi, pi) of nu a constant solution
        # at every lambda, up to the roundoff of sin(pi).
        prob = load_problem({"problem": {"preset": "sunflower", "a": "-1 + 0.5*sin(t)",
                                         "phi": "sin(yd1)"}, "numerics": {"n_quad": 64}}).coupled
        cfg = ContinuationConfig(m=8, steps_per_delay=8, h0=0.05, h_max=0.2)
        origin = [math.pi, math.pi]
        branch = continue_branch(prob, origin, 1.0, cfg)
        assert branch.termination == TERMINATION_LAMBDA_MAX
        assert branch_json(branch) == branch_json(sequential_branch(prob, origin, 1.0, cfg))


class TestManufacturedBranch:
    """y' = -y + lam (0.5 y(t - 1) + cos t), 2 pi-periodic: the branch from
    y = 0 is y = Re(Y e^{it}) with Y = lam / (i + 1 - 0.5 lam e^{-i}), so
    every point's history has a closed form to be compared with."""

    PROBLEM = {"problem": {"dims": {"k": 0, "s": 1}, "T": TWO_PI, "r": 1.0, "a": "-1",
                           "g": ["y1"], "h": ["0.5*yd1 + cos(t)"]}}

    def _max_error(self, m):
        cfg = ContinuationConfig(m=m, steps_per_delay=m, h0=0.05, h_max=0.1)
        branch = continue_branch(load_problem(self.PROBLEM).coupled, [0.0], 1.0, cfg)
        assert branch.termination == TERMINATION_LAMBDA_MAX
        theta = np.linspace(-1.0, 0.0, m + 1)
        error = 0.0
        for p in branch.points:
            Y = p.lam / (1j + 1.0 - 0.5 * p.lam * np.exp(-1j))
            exact = (Y * np.exp(1j * theta)).real
            error = max(error, float(np.max(np.abs(p.history.values[:, 0] - exact))))
        return error

    def test_every_point_matches_the_closed_form_at_fourth_order(self):
        # Measured 1.06e-6, 7.0e-8 and 3.6e-9: orders 3.9 and 4.3.
        errors = [self._max_error(m) for m in (8, 16, 32)]
        assert errors[0] <= 1.5e-6
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert orders.min() >= 3.5


class TestValidation:
    def test_origin_must_be_nu_zero(self):
        prob = scalar_problem(lambda y: y, a_fn=lambda t: -1.0)
        with pytest.raises(InvalidParameterError):
            continue_branch(prob, [0.5], 1.0, FAST)

    def test_origin_dimension_checked(self):
        prob = scalar_problem(lambda y: y, a_fn=lambda t: -1.0)
        with pytest.raises(InvalidParameterError):
            continue_branch(prob, [0.0, 0.0], 1.0, FAST)

    def test_step_sizes_ordered(self):
        with pytest.raises(InvalidParameterError):
            ContinuationConfig(h0=0.5, h_max=0.25)
        with pytest.raises(InvalidParameterError):
            ContinuationConfig(h0=1e-7, h_min=1e-6)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True])
    def test_max_points_must_be_an_integer(self, bad):
        with pytest.raises(InvalidParameterError, match=f"max_points must be an integer, got {bad!r}"):
            ContinuationConfig(max_points=bad)
        assert ContinuationConfig(max_points=np.int64(3)).max_points == 3

    def test_negative_lambda_max_rejected(self):
        # lambda_max = 0 is the origin alone (test_lambda_max_zero); below
        # it no branch point exists, as integrate rejects lambda < 0.
        prob = scalar_problem(lambda y: y, a_fn=lambda t: -1.0)
        with pytest.raises(InvalidParameterError, match="lambda_max must be >= 0, got -1"):
            continue_branch(prob, [0.0], -1.0, FAST)

    def test_domain_dimension_checked(self):
        # Also by the branch that ends at its origin (lambda_max = 0).
        prob = scalar_problem(lambda y: y, a_fn=lambda t: -1.0)
        cfg = ContinuationConfig(domain=Box(lower=[-1, -1], upper=[1, 1]))
        for lambda_max in (1.0, 0.0):
            with pytest.raises(InvalidParameterError, match="domain box dimension 2"):
                continue_branch(prob, [0.0], lambda_max, cfg)


class TestTermination:
    def test_left_domain(self):
        # y' = a y + lam with a = -1: the periodic solution is y = lam,
        # which exits the declared box once lam exceeds its radius.
        prob = scalar_problem(
            lambda y: y, a_fn=lambda t: -1.0,
            h=lambda t, x, y, xd, yd: np.ones(1),
        )
        cfg = ContinuationConfig(
            h0=0.02, h_max=0.02, m=16, steps_per_delay=16,
            domain=Box(lower=[-0.05], upper=[0.05]),
        )
        branch = continue_branch(prob, [0.0], 1.0, cfg)
        assert branch.termination == TERMINATION_LEFT_DOMAIN
        # All recorded points are inside the box.
        for p in branch.points:
            assert p.sup_norm <= 0.05 + 1e-9

    def test_max_points(self):
        prob = scalar_problem(lambda y: y, a_fn=lambda t: -1.0)
        cfg = ContinuationConfig(h0=0.01, h_max=0.01, m=16, steps_per_delay=16, max_points=5)
        branch = continue_branch(prob, [0.0], 10.0, cfg)
        assert len(branch.points) == 5
        assert branch.termination == "max_points"


class TestGenuineSolutions:
    def test_points_are_periodic_solutions(self, sunflower):
        prob = sunflower.coupled
        branch = continue_branch(prob, [0.0, 0.0], 0.15, FAST)
        assert branch.termination == TERMINATION_LAMBDA_MAX
        assert len(branch.points) >= 3
        tcfg = TranslationConfig(m=16, steps_per_delay=16)
        for p in branch.points:
            out = translate(prob, p.lam, 1.0, p.history, tcfg)
            assert sup_distance(p.history, out) <= 10 * FAST.newton_tol

    def test_determinism(self):
        prob = scalar_problem(lambda y: y, a_fn=lambda t: -1.0)
        b1 = continue_branch(prob, [0.0], 0.2, FAST)
        b2 = continue_branch(prob, [0.0], 0.2, FAST)
        assert branch_json(b1) == branch_json(b2)


class TestTrivialZeros:
    @staticmethod
    def _forced_planar():
        return CoupledProblem(
            dim_x=1,
            dim_y=1,
            f=lambda t, x, y, xd, yd: np.array([math.sin(yd[0]) + 0.5 * math.cos(t)]),
            g=lambda x, y: x - y,
            a=periodic(lambda t: -1.0 + 0.5 * math.sin(t)),
            period=TWO_PI,
            delay=1.0,
            n_quad=64,
        )

    def test_planar_domain_measures_against_the_zeros_of_nu(self, monkeypatch):
        # A planar box is treated as any other: its degree's zero search finds
        # nu's zero at the origin, and the branch is measured against it.
        prob = self._forced_planar()
        cfg = ContinuationConfig(
            h0=0.05, h_max=0.05, m=8, steps_per_delay=8,
            domain=Box(lower=[-2, -2], upper=[2, 2]),
        )
        reference = continue_branch(prob, [0.0, 0.0], 0.1, dataclasses.replace(cfg, domain=None))

        reports = []

        def recorded(*args, **kwargs):
            reports.append(degree_auto(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(continuation, "degree_auto", recorded)
        branch = continue_branch(prob, [0.0, 0.0], 0.1, cfg)
        (report,) = reports
        (zero,) = report.zeros
        assert np.max(np.abs(zero["point"])) <= 1e-9
        assert branch.termination == TERMINATION_LAMBDA_MAX
        assert branch.points[-1].min_dist_to_trivial > 0.0
        assert [p.lam for p in branch.points] == [p.lam for p in reference.points]
        for p, q in zip(branch.points, reference.points):
            assert p.history.values.tobytes() == q.history.values.tobytes()
            assert abs(p.min_dist_to_trivial - q.min_dist_to_trivial) <= 1e-9

    def test_inadmissible_domain_warns_and_falls_back_to_the_origin(self):
        # nu = y - y^2 vanishes at y = 1, on the domain's boundary: the degree
        # fails, and the branch is measured against its origin with a warning
        # that names the error.
        prob = scalar_problem(lambda y: y - y * y, a_fn=lambda t: -1.0)
        cfg = ContinuationConfig(h0=0.05, h_max=0.05, m=8, steps_per_delay=8,
                                 domain=Box(lower=[-1.0], upper=[1.0]))
        reference = continue_branch(prob, [0.0], 0.1, dataclasses.replace(cfg, domain=None))
        with pytest.warns(RuntimeWarning, match="AdmissibilityError"):
            branch = continue_branch(prob, [0.0], 0.1, cfg)
        assert branch_json(branch) == branch_json(reference)


class TestExports:
    def _branch(self):
        prob = scalar_problem(lambda y: y, a_fn=lambda t: -1.0)
        return prob, continue_branch(prob, [0.0], 0.1, FAST)

    def test_csv_format(self, tmp_path):
        _, branch = self._branch()
        path = tmp_path / "branch.csv"
        branch.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["lambda", "residual", "sup_norm", "min_dist_to_trivial"]
        assert rows[0][4] == "u0"
        assert len(rows) == len(branch.points) + 1

    def test_json_metadata(self):
        _, branch = self._branch()
        payload = branch.to_json_dict()
        assert payload["termination"] == TERMINATION_LAMBDA_MAX
        assert payload["n_points"] == len(branch.points)
        assert payload["origin"] == [0.0]
