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
    translate,
)
from ddebranch import continuation
from ddebranch.continuation import (
    TERMINATION_BLOWUP,
    TERMINATION_LAMBDA_MAX,
    TERMINATION_LEFT_DOMAIN,
    TERMINATION_NEWTON,
)
from ddebranch.errors import InvalidParameterError
from ddebranch.problem import BatchField, _per_row

from conftest import TWO_PI, fold_problem, lambdas, periodic, scalar_problem, sup_distance, unit_drive_problem

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

    def test_numpy_fold_branch_matches_g_row_by_row(self):
        # The NumPy g takes the batch in one call (h = 1 does not and runs
        # row by row); forcing g row by row changes no bit of the branch.
        prob = fold_problem("numpy")
        assert not hasattr(prob.g.fn, "__wrapped__") and hasattr(prob.h.fn, "__wrapped__")
        rows = dataclasses.replace(prob, g=BatchField(_per_row(prob.g.fn, timed=False)))
        cfg = ContinuationConfig(m=8, steps_per_delay=8, h0=0.1, h_max=0.1, h_min=0.05)
        branches = [continue_branch(p, [0.0], 1.0, cfg) for p in (prob, rows)]
        assert branches[0].to_json() == branches[1].to_json()

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
        assert b1.to_json() == b2.to_json()


class TestTrivialZeros:
    def test_planar_domain_makes_no_degree_call(self, monkeypatch):
        # A planar box's winding-number degree locates no zeros, so the
        # branch is measured against its origin without computing one.
        prob = CoupledProblem(
            dim_x=1,
            dim_y=1,
            f=lambda t, x, y, xd, yd: np.array([math.sin(yd[0]) + 0.5 * math.cos(t)]),
            g=lambda x, y: x - y,
            a=periodic(lambda t: -1.0 + 0.5 * math.sin(t)),
            period=TWO_PI,
            delay=1.0,
            n_quad=64,
        )
        cfg = ContinuationConfig(
            h0=0.05, h_max=0.05, m=8, steps_per_delay=8,
            domain=Box(lower=[-2, -2], upper=[2, 2]),
        )
        reference = continue_branch(prob, [0.0, 0.0], 0.1, dataclasses.replace(cfg, domain=None))

        calls = []

        def no_degree(*args, **kwargs):
            calls.append(args)
            raise AssertionError("degree_auto was called")

        monkeypatch.setattr(continuation, "degree_auto", no_degree)
        branch = continue_branch(prob, [0.0, 0.0], 0.1, cfg)
        assert calls == []
        assert branch.termination == TERMINATION_LAMBDA_MAX
        assert branch.points[-1].min_dist_to_trivial > 0.0
        assert branch.to_json() == reference.to_json()


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
