"""Translation operator, fixed points, discrete index, index identity."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ddebranch import (
    Box,
    ContinuationConfig,
    CoupledProblem,
    History,
    PeriodicFn1D,
    TranslationConfig,
    continue_branch,
    find_fixed_points,
    translate,
    verify_index_identity,
)
from ddebranch import poincare
from ddebranch.config import _TRANSLATION_SETTINGS, load_problem
from ddebranch.continuation import TERMINATION_LAMBDA_MAX
from ddebranch.errors import (
    DegeneracyError,
    ExprEvalError,
    InvalidParameterError,
    TranslationUndefinedError,
)
from ddebranch.poincare import _newton_fixed_point, _residual
from ddebranch.problem import BatchField

from conftest import (TWO_PI, damped_newton, fd_jacobian, fold_problem, periodic, scalar_problem,
                      sup_distance)

CFG = TranslationConfig(m=16, steps_per_delay=16)


def _undefined_above(edge, g):
    """g(y) for y <= edge; above it a float division by zero, an
    ArithmeticError, so that translate is undefined there."""
    return lambda y: g(y) if y <= edge else 1.0 / 0.0


def cubic_problem():
    # y' = a(t)(y - y^3) with <a> = -1; equilibria at 0 and +-1.
    return scalar_problem(lambda y: y - y ** 3)


class TestTranslate:
    def test_zero_field_holds_terminal_value(self):
        prob = scalar_problem(lambda y: 0.0)
        init = History.constant([0.6], 1.0, m=16)
        out = translate(prob, 0.0, 1.0, init, CFG)
        assert np.max(np.abs(out.values - 0.6)) < 1e-12

    def test_equilibrium_is_fixed(self):
        prob = cubic_problem()
        init = History.constant([1.0], 1.0, m=16)
        out = translate(prob, 0.0, 1.0, init, CFG)
        assert sup_distance(init, out) < 1e-10

    def test_mu_endpoints_coincide_for_autonomous_f(self):
        # With f independent of t and a constant, the homotopy endpoints
        # mu = 0 and mu = 1 have identical right-hand sides.
        prob = CoupledProblem(
            dim_x=1, dim_y=1,
            f=lambda t, x, y, xd, yd: np.array([math.sin(y[0])]),
            g=lambda x, y: np.array([x[0] - y[0]]),
            a=PeriodicFn1D.constant(-1.0, TWO_PI),
            period=TWO_PI, delay=1.0,
        )
        init = History.constant([0.2, 0.4], 1.0, m=16)
        out0 = translate(prob, 0.1, 0.0, init, CFG)
        out1 = translate(prob, 0.1, 1.0, init, CFG)
        assert sup_distance(out0, out1) < 1e-10

    def test_blowup_surfaces_as_undefined(self):
        prob = scalar_problem(lambda y: y * y, a_fn=lambda t: 1.0)
        init = History.constant([5.0], 1.0, m=16)
        with pytest.raises(TranslationUndefinedError):
            translate(prob, 0.0, 1.0, init, CFG)

    @pytest.mark.parametrize("form, cause", [("float", OverflowError), ("dsl", ExprEvalError)])
    def test_field_error_surfaces_as_undefined(self, form, cause):
        # From y = 1e5, y^3 overflows within the first RK4 step: an
        # OverflowError on Python floats and an ExprEvalError in the DSL.
        prob = fold_problem(form)
        init = History.constant([1e5], 1.0, m=16)
        with pytest.raises(TranslationUndefinedError) as exc:
            translate(prob, 1.0, 1.0, init, CFG)
        assert isinstance(exc.value.__cause__, cause)


class TestFindFixedPoints:
    def test_constant_histories_at_nu_zeros(self):
        prob = cubic_problem()
        seeds = [History.constant([p], 1.0, m=16) for p in (0.0, 1.0, -1.0)]
        records = find_fixed_points(prob, 0.0, seeds, CFG)
        assert len(records) == 3
        for rec in records:
            assert rec.residual <= 1e-10
            assert not rec.degenerate
            assert rec.eigen_margin > 0

    def test_indices_of_cubic_equilibria(self):
        # With <a> = -1 < 0 the middle equilibrium is stable (index +1)
        # and the outer two are unstable with one multiplier above 1.
        prob = cubic_problem()
        cfg = TranslationConfig(m=16, steps_per_delay=16, fd_step=1e-7)
        seeds = [History.constant([p], 1.0, m=16) for p in (0.0, 1.0, -1.0)]
        records = find_fixed_points(prob, 1e-3, seeds, cfg)
        by_value = {round(float(rec.history.values[0, 0])): rec.index for rec in records}
        assert by_value[0] == 1
        assert by_value[1] == -1
        assert by_value[-1] == -1

    def test_empty_seed_list(self):
        prob = cubic_problem()
        assert find_fixed_points(prob, 0.0, [], CFG) == []

    def test_seed_resolution_mismatch(self):
        prob = cubic_problem()
        seeds = [History.constant([0.0], 1.0, m=32)]
        with pytest.raises(InvalidParameterError):
            find_fixed_points(prob, 0.0, seeds, CFG)

    def test_deduplication(self):
        prob = cubic_problem()
        seeds = [History.constant([p], 1.0, m=16) for p in (0.0, 1e-7, -1e-7)]
        records = find_fixed_points(prob, 0.0, seeds, CFG)
        assert len(records) == 1

    def test_jacobian_at_converged_seed_undefined(self):
        # y' = 0 fixes every constant history, so the seed has zero residual
        # at once; the Jacobian formed there raises the terminal node by
        # fd_step to where g is undefined, which makes the seed fail, not
        # crash.
        prob = scalar_problem(_undefined_above(0.6 + 1e-7, lambda y: 0.0))
        cfg = TranslationConfig(m=8, steps_per_delay=8)
        seed = History.constant([0.6], 1.0, m=8)
        assert find_fixed_points(prob, 0.0, [seed], cfg) == []

    def test_fixed_point_distance_shrinks_with_lambda(self):
        # With a perturbation h the fixed point moves off the nu-zero by
        # an O(lambda) amount.
        prob = scalar_problem(
            lambda y: y - y ** 3,
            h=lambda t, x, y, xd, yd: np.array([math.cos(t)]),
        )
        trivial = History.constant([0.0], 1.0, m=16)
        dists = []
        for lam in (1e-2, 1e-3, 1e-4):
            records = find_fixed_points(prob, lam, [trivial], CFG)
            assert len(records) == 1
            dists.append(sup_distance(records[0].history, trivial))
        assert dists[0] > dists[1] > dists[2] > 0


class TestMuHomotopy:
    def test_fixed_points_stay_in_window(self, sunflower):
        prob = sunflower.coupled
        seed = History.constant([0.0, 0.0], prob.delay, m=16)
        window = Box(lower=[-0.5, -0.5], upper=[0.5, 0.5])
        for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
            records = find_fixed_points(prob, 1e-3, [seed], CFG, mu=mu)
            assert len(records) == 1
            assert all(window.contains(v) for v in records[0].history.values)

    def test_h_enters_scaled_by_mu(self):
        # f ignores t and the delay and a is constant, so the averaged drive
        # is f itself and only h's weight mu * lam differs between the two.
        def problem(h_scale):
            return CoupledProblem(
                dim_x=1, dim_y=1,
                f=lambda t, x, y, xd, yd: np.sin(y),
                g=lambda x, y: x - y,
                h=lambda t, x, y, xd, yd: h_scale * (math.cos(t) + yd),
                a=PeriodicFn1D.constant(-1.0, TWO_PI),
                period=TWO_PI, delay=1.0, n_quad=16,
            )

        cfg = TranslationConfig(m=8, steps_per_delay=8)
        init = History.constant([0.2, 0.4], 1.0, m=8)
        half_mu = translate(problem(1.0), 0.5, 0.5, init, cfg)
        half_h = translate(problem(0.5), 0.5, 1.0, init, cfg)
        assert sup_distance(half_mu, half_h) <= 1e-12


class TestIndexIdentity:
    def test_cubic_identity(self):
        prob = cubic_problem()
        cfg = TranslationConfig(m=16, steps_per_delay=16, fd_step=1e-7)
        report = verify_index_identity(prob, 1e-3, Box(lower=[-2.0], upper=[2.0]), cfg)
        assert report["pass"]
        assert report["lhs_sum"] == report["rhs"] == -1
        assert report["n_fixed_points"] == 3
        assert report["sign_abar"] == -1

    def test_lambda_zero_smoke_case(self):
        prob = cubic_problem()
        report = verify_index_identity(prob, 0.0, Box(lower=[-2.0], upper=[2.0]), CFG)
        assert report["pass"]

    def test_degenerate_fixed_point_rejected(self):
        prob = scalar_problem(lambda y: y * y)
        with pytest.raises(DegeneracyError):
            verify_index_identity(prob, 0.0, Box(lower=[-1.0], upper=[1.0]), CFG)

    def test_box_dimension_checked(self):
        prob = cubic_problem()
        with pytest.raises(InvalidParameterError):
            verify_index_identity(prob, 1e-3, Box(lower=[-1, -1], upper=[1, 1]), CFG)

    def test_report_serializes(self):
        prob = cubic_problem()
        report = verify_index_identity(prob, 0.0, Box(lower=[-2.0], upper=[2.0]), CFG)
        payload = json.loads(json.dumps(report, allow_nan=False))
        assert payload["lhs_sum"] == payload["rhs"]


class TestConfigValidation:
    def test_minimum_resolution(self):
        with pytest.raises(InvalidParameterError):
            TranslationConfig(m=4)

    def test_tolerance_positive(self):
        with pytest.raises(InvalidParameterError):
            TranslationConfig(newton_tol=0.0)

    @pytest.mark.parametrize("field, bad", [
        ("fd_step", 0.0),
        ("fd_step", -1e-6),
        ("steps_per_delay", 7),
    ])
    def test_rejected_values_name_the_field(self, field, bad):
        with pytest.raises(InvalidParameterError, match=field):
            TranslationConfig(**{field: bad})
        with pytest.raises(InvalidParameterError, match=field):
            ContinuationConfig(**{field: bad})

    def test_every_setting_is_a_numerics_key(self):
        names = [f.name for f in dataclasses.fields(TranslationConfig)]
        assert names == ["m", "steps_per_delay", "newton_tol", "fd_step"]
        assert names == list(_TRANSLATION_SETTINGS)


def _batched_jacobian(problem, lam, mu, u, r0, cfg):
    """The Jacobian of R as the lockstep solver forms it: the n perturbed
    inputs translated as rows of one sweep."""
    rows_residual = lambda rows: _residual(problem, lam, mu, rows, cfg)
    return fd_jacobian(rows_residual, u, r0, cfg.fd_step)


def _column_loop_jacobian(problem, lam, mu, u, r0, cfg):
    """Reference Jacobian: one translate per perturbed column."""
    J = np.empty((u.size, u.size))
    for j in range(u.size):
        vp = u.copy()
        vp[j] += cfg.fd_step
        J[:, j] = (_residual(problem, lam, mu, vp, cfg) - r0) / cfg.fd_step
    return J


def _forced_problem():
    return load_problem({"problem": {
        "dims": {"k": 1, "s": 1}, "T": TWO_PI, "r": 1.0,
        "a": "-1 + 0.5*sin(t)", "f": ["sin(yd1) + 0.5*cos(t)"], "g": ["x1 - y1"],
    }}).coupled


def _wavy_history(m, scale=0.2):
    theta = np.linspace(0.0, 1.0, m + 1)
    return scale * np.column_stack([np.cos(3.0 * theta), np.sin(2.0 * theta) - 0.5]).ravel()


class TestBatchedJacobian:
    CFG8 = TranslationConfig(m=8, steps_per_delay=8)

    def _assert_matches_column_loop(self, problem, lam, mu, u):
        cfg = self.CFG8
        r0 = _residual(problem, lam, mu, u, cfg)
        J = _batched_jacobian(problem, lam, mu, u, r0, cfg)
        J_ref = _column_loop_jacobian(problem, lam, mu, u, r0, cfg)
        assert J.shape == (u.size, u.size)
        assert np.max(np.abs(J - J_ref)) <= 1e-12 * max(1.0, np.max(np.abs(J_ref)))

    def test_forced_dsl_problem(self):
        problem = _forced_problem()
        assert isinstance(problem.f, BatchField) and isinstance(problem.g, BatchField)
        self._assert_matches_column_loop(problem, 0.7, 1.0, _wavy_history(8))

    def test_sunflower_batch_fields(self, sunflower):
        problem = sunflower.coupled
        assert isinstance(problem.f, BatchField) and isinstance(problem.g, BatchField)
        self._assert_matches_column_loop(problem, 0.5, 1.0, _wavy_history(8))

    def test_sunflower_row_by_row_fields(self, sunflower):
        # The reduced sunflower system written as plain single-state
        # callables: f reads floats, so the problem calls it row by row.
        sigma = sunflower.sigma.sigma

        def f(t, x, y, xd, yd):
            return np.array([math.sin(yd[0]) / sigma(t)])

        problem = CoupledProblem(
            dim_x=1, dim_y=1, f=f, g=lambda x, y: np.array([x[0] - y[0]]),
            a=sigma, period=TWO_PI, delay=1.0,
        )
        assert problem.f.fn.__wrapped__ is f  # the per-row adapter of f
        self._assert_matches_column_loop(problem, 0.5, 1.0, _wavy_history(8))

    def test_mu_half(self, sunflower):
        problem = dataclasses.replace(sunflower.coupled, n_quad=16)
        self._assert_matches_column_loop(problem, 1e-3, 0.5, _wavy_history(8, 0.05))

    def test_undefined_column_fails_both(self):
        # y' = a(t)(y - y^3) decreases from 0.95, so g is defined on the
        # unperturbed sweep; only the column that raises the terminal node
        # by fd_step starts where g is undefined.
        cfg = self.CFG8
        prob = scalar_problem(_undefined_above(0.95 + 0.1 * cfg.fd_step, lambda y: y - y ** 3))
        u0 = np.full(cfg.m + 1, 0.95)
        r0 = _residual(prob, 0.0, 1.0, u0, cfg)
        assert np.max(np.abs(r0)) > cfg.newton_tol
        raised = u0.copy()
        raised[-1] += cfg.fd_step
        with pytest.raises(TranslationUndefinedError):
            _residual(prob, 0.0, 1.0, raised, cfg)
        for jacobian in (_batched_jacobian, _column_loop_jacobian):
            with pytest.raises(TranslationUndefinedError):
                jacobian(prob, 0.0, 1.0, u0, r0, cfg)
        assert _newton_fixed_point(prob, 0.0, 1.0, u0, cfg) is None
        assert damped_newton(
            lambda u: _residual(prob, 0.0, 1.0, u, cfg),
            lambda u, r: _column_loop_jacobian(prob, 0.0, 1.0, u, r, cfg),
            u0, cfg.newton_tol, poincare._NEWTON_MAX_ITER,
        ) is None


def _solve_each_alone(problem, lam, mu, seeds, cfg):
    """Reference for poincare._solve_lockstep: one damped_newton per seed,
    its residuals unbatched and its Jacobians one sweep each."""
    return [
        damped_newton(
            lambda u: _residual(problem, lam, mu, u, cfg),
            lambda u, r: _batched_jacobian(problem, lam, mu, u, r, cfg),
            u0, cfg.newton_tol, poincare._NEWTON_MAX_ITER,
        )
        for u0 in seeds
    ]


def _solution_key(out):
    if out is None:
        return None
    u, rnorm, J = out
    return u.tobytes(), repr(rnorm), J.tobytes()


def _record_key(rec):
    return (rec.history.values.tobytes(), rec.history.derivs.tobytes(),
            repr(rec.residual), rec.index, repr(rec.eigen_margin))


class TestLockstep:
    """find_fixed_points solves its seeds in lockstep; each seed must end
    exactly where a solve of it alone ends."""

    CFG8 = TranslationConfig(m=8, steps_per_delay=8)

    def _assert_matches_alone(self, monkeypatch, problem, lam, seeds, mu=1.0):
        """find_fixed_points in lockstep, then with each seed solved alone:
        the per-seed solutions and the records must be the same bits."""
        solutions = {}

        def run(name, solve):
            def recorded(*args, **kwargs):
                solutions[name] = solve(*args, **kwargs)
                return solutions[name]

            monkeypatch.setattr(poincare, "_solve_lockstep", recorded)
            return find_fixed_points(problem, lam, seeds, self.CFG8, mu=mu)

        records = run("lockstep", poincare._solve_lockstep)
        want = run("alone", _solve_each_alone)
        assert len(solutions["lockstep"]) == len(seeds)
        assert ([_solution_key(o) for o in solutions["lockstep"]]
                == [_solution_key(o) for o in solutions["alone"]])
        assert repr(records) == repr(want)
        assert [_record_key(r) for r in records] == [_record_key(r) for r in want]
        return solutions["lockstep"]

    def _sunflower_seeds(self, problem):
        points = [(0.0, 0.0), (0.4, -0.3), (-0.5, 0.5), (0.9, 0.9)]
        seeds = [History.constant(p, problem.delay, m=8) for p in points]
        wavy = _wavy_history(8).reshape(9, 2)
        return seeds + [History.from_values(wavy, problem.delay)]

    def test_sunflower_mu_one(self, monkeypatch, sunflower):
        problem = dataclasses.replace(sunflower.coupled, n_quad=64)
        out = self._assert_matches_alone(monkeypatch, problem, 0.5, self._sunflower_seeds(problem))
        assert sum(o is not None for o in out) >= 2

    def test_sunflower_mu_half(self, monkeypatch, sunflower):
        problem = dataclasses.replace(sunflower.coupled, n_quad=64)
        out = self._assert_matches_alone(
            monkeypatch, problem, 1e-2, self._sunflower_seeds(problem), mu=0.5
        )
        assert sum(o is not None for o in out) >= 2

    def test_forced_dsl_problem(self, monkeypatch):
        problem = _forced_problem()
        seeds = [History.from_values(_wavy_history(8, scale).reshape(9, 2), problem.delay)
                 for scale in (0.0, 0.2)]
        seeds.append(History.constant([0.3, -0.2], problem.delay, m=8))
        out = self._assert_matches_alone(monkeypatch, problem, 0.7, seeds)
        assert all(o is not None for o in out)

    def test_trial_step_blowing_up_next_to_converging_seed(self, monkeypatch):
        # With a slow drive y' = -0.05 (y - y^3), the first full Newton step
        # from y = 0.6 overshoots to where the sweep blows up; the merged
        # sweep of that trial and the other seed's raises, and each is
        # rerun alone.
        prob = scalar_problem(lambda y: y - y ** 3, a_fn=lambda t: -0.05)
        seeds = [History.constant([v], 1.0, m=8) for v in (0.6, 0.1)]
        sweeps = []
        residual = poincare._residual

        def logged(*args):
            try:
                out = residual(*args)
            except TranslationUndefinedError:
                sweeps.append((len(args[3]), "undefined"))
                raise
            sweeps.append((len(args[3]), "ok"))
            return out

        monkeypatch.setattr(poincare, "_residual", logged)
        flat = [seed.values.ravel() for seed in seeds]
        out = poincare._solve_lockstep(prob, 0.0, 1.0, flat, self.CFG8)
        assert sweeps[1:4] == [(20, "undefined"), (10, "undefined"), (10, "ok")]
        assert all(o is not None for o in out)
        monkeypatch.undo()
        self._assert_matches_alone(monkeypatch, prob, 0.0, seeds)

    def test_singular_jacobian_next_to_converging_seed(self, monkeypatch):
        # g vanishes for y >= 2, so there the image of a history is the
        # constant of its terminal value (the period 4 is a whole number of
        # steps, so the image is read at nodes, exactly): the residual's
        # row at the terminal node vanishes identically.
        prob = scalar_problem(lambda y: y - y ** 3 if y < 2.0 else 0.0,
                              a_fn=lambda t: -0.05, period=4.0)
        singular = History.from_values(3.0 + 0.1 * np.sin(np.arange(9.0)), 1.0)
        seeds = [singular, History.constant([0.6], 1.0, m=8)]
        out = self._assert_matches_alone(monkeypatch, prob, 0.0, seeds)
        assert out[0] is None and out[1] is not None


def _count_sweeps(monkeypatch):
    """Count the _residual sweeps of the solves that follow."""
    sweeps = []
    residual = poincare._residual

    def counted(*args):
        sweeps.append(len(args[3]))
        return residual(*args)

    monkeypatch.setattr(poincare, "_residual", counted)
    return sweeps


class TestNewtonWork:
    """Each Newton request is one point answered with its residual and its
    Jacobian from one sweep: the returned Jacobian is the one at the
    returned point, and a solve takes few sweeps."""

    CFG8 = TranslationConfig(m=8, steps_per_delay=8)

    def test_jacobian_bit_equal_to_separate_sweep_at_returned_point(self):
        problem = _forced_problem()
        cfg = self.CFG8
        u0 = _wavy_history(8, 0.2)
        out = _newton_fixed_point(problem, 0.7, 1.0, u0, cfg)
        assert out is not None
        u, rnorm, J = out
        r = _residual(problem, 0.7, 1.0, u, cfg)
        assert rnorm == float(np.max(np.abs(r)))
        assert np.array_equal(J, _batched_jacobian(problem, 0.7, 1.0, u, r, cfg))

    def test_forced_branch_sweeps(self, monkeypatch):
        # The forced branch of the benchmark (amplitude 0.5) at m = 8.
        problem = _forced_problem()
        ccfg = ContinuationConfig(h0=0.05, h_max=0.1, m=8, steps_per_delay=8)
        sweeps = _count_sweeps(monkeypatch)
        branch = continue_branch(problem, [0.0, 0.0], 1.0, ccfg)
        assert branch.termination == TERMINATION_LAMBDA_MAX
        assert len(branch.points) == 12
        assert len(sweeps) <= 45

    def test_verify_index_lattice_sweeps(self, monkeypatch):
        # The nine lattice seeds of the sunflower's verify-index box.
        problem = load_problem({
            "problem": {"preset": "sunflower", "a": "-1 + 0.5*sin(t)"},
            "numerics": {"n_quad": 64},
        }).coupled
        box = Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        seeds = [History.constant(p, problem.delay, m=8) for p in poincare._lattice_points(box)]
        assert len(seeds) == 9
        sweeps = _count_sweeps(monkeypatch)
        records = find_fixed_points(problem, 1e-3, seeds, self.CFG8)
        assert len(records) >= 1
        assert len(sweeps) <= 5
