"""Sigma transformation and the Lienard-plane reduction."""

import dataclasses
import math
import re
from typing import Callable, Optional

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from ddebranch import (
    History,
    PeriodicFn1D,
    average_scalar,
    integrate,
    lienard_reduce,
    nu_field,
    sigma_transform,
    verify_sigma,
)
from ddebranch import expr as dsl
from ddebranch.errors import InvalidParameterError, ZeroAverageError
from ddebranch.lienard import _SIGMA_CELLS, ScalarDelayProblem, _check_nonvanishing, _cumulative_simpson
from ddebranch.problem import DEFAULT_N_QUAD, quadrature_times, simpson_mean

from conftest import TWO_PI, periodic


# Oracles of TestWbar, TestLienardReduction and the acceptance suite's
# Lienard round trip: the averaged scalar field and the residual of the
# second-order equation along a reduced trajectory.
def wbar(f, gamma: PeriodicFn1D, T: float, n_quad: int = DEFAULT_N_QUAD) -> Callable[[float], float]:
    """The averaged scalar field q -> (1/T) integral f(t, q, q) / gamma(t) dt."""
    _check_nonvanishing(gamma)
    ts = quadrature_times(T, n_quad)
    gvals = gamma(ts)

    def wb(q: float) -> float:
        q = float(q)
        return float(simpson_mean(np.array([f(t, q, q) for t in ts.tolist()], dtype=float) / gvals))

    return wb


def lienard_residual(traj, sdp: ScalarDelayProblem, gamma: PeriodicFn1D, lam: float, n_skip: int = 2) -> float:
    """Sup residual of y'' = a(t) y' + lam f(t, y, y(t-r)) along a trajectory
    of the reduced planar system, over one period.

    y'' comes from a fourth-order centered difference of y' = (x - y) *
    gamma(t) at the RK4 nodes.  Nodes whose stencil straddles a delay
    breakpoint (a multiple of r, where the third derivative jumps) are
    skipped: the difference quotient loses its order there while the
    equation itself still holds.
    """
    times = traj.times
    r = sdp.delay
    T = sdp.period
    h = times[1] - times[0]
    # Restrict to the uniform part of the grid inside (0, T].
    n_uniform = times.size - 1
    while n_uniform >= 1 and abs((times[n_uniform] - times[n_uniform - 1]) - h) > 1e-12 * h:
        n_uniform -= 1
    states = traj.states
    ydot = np.array(
        [
            (states[i, 0] - float(states[i, 1])) * float(gamma(times[i]))
            for i in range(n_uniform + 1)
        ]
    )
    worst = 0.0
    for i in range(2, n_uniform - 1):
        t = times[i]
        if t > T + 1e-12:
            break
        # Skip stencils touching a breakpoint t = j*r.
        near_break = False
        for off in range(-n_skip, n_skip + 1):
            tt = times[min(max(i + off, 0), n_uniform)]
            if abs(tt / r - round(tt / r)) < 1e-9:
                near_break = True
                break
        if near_break:
            continue
        yddot = (-ydot[i + 2] + 8.0 * ydot[i + 1] - 8.0 * ydot[i - 1] + ydot[i - 2]) / (
            12.0 * h
        )
        y = states[i, 1]
        yd = traj.eval(t - r)[1]
        rhs = float(sdp.a(t)) * ydot[i] + lam * float(sdp.f(t, y, yd))
        worst = max(worst, abs(yddot - rhs))
    return worst


# Oracle of test_uniqueness_of_integration_constant: zeta by forward
# quadrature for any candidate constant c, independent of the stable
# evaluation in lienard._zeta_periodic.
def _zeta_grid(a: PeriodicFn1D, n_cells: int, c: Optional[float] = None):
    """zeta values on a grid with midpoints; returns (grid, zeta, c_used, abar)."""
    T = a.period
    n2 = 2 * n_cells
    h2 = T / n2
    grid = np.linspace(0.0, T, n2 + 1)
    avals = a(grid)
    A = _cumulative_simpson(avals, h2)
    abar = A[-1] / T
    if abs(abar) < 1e-12:
        raise ZeroAverageError("sigma transform requires <a> != 0")
    E = np.exp(A)
    B = _cumulative_simpson(E, h2)
    if c is None:
        eTa = math.exp(-T * abar)
        c = B[-1] * eTa / (eTa - 1.0)
    zeta = np.exp(-A) * (c - B)
    return grid, zeta, c, abar


def zeta_endpoint_gap(a: PeriodicFn1D, c: float, n_cells: int = _SIGMA_CELLS) -> float:
    """|zeta(0) - zeta(T)| for the candidate integration constant c.

    Zero (up to quadrature error) only at the closed-form c0, reflecting the
    uniqueness of the periodic solution.
    """
    _, zeta, _, _ = _zeta_grid(a, n_cells, c=c)
    return float(abs(zeta[0] - zeta[-1]))


def _a_from_gamma():
    # a = gamma'/gamma - gamma for gamma(t) = sin t + 2.
    return periodic(lambda t: math.cos(t) / (math.sin(t) + 2.0) - (math.sin(t) + 2.0))


class TestSigmaTransform:
    def test_constant_coefficient(self):
        result = sigma_transform(PeriodicFn1D.constant(-2.0, TWO_PI))
        assert result.c0 == pytest.approx(0.5, abs=1e-9)
        assert result.sign == 1
        for t in np.linspace(0, TWO_PI, 17):
            assert float(result.sigma(t)) == pytest.approx(2.0, abs=1e-9)

    def test_recovers_known_gamma(self):
        result = sigma_transform(_a_from_gamma())
        for t in np.linspace(-TWO_PI, 3.0 * TWO_PI, 256, endpoint=False):
            assert float(result.sigma(t)) == pytest.approx(math.sin(t) + 2.0, abs=1e-9)

    def test_sign_definite_and_average(self):
        a = periodic(lambda t: -1.0 + 0.5 * math.sin(t))
        result = sigma_transform(a)
        assert result.sign == 1
        assert np.all(result.values > 0)
        # <sigma> = -<a> = 1
        assert result.avg_sigma == pytest.approx(1.0, abs=1e-8)

    def test_positive_average_gives_negative_sigma(self):
        result = sigma_transform(PeriodicFn1D.constant(2.0, TWO_PI))
        assert result.sign == -1
        assert np.all(result.values < 0)
        assert result.avg_sigma == pytest.approx(-2.0, abs=1e-8)

    def test_zero_average_rejected(self):
        with pytest.raises(ZeroAverageError):
            sigma_transform(periodic(math.sin))

    def test_reciprocal_average_sign(self):
        for a in (_a_from_gamma(), periodic(lambda t: -1.0 + 0.5 * math.sin(t))):
            result = sigma_transform(a)
            abar = average_scalar(a)
            inv = periodic(lambda t, s=result.sigma: 1.0 / float(s(t)))
            assert np.sign(average_scalar(inv)) == -np.sign(abar)

    def test_uniqueness_of_integration_constant(self):
        a = periodic(lambda t: -1.0 + 0.5 * math.sin(t))
        result = sigma_transform(a)
        assert zeta_endpoint_gap(a, result.c0) < 1e-8
        assert zeta_endpoint_gap(a, result.c0 + 1e-3) > 1e-4
        assert zeta_endpoint_gap(a, result.c0 - 1e-3) > 1e-4

    @pytest.mark.parametrize("n_cells, message", [
        (0, "must be >= 4, got 0"), (2, "must be >= 4, got 2"), (3, "must be >= 4, got 3"),
        (-4, "must be >= 4, got -4"), (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
    ])
    def test_bad_n_cells_raises_naming_it(self, n_cells, message):
        # 2 * n_cells Simpson cells, even and >= 8.  0 raised
        # ZeroDivisionError, 2 and 3 named n_quad, -4 and 2.5 raised NumPy's
        # ValueError and a TypeError.
        with pytest.raises(InvalidParameterError, match=f"^n_cells {re.escape(message)}$"):
            sigma_transform(PeriodicFn1D.constant(-2.0, TWO_PI), n_cells)

    def test_csv_export(self, tmp_path):
        result = sigma_transform(PeriodicFn1D.constant(-2.0, TWO_PI))
        path = tmp_path / "sigma.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,sigma"
        assert len(lines) == result.grid.size + 1


# Coefficients of sigma's three shapes: <a> < 0 (the sunflower
# workload's), <a> > 0 (sigma < 0, built through the reflection) and
# constant a (sigma constant, every node slope 0).
_COEFFICIENTS = {
    "negative": lambda t: -1.0 + 0.5 * np.sin(t),
    "positive": lambda t: 2.0 + np.cos(t),
    "constant": lambda t: -2.0 + 0.0 * t,
}


def _sigma_of(name):
    a = periodic(_COEFFICIENTS[name])
    return a, sigma_transform(a)


def _read_times(T, grid):
    return np.concatenate([
        grid,
        0.5 * (grid[:-1] + grid[1:]),
        [0.0, T, -1e-15],
        np.random.default_rng(0).uniform(-3.0 * T, 3.0 * T, 2000),
    ])


class TestSigmaInterpolant:
    """sigma is the periodic cubic Hermite interpolant of its samples with
    the node slopes sigma (a + sigma) of the identity a = sigma'/sigma - sigma."""

    @pytest.mark.parametrize("name", sorted(_COEFFICIENTS))
    def test_matches_scipy_hermite_on_reduced_time(self, name):
        a, result = _sigma_of(name)
        grid, values = result.grid, result.values
        T = grid[-1]
        slopes = values * (a(grid) + values)
        slopes[-1] = slopes[0]
        oracle = CubicHermiteSpline(grid, values, slopes)
        ts = _read_times(T, grid)
        expected = oracle(np.mod(ts, T))
        tol = 1e-14 * np.max(np.abs(values))
        scalar = np.array([result.sigma(float(t)) for t in ts])
        vector = result.sigma(ts)
        assert np.max(np.abs(scalar - expected)) <= tol
        assert np.max(np.abs(vector - expected)) <= tol
        # Scalar and array inputs run the same arithmetic.
        assert np.array_equal(scalar, vector)

    @pytest.mark.parametrize("name", sorted(_COEFFICIENTS))
    def test_differs_from_periodic_spline_by_roundoff(self, name):
        # The slopes of the identity replace the C^2 periodic spline's
        # solved slopes at no cost in accuracy.
        _, result = _sigma_of(name)
        grid, values = result.grid, result.values
        T = grid[-1]
        oracle = CubicSpline(grid, values, bc_type="periodic")
        ts = _read_times(T, grid)
        assert np.max(np.abs(result.sigma(ts) - oracle(ts))) <= 1e-13 * np.max(np.abs(values))

    def test_scalar_input_returns_float(self):
        _, result = _sigma_of("negative")
        for t in (1.0, np.float64(-4.5), 2, np.array(0.3)):
            assert type(result.sigma(t)) is float
        assert result.sigma(np.array([0.3, 1.0])).shape == (2,)

    def test_positive_average_samples_a_once(self):
        # The reflection atilde(t) = -a(T - t) reuses the samples of a; the
        # oracle builds sigma of the reflected function itself (<atilde> < 0)
        # and maps it back: sigma_a(t) = -sigma_atilde(T - t).  a is
        # probed once, when it is built; the count starts after that.
        calls = []

        def counted(t):
            calls.append(np.ndim(t))
            return _COEFFICIENTS["positive"](t)

        a = periodic(counted)
        calls.clear()
        result = sigma_transform(a)
        assert calls == [1]
        reflected = sigma_transform(periodic(lambda t: -_COEFFICIENTS["positive"](TWO_PI - t)))
        want = -reflected.values[::-1]
        assert np.max(np.abs(result.values - want)) <= 1e-13 * np.max(np.abs(want))
        assert result.c0 == pytest.approx(1.0 / want[0], rel=1e-13)


class TestVerifySigma:
    def test_exact_pair(self):
        residual = verify_sigma(_a_from_gamma(), lambda t: math.sin(t) + 2.0)
        assert residual <= 1e-6

    def test_constant_pair(self):
        residual = verify_sigma(PeriodicFn1D.constant(-2.0, TWO_PI), lambda t: 2.0)
        assert residual <= 1e-10

    def test_detects_wrong_sigma(self):
        residual = verify_sigma(PeriodicFn1D.constant(-2.0, TWO_PI), lambda t: 1.0)
        assert residual == pytest.approx(1.0, abs=1e-9)

    def test_transform_output_verifies(self):
        a = periodic(lambda t: -1.0 + 0.5 * math.sin(t))
        result = sigma_transform(a)
        assert verify_sigma(a, result.sigma) <= 1e-6

    @pytest.mark.parametrize("n_check, message", [
        (0, "must be >= 1, got 0"), (-3, "must be >= 1, got -3"), (2.0, "must be an integer, got 2.0"),
    ])
    def test_bad_n_check_raises_naming_it(self, n_check, message):
        # 0 raised NumPy's "zero-size array" ValueError.
        with pytest.raises(InvalidParameterError, match=f"^n_check {re.escape(message)}$"):
            verify_sigma(PeriodicFn1D.constant(-2.0, TWO_PI), lambda t: 2.0, n_check)

    def test_vanishing_sigma_rejected(self):
        # Float-only sigmas, read element by element: the first sample time
        # where sigma vanishes is named, 0 for sin and pi for sin on (0, T).
        a = PeriodicFn1D.constant(-2.0, TWO_PI)
        with pytest.raises(InvalidParameterError, match=r"^sigma vanishes at t=0$"):
            verify_sigma(a, math.sin)
        with pytest.raises(InvalidParameterError, match=r"^sigma vanishes at t=3\.14159$"):
            verify_sigma(a, lambda t: math.sin(t) if t > 0.0 else 1.0)


class TestWbar:
    def test_reciprocal_weight(self):
        gamma = periodic(lambda t: math.sin(t) + 2.0)
        wb = wbar(lambda t, y, yd: y, gamma, TWO_PI)
        for q in (-2.0, 0.5, 1.0):
            assert wb(q) == pytest.approx(q / math.sqrt(3.0), abs=1e-10)

    def test_constant_gamma(self):
        gamma = PeriodicFn1D.constant(4.0, TWO_PI)
        wb = wbar(lambda t, y, yd: y * yd + 1.0, gamma, TWO_PI)
        assert wb(2.0) == pytest.approx(5.0 / 4.0, abs=1e-12)

    def test_autonomous_phi_factorizes(self):
        a = periodic(lambda t: -1.0 + 0.5 * math.sin(t))
        sigma = sigma_transform(a).sigma
        inv_avg = average_scalar(periodic(lambda t: 1.0 / float(sigma(t))))
        wb = wbar(lambda t, y, yd: math.sin(yd), sigma, TWO_PI)
        for q in (0.3, 1.2):
            assert wb(q) == pytest.approx(math.sin(q) * inv_avg, abs=1e-9)

    def test_vanishing_gamma_rejected(self):
        with pytest.raises(InvalidParameterError):
            wbar(lambda t, y, yd: y, periodic(math.sin), TWO_PI)


class TestLienardReduction:
    def _setup(self):
        a = periodic(lambda t: -1.0 + 0.5 * math.sin(t))
        sdp = ScalarDelayProblem.from_phi(a, lambda y, yd: math.sin(yd), TWO_PI, 1.0)
        sigma = sigma_transform(a).sigma
        return sdp, sigma

    def test_reduced_problem_shape(self):
        sdp, sigma = self._setup()
        prob = lienard_reduce(sdp, sigma)
        assert prob.dim_x == 1 and prob.dim_y == 1
        assert prob.h is None
        # g(x, y) = x - G(y) with G(y) = y.
        assert float(prob.eval_g(np.array([0.7]), np.array([0.2]))[0]) == pytest.approx(0.5)

    def test_g_callable_and_expression_are_x_minus_y(self):
        # g is x1 - y1 twice, as the callable that fields and the averaged
        # drive call and as the expression the compiled stage inlines: on
        # a batch of states both give x - y bit for bit.
        sdp, sigma = self._setup()
        g = lienard_reduce(sdp, sigma).g
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 4, 5, 1)) * 10.0 ** rng.integers(-3, 4, size=(2, 4, 5, 1))
        want = (x[..., 0] - y[..., 0]).tobytes()
        assert g.fn(x, y)[..., 0].tobytes() == want
        (e,) = g.exprs
        assert e.free_vars() == {"x1", "y1"}
        assert dsl.compile_function(g.exprs, [["x1"], ["y1"]])(x, y)[..., 0].tobytes() == want

    def test_nu_matches_wbar(self):
        sdp, sigma = self._setup()
        prob = lienard_reduce(sdp, sigma)
        wb = wbar(sdp.f, sigma, TWO_PI)
        nu = nu_field(dataclasses.replace(prob, n_quad=512))
        for q in (0.4, -0.8):
            out = nu([q, q])
            assert float(out[0]) == pytest.approx(wb(q), abs=1e-6)
            assert abs(float(out[1])) < 1e-14

    def test_zero_f_keeps_x_constant(self):
        a = periodic(lambda t: -1.0 + 0.5 * math.sin(t))
        sdp = ScalarDelayProblem.from_phi(a, lambda y, yd: 0.0, TWO_PI, 1.0)
        sigma = sigma_transform(a).sigma
        prob = lienard_reduce(sdp, sigma)
        init = History.constant([0.3, 0.9], prob.delay, m=8)
        traj = integrate(prob, 0.5, 1.0, init, TWO_PI, steps_per_delay=16)
        for t in np.linspace(0, TWO_PI, 13):
            assert float(traj.eval(t)[0]) == pytest.approx(0.3, abs=1e-12)

    def test_vanishing_gamma_rejected(self):
        sdp, _ = self._setup()
        with pytest.raises(InvalidParameterError):
            lienard_reduce(sdp, periodic(math.sin))

    def test_f_reads_gamma_afresh_on_every_new_time_array(self):
        # f keeps no gamma from call to call: a new grid, a grid of the
        # same shape with other values, a float and an array written to in
        # place since the last call are each read afresh.
        sdp, sigma = self._setup()
        prob = lienard_reduce(sdp, sigma)
        y = np.array([[0.3], [-0.7], [1.1]])
        yd = np.array([[0.5], [0.2], [-0.4]])
        moving = np.linspace(0.0, TWO_PI, 65)[:, None] + 0.1
        grids = [quadrature_times(TWO_PI, 64).reshape(65, 1), np.linspace(0.0, TWO_PI, 129)[:, None],
                 quadrature_times(TWO_PI, 64).reshape(65, 1) + 0.1, 1.5, moving, moving]
        for i, t in enumerate(grids):
            if i == len(grids) - 1:
                moving *= 0.5
            got = prob.eval_f(t, y, y, yd, yd)
            want = (np.array([math.sin(v) for v in yd[:, 0].tolist()]) / sigma(t))[..., None]
            assert got.tobytes() == want.tobytes(), i

    def test_round_trip_residual(self):
        sdp, sigma = self._setup()
        prob = lienard_reduce(sdp, sigma)
        init = History.constant([0.2, 0.7], prob.delay, m=16)
        traj = integrate(prob, 0.5, 1.0, init, TWO_PI, steps_per_delay=128)
        assert lienard_residual(traj, sdp, sigma, 0.5) <= 1e-5


class TestScalarDelayProblem:
    def test_delay_normalized(self):
        a = periodic(lambda t: -1.0 + 0.5 * math.sin(t))
        sdp = ScalarDelayProblem.from_phi(a, lambda y, yd: 0.0, TWO_PI, TWO_PI + 1.0)
        assert sdp.delay == pytest.approx(1.0)

    def test_zero_average_rejected(self):
        with pytest.raises(ZeroAverageError):
            ScalarDelayProblem.from_phi(periodic(math.sin), lambda y, yd: 0.0, TWO_PI, 1.0)
