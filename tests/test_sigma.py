"""Sigma transformation and the Lienard-plane reduction."""

import math
from typing import Optional

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from ddebranch import (
    History,
    PeriodicFn1D,
    average_scalar,
    integrate,
    lienard_reduce,
    lienard_residual,
    nu_field,
    sigma_transform,
    verify_sigma,
    wbar,
)
from ddebranch.errors import InvalidParameterError, ZeroAverageError
from ddebranch.lienard import _SIGMA_CELLS, ScalarDelayProblem, _cumulative_simpson, primitive_of
from ddebranch.problem import _sample_at, quadrature_times

from conftest import TWO_PI, periodic


# Oracle of test_uniqueness_of_integration_constant: zeta by forward
# quadrature for any candidate constant c, independent of the stable
# evaluation in lienard._zeta_periodic.
def _zeta_grid(a: PeriodicFn1D, n_cells: int, c: Optional[float] = None):
    """zeta values on a grid with midpoints; returns (grid, zeta, c_used, abar)."""
    T = a.period
    n2 = 2 * n_cells
    h2 = T / n2
    grid = np.linspace(0.0, T, n2 + 1)
    avals = _sample_at(a, grid)
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


def zeta_endpoint_gap(a: PeriodicFn1D, c: float, n_quad: int = _SIGMA_CELLS) -> float:
    """|zeta(0) - zeta(T)| for the candidate integration constant c.

    Zero (up to quadrature error) only at the closed-form c0, reflecting the
    uniqueness of the periodic solution.
    """
    _, zeta, _, _ = _zeta_grid(a, n_quad, c=c)
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
        slopes = values * (_sample_at(a, grid) + values)
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
        # and maps it back: sigma_a(t) = -sigma_atilde(T - t).
        calls = []

        def counted(t):
            calls.append(np.ndim(t))
            return _COEFFICIENTS["positive"](t)

        a = periodic(counted)
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

    def test_vanishing_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_sigma(PeriodicFn1D.constant(-2.0, TWO_PI), math.sin)


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


class TestPrimitive:
    def test_constant_derivative(self):
        G = primitive_of(lambda y: 1.0)
        assert G(3.0) == pytest.approx(3.0, abs=1e-12)
        assert G(0.0) == 0.0

    def test_linear_derivative(self):
        G = primitive_of(lambda y: y)
        assert G(2.0) == pytest.approx(2.0, abs=1e-10)
        assert G(-3.0) == pytest.approx(4.5, abs=1e-10)


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

    def test_nu_matches_wbar(self):
        sdp, sigma = self._setup()
        prob = lienard_reduce(sdp, sigma)
        wb = wbar(sdp.f, sigma, TWO_PI)
        nu = nu_field(prob, n_quad=512)
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
        # f keeps gamma on the last array of times; a new grid, a grid of
        # the same shape with other values, and an array written to in
        # place since the last call must each be read afresh.
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
            want = (_sample_at(sdp.f.phi, y[:, 0], yd[:, 0]) / _sample_at(sigma, t))[..., None]
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
