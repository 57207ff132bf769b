"""Problem data model: delay normalization, quadrature, boxes, histories."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

import ddebranch
from ddebranch import Box, CoupledProblem, History, PeriodicFn1D, average_scalar, normalize_delay
from ddebranch.errors import InvalidParameterError, ZeroAverageError
from ddebranch.problem import (_hermite, _hermite_array, _hermite_deriv, _hermite_eval, _sample_at,
                               _simpson_rule, quadrature_times, simpson_mean)

from conftest import TWO_PI, periodic, scalar_problem


class TestNormalizeDelay:
    def test_multiple_periods(self):
        assert normalize_delay(7.5, 2.0) == 1.5

    def test_boundary_r_equals_T(self):
        assert normalize_delay(2.0, 2.0) == 2.0

    def test_already_normalized(self):
        assert normalize_delay(0.3, TWO_PI) == 0.3

    def test_exact_multiple_maps_to_T(self):
        assert normalize_delay(6.0, 2.0) == pytest.approx(2.0)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = float(rng.uniform(0.01, 50.0))
            T = float(rng.uniform(0.1, 10.0))
            once = normalize_delay(r, T)
            assert 0.0 < once <= T
            assert normalize_delay(once, T) == once

    @pytest.mark.parametrize("r,T", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_nonpositive_arguments(self, r, T):
        with pytest.raises(InvalidParameterError):
            normalize_delay(r, T)


class TestAverageScalar:
    def test_constant(self):
        assert average_scalar(PeriodicFn1D.constant(3.25, TWO_PI)) == pytest.approx(3.25, abs=1e-13)

    def test_sine_cancels(self):
        assert abs(average_scalar(periodic(math.sin))) < 1e-12

    def test_reciprocal_shifted_sine(self):
        # (1/2pi) int dt/(2 + sin t) = 1/sqrt(3)
        fn = periodic(lambda t: 1.0 / (2.0 + math.sin(t)))
        assert average_scalar(fn) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f1 = periodic(lambda t: math.sin(t) + 0.3 * math.cos(2 * t))
        f2 = periodic(lambda t: 1.0 / (2.0 + math.sin(t)))
        for _ in range(20):
            c1, c2 = rng.uniform(-5, 5, size=2)
            combo = periodic(lambda t, c1=c1, c2=c2: c1 * f1(t) + c2 * f2(t))
            expected = c1 * average_scalar(f1) + c2 * average_scalar(f2)
            assert average_scalar(combo) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [7, 9, 4, 0])
    def test_bad_quadrature_count(self, n):
        with pytest.raises(InvalidParameterError):
            average_scalar(PeriodicFn1D.constant(1.0, 1.0), n_quad=n)

    def test_array_failure_is_not_swallowed(self):
        # Only TypeError and ValueError mean "scalar-only callable"; any
        # other error from the array call must surface.
        def ev(t):
            if np.ndim(t):
                raise RuntimeError("broken array path")
            return 1.0

        with pytest.raises(RuntimeError, match="broken array path"):
            average_scalar(periodic(ev))


def _simpson_weights(n):
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


class TestQuadratureCache:
    def test_rule_and_times_are_built_once_and_read_only(self):
        w, ts = _simpson_rule(64), quadrature_times(TWO_PI, 64)
        assert _simpson_rule(64) is w and quadrature_times(TWO_PI, 64) is ts
        for cached in (w, ts, ts.reshape(65, 1)):
            with pytest.raises(ValueError):
                cached[1] = 0.0

    def test_rule_and_times_keep_their_bits(self):
        for period, n in ((TWO_PI, 64), (1.0, 128), (2.5, 1024)):
            assert np.array_equal(_simpson_rule(n), _simpson_weights(n))
            ts = quadrature_times(period, n)
            assert ts.tobytes() == np.linspace(0.0, period, n + 1).tobytes()

    def test_bad_n_quad_raises_before_a_is_sampled(self):
        calls = []

        def a(t):
            calls.append(t)
            return -1.0 + 0.0 * np.asarray(t)

        with pytest.raises(InvalidParameterError, match="n_quad must be even and >= 8, got 7"):
            CoupledProblem(dim_x=0, dim_y=1, g=lambda x, y: y, a=periodic(a), period=TWO_PI,
                           delay=1.0, n_quad=7)
        assert calls == []


class TestSimpsonMean:
    def test_one_and_two_axes_keep_the_weight_product(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((65, 3))
        w = _simpson_weights(64)
        assert np.array_equal(simpson_mean(values), w @ values / 64)
        assert simpson_mean(values[:, 1]) == w @ values[:, 1] / 64

    def test_three_axes_match_per_column_means(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((129, 5, 2)) * np.exp(3.0 * rng.standard_normal((5, 2)))
        got = simpson_mean(values)
        assert got.shape == (5, 2)
        want = np.array([[simpson_mean(values[:, b, c]) for c in range(2)] for b in range(5)])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_three_axes_column_does_not_depend_on_batch_size(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((129, 6, 1)) * np.exp(3.0 * rng.standard_normal((6, 1)))
        full = simpson_mean(values)
        for b in range(6):
            assert np.array_equal(simpson_mean(values[:, b:b + 1]), full[b:b + 1])
            assert np.array_equal(simpson_mean(values[:, : b + 1]), full[: b + 1])


def _sample_inputs():
    """(t, y) argument pairs for _sample_at: a column against a row, a
    Python float beside an array, and arrays that already have the
    broadcast shape (each alone, and both)."""
    ts = np.linspace(0.0, 1.0, 4)[:, None]
    ys = np.array([0.5, -1.0, 2.0])
    full_t, full_y = np.broadcast_arrays(ts, ys)
    return [(ts, ys), (0.25, ys), (0.75, full_y), (full_t.copy(), ys),
            (full_t.copy(), full_y.copy()), (ts, full_y.copy())]


class TestSampleAt:
    def test_scalar_only_callable_broadcasts_elementwise(self):
        fn = lambda t, y: math.sin(y) * t if t < 0.5 else y
        for ts, ys in _sample_inputs():
            shape = np.broadcast_shapes(np.shape(ts), np.shape(ys))
            got = _sample_at(fn, ts, ys)
            want = np.array([fn(float(t), float(y)) for t, y in np.broadcast(ts, ys)]).reshape(shape)
            assert got.shape == shape
            assert np.array_equal(got, want)

    def test_result_ignoring_an_argument_is_broadcast(self):
        for ts, ys in _sample_inputs():
            got = _sample_at(lambda t, y: np.sin(y), ts, ys)
            shape = np.broadcast_shapes(np.shape(ts), np.shape(ys))
            assert np.array_equal(got, np.broadcast_to(np.sin(ys), shape))


def test_no_silently_swallowed_broad_exceptions():
    package = Path(ddebranch.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name) and node.type.id in ("Exception", "BaseException")
            )
            if broad and all(isinstance(stmt, ast.Pass) for stmt in node.body):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_one_hermite_evaluator():
    # Every piecewise-cubic read (histories, trajectories, sigma) goes
    # through problem._hermite and problem._hermite_array; no other
    # function looks up a segment itself.
    package = Path(ddebranch.__file__).parent
    allowed = {("problem.py", "_hermite"), ("problem.py", "_hermite_array")}
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                if name in ("bisect_right", "searchsorted") and (path.name, func.name) not in allowed:
                    offenders.append(f"{path.name}:{func.name}:{node.lineno}")
    assert offenders == []


class TestPeriodicFn1D:
    def test_periodicity(self):
        fn = periodic(lambda t: math.cos(3 * t) - 0.2 * math.sin(t))
        for t in np.linspace(0, TWO_PI, 23):
            assert fn(t + TWO_PI) == pytest.approx(fn(t), abs=1e-12)

    def test_nonpositive_period(self):
        with pytest.raises(InvalidParameterError):
            PeriodicFn1D(eval=lambda t: 0.0, period=0.0)

    def test_remembers_the_last_python_float_time(self):
        calls = []

        def counted(t):
            calls.append(t)
            return np.cos(t)

        fn = periodic(counted)
        assert fn(0.5) == fn(0.5) == math.cos(0.5)
        assert calls == [0.5]
        fn(0.25)
        assert fn(0.5) == math.cos(0.5)
        assert calls == [0.5, 0.25, 0.5]
        # np.float64 and arrays always call eval, and leave the memo alone.
        fn(np.float64(0.5))
        assert np.array_equal(fn(np.array([0.5, 1.0])), np.cos([0.5, 1.0]))
        fn(0.5)
        assert len(calls) == 5
        # The memo takes no part in equality or hashing.
        assert fn == periodic(counted) and hash(fn) == hash(periodic(counted))


class TestBox:
    def test_basic_queries(self):
        b = Box(lower=[-1.0, 0.0], upper=[1.0, 2.0])
        assert b.dim == 2
        assert b.scale == 2.0
        assert np.allclose(b.center(), [0.0, 1.0])
        assert b.contains([0.5, 1.5])
        assert not b.contains([1.5, 1.0])
        assert b.contains([1.0 + 1e-9, 1.0], tol=1e-8)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidParameterError):
            Box(lower=[0.0], upper=[0.0])
        with pytest.raises(InvalidParameterError):
            Box(lower=[1.0, 0.0], upper=[0.0, 1.0])


class TestHistory:
    def test_node_values_exact(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((17, 2))
        hist = History.from_values(values, delay=0.7)
        for j, theta in enumerate(hist.grid):
            assert np.array_equal(hist.eval(theta), values[j])

    def test_constant_history(self):
        hist = History.constant([1.0, -2.0], delay=1.0, m=16)
        assert hist.m == 16
        assert np.array_equal(hist.terminal(), [1.0, -2.0])
        assert np.array_equal(hist.eval(-0.37), [1.0, -2.0])

    def test_interpolation_accuracy(self):
        # Cubic interpolation of a smooth function on 33 nodes.
        grid = np.linspace(-1.0, 0.0, 33)
        values = np.column_stack([np.sin(3 * grid), np.cos(2 * grid)])
        hist = History.from_values(values, delay=1.0)
        for theta in np.linspace(-1.0, 0.0, 101):
            exact = np.array([math.sin(3 * theta), math.cos(2 * theta)])
            assert np.max(np.abs(hist.eval(theta) - exact)) < 1e-5

    def test_minimum_resolution(self):
        with pytest.raises(InvalidParameterError):
            History.constant([0.0], delay=1.0, m=7)

    def test_sup_distance(self):
        h1 = History.constant([0.0], delay=1.0, m=8)
        h2 = History.constant([0.25], delay=1.0, m=8)
        assert h1.sup_distance(h2) == 0.25

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            History(delay=1.0, values=np.zeros((9, 1)), derivs=np.zeros((9, 2)))

    @pytest.mark.parametrize("m", [8, 16, 33])
    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_slopes_match_scipy_not_a_knot(self, m, batch):
        values = np.random.default_rng(m).standard_normal((m + 1,) + batch + (2,))
        hist = History.from_values(values, delay=0.7)
        want = CubicSpline(hist.grid, values, axis=0)(hist.grid, 1)
        assert hist.derivs.shape == values.shape
        assert np.max(np.abs(hist.derivs - want)) <= 1e-14 * np.max(np.abs(want))

    def test_slopes_reproduce_a_cubic(self):
        # A not-a-knot spline through a cubic's node values is that cubic.
        grid = np.linspace(-1.3, 0.0, 13)
        poly = np.polynomial.Polynomial([0.4, -1.1, 2.5, 1.7])
        hist = History.from_values(np.column_stack([poly(grid), -poly(grid)]), delay=1.3)
        slopes = poly.deriv()(grid)
        assert np.max(np.abs(hist.derivs - np.column_stack([slopes, -slopes]))) <= 1e-12

    def test_one_dimensional_values_are_a_scalar_history(self):
        values = np.sin(np.linspace(0.0, 2.0, 17))
        column = History.from_values(values[:, None], delay=0.7)
        for hist in (History.from_values(values, delay=0.7),
                     History(delay=0.7, values=values, derivs=column.derivs[:, 0])):
            assert hist.values.shape == hist.derivs.shape == (17, 1)
            assert hist.m == 16 and hist.dim == 1
            assert hist.values.tobytes() == column.values.tobytes()
            assert hist.derivs.tobytes() == column.derivs.tobytes()

    @pytest.mark.parametrize("nodes, delay", [(8, 1.0), (9, 0.0)])
    def test_from_values_rejects_bad_grid(self, nodes, delay):
        with pytest.raises(InvalidParameterError):
            History.from_values(np.zeros((nodes, 1)), delay=delay)


class TestHermite:
    """The one piecewise-cubic Hermite evaluator, against SciPy's, on an
    uneven grid with (batch, component) trailing axes."""

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(11)
        grid = np.cumsum(rng.uniform(0.05, 1.0, 12)) - 3.0
        return grid, rng.standard_normal((12, 3, 2)), rng.standard_normal((12, 3, 2))

    def test_matches_scipy(self, data):
        grid, values, derivs = data
        ts = np.random.default_rng(12).uniform(grid[0], grid[-1], 500)
        spline = CubicHermiteSpline(grid, values, derivs)
        for deriv, want in ((False, spline(ts)), (True, spline(ts, 1))):
            got = _hermite(grid, values, derivs, ts, deriv)
            assert got.shape == (500, 3, 2)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_nodes_and_near_nodes_read_the_node(self, data):
        grid, values, derivs = data
        h = np.diff(grid)
        for j, g in enumerate(grid):
            left, right = h[max(j - 1, 0)], h[min(j, len(h) - 1)]
            for t in (g, g - 1e-10 * left, g + 1e-10 * right):
                for deriv, want in ((False, values[j]), (True, derivs[j])):
                    assert np.array_equal(_hermite(grid, values, derivs, float(t), deriv), want)
                    got = _hermite(grid, values, derivs, np.array([t]), deriv)
                    assert np.array_equal(got[0], want)

    def test_scalar_bit_equal_to_array(self, data):
        grid, values, derivs = data
        ts = np.concatenate([grid, np.random.default_rng(13).uniform(grid[0], grid[-1], 200)])
        for deriv in (False, True):
            rows = _hermite(grid, values, derivs, ts, deriv)
            for t, row in zip(ts, rows):
                got = _hermite(grid, values, derivs, float(t), deriv)
                assert got.tobytes() == row.tobytes()


    def test_one_lookup_reads_values_and_slopes(self, data):
        grid, values, derivs = data
        ts = np.concatenate([grid, np.random.default_rng(14).uniform(grid[0], grid[-1], 200)])
        both = _hermite_array(grid, values, derivs, ts, (_hermite_eval, _hermite_deriv))
        for deriv, got in zip((False, True), both):
            assert got.tobytes() == _hermite(grid, values, derivs, ts, deriv).tobytes()


class TestCoupledProblem:
    def test_delay_normalized_at_construction(self):
        prob = scalar_problem(lambda y: y, period=2.0, delay=7.5,
                              a_fn=lambda t: -1.0 + 0.5 * math.sin(math.pi * t))
        assert prob.delay == 1.5

    def test_zero_average_rejected(self):
        with pytest.raises(ZeroAverageError):
            scalar_problem(lambda y: y, a_fn=math.sin)

    def test_nonperiodic_coefficient_rejected(self):
        with pytest.raises(InvalidParameterError):
            scalar_problem(lambda y: y, a_fn=lambda t: t)

    def test_coefficient_period_mismatch(self):
        with pytest.raises(InvalidParameterError):
            CoupledProblem(
                dim_x=0, dim_y=1, g=lambda x, y: y,
                a=PeriodicFn1D.constant(-1.0, 1.0), period=TWO_PI, delay=1.0,
            )

    def test_nonperiodic_f_rejected(self):
        with pytest.raises(InvalidParameterError):
            CoupledProblem(
                dim_x=1, dim_y=1,
                f=lambda t, x, y, xd, yd: np.array([t]),
                g=lambda x, y: y,
                a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0,
            )

    def test_k_zero_has_empty_f(self):
        prob = scalar_problem(lambda y: y)
        assert prob.dim_x == 0
        assert prob.dim == 1
        assert prob.eval_f(0.0, np.zeros(0), [1.0], np.zeros(0), [1.0]).size == 0

    def test_f_required_when_k_positive(self):
        with pytest.raises(InvalidParameterError):
            CoupledProblem(
                dim_x=1, dim_y=1, g=lambda x, y: y,
                a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0,
            )

    def test_average_stored(self):
        prob = scalar_problem(lambda y: y)
        assert prob.abar == pytest.approx(-1.0, abs=1e-10)

    def test_split(self):
        prob = scalar_problem(lambda y: y)
        x, y = prob.split(np.array([4.0]))
        assert x.size == 0 and y[0] == 4.0
