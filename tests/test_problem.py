"""Problem data model: delay normalization, quadrature, boxes, histories."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

import ddebranch
from ddebranch import Box, CoupledProblem, History, PeriodicFn1D, average_scalar, integrate, normalize_delay
from ddebranch import problem as problem_module
from ddebranch.config import load_problem
from ddebranch.errors import InvalidParameterError, ZeroAverageError
from ddebranch.lienard import ScalarDelayProblem, lienard_reduce, sigma_transform
from ddebranch.presets import default_sunflower
from ddebranch.problem import BatchField, _hermite_array, _simpson_rule, quadrature_times, simpson_mean

from conftest import (FOLD_PROBLEM, TWO_PI, fold_problem, hermite_at, history_at, periodic, scalar_problem,
                      unit_drive_problem)


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
        # a is probed once, when it is built; the count starts after that.
        calls = []

        def a(t):
            calls.append(t)
            return -1.0 + 0.0 * np.asarray(t)

        coefficient = periodic(a)
        calls.clear()
        with pytest.raises(InvalidParameterError, match="n_quad must be even and >= 8, got 7"):
            CoupledProblem(dim_x=0, dim_y=1, g=lambda x, y: y, a=coefficient, period=TWO_PI,
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
    """Argument pairs of a function of two reals: a column against a row,
    a Python float beside an array, and arrays that already have the
    broadcast shape (each alone, and both)."""
    ts = np.linspace(0.0, 1.0, 4)[:, None]
    ys = np.array([0.5, -1.0, 2.0])
    full_t, full_y = np.broadcast_arrays(ts, ys)
    return [(ts, ys), (0.25, ys), (0.75, full_y), (full_t.copy(), ys),
            (full_t.copy(), full_y.copy()), (ts, full_y.copy())]


def _scalar_only(u, v):
    """A function of two floats that no array call can take."""
    return math.sin(v) * u if u < 0.5 else v


def _reduced_phi(phi):
    """phi as lienard_reduce decided it: the callable of the Leaf
    phi(y1, yd1) in its f's expression phi/gamma(t)."""
    sdp = ScalarDelayProblem.from_phi(PeriodicFn1D.constant(-1.0, TWO_PI), phi, TWO_PI, 1.0)
    problem = lienard_reduce(sdp, periodic(lambda t: 2.0 + math.sin(t)))
    (e,) = problem.f.exprs
    return problem, e.root.left.owner


class TestDecidedCallables:
    """A Python a(t) or phi(y, yd) is decided once: kept when it takes
    arrays, else called per point on Python floats; a result that ignores
    an argument is broadcast to the arguments' shape."""

    def test_scalar_only_coefficient_is_called_per_point(self):
        fn = lambda t: _scalar_only(t, 2.0 * t)
        a = periodic(fn)
        for t in (np.linspace(0.0, 1.0, 4)[:, None], np.array([0.25, 0.75]), np.array(0.3), 0.6):
            want = np.array([fn(float(u)) for u in np.ravel(t)]).reshape(np.shape(t))
            assert np.shape(a(t)) == np.shape(t)
            assert np.array_equal(a(t), want)

    def test_coefficient_ignoring_t_is_broadcast(self):
        for fn in (lambda t: 2.5, lambda t: np.float64(2.5)):
            a = periodic(fn)
            for ts, _ in _sample_inputs():
                assert np.array_equal(a(np.asarray(ts)), np.full(np.shape(ts), 2.5))

    def test_scalar_only_phi_is_called_per_point(self):
        problem, phi = _reduced_phi(_scalar_only)
        for ys, yds in _sample_inputs():
            shape = np.broadcast_shapes(np.shape(ys), np.shape(yds))
            want = np.array([_scalar_only(float(y), float(yd)) for y, yd in np.broadcast(ys, yds)]).reshape(shape)
            got = phi(ys, yds)
            assert got.shape == shape
            assert np.array_equal(got, want)
        ts = quadrature_times(TWO_PI, 16)[:, None]
        y, yd = np.array([[0.3], [0.7]]), np.array([[-0.4], [1.2]])
        want = np.array([_scalar_only(0.3, -0.4), _scalar_only(0.7, 1.2)]) / problem.a(ts)  # a is gamma
        assert problem.eval_f(ts, y, y, yd, yd).tobytes() == want[..., None].tobytes()

    def test_phi_ignoring_an_argument_is_kept_and_broadcast(self):
        # np.sin(yd) ignores y, and 0.5 both arguments: each takes arrays,
        # so it is kept, and f broadcasts its value to the states' shape.
        y = np.array([[0.3], [0.7], [-0.1]])
        for fn in (lambda y, yd: np.sin(yd), lambda y, yd: 0.5):
            problem, phi = _reduced_phi(fn)
            assert phi is fn
            got = problem.eval_f(1.5, y, y, y, y)
            assert got.shape == (3, 1)
            assert np.array_equal(got[:, 0], np.broadcast_to(fn(y[:, 0], y[:, 0]), (3,)) / (2.0 + math.sin(1.5)))


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


def test_one_probe_catches_type_error():
    # Every Python callable is decided once, by problem._decide, the one
    # place that catches the TypeError of an array call a callable cannot
    # take (problem._sample_at caught it again on every call, 412 times in
    # a sunflower-homotopy request).  The one other is degree._as_handle's
    # 1-d argument rule (a row's float, else the row): one float call on
    # the box's lower corner, at entry (it tried the float and caught its
    # error again at every point before).
    package = Path(ddebranch.__file__).parent
    allowed = {("problem.py", "_decide"), ("degree.py", "_as_handle")}
    catches = {"TypeError", "Exception", "BaseException"}
    found, offenders = set(), []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(t is None or getattr(t, "id", None) in catches for t in types):
                    where = (path.name, getattr(top, "name", None))
                    (found.add if where in allowed else offenders.append)(where)
    assert offenders == []
    assert found == allowed


def test_one_hermite_evaluator():
    # Every piecewise-cubic read (histories, trajectories, sigma) goes
    # through problem._hermite_lookup (which _hermite_array and the
    # integrator's sweep plans use); no other function looks up a segment
    # itself.  The scalar read that bisected the grid (problem._hermite,
    # for sigma at a float time) is the tests' reference now.
    package = Path(ddebranch.__file__).parent
    allowed = {("problem.py", "_hermite_lookup")}
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


class TestBox:
    def test_basic_queries(self):
        b = Box(lower=[-1.0, 0.0], upper=[1.0, 2.0])
        assert b.dim == 2
        assert b.scale == 2.0
        assert b.contains([0.5, 1.5])
        assert not b.contains([1.5, 1.0])
        assert b.contains([1.0 + 1e-9, 1.0], tol=1e-8)

    @pytest.mark.parametrize("tol", [0.0, 1e-8])
    def test_history_values_are_tested_row_by_row(self, tol):
        # An (m+1, d) array of node values is inside when every row is,
        # as the loop over rows that contains replaced decided.
        b = Box(lower=[-1.0, 0.0], upper=[1.0, 2.0])
        inside = np.column_stack([np.linspace(-0.9, 0.9, 9), np.linspace(0.1, 1.9, 9)])
        on_edge = inside.copy()
        on_edge[4] = [1.0 + 0.5e-8, 2.0]
        outside = inside.copy()
        outside[7] = [0.5, 2.5]
        for values, want in ((inside, True), (on_edge, tol > 0), (outside, False)):
            assert b.contains(values, tol=tol) is want
            assert all(b.contains(v, tol=tol) for v in values) is want

    def test_equality_is_identity_and_a_box_hashes(self):
        # A generated __eq__ compared the bound arrays, and == raised
        # ValueError (the truth value of an array); the hash raised TypeError.
        b, twin = Box([0.0, 0.0], [1.0, 1.0]), Box([0.0, 0.0], [1.0, 1.0])
        assert b == b and b != twin
        assert len({b, twin, b}) == 2

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
            assert np.array_equal(history_at(hist, theta), values[j])

    def test_constant_history(self):
        hist = History.constant([1.0, -2.0], delay=1.0, m=16)
        assert hist.m == 16
        assert np.array_equal(hist.terminal(), [1.0, -2.0])
        assert np.array_equal(history_at(hist, -0.37), [1.0, -2.0])

    def test_equality_is_identity_and_a_history_hashes(self):
        # As for Box: a generated __eq__ compared the value arrays and raised.
        hist, twin = History.constant([0.0], delay=1.0, m=8), History.constant([0.0], delay=1.0, m=8)
        assert hist == hist and hist != twin
        assert len({hist, twin, hist}) == 2

    def test_interpolation_accuracy(self):
        # Cubic interpolation of a smooth function on 33 nodes.
        grid = np.linspace(-1.0, 0.0, 33)
        values = np.column_stack([np.sin(3 * grid), np.cos(2 * grid)])
        hist = History.from_values(values, delay=1.0)
        for theta in np.linspace(-1.0, 0.0, 101):
            exact = np.array([math.sin(3 * theta), math.cos(2 * theta)])
            assert np.max(np.abs(history_at(hist, theta) - exact)) < 1e-5

    def test_minimum_resolution(self):
        with pytest.raises(InvalidParameterError):
            History.constant([0.0], delay=1.0, m=7)

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
                     History(delay=0.7, values=values)):
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
        want = CubicHermiteSpline(grid, values, derivs)(ts)
        got = _hermite_array(grid, values, derivs, ts)
        assert got.shape == (500, 3, 2)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_nodes_and_near_nodes_read_the_node(self, data):
        grid, values, derivs = data
        h = np.diff(grid)
        for j, g in enumerate(grid):
            left, right = h[max(j - 1, 0)], h[min(j, len(h) - 1)]
            for t in (g, g - 1e-10 * left, g + 1e-10 * right):
                assert np.array_equal(hermite_at(grid, values, derivs, float(t)), values[j])
                assert np.array_equal(_hermite_array(grid, values, derivs, float(t)), values[j])
                assert np.array_equal(_hermite_array(grid, values, derivs, np.array([t]))[0], values[j])

    def test_array_node_read_copies_the_node(self, data):
        # As the scalar read does: the cubic at u = 0 would add a +0.0 slope
        # term to a -0.0 node value and return +0.0.
        grid, values, derivs = data
        values, derivs = values.copy(), np.zeros_like(derivs)
        values[4] = -0.0
        for ts in (grid[3:6], grid[3:6] + 1e-12):
            got = _hermite_array(grid, values, derivs, ts)
            assert got.tobytes() == values[3:6].tobytes()

    def test_scalar_bit_equal_to_array(self, data):
        # The evaluator at each float time, and the scalar reference read
        # (conftest.hermite_at), give the bits of one array read.
        grid, values, derivs = data
        ts = np.concatenate([grid, np.random.default_rng(13).uniform(grid[0], grid[-1], 200)])
        rows = _hermite_array(grid, values, derivs, ts)
        for t, row in zip(ts, rows):
            assert _hermite_array(grid, values, derivs, float(t)).tobytes() == row.tobytes()
            assert hermite_at(grid, values, derivs, float(t)).tobytes() == row.tobytes()


    def test_zero_dimensional_t_reads_one_row(self, data):
        # A 0-d t reads one row of shape values.shape[1:], the same bits.
        grid, values, derivs = data
        ts = np.concatenate([grid, np.random.default_rng(14).uniform(grid[0], grid[-1], 200)])
        rows = _hermite_array(grid, values, derivs, ts)
        for k in (0, 5, 20):
            one = _hermite_array(grid, values, derivs, np.array(ts[k]))
            assert one.shape == (3, 2)
            assert one.tobytes() == rows[k].tobytes()


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

    def test_periodicity_mismatch_names_its_first_time(self):
        # a mismatches from t = 3 on, f from t = 1 on: the first mismatching
        # sample time, k T/17, is 9 T/17 for a alone and 3 T/17 with f.
        a = periodic(lambda t: -1.0 + (0.5 if t > TWO_PI + 3.0 else 0.0))
        fs = {"periodic": lambda t, x, y, xd, yd: np.array([math.sin(t)]),
              "late": lambda t, x, y, xd, yd: np.array([max(t - TWO_PI - 1.0, 0.0)])}
        for f, message in (("periodic", "coefficient a is not {}-periodic (mismatch at t=3.326)"),
                           ("late", "field f is not {}-periodic in t (mismatch at t=1.109)")):
            with pytest.raises(InvalidParameterError) as exc:
                CoupledProblem(dim_x=1, dim_y=1, f=fs[f], g=lambda x, y: y, a=a,
                               period=TWO_PI, delay=1.0)
            assert str(exc.value) == message.format(TWO_PI)

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


class TestFieldContract:
    """Each field is a BatchField after construction: one given as a
    BatchField is kept, any other callable is its own batch function when
    the probe batch gives its per-row results bit for bit, and row by row
    (problem._per_row, which keeps the callable as __wrapped__) otherwise."""

    def test_numpy_g_takes_a_batch_once_per_stage(self):
        calls = []

        def g(x, y):
            calls.append(len(y))
            return y - y ** 3

        prob = unit_drive_problem(g)
        assert prob.g.fn is g
        calls.clear()
        init = History.from_values(np.random.default_rng(2).uniform(-0.5, 0.5, (9, 3, 1)), 1.0)
        integrate(prob, 0.3, 1.0, init, TWO_PI, steps_per_delay=8)
        assert calls == [3] * 205  # 615 calls of one row each, row by row

    def test_fields_that_do_not_take_a_batch_run_row_by_row(self):
        # fold_problem("float")'s g reads floats, and the row-mixing g
        # returns the batch shape by coincidence (3 rows of s = 3
        # components) but other values.  Its h = 1 ignores the batch: its
        # broadcast gives the per-row values, so it is kept.
        rotate = lambda x, y: np.array([y[1], y[2], y[0]])
        mixed = CoupledProblem(dim_x=0, dim_y=3, g=rotate, a=PeriodicFn1D.constant(-1.0, TWO_PI),
                               period=TWO_PI, delay=1.0)
        fold = fold_problem("float")
        assert mixed.g.fn.__wrapped__ is rotate
        x = np.zeros((4, 0))
        for prob in (fold, mixed):
            g = prob.g.fn.__wrapped__
            y = np.random.default_rng(5).uniform(-1.0, 1.0, (4, prob.dim_y))
            want = np.array([g(x[i], y[i]) for i in range(4)], dtype=float)
            assert prob.eval_g(x, y).tobytes() == want.tobytes()
        assert not hasattr(fold.h.fn, "__wrapped__")
        assert fold.eval_h(0.5, x, np.ones((4, 1)), x, np.ones((4, 1))).tolist() == [[1.0]] * 4

    def test_field_ignoring_the_batch_is_kept_and_broadcast(self):
        calls = []

        def h(t, x, y, xd, yd):
            calls.append(np.shape(y))
            return np.ones(1)

        prob = CoupledProblem(dim_x=0, dim_y=1, g=lambda x, y: y - y ** 3, h=h,
                              a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0)
        assert prob.h.fn is h
        assert prob.eval_h(0.5, np.zeros((4, 0)), np.ones((4, 1)), np.zeros((4, 0)), np.ones((4, 1))).shape == (4, 1)
        calls.clear()
        init = History.from_values(np.random.default_rng(2).uniform(-0.5, 0.5, (9, 3, 1)), 1.0)
        integrate(prob, 0.3, 1.0, init, TWO_PI, steps_per_delay=8)
        assert calls == [(3, 1)] * 205

    def test_field_raising_at_the_probe_runs_row_by_row(self):
        g = lambda x, y: [math.log(y[0] - 1.0)]
        prob = CoupledProblem(dim_x=0, dim_y=1, g=g, a=PeriodicFn1D.constant(-1.0, TWO_PI),
                              period=TWO_PI, delay=1.0)
        assert prob.g.fn.__wrapped__ is g
        assert prob.eval_g(np.zeros((2, 0)), np.array([[2.0], [1.0 + math.e]])).tolist() == [[0.0], [1.0]]

    def test_replace_keeps_each_stored_field(self):
        calls = []

        def g(x, y):
            calls.append(1)
            return y - y ** 3

        prob = unit_drive_problem(g)
        calls.clear()
        replaced = dataclasses.replace(prob, n_quad=32)
        assert calls == []
        assert replaced.g is prob.g and replaced.h is prob.h

    @pytest.mark.parametrize("block", [
        FOLD_PROBLEM,
        {"preset": "sunflower"},
        {"preset": "classic-sunflower", "alpha": 6.0, "beta": -1.0, "r": 1.0},
    ])
    def test_config_problems_keep_their_own_batch_fields(self, block, monkeypatch):
        # The DSL and the Lienard-reduced presets build BatchFields, with
        # their expressions, and declare their coefficient a and sigma as
        # BatchFields too, so no problem a config or a benchmark workload
        # builds probes a callable, and its compiled stage calls no Python
        # field.
        def no_probe(fn, *args):
            raise AssertionError(f"probed {fn}")

        monkeypatch.setattr(problem_module, "_decide", no_probe)
        prob = load_problem({"problem": block, "numerics": {"n_quad": 16}}).coupled
        replaced = dataclasses.replace(prob, n_quad=32)
        for name in ("f", "g", "h"):
            assert getattr(prob, name) is None or getattr(prob, name).exprs is not None
            assert getattr(replaced, name) is getattr(prob, name)


def _stage_times(t_end: float, h: float) -> np.ndarray:
    """integrate's stage times for a step h: its nodes, and the midpoint
    t0 + 0.5*(t1 - t0) of each step."""
    n = int(np.floor(t_end / h + 1e-9))
    times = np.append(np.arange(n + 1) * h, t_end)
    stage_t = np.empty(2 * len(times) - 1)
    stage_t[0::2] = times
    stage_t[1::2] = times[:-1] + 0.5 * np.diff(times)
    return stage_t


def _python_f_problem() -> CoupledProblem:
    """The forced sunflower y'' = a y' + lam (sin(yd) + 0.5 cos t) from a
    Python f that reads t, reduced by its sigma."""
    a = periodic(lambda t: -1.0 + 0.5 * np.sin(t))
    sdp = ScalarDelayProblem(a=a, f=lambda t, y, yd: np.sin(yd) + 0.5 * np.cos(t), period=TWO_PI, delay=1.0)
    return lienard_reduce(sdp, sigma_transform(a).sigma)


_LIENARD_PROBLEMS = {
    "sunflower": lambda: load_problem({"problem": {"preset": "sunflower"}}).coupled,
    "sunflower-phi": lambda: load_problem({"problem": {"preset": "sunflower", "phi": "sin(yd1) - 0.1*y1"}}).coupled,
    "classic-sunflower": lambda: load_problem(
        {"problem": {"preset": "classic-sunflower", "alpha": 6.0, "beta": -1.0, "r": 1.0}}).coupled,
    "python-phi": lambda: default_sunflower().coupled,
    "python-f": _python_f_problem,
}


class TestPresetStage:
    """The sunflower presets carry phi/sigma(t) and x1 - y1 as DSL
    expressions, and a Python phi or f enters f's expression as a Leaf;
    the compiled stage gives the bits of the fields' own callables, called
    as leaves of the stage."""

    @pytest.mark.parametrize("mu", [1.0, 0.5])
    @pytest.mark.parametrize("name", sorted(_LIENARD_PROBLEMS))
    def test_sweep_equals_the_field_path(self, name, mu):
        # At mu = 0.5 a phi/sigma(t) drive is <1/sigma> * phi(y, y), and the
        # fields' average_f, the mean of phi(y, y)/sigma(t), agrees with it
        # to within a few ulps; an f that reads t has average_f's drive
        # both ways, so the same bits.
        problem = dataclasses.replace(_LIENARD_PROBLEMS[name](), n_quad=64)
        init = History.from_values(np.random.default_rng(0).uniform(-0.3, 0.3, (9, 19, 2)), problem.delay)
        compiled = integrate(problem, 0.5, mu, init, TWO_PI, steps_per_delay=8)
        callables = dataclasses.replace(problem, f=BatchField(problem.f.fn), g=BatchField(problem.g.fn))
        fields = integrate(callables, 0.5, mu, init, TWO_PI, steps_per_delay=8)
        if mu == 1.0 or name == "python-f":
            assert compiled.states.tobytes() == fields.states.tobytes()
            assert compiled.slopes.tobytes() == fields.slopes.tobytes()
        else:
            np.testing.assert_allclose(compiled.states, fields.states, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(compiled.slopes, fields.slopes, rtol=0.0, atol=1e-14)

    def test_sigma_reads_the_same_bits_at_a_float_and_in_an_array(self):
        # The fields' callables read sigma at each float stage time, the
        # stage's expressions on the column of a delay interval's stage
        # times.
        sigma = load_problem({"problem": {"preset": "sunflower"}}).sigma.sigma
        ts = _stage_times(TWO_PI, 1.0 / 8)
        assert len(ts) == 103
        floats = np.array([sigma(t) for t in ts.tolist()])
        assert floats.tobytes() == sigma(ts).tobytes() == sigma(ts[:, None]).ravel().tobytes()
