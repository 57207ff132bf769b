"""Method-of-steps RK4 integrator and the delay-free flows."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ddebranch import (
    CoupledProblem,
    History,
    PeriodicFn1D,
    average_f,
    flow_averaged,
    flow_unperturbed,
    integrate,
    presets,
)
from ddebranch.errors import BlowupError, ExprEvalError, InvalidParameterError
from ddebranch import expr as dsl
from ddebranch import fields
from ddebranch import problem as problem_module
from ddebranch.config import load_problem
from ddebranch.problem import BatchField, quadrature_times, simpson_mean
from ddebranch.stage import averaged

from conftest import TWO_PI, fold_problem, hermite_at, history_at, periodic, scalar_problem


def _exp_problem():
    # y' = y with a == 1 (period chosen so <a> = 1 trivially).
    return scalar_problem(lambda y: y, a_fn=lambda t: 1.0, period=TWO_PI, delay=1.0)


class TestBasicIntegration:
    def test_linear_ode_reaches_e(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=64)
        assert float(traj.eval(1.0)[0]) == pytest.approx(math.e, abs=1e-8)

    def test_x_component_constant_when_f_zero(self):
        prob = CoupledProblem(
            dim_x=1, dim_y=1,
            f=lambda t, x, y, xd, yd: np.zeros(1),
            g=lambda x, y: np.array([-y[0]]),
            a=PeriodicFn1D.constant(1.0, TWO_PI),
            period=TWO_PI, delay=1.0,
        )
        init = History.constant([0.8, 0.3], 1.0, m=8)
        traj = integrate(prob, 0.7, 1.0, init, 5.0, steps_per_delay=16)
        for t in np.linspace(0.0, 5.0, 21):
            assert float(traj.eval(t)[0]) == pytest.approx(0.8, abs=1e-12)

    def test_pure_delay_equation_first_interval(self):
        # y'(t) = -y(t-1) with y == 1 on [-1, 0] gives y(t) = 1 - t on [0, 1].
        prob = scalar_problem(
            lambda y: 0.0, a_fn=lambda t: 1.0, period=TWO_PI, delay=1.0,
            h=lambda t, x, y, xd, yd: np.array([-yd[0]]),
        )
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 1.0, 1.0, init, 1.0, steps_per_delay=32)
        assert float(traj.eval(1.0)[0]) == pytest.approx(0.0, abs=1e-10)
        assert float(traj.eval(0.25)[0]) == pytest.approx(0.75, abs=1e-10)

    def test_fourth_order_convergence(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        errs = []
        for spd in (16, 32):
            traj = integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=spd)
            errs.append(abs(float(traj.eval(1.0)[0]) - math.e))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_partial_final_step(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        t_end = 0.7321
        traj = integrate(prob, 0.0, 1.0, init, t_end, steps_per_delay=64)
        assert traj.t_end == pytest.approx(t_end, abs=1e-14)
        assert float(traj.eval(t_end)[0]) == pytest.approx(math.exp(t_end), abs=1e-8)


class TestDenseOutput:
    def test_grid_nodes_bit_exact(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 0.0, 1.0, init, 2.0, steps_per_delay=16)
        for i, t in enumerate(traj.times):
            assert np.array_equal(traj.eval(float(t)), traj.states[i])

    def test_history_reproduced_exactly(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((17, 1))
        init = History.from_values(values, delay=1.0)
        prob = _exp_problem()
        traj = integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=16)
        for theta in np.linspace(-1.0, 0.0, 37):
            assert np.array_equal(traj.eval(theta), history_at(init, theta))

    def test_read_near_a_node_returns_its_state(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 0.0, 1.0, init, 2.0, steps_per_delay=16)
        h = float(traj.times[1] - traj.times[0])
        for i in (5, 20):
            for t in (float(traj.times[i]) - 1e-10 * h, float(traj.times[i]) + 1e-10 * h):
                assert np.array_equal(traj.eval(t), traj.states[i])
                assert np.array_equal(traj.eval(np.array([t]))[0], traj.states[i])

    def test_before_history_rejected(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=16)
        with pytest.raises(InvalidParameterError):
            traj.eval(-1.5)

    def test_after_end_rejected(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 0.0, 1.0, init, 2.0, steps_per_delay=16)
        assert np.array_equal(traj.eval(2.0 + 1e-13), traj.states[-1])
        for t in (50.0, 2.0 + 1e-9, np.array([0.5, 2.5])):
            with pytest.raises(InvalidParameterError, match="past the trajectory's end"):
                traj.eval(t)

    def test_csv_export(self, tmp_path):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=16)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, resolution=10)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,y1"
        assert len(lines) == 12


class TestBatch:
    def _delay_problem(self, batch_field):
        # x' = lam * sin(yd), y' = a(t) (x - y), with NumPy callables that
        # the problem finds take a batch, or declared a BatchField.
        def f(t, x, y, xd, yd):
            return np.sin(yd)

        return CoupledProblem(
            dim_x=1, dim_y=1,
            f=BatchField(f) if batch_field else f,
            g=lambda x, y: x - y,
            a=periodic(lambda t: -1.0 + 0.5 * math.sin(t)),
            period=TWO_PI, delay=1.0,
        )

    @staticmethod
    def _float_delay_problem():
        # The same system on Python floats: both fields run row by row.
        f = lambda t, x, y, xd, yd: [math.sin(yd[0])]
        g = lambda x, y: [float(x[0]) - float(y[0])]
        prob = CoupledProblem(dim_x=1, dim_y=1, f=f, g=g, a=periodic(lambda t: -1.0 + 0.5 * math.sin(t)),
                              period=TWO_PI, delay=1.0)
        assert prob.f.fn.__wrapped__ is f and prob.g.fn.__wrapped__ is g
        return prob

    @staticmethod
    def _assert_rows_match_single_runs(prob, mu):
        rng = np.random.default_rng(3)
        values = rng.uniform(-0.5, 0.5, size=(9, 3, 2))
        batch = History.from_values(values, 1.0)
        traj = integrate(prob, 0.8, mu, batch, TWO_PI, steps_per_delay=8)
        assert traj.states.shape == (len(traj.times), 3, 2)
        ts = np.linspace(-1.0, TWO_PI, 23)
        for b in range(3):
            one = integrate(prob, 0.8, mu, History.from_values(values[:, b], 1.0), TWO_PI,
                            steps_per_delay=8)
            assert np.array_equal(traj.states[:, b], one.states)
            assert np.array_equal(traj.slopes[:, b], one.slopes)
            assert np.array_equal(traj.eval(ts)[:, b], one.eval(ts))

    @pytest.mark.parametrize("batch_field", [True, False])
    def test_rows_match_single_runs(self, batch_field):
        self._assert_rows_match_single_runs(self._delay_problem(batch_field), 1.0)

    @pytest.mark.parametrize("batch_field", [True, False])
    def test_mu_half_rows_match_single_runs(self, batch_field):
        # The averaged drive of all rows is one average_f call per stage.
        prob = dataclasses.replace(self._delay_problem(batch_field), n_quad=16)
        self._assert_rows_match_single_runs(prob, 0.5)

    def test_float_rows_match_single_runs(self):
        self._assert_rows_match_single_runs(self._float_delay_problem(), 1.0)

    def test_mu_half_float_rows_match_single_runs(self):
        prob = dataclasses.replace(self._float_delay_problem(), n_quad=16)
        self._assert_rows_match_single_runs(prob, 0.5)

    def test_mu_half_sunflower_rows_match_single_runs(self, sunflower):
        prob = dataclasses.replace(sunflower.coupled, n_quad=64)
        self._assert_rows_match_single_runs(prob, 0.5)

    def test_one_blowing_up_row_stops_the_sweep(self):
        prob = _exp_problem()
        batch = History(1.0, np.tile([[1.0], [2e9]], (9, 1, 1)))
        with pytest.raises(BlowupError) as exc:
            integrate(prob, 0.0, 1.0, batch, 1.0, steps_per_delay=16)
        assert exc.value.t == 0.0
        assert exc.value.norm == 2e9


class TestFailureModes:
    def test_blowup(self):
        # y' = y^2 from y(0) = 1 escapes in finite time.
        prob = scalar_problem(lambda y: y * y, a_fn=lambda t: 1.0)
        init = History.constant([1.0], 1.0, m=8)
        with pytest.raises(BlowupError) as exc:
            integrate(prob, 0.0, 1.0, init, 40.0, steps_per_delay=16)
        assert (exc.value.t, exc.value.norm) == (1.0625, 1616456246882.6692)

    @pytest.mark.parametrize("rows", [None, 3])
    def test_blowup_is_checked_before_the_node_slope(self, rows):
        # The same escape with a g whose sqrt fails once y1 passes 2e9:
        # the state past the threshold raises BlowupError before its node
        # slope is computed, and so before the sqrt sees it.
        prob = _dsl_problem(0, 1, None, ["y1^2 + 0*sqrt(2e9 - y1)"], a="1")
        init = History(1.0, np.ones((9, 1) if rows is None else (9, rows, 1)))
        with pytest.raises(BlowupError) as exc:
            integrate(prob, 0.0, 1.0, init, 40.0, steps_per_delay=16)
        assert (exc.value.t, exc.value.norm) == (1.0625, 1616456246882.6692)

    def test_overflow_is_a_blowup_and_warns_nothing(self):
        # y' = -(y - y^3) + lam from y = 1e5: y**3 overflows in the field
        # within the first step, and the sweep reports it as a blowup.
        prob = CoupledProblem(
            dim_x=0, dim_y=1, g=lambda x, y: y - y ** 3, h=lambda t, x, y, xd, yd: np.ones(1),
            a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowupError):
                integrate(prob, 1.0, 1.0, History.constant([1e5], 1.0, m=8), TWO_PI, steps_per_delay=8)
        assert caught == []

    def test_parameter_validation(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        for lam in (-0.1, math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match=f"lambda must be finite and >= 0, got {lam}"):
                integrate(prob, lam, 1.0, init, 1.0, 16)
        with pytest.raises(InvalidParameterError):
            integrate(prob, 0.0, 1.5, init, 1.0, 16)
        with pytest.raises(InvalidParameterError):
            integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=4)
        for spd in (8.5, 16.0, True):
            with pytest.raises(InvalidParameterError, match=f"steps_per_delay must be an integer, got {spd!r}"):
                integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=spd)
        want = integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=16)
        for spd in (np.int64(16), np.int32(16)):
            assert integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=spd).states.tobytes() == want.states.tobytes()
        with pytest.raises(InvalidParameterError):
            integrate(prob, 0.0, 1.0, History.constant([1.0], 0.5, m=8), 1.0, 16)


class TestFlows:
    def test_zero_field_fixes_point(self):
        prob = scalar_problem(lambda y: 0.0)
        p = np.array([0.7])
        assert np.allclose(flow_unperturbed(prob, p, TWO_PI), p, atol=1e-12)
        assert np.allclose(flow_averaged(prob, p, TWO_PI), p, atol=1e-12)

    def test_constant_field_integrates_coefficient(self):
        prob = scalar_problem(lambda y: 1.0, a_fn=lambda t: math.sin(t) + 2.0)
        out = flow_unperturbed(prob, [0.0], TWO_PI)
        assert float(out[0]) == pytest.approx(4.0 * math.pi, abs=1e-8)
        out_avg = flow_averaged(prob, [0.0], TWO_PI)
        assert float(out_avg[0]) == pytest.approx(4.0 * math.pi, abs=1e-8)

    def test_equilibrium_fixed(self):
        prob = scalar_problem(lambda y: y - y ** 3)
        for p in (0.0, 1.0, -1.0):
            assert np.allclose(flow_unperturbed(prob, [p], TWO_PI), [p], atol=1e-10)

    def test_coincidence_at_period(self):
        pairs = [
            scalar_problem(lambda y: y - y ** 3),
            scalar_problem(lambda y: -y, a_fn=lambda t: 2.0 + math.sin(t)),
        ]
        rng = np.random.default_rng(17)
        for prob in pairs:
            points = rng.uniform(-0.5, 0.5, size=(3, 1))
            d = np.max(np.abs(flow_unperturbed(prob, points, TWO_PI) - flow_averaged(prob, points, TWO_PI)))
            assert d <= 1e-6

    def test_no_coincidence_at_interior_times(self):
        # The two flows genuinely differ before one full period has elapsed.
        prob = scalar_problem(lambda y: 1.0, a_fn=lambda t: math.sin(t) + 2.0)
        d = abs(float(flow_unperturbed(prob, [0.0], math.pi)[0])
                - float(flow_averaged(prob, [0.0], math.pi)[0]))
        assert d > 0.1

    def test_short_flow_allocates_nothing_per_delay_step(self):
        # A flow over t takes FLOW_STEPS steps of t / FLOW_STEPS, so its
        # steps_per_delay grows as r / t; at t = 1e-3 it is about 2 million.
        # Nothing the sweep allocates may be sized by it (31 MiB when the
        # lambda = 0 sweep held a list of 2 steps_per_delay + 1 rows).
        prob = scalar_problem(lambda y: y - y ** 3)
        flow_unperturbed(prob, [0.3], 1e-3)
        tracemalloc.start()
        try:
            flow_unperturbed(prob, [0.3], 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestFlowBatches:
    """The flows take one point (d,) or a batch (N, d), run as one sweep."""

    def _rotation(self):
        return CoupledProblem(
            dim_x=0, dim_y=2,
            g=lambda x, y: np.array([-y[1], y[0]]),
            a=periodic(lambda t: 1.0 + 0.5 * math.cos(t)),
            period=TWO_PI, delay=1.0,
        )

    def test_batch_equals_per_point_calls(self):
        prob = self._rotation()
        points = np.random.default_rng(5).uniform(-0.5, 0.5, size=(4, 2))
        for flow in (flow_unperturbed, flow_averaged):
            batch = flow(prob, points, 2.5)
            assert batch.shape == points.shape
            for row, p in zip(batch, points):
                assert np.array_equal(row, flow(prob, p, 2.5))

    def test_constant_field_every_row(self):
        prob = scalar_problem(lambda y: 1.0, a_fn=lambda t: math.sin(t) + 2.0)
        points = np.zeros((3, 1))
        for flow in (flow_unperturbed, flow_averaged):
            out = flow(prob, points, TWO_PI)
            assert out.shape == (3, 1)
            assert np.allclose(out, 4.0 * math.pi, atol=1e-8)

    def test_zero_time_returns_input(self):
        prob = self._rotation()
        points = np.array([[0.1, -0.2], [0.3, 0.4]])
        for flow in (flow_unperturbed, flow_averaged):
            assert np.array_equal(flow(prob, points, 0.0), points)
            assert np.array_equal(flow(prob, points[0], 0.0), points[0])

    def test_negative_time_raises(self):
        prob = self._rotation()
        for flow in (flow_unperturbed, flow_averaged):
            with pytest.raises(InvalidParameterError):
                flow(prob, [0.1, 0.2], -1.0)


def _reference_integrate(problem, lam, init, t_end, steps_per_delay, mu=1.0, wf=None):
    """The RK4 sweep as the package once ran it: f, g and h evaluated one
    by one through eval_batch, with x' = 0 and no h at lambda = 0 (lam may
    also be a (B,) array, one lambda per row), and at
    mu < 1 the drive lam * (mu * f + (1 - mu) * (a/<a>) * w_f), with h
    weighted by lam * mu and both f and h left out at mu = 0; and each
    delayed value read at its own time by a scalar hermite_at call, from the
    history for tau <= 0 and from the finished nodes otherwise.  w_f is
    wf(problem, x, y) when given (a separated drive), else average_f.
    Returns (states, slopes)."""
    wf = wf or average_f
    k = problem.dim_x
    single = init.values.ndim == 2
    batch = History(init.delay, init.values[:, None]) if single else init
    r = problem.delay
    h = r / steps_per_delay
    off = np.ndim(lam) == 0 and lam == 0.0
    lam = lam[:, None] if np.ndim(lam) else lam  # one lambda per row

    def rhs(t, state, delayed):
        x, y = state[:, :k], state[:, k:]
        at = float(problem.a(t))
        dy = at * problem.eval_g(x, y)
        if off:
            return np.concatenate([np.zeros((len(state), k)), dy], axis=1)
        xd, yd = delayed[:, :k], delayed[:, k:]
        if mu >= 1.0:
            dx = lam * problem.eval_f(t, x, y, xd, yd)
            if problem.h is not None:
                dy = dy + lam * problem.eval_h(t, x, y, xd, yd)
            return np.concatenate([dx, dy], axis=1)
        drive = (1.0 - mu) * (at / problem.abar) * wf(problem, x, y)
        if mu > 0.0:
            drive = mu * problem.eval_f(t, x, y, xd, yd) + drive
            if problem.h is not None:
                dy = dy + lam * mu * problem.eval_h(t, x, y, xd, yd)
        return np.concatenate([lam * drive, dy], axis=1)

    n_full = int(np.floor(t_end / h + 1e-9))
    has_partial = t_end - n_full * h > 1e-12 * max(1.0, t_end)
    times = np.arange(n_full + 1 + has_partial) * h
    if has_partial:
        times[-1] = t_end
    states = np.empty(times.shape + batch.values.shape[1:])
    slopes = np.empty_like(states)
    node_times = times.tolist()

    def past(tau):
        if tau <= 0.0:
            return history_at(batch, tau)
        return hermite_at(node_times, states, slopes, tau)

    states[0] = batch.terminal()
    slopes[0] = rhs(0.0, states[0], past(-r))
    for j in range(len(times) - 1):
        t0, t1 = node_times[j], node_times[j + 1]
        dt = t1 - t0
        y0, k1 = states[j], slopes[j]
        half = past(t0 + 0.5 * dt - r)
        k2 = rhs(t0 + 0.5 * dt, y0 + 0.5 * dt * k1, half)
        k3 = rhs(t0 + 0.5 * dt, y0 + 0.5 * dt * k2, half)
        end = past(t1 - r)
        k4 = rhs(t1, y0 + dt * k3, end)
        states[j + 1] = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        slopes[j + 1] = rhs(t1, states[j + 1], end)
    if single:
        return states[:, 0], slopes[:, 0]
    return states, slopes


def _dsl_problem(k, s, f, g, h=None, r=1.0, a="-1 + 0.5*sin(t)"):
    block = {"dims": {"k": k, "s": s}, "T": TWO_PI, "r": r, "a": a, "g": g}
    block.update({key: v for key, v in (("f", f), ("h", h)) if v is not None})
    return load_problem({"problem": block}).coupled


_FORCED = (1, 1, ["sin(yd1) + 0.5*cos(t)"], ["x1 - y1"])
_WITH_H = (1, 1, ["sin(yd1) - 0.2*x1"], ["x1 - y1"], ["0.3*xd1 - 0.2*y1*cos(t)"])


def _mixed_problem():
    # The forced problem with a Python g: f is inlined into the compiled
    # stage, and g is a leaf of it.
    return dataclasses.replace(_dsl_problem(*_FORCED), g=lambda x, y: x - y)


def _float_phi_problem():
    # The sunflower-homotopy workload's problem: phi = math.sin(yd) takes
    # floats only, so f evaluates it element by element.
    a = periodic(lambda t: -1.0 + 0.5 * math.sin(t))
    setup = presets.sunflower_setup(a, lambda y, yd: math.sin(yd), TWO_PI, 1.0)
    return dataclasses.replace(setup.coupled, n_quad=16)


#: One problem of each kind a sweep compiles differently: all DSL, a
#: preset, DSL and Python fields mixed, batch and float-only callables.
_KINDS = {
    "forced": lambda: _dsl_problem(*_FORCED),
    "preset": lambda: load_problem({"problem": {"preset": "sunflower"}, "numerics": {"n_quad": 64}}).coupled,
    "mixed": _mixed_problem,
    "callable": lambda: dataclasses.replace(TestBatch()._delay_problem(False), n_quad=16),
    "float-phi": _float_phi_problem,
}


def _nonseparable_problem():
    # sin(t*y1) is not T-periodic in t, so sin(sin(t)*y1) stands for it.
    return dataclasses.replace(_dsl_problem(1, 1, ["sin(sin(t)*y1) - 0.2*x1"], ["x1 - y1"]), n_quad=16)


def _mean(problem, c):
    """The Simpson mean of c(t) on the problem's quadrature times."""
    ts = quadrature_times(problem.period, problem.n_quad)[:, None, None]
    return simpson_mean(c(ts))[0, 0]


def _forced_wf(problem, x, y):  # f = sin(yd1) + 0.5*cos(t)
    return np.sin(y) + _mean(problem, lambda t: 0.5 * np.cos(t))


def _lienard_wf(phi):
    """A Lienard problem's a is gamma, so its f is phi(y, yd) * (1/a(t))."""
    return lambda problem, x, y: _mean(problem, lambda t: 1.0 / problem.a(t)) * phi(y)


#: The averaged drive w_f(p, q) of each case (by its name before "-mu-")
#: whose f is separable, by hand: the mean of the factor that reads t,
#: times the other factor per row.  An f that reads no t is read at
#: (p, q, p, q).
_SEPARATED = {
    "forced": _forced_wf,
    "mixed": _forced_wf,
    "preset": _lienard_wf(np.sin),
    "preset-per-row-lambda": _lienard_wf(np.sin),
    "float-phi": _lienard_wf(lambda y: np.array([[math.sin(v)] for v in y[:, 0]])),
    "with-h": lambda problem, x, y: np.sin(y) - 0.2 * x,  # f = sin(yd1) - 0.2*x1
}


class TestAgainstScalarReads:
    """The sweep's states and slopes are bit for bit those of the
    reference loop: the compiled stage, its leaves, the per-interval reads
    and the one read of a per sweep change no bit of the arithmetic, in
    every regime of (lambda, mu)."""

    CASES = {
        "forced": (lambda: _dsl_problem(*_FORCED), 0.5, 1.0, 8),
        "with-h": (lambda: _dsl_problem(*_WITH_H), 0.7, 1.0, 8),
        "with-h-mu-0.5": (lambda: _dsl_problem(*_WITH_H), 0.7, 0.5, 8),
        "k0-s2": (lambda: _dsl_problem(0, 2, None, ["y2", "-y1 - 0.1*y2^3"],
                                       ["0", "sin(yd1) + 0.2*cos(t)"]), 0.6, 1.0, 8),
        "python-h-mu-0.5": (lambda: fold_problem("numpy"), 0.3, 0.5, 8),
        # 1 - mu is not a power of 2, so the order of (1 - mu) * (a/<a>) * w_f
        # shows in the bits.
        "with-h-mu-0.3": (lambda: _dsl_problem(*_WITH_H), 0.7, 0.3, 8),
        # sin(sin(t)*y1) has no separated form: its drive is average_f's.
        "nonseparable-mu-0.5": (_nonseparable_problem, 0.7, 0.5, 8),
        "r-equals-T": (lambda: _dsl_problem(*_FORCED, r=TWO_PI), 0.5, 1.0, 8),
        "r-above-T": (lambda: _dsl_problem(*_FORCED, r=TWO_PI + 1.0), 0.5, 1.0, 8),
        "spd-9": (lambda: _dsl_problem(*_FORCED), 0.5, 1.0, 9),
        "a-with-exp": (lambda: _dsl_problem(*_FORCED, a="-1 + 0.3*exp(cos(t))"), 0.5, 1.0, 8),
        "callable": (lambda: TestBatch()._delay_problem(False), 0.8, 1.0, 8),
        "float-callable": (TestBatch._float_delay_problem, 0.8, 1.0, 8),
        **{f"{kind}-{regime}": (make, lam, mu, 8) for kind, make in _KINDS.items()
           for regime, lam, mu in (("mu-0", 0.5, 0.0), ("mu-0.5", 0.5, 0.5), ("lambda-0", 0.0, 1.0))},
        # The edges of the delayed reads, as (make, lam, mu, spd, m, t_end).
        # r = 0.7 is not dyadic, so t - r is not exactly a node: the read
        # snaps to it.
        "r-0.7": (lambda: _dsl_problem(*_FORCED, r=0.7), 0.5, 1.0, 8),
        "r-0.7-with-h": (lambda: _dsl_problem(*_WITH_H, r=0.7), 0.7, 1.0, 8),
        # The benchmark's sizes: 9 history nodes and 8 steps per delay.
        "m-8-spd-8": (lambda: _dsl_problem(*_FORCED), 0.5, 1.0, 8, 8, TWO_PI),
        # 44 steps of 0.125: a last interval of 4 steps, none of them shortened.
        "short-last-interval": (lambda: _dsl_problem(*_FORCED), 0.5, 1.0, 8, 12, 5.5),
        # Every delayed value is read from the history.
        "t-end-below-r": (lambda: _dsl_problem(*_FORCED), 0.5, 1.0, 8, 12, 0.6),
        # One lambda per row (a tuple, cut to the rows): lam*(sin(yd1) +
        # 0.5*cos(t)) and lam*(sin(yd1)/sigma(t)), hoisted, read lam per row.
        "forced-per-row-lambda": (_KINDS["forced"], (0.5, 0.7, 0.9), 1.0, 8),
        "preset-per-row-lambda": (_KINDS["preset"], (0.5, 0.7, 0.9), 1.0, 8),
        "preset-per-row-lambda-mu-0.5": (_KINDS["preset"], (0.5, 0.7, 0.9), 0.5, 8),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("rows", [None, 3])
    def test_bit_identical(self, case, rows):
        make, lam, mu, spd, m, t_end = (self.CASES[case] + (12, TWO_PI))[:6]
        if isinstance(lam, tuple):
            lam = np.array(lam[:rows or 1])
        prob = make()
        shape = (m + 1, prob.dim) if rows is None else (m + 1, rows, prob.dim)
        init = History.from_values(np.random.default_rng(11).uniform(-0.5, 0.5, shape), prob.delay)
        traj = integrate(prob, lam, mu, init, t_end, steps_per_delay=spd)
        assert traj.t_end == t_end
        states, slopes = _reference_integrate(prob, lam, init, t_end, spd, mu, _SEPARATED.get(case.split("-mu-")[0]))
        assert traj.states.tobytes() == states.tobytes()
        assert traj.slopes.tobytes() == slopes.tobytes()


def test_stage_is_compiled_once_per_regime(monkeypatch):
    # lambda = 0, mu = 1, 0 < mu < 1 and mu = 0, whatever lam's value or
    # shape, and whatever the value of mu inside (0, 1).
    calls = []
    compile_stage = problem_module.compile_stage
    monkeypatch.setattr(problem_module, "compile_stage", lambda *a: calls.append(a) or compile_stage(*a))
    prob = _KINDS["callable"]()
    for lam, mu in ((0.5, 1.0), (np.array([0.5, 0.7]), 1.0), (0.5, 0.5), (0.7, 0.3), (0.5, 0.0),
                    (np.array([0.5]), 0.0), (0.0, 0.5), (0.0, 1.0)):
        assert prob.stage_at(lam, mu) is prob.stage_at(lam, mu)
    assert len(calls) == 4


def test_python_field_is_one_call_per_stage_for_all_its_components():
    calls = []

    def g(x, y):  # a rotation of y, called on the whole batch
        calls.append(y.shape)
        return y[..., ::-1] * [1.0, -1.0]

    prob = CoupledProblem(dim_x=0, dim_y=2, g=g, a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0)
    calls.clear()
    init = History.from_values(np.random.default_rng(2).uniform(-0.5, 0.5, (9, 3, 2)), 1.0)
    for lam in (0.0, 0.5):
        integrate(prob, lam, 1.0, init, TWO_PI, steps_per_delay=8)
    assert calls == [(3, 2)] * 410


class TestSweepPlan:
    """A problem keeps the time-grid part of its sweeps (CoupledProblem.
    plan_at): a sweep on a kept plan, or on a problem made from another by
    dataclasses.replace, has the bits of one on a freshly built problem."""

    def test_replaced_coefficient_is_not_read_from_a_stale_plan(self):
        init = History.from_values(np.random.default_rng(8).uniform(-0.5, 0.5, (9, 3, 2)), 1.0)
        prob = _dsl_problem(*_FORCED)
        integrate(prob, 0.5, 1.0, init, TWO_PI, 8)
        a = "-1 + 0.3*cos(t)"
        replaced = dataclasses.replace(prob, a=_dsl_problem(*_FORCED, a=a).a)
        got = integrate(replaced, 0.5, 1.0, init, TWO_PI, 8)
        want = integrate(_dsl_problem(*_FORCED, a=a), 0.5, 1.0, init, TWO_PI, 8)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.slopes.tobytes() == want.slopes.tobytes()

    def test_each_regime_reads_its_own_time_block(self):
        # One plan serves every regime of a problem, and each regime's
        # stage has its own subtrees that read t alone: none at mu = 0 or
        # lambda = 0 (no f or h), h's cos(t) at mu = 0.5 and mu = 1.
        def make():
            return _dsl_problem(1, 1, ["sin(yd1) - 0.2*x1"], ["x1 - y1"], ["0.3*xd1 - 0.2*y1*cos(t)"])

        prob = dataclasses.replace(make(), n_quad=16)
        init = History.from_values(np.random.default_rng(10).uniform(-0.5, 0.5, (9, 3, 2)), 1.0)
        for lam, mu in ((0.5, 0.0), (0.5, 1.0), (0.0, 1.0), (0.7, 0.5)):
            got = integrate(prob, lam, mu, init, TWO_PI, 8)
            want = integrate(dataclasses.replace(make(), n_quad=16), lam, mu, init, TWO_PI, 8)
            assert got.states.tobytes() == want.states.tobytes()
            assert got.slopes.tobytes() == want.slopes.tobytes()
        assert vars(prob)["_plan"].key == (TWO_PI, 8, 1.0, 8)

    def test_flows_at_many_times_read_their_own_plans(self):
        # Each new time replaces the problem's plan; the first ones again,
        # each against a freshly built problem.
        points = np.random.default_rng(9).uniform(-0.5, 0.5, (3, 2))
        prob = _dsl_problem(*_FORCED)
        ts = [0.3 * (i + 1) for i in range(4)]
        for t in ts + ts[:2] + ts[1:2]:
            want = flow_unperturbed(_dsl_problem(*_FORCED), points, t)
            assert flow_unperturbed(prob, points, t).tobytes() == want.tobytes()
            assert vars(prob)["_plan"].t_end == t

    def test_time_only_domain_error_is_raised_before_the_first_step(self):
        # log(cos(t) + 0.99) fails near t = pi, between the times the
        # periodicity check reads: the sweep's plan raises it, naming the
        # node, before the blowup check of the initial state.
        prob = _dsl_problem(1, 1, ["sin(yd1) + log(cos(t) + 0.99)"], ["x1 - y1"], a="-1")
        node = prob.f.exprs[0].root.right
        for init in (History.constant([0.1, 0.2], 1.0, m=8), History.constant([0.1, 2e9], 1.0, m=8)):
            with pytest.raises(ExprEvalError) as exc:
                integrate(prob, 0.5, 1.0, init, TWO_PI, steps_per_delay=8)
            assert exc.value.node is node
            assert str(exc.value).startswith("log of nonpositive value -")
        # A sweep that ends before the failing times reads none of them.
        integrate(prob, 0.5, 1.0, History.constant([0.1, 0.2], 1.0, m=8), 2.5, steps_per_delay=8)


class TestSeparatedDrive:
    """The mu < 1 stage reads w_f by f's separated form, sum_k <c_k> *
    phi_k(p, q, p, q), one Simpson mean per factor c_k that reads t: it
    agrees with average_f's per-point quadrature, which it no longer
    calls.  An f without that form keeps the average_f leaf."""

    @pytest.mark.parametrize("make", [
        lambda: _dsl_problem(*_FORCED),
        lambda: _dsl_problem(*_WITH_H),
        lambda: _dsl_problem(1, 1, ["cos(t)*sin(yd1) - y1/(2 + sin(t))"], ["x1 - y1"]),
        lambda: _dsl_problem(1, 1, ["(2 + cos(t))*sin(yd1)/(2 + sin(t))"], ["x1 - y1"]),  # two factors read t
        _KINDS["preset"],  # phi/sigma(t), phi = sin(yd1) from the DSL
        _float_phi_problem,  # phi = math.sin(yd), a Python callable
    ], ids=["forced", "with-h", "quotient", "product", "preset", "float-phi"])
    def test_matches_average_f(self, make, monkeypatch):
        # At mu = 0 and lam = 1, node 0's x slope is (a(0)/<a>) * w_f at
        # the constant history's value.
        prob = make()
        points = np.random.default_rng(4).uniform(0.2, 1.0, (7, 2)) * [1.0, -1.0]
        calls = []
        monkeypatch.setattr(fields, "average_f", lambda *a: calls.append(a) or average_f(*a))
        traj = integrate(prob, 1.0, 0.0, History.from_values(np.tile(points, (9, 1, 1)), prob.delay), 0.1, 8)
        got = traj.slopes[0, :, :1] / (prob.a(0.0) / prob.abar)
        want = average_f(prob, points[:, :1], points[:, 1:])
        assert calls == []
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_time_part_holds_each_node_once(self):
        # At mu = 0.5 the forced f's 0.5*cos(t) is both a hoisted subtree of
        # f and w_f's factor c0: the time part gives it one column, which
        # the sweeps and the mean of c0 both read.
        prob = _dsl_problem(*_FORCED)
        t = np.linspace(0.0, TWO_PI, 9)[:, None, None]
        for mu, width in ((1.0, 2), (0.5, 2)):
            block = prob.stage_at(0.7, mu).times(t)
            assert block.shape == (9, 1, width)
            columns = [block[..., c].tobytes() for c in range(width)]
            assert len(set(columns)) == width
            assert columns[0] == t[..., 0].tobytes()
            assert np.array_equal(block[..., 1], 0.5 * np.cos(t[..., 0]))

    def test_nonseparable_f_keeps_the_average_f_leaf(self, monkeypatch):
        # sin(t*y1) is neither a sum nor a product of factors that read t
        # alone or no t.  (TestAgainstScalarReads's nonseparable-mu-0.5
        # checks the bits of such a sweep.)
        assert averaged(dsl.parse("sin(t*y1)", {"t", "y1"}).root, []) is None
        assert averaged(dsl.parse("sin(yd1) + cos(t)*(t + y1)", {"t", "y1", "yd1"}).root, []) is None
        calls = []
        monkeypatch.setattr(fields, "average_f", lambda *a: calls.append(a) or average_f(*a))
        prob = _nonseparable_problem()
        integrate(prob, 0.5, 0.5, History.constant([0.1, 0.2], prob.delay, m=8), TWO_PI, 8)
        assert len(calls) == 205  # one per RK4 stage and one for node 0

    @pytest.mark.parametrize("mu", [0.5, 0.0])
    def test_time_only_factor_domain_error_names_its_node(self, mu):
        # log(cos(t) + 0.99) fails near t = pi, a quadrature time: its mean
        # is taken when the stage is built, so the error, naming the node,
        # comes before the first step and the initial blowup check (at
        # mu = 0 it came after them when each stage called average_f).
        prob = _dsl_problem(1, 1, ["sin(yd1) * log(cos(t) + 0.99)"], ["x1 - y1"], a="-1")
        node = prob.f.exprs[0].root.right
        for init in (History.constant([0.1, 0.2], 1.0, m=8), History.constant([0.1, 2e9], 1.0, m=8)):
            with pytest.raises(ExprEvalError) as exc:
                integrate(prob, 0.5, mu, init, TWO_PI, steps_per_delay=8)
            assert exc.value.node is node
            assert str(exc.value).startswith("log of nonpositive value -")


class TestLambdaPerRow:
    """integrate takes one lambda per row: a sweep whose rows carry two
    lambdas is, row for row, the two sweeps at one lambda each."""

    @pytest.mark.parametrize("make, mu", [
        # lam * (sin(yd1) + 0.5*cos(t)) reads no state: it is hoisted, and
        # lam is read per delay interval.
        (lambda: _dsl_problem(*_FORCED), 1.0),
        # lam * (sin(yd1) - 0.2*x1) and lam * (0.3*xd1 - 0.2*y1*cos(t))
        # read x and y: lam is read at every RK4 stage.
        (lambda: _dsl_problem(1, 1, ["sin(yd1) - 0.2*x1"], ["x1 - y1"], ["0.3*xd1 - 0.2*y1*cos(t)"]), 1.0),
        # Python fields are leaves of the stage, and so is the averaged
        # drive at mu < 1.
        (_KINDS["callable"], 1.0),
        (_KINDS["forced"], 0.5),
        (_KINDS["float-phi"], 0.5),
        (_KINDS["callable"], 0.0),
    ])
    def test_two_lambdas_equal_their_single_sweeps(self, make, mu):
        prob = make()
        values = np.random.default_rng(5).uniform(-0.5, 0.5, (9, 6, prob.dim))
        lam = np.repeat([0.5, 0.7], 3)
        traj = integrate(prob, lam, mu, History.from_values(values, prob.delay), TWO_PI, 8)
        for rows, one in ((slice(0, 3), 0.5), (slice(3, 6), 0.7)):
            want = integrate(prob, one, mu, History.from_values(values[:, rows], prob.delay), TWO_PI, 8)
            assert traj.states[:, rows].tobytes() == want.states.tobytes()
            assert traj.slopes[:, rows].tobytes() == want.slopes.tobytes()

    @pytest.mark.parametrize("lam, message", [
        ([0.5, 0.7, 0.9], r"got \[0.5 0.7 0.9\]"),
        ([0.5, 0.0], r"got \[0.5 0. \]"),
        ([0.5, math.nan], r"got \[0.5 nan\]"),
        ([math.inf, 0.5], r"got \[inf 0.5\]"),
    ])
    def test_lambda_per_row_checked(self, lam, message):
        init = History.from_values(np.zeros((9, 2, 2)), 1.0)
        with pytest.raises(InvalidParameterError, match="lambda per row must be 2 finite values > 0, " + message):
            integrate(_dsl_problem(*_FORCED), np.array(lam), 1.0, init, TWO_PI, 8)
