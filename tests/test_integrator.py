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
    flow_averaged,
    flow_unperturbed,
    integrate,
)
from ddebranch.errors import BlowupError, InvalidParameterError
from ddebranch.config import load_problem
from ddebranch.problem import BatchField, _hermite

from conftest import TWO_PI, history_at, periodic, scalar_problem


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
        with pytest.raises(BlowupError):
            integrate(prob, 0.0, 1.0, init, 40.0, steps_per_delay=16)

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
        with pytest.raises(InvalidParameterError):
            integrate(prob, -0.1, 1.0, init, 1.0, 16)
        with pytest.raises(InvalidParameterError):
            integrate(prob, 0.0, 1.5, init, 1.0, 16)
        with pytest.raises(InvalidParameterError):
            integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=4)
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


def _reference_integrate(problem, lam, init, t_end, steps_per_delay):
    """The RK4 sweep at mu = 1 as the package once ran it: f, g and h
    evaluated one by one through eval_batch, and each delayed value read
    at its own time by a scalar _hermite call, from the history for
    tau <= 0 and from the finished nodes otherwise.  Returns (states,
    slopes)."""
    k = problem.dim_x
    single = init.values.ndim == 2
    batch = History(init.delay, init.values[:, None]) if single else init
    r = problem.delay
    h = r / steps_per_delay

    def rhs(t, state, delayed):
        x, y = state[:, :k], state[:, k:]
        at = float(problem.a(t))
        dy = at * problem.eval_g(x, y)
        if lam == 0.0:
            return np.concatenate([np.zeros((len(state), k)), dy], axis=1)
        xd, yd = delayed[:, :k], delayed[:, k:]
        dx = lam * problem.eval_f(t, x, y, xd, yd)
        if problem.h is not None:
            dy = dy + lam * problem.eval_h(t, x, y, xd, yd)
        return np.concatenate([dx, dy], axis=1)

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
        return _hermite(node_times, states, slopes, tau)

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


class TestAgainstScalarReads:
    """The sweep's states and slopes are bit for bit those of the
    reference loop: the compiled stage, the per-interval reads and the
    one read of a per sweep change no bit of the arithmetic."""

    CASES = {
        "forced": (lambda: _dsl_problem(*_FORCED), 0.5, 8),
        "forced-lambda-0": (lambda: _dsl_problem(*_FORCED), 0.0, 8),
        "with-h": (lambda: _dsl_problem(1, 1, ["sin(yd1) - 0.2*x1"], ["x1 - y1"],
                                        ["0.3*xd1 - 0.2*y1*cos(t)"]), 0.7, 8),
        "k0-s2": (lambda: _dsl_problem(0, 2, None, ["y2", "-y1 - 0.1*y2^3"],
                                       ["0", "sin(yd1) + 0.2*cos(t)"]), 0.6, 8),
        "r-equals-T": (lambda: _dsl_problem(*_FORCED, r=TWO_PI), 0.5, 8),
        "r-above-T": (lambda: _dsl_problem(*_FORCED, r=TWO_PI + 1.0), 0.5, 8),
        "spd-9": (lambda: _dsl_problem(*_FORCED), 0.5, 9),
        "a-with-exp": (lambda: _dsl_problem(*_FORCED, a="-1 + 0.3*exp(cos(t))"), 0.5, 8),
        "callable": (lambda: TestBatch()._delay_problem(False), 0.8, 8),
        "float-callable": (TestBatch._float_delay_problem, 0.8, 8),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("rows", [None, 3])
    def test_bit_identical(self, case, rows):
        make, lam, spd = self.CASES[case]
        prob = make()
        assert (prob.stage is None) == case.endswith("callable")
        shape = (13, prob.dim) if rows is None else (13, rows, prob.dim)
        init = History.from_values(np.random.default_rng(11).uniform(-0.5, 0.5, shape), prob.delay)
        traj = integrate(prob, lam, 1.0, init, TWO_PI, steps_per_delay=spd)
        states, slopes = _reference_integrate(prob, lam, init, TWO_PI, spd)
        assert traj.states.tobytes() == states.tobytes()
        assert traj.slopes.tobytes() == slopes.tobytes()
