"""Method-of-steps RK4 integrator and the delay-free flows."""

import dataclasses
import math

import numpy as np
import pytest

from ddebranch import (
    Box,
    CoupledProblem,
    History,
    PeriodicFn1D,
    flow_averaged,
    flow_unperturbed,
    integrate,
)
from ddebranch.errors import BlowupError, DomainEscapeError, InvalidParameterError
from ddebranch.problem import BatchField

from conftest import TWO_PI, periodic, scalar_problem


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
            assert np.array_equal(traj.eval(theta), init.eval(theta))

    def test_deriv_matches_slopes_at_nodes(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=16)
        mid = len(traj.times) // 2
        t = float(traj.times[mid])
        assert np.allclose(traj.deriv(t), traj.slopes[mid], atol=1e-12)

    def test_read_near_a_node_returns_its_state(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 0.0, 1.0, init, 2.0, steps_per_delay=16)
        h = float(traj.times[1] - traj.times[0])
        for i in (5, 20):
            for t in (float(traj.times[i]) - 1e-10 * h, float(traj.times[i]) + 1e-10 * h):
                assert np.array_equal(traj.eval(t), traj.states[i])
                assert np.array_equal(traj.eval(np.array([t]))[0], traj.states[i])
                assert np.array_equal(traj.deriv(t), traj.slopes[i])

    def test_eval_with_deriv_matches_eval_and_deriv(self):
        values = np.random.default_rng(6).standard_normal((17, 1))
        traj = integrate(_exp_problem(), 0.0, 1.0, History.from_values(values, delay=1.0), 2.0,
                         steps_per_delay=16)
        ts = np.linspace(-1.0, 2.0, 53)
        got_values, got_slopes = traj.eval_with_deriv(ts)
        assert got_values.tobytes() == traj.eval(ts).tobytes()
        assert got_slopes.tobytes() == traj.deriv(ts).tobytes()

    def test_before_history_rejected(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        traj = integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=16)
        with pytest.raises(InvalidParameterError):
            traj.eval(-1.5)

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
        # x' = lam * sin(yd), y' = a(t) (x - y), as a row-by-row callable or
        # as a field that takes the batch in one call.
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
            assert np.array_equal(traj.deriv(ts)[:, b], one.deriv(ts))

    @pytest.mark.parametrize("batch_field", [True, False])
    def test_rows_match_single_runs(self, batch_field):
        self._assert_rows_match_single_runs(self._delay_problem(batch_field), 1.0)

    @pytest.mark.parametrize("batch_field", [True, False])
    def test_mu_half_rows_match_single_runs(self, batch_field):
        # The averaged drive of all rows is one average_f call per stage.
        prob = dataclasses.replace(self._delay_problem(batch_field), n_quad=16)
        self._assert_rows_match_single_runs(prob, 0.5)

    def test_mu_half_sunflower_rows_match_single_runs(self, sunflower):
        prob = dataclasses.replace(sunflower.coupled, n_quad=64)
        self._assert_rows_match_single_runs(prob, 0.5)

    def test_one_escaping_row_stops_the_sweep(self):
        prob = _exp_problem()
        batch = History(1.0, np.tile([[1.0], [1.6]], (9, 1, 1)), np.zeros((9, 2, 1)))
        with pytest.raises(DomainEscapeError) as exc:
            integrate(prob, 0.0, 1.0, batch, 1.0, steps_per_delay=16,
                      domain=Box(lower=[0.0], upper=[1.5]))
        assert exc.value.t == 0.0
        assert np.array_equal(exc.value.point, [1.6])


class TestFailureModes:
    def test_blowup(self):
        # y' = y^2 from y(0) = 1 escapes in finite time.
        prob = scalar_problem(lambda y: y * y, a_fn=lambda t: 1.0)
        init = History.constant([1.0], 1.0, m=8)
        with pytest.raises(BlowupError):
            integrate(prob, 0.0, 1.0, init, 40.0, steps_per_delay=16)

    def test_domain_escape(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        domain = Box(lower=[0.0], upper=[1.5])
        with pytest.raises(DomainEscapeError):
            integrate(prob, 0.0, 1.0, init, 2.0, steps_per_delay=16, domain=domain)

    def test_parameter_validation(self):
        prob = _exp_problem()
        init = History.constant([1.0], 1.0, m=8)
        with pytest.raises(InvalidParameterError):
            integrate(prob, -0.1, 1.0, init, 1.0)
        with pytest.raises(InvalidParameterError):
            integrate(prob, 0.0, 1.5, init, 1.0)
        with pytest.raises(InvalidParameterError):
            integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=4)
        with pytest.raises(InvalidParameterError):
            integrate(prob, 0.0, 1.0, History.constant([1.0], 0.5, m=8), 1.0)


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
            batch = flow(prob, points, 2.5, n_steps=256)
            assert batch.shape == points.shape
            for row, p in zip(batch, points):
                assert np.array_equal(row, flow(prob, p, 2.5, n_steps=256))

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

    def test_invalid_time_and_steps_raise(self):
        prob = self._rotation()
        for flow in (flow_unperturbed, flow_averaged):
            with pytest.raises(InvalidParameterError):
                flow(prob, [0.1, 0.2], -1.0)
            with pytest.raises(InvalidParameterError):
                flow(prob, [0.1, 0.2], 1.0, n_steps=0)
