"""Acceptance suite: one test per top-level criterion, each printing a
single PASS line with its measured figure of merit on success."""

import math
import time

import numpy as np
import pytest

from ddebranch import (
    Box,
    ContinuationConfig,
    CoupledProblem,
    History,
    PeriodicFn1D,
    TranslationConfig,
    average_scalar,
    continue_branch,
    degree_auto,
    flow_averaged,
    flow_unperturbed,
    integrate,
    normalize_delay,
    sigma_transform,
    translate,
    verify_index_identity,
)
from ddebranch.poincare import _newton_fixed_point

from conftest import (
    SUITE_FIELDS, TWO_PI, box, lambdas, periodic, scalar_problem, sup_distance, v_lambda_field,
)
from test_sigma import lienard_residual

SQRT3 = math.sqrt(3.0)


def _report(n, label, detail):
    print(f"PASS criterion {n} ({label}): {detail}")


class TestAcceptance:
    def test_1_quadrature_fidelity(self):
        t0 = time.perf_counter()
        fn = periodic(lambda t: 1.0 / (2.0 + math.sin(t)))
        got = average_scalar(fn)
        err = abs(got - 1.0 / SQRT3)
        assert err <= 1e-10
        _report(1, "quadrature", f"|avg - 1/sqrt(3)| = {err:.2e} in {time.perf_counter()-t0:.2f}s")

    def test_2_sigma_transformation(self):
        t0 = time.perf_counter()
        # (a) constant coefficient.
        res_a = sigma_transform(PeriodicFn1D.constant(-2.0, TWO_PI))
        err_a = max(abs(float(res_a.sigma(t)) - 2.0) for t in np.linspace(0, TWO_PI, 33))
        assert err_a <= 1e-9
        # (b) coefficient built from gamma = sin t + 2.
        a_b = periodic(lambda t: math.cos(t) / (math.sin(t) + 2.0) - (math.sin(t) + 2.0))
        res_b = sigma_transform(a_b)
        err_b = max(
            abs(float(res_b.sigma(t)) - (math.sin(t) + 2.0))
            for t in np.linspace(0, TWO_PI, 257)
        )
        assert err_b <= 1e-6
        # (c) the suite coefficient.
        res_c = sigma_transform(periodic(lambda t: -1.0 + 0.5 * math.sin(t)))
        gap = abs(res_c.values[0] - res_c.values[-1])
        assert gap <= 1e-8
        assert np.all(res_c.values > 0)
        assert abs(res_c.avg_sigma - 1.0) <= 1e-8
        _report(2, "sigma transform",
                f"errors {err_a:.1e} / {err_b:.1e}, gap {gap:.1e} in {time.perf_counter()-t0:.2f}s")

    def test_3_degree_suite(self):
        t0 = time.perf_counter()
        assert degree_auto(math.sin, box([-1.0], [1.0])).degree == 1
        assert degree_auto(lambda p: p, box([-1.0], [1.0])).degree == 1
        assert degree_auto(lambda z: z, box([-1, -1], [1, 1])).degree == 1
        assert degree_auto(lambda z: z, box([-1, -1, -1], [1, 1, 1])).degree == 1
        nu = lambda z: np.array([z[1] / SQRT3, z[0] - z[1]])
        b2 = box([-1, -1], [1, 1])
        assert degree_auto(nu, b2).degree == -1
        for name, fn, b, expected in SUITE_FIELDS:
            report = degree_auto(fn, b)
            assert report.degree == expected, name
            assert sum(z["jacobian_sign"] for z in report.zeros) == expected, name
        # Scaling law deg(-v_lam) = deg(-v_1).
        prob = CoupledProblem(
            dim_x=1, dim_y=1,
            f=lambda t, x, y, xd, yd: np.array([y[0]]),
            g=lambda x, y: np.array([x[0] - y[0]]),
            a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0, n_quad=16,
        )
        degs = {
            lam: degree_auto(v_lambda_field(prob, lam).negated(), b2).degree
            for lam in (0.1, 1.0, 10.0)
        }
        assert degs[0.1] == degs[1.0] == degs[10.0]
        _report(3, "degree suite",
                f"12 fields agree with their zeros' signs, scaling law holds in {time.perf_counter()-t0:.2f}s")

    def test_4_flow_coincidence(self):
        t0 = time.perf_counter()
        rotation = CoupledProblem(
            dim_x=0, dim_y=2,
            g=lambda x, y: np.array([-y[1], y[0]]),
            a=periodic(lambda t: 1.0 + 0.5 * math.cos(t)),
            period=TWO_PI, delay=1.0,
        )
        pairs = [
            scalar_problem(lambda y: y - y ** 3),
            scalar_problem(lambda y: -y, a_fn=lambda t: 2.0 + math.sin(t)),
            scalar_problem(lambda y: 1.0, a_fn=lambda t: math.sin(t) + 2.0),
            scalar_problem(lambda y: math.sin(y), a_fn=lambda t: -2.0),
            rotation,
        ]
        rng = np.random.default_rng(101)
        worst = 0.0
        for prob in pairs:
            points = rng.uniform(-0.5, 0.5, size=(10, prob.dim))
            d = float(np.max(np.abs(
                flow_unperturbed(prob, points, prob.period)
                - flow_averaged(prob, points, prob.period)
            )))
            worst = max(worst, d)
        assert worst <= 1e-6
        _report(4, "flow coincidence",
                f"5 pairs x 10 points, max gap {worst:.2e} in {time.perf_counter()-t0:.2f}s")

    def test_5_index_identity(self):
        t0 = time.perf_counter()
        prob = scalar_problem(lambda y: y - y ** 3)
        V = Box(lower=[-2.0], upper=[2.0])
        results = {}
        for m in (16, 32):
            cfg = TranslationConfig(m=m, steps_per_delay=16, fd_step=1e-7)
            results[m] = verify_index_identity(prob, 1e-3, V, cfg)
            assert results[m]["pass"]
            assert results[m]["lhs_sum"] == results[m]["rhs"]
        assert results[16]["lhs_sum"] == results[32]["lhs_sum"] == -1
        _report(5, "index identity",
                f"sum = rhs = -1 at m = 16 and m = 32 in {time.perf_counter()-t0:.2f}s")

    def test_6_lienard_round_trip(self, sunflower):
        t0 = time.perf_counter()
        prob = sunflower.coupled
        sigma = sunflower.sigma.sigma
        init = History.constant([0.2, 0.7], prob.delay, m=16)
        worst = 0.0
        for lam in (0.0, 0.1, 0.5):
            traj = integrate(prob, lam, 1.0, init, TWO_PI, steps_per_delay=256)
            res = lienard_residual(traj, sunflower.scalar, sigma, lam)
            worst = max(worst, res)
        assert worst <= 1e-5
        _report(6, "Lienard round trip",
                f"max residual {worst:.2e} over lambda in {{0, 0.1, 0.5}} "
                f"in {time.perf_counter()-t0:.2f}s")

    def test_7_branch_existence(self, sunflower):
        t0 = time.perf_counter()
        prob = sunflower.coupled
        cfg = ContinuationConfig(h0=0.05, h_max=0.05, m=16, steps_per_delay=16)
        branch = continue_branch(prob, [0.0, 0.0], 1.0, cfg)
        assert branch.termination == "reached_lambda_max"
        assert lambdas(branch)[-1] == pytest.approx(1.0)
        assert len(branch.points) >= 20
        # Every point is a genuine periodic solution: one further period of
        # integration moves the history by at most 1e-7.
        tcfg = cfg
        drift = 0.0
        for p in branch.points:
            out = translate(prob, p.lam, 1.0, p.history, tcfg)
            drift = max(drift, sup_distance(p.history, out))
        assert drift <= 1e-7
        # Extrapolating the first three histories to lambda = 0 lands within
        # 1e-4 of the constant history at a zero of sin.
        lams = lambdas(branch)[:3]
        hists = [p.history.values for p in branch.points[:3]]
        l0, l1, l2 = lams
        c0 = (0 - l1) * (0 - l2) / ((l0 - l1) * (l0 - l2))
        c1 = (0 - l0) * (0 - l2) / ((l1 - l0) * (l1 - l2))
        c2 = (0 - l0) * (0 - l1) / ((l2 - l0) * (l2 - l1))
        extrap = c0 * hists[0] + c1 * hists[1] + c2 * hists[2]
        sin_zeros = np.array([k * math.pi for k in range(-2, 3)])
        y_limit = extrap[:, 1]
        dist = min(float(np.max(np.abs(y_limit - z))) for z in sin_zeros)
        assert dist <= 1e-4
        _report(7, "branch existence",
                f"{len(branch.points)} points to lambda = 1, drift {drift:.1e}, "
                f"origin distance {dist:.1e} in {time.perf_counter()-t0:.2f}s")

    def test_8_delay_normalization(self):
        t0 = time.perf_counter()
        assert normalize_delay(7.5, 2.0) == 1.5
        T = 2.0
        a_fn = lambda t: -1.0 + 0.5 * math.sin(math.pi * t)

        def make(delay):
            return scalar_problem(
                lambda y: y - y ** 3, a_fn=a_fn, period=T, delay=delay,
                h=lambda t, x, y, xd, yd: np.array([0.1 * math.cos(math.pi * t) + 0.3 * yd[0]]),
            )

        probs = [make(7.5), make(1.5)]
        assert probs[0].delay == probs[1].delay == 1.5
        cfg = TranslationConfig(m=16, steps_per_delay=16)
        seed = History.constant([1.0], 1.5, m=16).values.ravel()
        solutions = []
        for prob in probs:
            out = _newton_fixed_point(prob, 1e-2, 1.0, seed.copy(), cfg)
            assert out is not None
            solutions.append(out[0])
        gap = float(np.max(np.abs(solutions[0] - solutions[1])))
        assert gap <= 1e-7
        _report(8, "delay normalization",
                f"r = 7.5 and r = 1.5 solutions coincide to {gap:.2e} "
                f"in {time.perf_counter()-t0:.2f}s")

    def test_9_integrator_order(self):
        t0 = time.perf_counter()
        prob = scalar_problem(lambda y: y, a_fn=lambda t: 1.0)
        init = History.constant([1.0], 1.0, m=8)
        errs = []
        for spd in (16, 32):
            traj = integrate(prob, 0.0, 1.0, init, 1.0, steps_per_delay=spd)
            errs.append(abs(float(traj.eval(1.0)[0]) - math.e))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0
        _report(9, "integrator order",
                f"step-halving error ratio {ratio:.2f} in {time.perf_counter()-t0:.2f}s")
