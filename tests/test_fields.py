"""Averaged field w_f and the finite-dimensional fields nu and v_lambda."""

import dataclasses
import math

import numpy as np
import pytest

from ddebranch import (
    CoupledProblem,
    FieldHandle,
    PeriodicFn1D,
    average_f,
    nu_field,
)

from ddebranch.config import load_problem
from ddebranch.errors import InvalidParameterError
from ddebranch.fields import make_wf
from ddebranch.lienard import ScalarDelayProblem, lienard_reduce, sigma_transform
from ddebranch.presets import default_sunflower
from ddebranch.problem import simpson_mean

from conftest import TWO_PI, box, periodic, v_lambda_field


def coupled(f, g=None, a_fn=None, period=TWO_PI):
    if g is None:
        g = lambda x, y: np.array([x[0] - y[0]])
    if a_fn is None:
        a_fn = lambda t: -1.0 + 0.5 * math.sin(t)
    return CoupledProblem(
        dim_x=1, dim_y=1, f=f, g=g, a=periodic(a_fn, period), period=period, delay=1.0,
    )


def _ex_f(t, x, y, xd, yd):
    # Time average over one period is y / sqrt(3).
    return np.array([y[0] / (math.sin(t) + 2.0)])


class TestAverageF:
    def test_autonomous_field_unchanged(self):
        prob = coupled(lambda t, x, y, xd, yd: np.array([x[0] * y[0] + 1.0]))
        got = average_f(prob, [2.0], [3.0])
        assert float(got[0]) == pytest.approx(7.0, abs=1e-12)

    def test_pure_oscillation_averages_to_zero(self):
        prob = coupled(lambda t, x, y, xd, yd: np.array([math.sin(t) * 5.0]))
        assert abs(float(average_f(prob, [1.0], [1.0])[0])) < 1e-12

    def test_reciprocal_weight(self):
        prob = coupled(_ex_f)
        for q in (-1.0, 0.5, 2.0):
            got = float(average_f(prob, [0.3], [q])[0])
            assert got == pytest.approx(q / math.sqrt(3.0), abs=1e-10)

    def test_linearity(self):
        f1 = lambda t, x, y, xd, yd: np.array([math.cos(t) ** 2 * y[0]])
        f2 = _ex_f
        rng = np.random.default_rng(2)
        p, q = [0.4], [1.3]
        for _ in range(10):
            c1, c2 = rng.uniform(-3, 3, size=2)
            combo = lambda t, x, y, xd, yd: c1 * f1(t, x, y, xd, yd) + c2 * f2(t, x, y, xd, yd)
            got = average_f(coupled(combo), p, q)
            want = c1 * average_f(coupled(f1), p, q) + c2 * average_f(coupled(f2), p, q)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_bad_n_quad_raises_before_f_is_called(self):
        calls = []

        def f(t, x, y, xd, yd):
            calls.append(t)
            return np.array([y[0]])

        prob = coupled(f)
        calls.clear()  # the construction's periodicity check samples f
        with pytest.raises(InvalidParameterError, match="n_quad must be even and >= 8, got 7"):
            dataclasses.replace(prob, n_quad=7)
        assert calls == []

    def test_k_zero_gives_empty(self):
        prob = CoupledProblem(
            dim_x=0, dim_y=1, g=lambda x, y: y,
            a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0,
        )
        assert average_f(prob, np.zeros(0), [1.0]).size == 0


class TestMakeWf:
    def test_matches_direct_average(self):
        prob = coupled(_ex_f)
        wf = make_wf(prob)
        for q in (0.2, -0.7, 1.5):
            direct = average_f(prob, [0.1], [q])
            assert np.allclose(wf([0.1], [q]), direct, atol=1e-14)
            # The evaluator keeps no state: a repeated call recomputes.
            assert np.array_equal(wf([0.1], [q]), wf([0.1], [q]))


def _scalar_loop_average(problem, p, q, n_quad):
    """Reference w_f: one eval_f per quadrature time at one point."""
    ts = np.linspace(0.0, problem.period, n_quad + 1)
    return simpson_mean(np.array([problem.eval_f(float(t), p, q, p, q) for t in ts]))


def _forced_dsl_problem():
    return load_problem({"problem": {
        "dims": {"k": 1, "s": 1}, "T": TWO_PI, "r": 1.0,
        "a": "-1 + 0.5*sin(t)", "f": ["sin(yd1) + 0.5*cos(t)"], "g": ["x1 - y1"],
    }}).coupled


def _scalar_only_lienard_problem():
    # math.sin and math.cos reject arrays, so the reduced f falls back to
    # element-wise calls.
    a = periodic(lambda t: -1.0 + 0.4 * math.sin(t))
    sdp = ScalarDelayProblem(a=a, f=lambda t, y, yd: math.sin(yd) + 0.3 * math.cos(t),
                             period=TWO_PI, delay=1.0)
    return lienard_reduce(sdp, sigma_transform(a, 256).sigma)


BATCH_CASES = {
    "forced-dsl": _forced_dsl_problem,
    "default-sunflower": lambda: default_sunflower().coupled,
    "scalar-only-lienard": _scalar_only_lienard_problem,
    "plain-callable": lambda: coupled(_ex_f),
}


class TestBatchedAverage:
    N_QUAD = 64

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    @pytest.mark.parametrize("B", [None, 1, 5])
    def test_matches_scalar_loop(self, name, B):
        prob = dataclasses.replace(BATCH_CASES[name](), n_quad=self.N_QUAD)
        rng = np.random.default_rng(4)
        P = rng.uniform(-1.0, 1.0, size=(5, 1))
        Q = rng.uniform(-1.0, 1.0, size=(5, 1))
        if B is None:
            got = np.array([average_f(prob, p, q) for p, q in zip(P, Q)])
        else:
            got = average_f(prob, P[:B], Q[:B])
        assert got.shape == (len(P) if B is None else B, 1)
        want = np.array([_scalar_loop_average(prob, p, q, self.N_QUAD) for p, q in zip(P, Q)])
        np.testing.assert_allclose(got, want[: len(got)], rtol=1e-13, atol=1e-15)

    def test_batched_g_matches_rows(self):
        prob = _scalar_only_lienard_problem()
        X = np.array([[0.3], [-0.2], [0.9]])
        Y = np.array([[0.5], [0.1], [-0.7]])
        rows = np.array([prob.eval_g(x, y) for x, y in zip(X, Y)])
        assert np.array_equal(prob.eval_g(X, Y), rows)


class TestNuField:
    def test_zero_f_reduces_to_g(self):
        prob = coupled(lambda t, x, y, xd, yd: np.zeros(1))
        nu = nu_field(prob)
        out = nu([0.4, 0.9])
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.4 - 0.9, abs=1e-14)

    def test_averaged_components(self):
        prob = coupled(_ex_f)
        nu = nu_field(prob)
        out = nu([0.5, 0.8])
        assert float(out[0]) == pytest.approx(0.8 / math.sqrt(3.0), abs=1e-10)
        assert float(out[1]) == pytest.approx(-0.3, abs=1e-14)

    def test_reported_zero_satisfies_both_residuals(self):
        from ddebranch import degree_auto

        prob = coupled(_ex_f)
        nu = nu_field(dataclasses.replace(prob, n_quad=64))
        report = degree_auto(nu, box([-1, -1], [1, 1]), cells=8)
        assert report.zeros
        for z in report.zeros:
            res = nu(np.array(z["point"]))
            assert np.max(np.abs(res)) <= 1e-8


class TestVLambdaField:
    def test_matches_nu_when_scaling_trivial(self):
        prob = coupled(_ex_f, a_fn=lambda t: 1.0)
        nu = nu_field(prob)
        v1 = v_lambda_field(prob, 1.0)
        for z in ([0.3, 0.7], [-0.5, 0.2]):
            assert np.allclose(v1(z), nu(z), atol=1e-12)

    def test_rejects_nonpositive_lambda(self):
        prob = coupled(_ex_f)
        for lam in (0.0, -1.0):
            with pytest.raises(InvalidParameterError, match="lambda must be positive"):
                v_lambda_field(prob, lam)
        assert issubclass(InvalidParameterError, ValueError)  # callers catching ValueError still do

    def test_scaling_structure(self):
        prob = coupled(lambda t, x, y, xd, yd: np.array([y[0]]), a_fn=lambda t: -1.0)
        v = v_lambda_field(dataclasses.replace(prob, n_quad=16), 2.0)
        out = v([0.5, 0.3])
        # (lam/<a>) w_f = (2/-1)*0.3, lam*g = 2*(0.5-0.3)
        assert float(out[0]) == pytest.approx(-0.6, abs=1e-12)
        assert float(out[1]) == pytest.approx(0.4, abs=1e-12)


class TestFieldHandleBatch:
    """nu and v_lambda take an (N, n) array of points in one call."""

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_batch_matches_per_point_rows(self, name):
        prob = dataclasses.replace(BATCH_CASES[name](), n_quad=64)
        Z = np.random.default_rng(7).uniform(-1.0, 1.0, size=(6, 2))
        lam = 0.7
        c = lam / prob.abar
        for field, scale in ((nu_field(prob), (1.0, 1.0)), (v_lambda_field(prob, lam), (c, lam))):
            got = field(Z)
            assert got.shape == Z.shape
            # Reference rows on one-point arrays, where simpson_mean takes its
            # 2-d path; the batch takes the 3-d one, so they may round apart.
            want = np.array([
                np.concatenate([scale[0] * average_f(prob, z[:1], z[1:]),
                                scale[1] * prob.eval_g(z[:1], z[1:])])
                for z in Z
            ])
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
            # A point read alone is the batch of one, so it is the batch's row.
            for z, row in zip(Z, got):
                assert field(z).tobytes() == row.tobytes()

    def test_per_point_eval_rejected(self):
        field = FieldHandle(dim=2, eval=lambda z: np.array([z[1], z[0] - z[1]]))
        with pytest.raises(InvalidParameterError):
            field(np.zeros((5, 2)))
