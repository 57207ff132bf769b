"""A second discretization as the oracle: the T-periodic solution by
Fourier collocation, which shares no code with the shooting beyond the
problem's own fields.  There is no history, no Hermite read and no RK4
step: on N = 32 equispaced times d/dt is multiplication of the
trigonometric coefficients by i k w (w = 2 pi / T), and the delay r the
phase factor exp(-i k w r).  degree.newton_steps (conftest.damped_newton)
solves the collocation residual from 0, and find_fixed_points, seeded from
that solution, must agree with it at the history nodes, to fourth order in
m = steps_per_delay.  Smooth right-hand sides only: a kink would cost the
oracle its spectral accuracy."""

import math

import numpy as np
import pytest

from ddebranch import PeriodicFn1D, TranslationConfig, find_fixed_points, lienard_reduce, sigma_transform
from ddebranch.config import load_problem
from ddebranch.lienard import ScalarDelayProblem
from ddebranch.problem import History

from conftest import TWO_PI, damped_newton, perfbench_module

N = 32


def _modes(T, r):
    """(d/dt, the delay by r, the read at the times t) as real operators on
    the N samples: each a diagonal of the coefficients, with the Nyquist
    mode's derivative 0 and its shift and read real (cos), as the real
    trigonometric interpolant's."""
    k = np.fft.fftfreq(N, 1.0 / N) * (2.0 * math.pi / T)
    nyquist = np.arange(N) == N // 2
    ik = np.where(nyquist, 0.0, 1j * k)
    shift = np.where(nyquist, np.cos(k * r), np.exp(-1j * k * r))
    basis = np.fft.fft(np.eye(N), axis=0)

    def operator(factor):
        return np.fft.ifft(factor[:, None] * basis, axis=0).real

    def read(values, t):
        phase = np.where(nyquist, np.cos(np.outer(t, k)), np.exp(1j * np.outer(t, k)))
        return (phase @ np.fft.fft(values, axis=0)).real / N

    return operator(ik), operator(shift), read


def _solve(residual, n):
    """The collocation solution from 0, by damped Newton with a
    forward-difference Jacobian."""
    def jacobian(u, r):
        return np.array([(residual(u + 1e-7 * e) - r) / 1e-7 for e in np.eye(n)]).T

    out = damped_newton(residual, jacobian, np.zeros(n), tol=1e-12, max_iter=20)
    assert out is not None
    return out[0]


def _forced_branch(lam, ms):
    """The forced-branch workload's problem at seed 0 (its DSL fields): the
    largest error of the shooting fixed point's history nodes, x and y, at
    each m."""
    params, _ = perfbench_module("workloads").make_inputs("forced-branch", 0)
    problem = load_problem(params["config"]).coupled
    T, r = problem.period, problem.delay
    D, S, read = _modes(T, r)
    ts = np.linspace(0.0, T, N, endpoint=False)
    at = problem.a(ts)

    def residual(u):
        u = u.reshape(N, 2)
        x, y, xd, yd = u[:, :1], u[:, 1:], S @ u[:, :1], S @ u[:, 1:]
        return np.concatenate([D @ x - lam * problem.eval_f(ts, x, y, xd, yd),
                               D @ y - at[:, None] * problem.eval_g(x, y)], axis=1).ravel()

    u = _solve(residual, 2 * N).reshape(N, 2)
    errors = []
    for m in ms:
        want = read(u, np.linspace(-r, 0.0, m + 1))
        got = _shoot(problem, lam, m, want)
        errors.append(float(np.max(np.abs(got - want))))
    return errors


def _forced_sunflower(lam, ms):
    """y'' = a(t) y' + lam (sin y(t - 1) + 0.5 cos t), a = -1 + 0.5 sin t,
    solved unreduced on the Fourier side, against the shooting of its
    Lienard reduction from the library's general f(t, y, yd), a Leaf of the
    compiled stage: the largest error in y at each m.  The seed's x is
    y + y'/sigma(t)."""
    a = PeriodicFn1D(eval=lambda t: -1.0 + 0.5 * np.sin(t), period=TWO_PI)
    f = lambda t, y, yd: np.sin(yd) + 0.5 * np.cos(t)
    sigma = sigma_transform(a).sigma
    problem = lienard_reduce(ScalarDelayProblem(a=a, f=f, period=TWO_PI, delay=1.0), sigma)
    D, S, read = _modes(TWO_PI, 1.0)
    ts = np.linspace(0.0, TWO_PI, N, endpoint=False)
    at = a(ts)

    def residual(y):
        dy = D @ y
        return D @ dy - at * dy - lam * f(ts, y, S @ y)

    y = _solve(residual, N)
    errors = []
    for m in ms:
        nodes = np.linspace(-1.0, 0.0, m + 1)
        want_y, dy = read(y, nodes), read(D @ y, nodes)
        got = _shoot(problem, lam, m, np.stack([want_y + dy / sigma(nodes), want_y], axis=1))
        errors.append(float(np.max(np.abs(got[:, 1] - want_y))))
    return errors


def _shoot(problem, lam, m, seed):
    """The history node values of find_fixed_points' one fixed point from
    the seed's node values, at m = steps_per_delay.  Newton's tolerance is
    1e-12: at the default 1e-9 a seed this close may already pass, and the
    fixed point would be the seed itself."""
    (record,) = find_fixed_points(problem, lam, [History.from_values(seed, problem.delay)],
                                  TranslationConfig(m=m, steps_per_delay=m, newton_tol=1e-12))
    return record.history.values


@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("oracle", [_forced_branch, _forced_sunflower], ids=["forced-branch", "forced-sunflower"])
def test_shooting_converges_to_the_fourier_solution(oracle, lam):
    # At lam = 1: 6.0e-7, 4.0e-8 and 2.1e-9 (forced branch) and 1.2e-7,
    # 8.9e-9 and 5.0e-10 (forced sunflower, in y) at m = 8, 16 and 32.
    e8, e16, e32 = oracle(lam, (8, 16, 32))
    assert e8 <= 1e-6
    assert math.log2(e8 / e16) >= 3.5 and math.log2(e16 / e32) >= 3.5
