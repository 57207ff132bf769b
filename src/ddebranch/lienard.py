"""The sigma-transformation and the Lienard-plane reduction.

For a T-periodic coefficient a with nonzero average there is a unique
T-periodic, sign-definite sigma with

    a(t) = sigma'(t)/sigma(t) - sigma(t);

it is built from the unique T-periodic solution zeta = 1/sigma of
zeta' = -zeta*a - 1.  With it, the scalar second-order delay equation

    y'' = a(t) y' + lam * phi(y(t), y(t-r))

(and more generally y'' = (gamma'/gamma - gamma*g(y)) y' + lam*f(t, y, yd))
reduces to the planar first-order coupled system

    x' = lam * f(t, y, y(t-r)) / gamma(t),
    y' = (x - G(y)) * gamma(t),

with G a primitive of g, which is exactly the shape the rest of the
package integrates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, ZeroAverageError
from .problem import (
    DEFAULT_N_QUAD,
    BatchField,
    CoupledProblem,
    PeriodicFn1D,
    average_scalar,
    normalize_delay,
    quadrature_times,
    simpson_mean,
    _hermite,
    _hermite_array,
    _hermite_eval,
    _sample_at,
)

_SIGMA_CELLS = 2048


def _cumulative_simpson(values: np.ndarray, h2: float) -> np.ndarray:
    """Cumulative integral on a grid with midpoints (2M+1 values, spacing h2).

    Even indices accumulate classical Simpson over the cells; each odd index
    adds the half-cell quadratic rule to the even entry before it.  Both are
    fourth order.
    """
    y0, y1, y2 = values[:-2:2], values[1:-1:2], values[2::2]
    out = np.empty(values.size)
    out[0] = 0.0
    np.cumsum((h2 / 3.0) * (y0 + 4.0 * y1 + y2), out=out[2::2])
    out[1::2] = out[:-1:2] + (h2 / 12.0) * (5.0 * y0 + 8.0 * y1 - y2)
    return out


@dataclass(frozen=True)
class SigmaResult:
    """The sigma-transform of a coefficient: grid-backed sigma plus diagnostics."""

    sigma: PeriodicFn1D
    c0: float
    sign: int
    avg_sigma: float
    grid: np.ndarray
    values: np.ndarray

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "sigma"])
            for t, v in zip(self.grid, self.values):
                writer.writerow([f"{t:.12g}", f"{v:.15g}"])


def _zeta_periodic(a: PeriodicFn1D, n_cells: int):
    """The unique periodic solution of zeta' = -zeta*a - 1, evaluated stably.

    a is sampled once, on a grid of n_cells cells with midpoints; returns
    (grid, the samples of a, zeta, c0, <a>).  The closed form
    e^{-A(t)}(c0 - B(t)) cancels catastrophically once T*|<a>| approaches
    log(1/eps) (~36): c0 - B(t) shrinks below the roundoff of c0 while
    e^{-A(t)} explodes.  For <a> < 0 the bounded solution is instead

        zeta(t) = integral_t^inf e^{A(s) - A(t)} ds
                = e^{-A(t)} * [ (B(T) - B(t)) + e^{T<a>} B(t) ] / (1 - e^{T<a>}),

    with B(T) - B(t) accumulated backward from T as a sum of positive cell
    integrals, so every quantity keeps small relative error.  The <a> > 0
    case reduces to this one through the reflection zeta_a(t) =
    -zeta_atilde(T - t) with atilde(t) = -a(T - t), whose samples are the
    reversed, negated samples of a.
    """
    T = a.period
    n2 = 2 * n_cells
    grid = np.linspace(0.0, T, n2 + 1)
    avals = _sample_at(a, grid)
    zeta, c0, abar = _zeta_from_samples(avals, T, T / n2)
    return grid, avals, zeta, c0, abar


def _zeta_from_samples(avals: np.ndarray, T: float, h2: float):
    """(zeta, c0, <a>) from the samples of a on _zeta_periodic's grid."""
    A = _cumulative_simpson(avals, h2)
    abar = A[-1] / T
    if abs(abar) < 1e-12:
        raise ZeroAverageError("sigma transform requires <a> != 0")
    if abar > 0:
        zeta_r, _, _ = _zeta_from_samples(-avals[::-1], T, h2)
        zeta = -zeta_r[::-1]
        return zeta, float(zeta[0]), abar
    E = np.exp(A)
    B = _cumulative_simpson(E, h2)
    # Backward cumulative of e^A: tail[k] = integral over [t_k, T].
    tail = _cumulative_simpson(E[::-1], h2)[::-1]
    eTa = math.exp(T * abar)
    zeta = np.exp(-A) * (tail + eTa * B) / (1.0 - eTa)
    return zeta, float(B[-1] / (1.0 - eTa)), abar


def _periodic_hermite(grid: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> PeriodicFn1D:
    """The periodic cubic Hermite interpolant of node values and slopes on
    grid (grid[0] = 0, grid[-1] = T): t is reduced into [0, T] and read by
    problem._hermite, with its node snap.  A scalar t bisects a list copy of
    the grid and returns a float; an array t goes through _hermite_array."""
    T = float(grid[-1])
    nodes = grid.tolist()

    def evaluate(t):
        if isinstance(t, float) or np.ndim(t) == 0:
            return float(_hermite(nodes, values, slopes, float(t) % T))
        t = np.mod(np.asarray(t, dtype=float), T)
        return _hermite_array(grid, values, slopes, t, (_hermite_eval,))[0]

    return PeriodicFn1D(eval=evaluate, period=T)


def sigma_transform(a: PeriodicFn1D, n_quad: int = _SIGMA_CELLS) -> SigmaResult:
    """Build the unique T-periodic sigma with a = sigma'/sigma - sigma.

    sigma is sampled on a grid of n_quad cells (with midpoints) as 1/zeta.
    Its node slopes need no solve: the identity itself gives
    sigma' = sigma (a + sigma) from the samples of a that built zeta.  sigma
    is read by the package's one Hermite evaluator (problem._hermite) and
    its node snap, like a history, with t reduced modulo T.
    """
    grid, avals, zeta, c0, abar = _zeta_periodic(a, n_quad)
    if np.min(np.abs(zeta)) < 1e-12:
        raise InvalidParameterError(
            "zeta vanishes on the grid; increase n_quad or check the coefficient"
        )
    values = 1.0 / zeta
    sign = -int(np.sign(abar))

    gap = abs(values[0] - values[-1])
    max_sigma = float(np.max(np.abs(values)))
    if gap > 1e-8 * max_sigma:
        raise InvalidParameterError(
            f"sigma periodicity gap {gap:.2e} exceeds tolerance; increase n_quad"
        )
    if not np.all(values * sign > 0):
        raise InvalidParameterError(
            "sigma is not sign-definite opposite to <a>; increase n_quad"
        )
    avg_sigma = float(simpson_mean(values))
    if abs(avg_sigma + abar) > 1e-8 * (1.0 + abs(abar)):
        raise InvalidParameterError(
            f"<sigma> + <a> = {avg_sigma + abar:.2e} exceeds tolerance; increase n_quad"
        )

    # Close the sample loop exactly, values and slopes alike.
    closed = values.copy()
    closed[-1] = closed[0]
    slopes = closed * (avals + closed)
    slopes[-1] = slopes[0]
    return SigmaResult(
        sigma=_periodic_hermite(grid, closed, slopes), c0=c0, sign=sign, avg_sigma=avg_sigma,
        grid=grid, values=closed,
    )


def verify_sigma(a: PeriodicFn1D, sigma, n_check: int = 256) -> float:
    """Max residual of a - sigma'/sigma + sigma over n_check sample times.

    sigma' is taken by centered differences with step T / 2^16.
    """
    T = a.period
    step = T / 2 ** 16
    ts = np.linspace(0.0, T, n_check, endpoint=False)
    worst = 0.0
    for t in ts:
        s = float(sigma(t))
        if abs(s) < 1e-14:
            raise InvalidParameterError(f"sigma vanishes at t={t:.6g}")
        sdot = (float(sigma(t + step)) - float(sigma(t - step))) / (2.0 * step)
        worst = max(worst, abs(float(a(t)) - sdot / s + s))
    return worst


@dataclass(frozen=True)
class _Autonomous:
    """The perturbation f(t, y, yd) = phi(y, yd), which ignores t."""

    phi: Callable[[float, float], float]

    def __call__(self, t, y, yd):
        return self.phi(y, yd)


@dataclass(frozen=True)
class ScalarDelayProblem:
    """The scalar second-order delay equation y'' = a y' + lam f(t, y, yd).

    G is the primitive, with G(0) = 0, of the damping shape g that the
    Lienard reduction uses; primitive_of(g) builds it.  The default G(y) = y
    (g = 1) matches the sunflower-like equation.
    """

    a: PeriodicFn1D
    f: Callable[[float, float, float], float]
    period: float
    delay: float
    G: Callable[[float], float] = staticmethod(lambda y: y)

    def __post_init__(self):
        object.__setattr__(self, "delay", normalize_delay(self.delay, self.period))
        if abs(average_scalar(self.a)) < 1e-12:
            raise ZeroAverageError("the scalar problem requires <a> != 0")

    @classmethod
    def from_phi(cls, a: PeriodicFn1D, phi, period: float, delay: float) -> "ScalarDelayProblem":
        """Autonomous perturbation phi(y, yd), the sunflower-like shape."""
        return cls(a=a, f=_Autonomous(phi), period=period, delay=delay)


def primitive_of(g, n: int = 128) -> Callable[[float], float]:
    """Numerical primitive of a scalar function with G(0) = 0 (Simpson)."""

    def G(y: float) -> float:
        y = float(y)
        if y == 0.0:
            return 0.0
        ts = np.linspace(0.0, y, n + 1)
        return y * float(simpson_mean(_sample_at(g, ts)))

    return G


def _check_nonvanishing(gamma: PeriodicFn1D, n: int = 512):
    vals = _sample_at(gamma, np.linspace(0.0, gamma.period, n, endpoint=False))
    if np.min(np.abs(vals)) < 1e-12 or vals.max() * vals.min() < 0:
        raise InvalidParameterError("gamma must be nonvanishing (and sign-definite)")


def lienard_reduce(sdp: ScalarDelayProblem, gamma: PeriodicFn1D) -> CoupledProblem:
    """Rewrite the scalar equation as the planar coupled system (k = s = 1),
    whose f and g are BatchFields calling f, G and gamma through _sample_at.

    An autonomous perturbation phi(y, yd) (ScalarDelayProblem.from_phi) is
    called once per state row and divided by gamma on the time grid by
    broadcasting, not called once per (time, row) pair.  gamma is also the
    reduced problem's coefficient a, and one PeriodicFn1D remembers its last
    float time, so the right-hand side and f together read it once per
    distinct stage time.  f keeps gamma on the last array of times, so the
    mu < 1 averaged drive samples it on the quadrature grid once, not per
    stage.
    """
    _check_nonvanishing(gamma)
    f = sdp.f
    G = sdp.G
    if isinstance(f, _Autonomous):
        phi = f.phi
        drive = lambda t, y, yd: _sample_at(phi, y, yd)
    else:
        drive = lambda t, y, yd: _sample_at(f, t, y, yd)
    # Every averaged-drive stage passes average_f's one array of quadrature
    # times.  An array is matched by its dtype, shape and bytes, kept as a
    # private copy: the caller's array may have been written to since.
    grid = [(None, None)]  # (key of the last time array, gamma on it)

    def f_c(t, x, y, xd, yd):
        if isinstance(t, float):
            gt = float(gamma(t))
        else:
            t = np.asarray(t)
            key = (t.dtype, t.shape, t.tobytes())
            if key != grid[0][0]:
                grid[0] = (key, _sample_at(gamma, t))
            gt = grid[0][1]
        return (drive(t, y[..., 0], yd[..., 0]) / gt)[..., None]

    def g_c(x, y):
        return (x[..., 0] - _sample_at(G, y[..., 0]))[..., None]

    return CoupledProblem(
        dim_x=1,
        dim_y=1,
        f=BatchField(f_c),
        g=BatchField(g_c),
        h=None,
        a=gamma,
        period=sdp.period,
        delay=sdp.delay,
    )


def wbar(f, gamma: PeriodicFn1D, T: float, n_quad: int = DEFAULT_N_QUAD) -> Callable[[float], float]:
    """The averaged scalar field q -> (1/T) integral f(t, q, q) / gamma(t) dt."""
    _check_nonvanishing(gamma)
    ts = quadrature_times(T, n_quad)
    gvals = _sample_at(gamma, ts)

    def wb(q: float) -> float:
        q = float(q)
        return float(simpson_mean(_sample_at(f, ts, q, q) / gvals))

    return wb


def lienard_residual(traj, sdp: ScalarDelayProblem, gamma: PeriodicFn1D, lam: float, n_skip: int = 2) -> float:
    """Sup residual of y'' = a(t) y' + lam f(t, y, y(t-r)) along a trajectory
    of the reduced planar system, over one period.

    y'' comes from a fourth-order centered difference of y' = (x - G(y)) *
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
            (states[i, 0] - float(sdp.G(states[i, 1]))) * float(gamma(times[i]))
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
