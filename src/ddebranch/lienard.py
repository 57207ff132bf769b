"""The sigma-transformation and the Lienard-plane reduction.

For a T-periodic coefficient a with nonzero average there is a unique
T-periodic, sign-definite sigma with

    a(t) = sigma'(t)/sigma(t) - sigma(t);

it is built from the unique T-periodic solution zeta = 1/sigma of
zeta' = -zeta*a - 1.  With it, the scalar second-order delay equation

    y'' = a(t) y' + lam * phi(y(t), y(t-r))

(and more generally y'' = (gamma'/gamma - gamma) y' + lam*f(t, y, yd),
whose coefficient is a(t) at gamma = sigma) reduces to the planar
first-order coupled system

    x' = lam * f(t, y, y(t-r)) / gamma(t),
    y' = (x - y) * gamma(t),

which is exactly the shape the rest of the package integrates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import expr as dsl
from .errors import InvalidParameterError, ZeroAverageError
from .integrator import _check_count
from .problem import (
    BatchField,
    CoupledProblem,
    PeriodicFn1D,
    average_scalar,
    normalize_delay,
    simpson_mean,
    _as_array_fn,
    _broadcast_call,
    _hermite_array,
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


class SigmaResult(NamedTuple):
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
    avals = a(grid)
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
    problem._hermite_array, with its node snap, at a scalar t too."""
    T = float(grid[-1])
    return PeriodicFn1D(eval=BatchField(lambda t: _hermite_array(grid, values, slopes, np.mod(t, T))), period=T)


def sigma_transform(a: PeriodicFn1D, n_cells: int = _SIGMA_CELLS) -> SigmaResult:
    """Build the unique T-periodic sigma with a = sigma'/sigma - sigma.

    sigma is sampled as 1/zeta on its own grid of n_cells cells (with
    midpoints), not the problem's n_quad; the CLI and the presets use 2048.
    Its node slopes need no solve: the identity itself gives
    sigma' = sigma (a + sigma) from the samples of a that built zeta.  sigma
    is read by the package's one Hermite evaluator (problem._hermite_array) and
    its node snap, like a history, with t reduced modulo T.  n_cells is an
    integer >= 4: 2 n_cells Simpson cells, even and >= 8.
    """
    _check_count("n_cells", n_cells, 4)
    grid, avals, zeta, c0, abar = _zeta_periodic(a, n_cells)
    if np.min(np.abs(zeta)) < 1e-12:
        raise InvalidParameterError(
            "zeta vanishes on the grid; increase n_cells or check the coefficient"
        )
    values = 1.0 / zeta
    sign = -int(np.sign(abar))

    gap = abs(values[0] - values[-1])
    max_sigma = float(np.max(np.abs(values)))
    if gap > 1e-8 * max_sigma:
        raise InvalidParameterError(
            f"sigma periodicity gap {gap:.2e} exceeds tolerance; increase n_cells"
        )
    if not np.all(values * sign > 0):
        raise InvalidParameterError(
            "sigma is not sign-definite opposite to <a>; increase n_cells"
        )
    avg_sigma = float(simpson_mean(values))
    if abs(avg_sigma + abar) > 1e-8 * (1.0 + abs(abar)):
        raise InvalidParameterError(
            f"<sigma> + <a> = {avg_sigma + abar:.2e} exceeds tolerance; increase n_cells"
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
    """Max residual of a - sigma'/sigma + sigma over n_check (an integer
    >= 1) sample times, each function read on arrays of them; a sigma that
    is not a PeriodicFn1D is made one, with a's period.

    sigma' is taken by centered differences with step T / 2^16.
    """
    _check_count("n_check", n_check, 1)
    T = a.period
    if not isinstance(sigma, PeriodicFn1D):
        sigma = PeriodicFn1D(eval=sigma, period=T)
    step = T / 2 ** 16
    ts = np.linspace(0.0, T, n_check, endpoint=False)
    s = sigma(ts)
    zeros = np.flatnonzero(np.abs(s) < 1e-14)
    if len(zeros):
        raise InvalidParameterError(f"sigma vanishes at t={ts[zeros[0]]:.6g}")
    sdot = (sigma(ts + step) - sigma(ts - step)) / (2.0 * step)
    return float(np.max(np.abs(a(ts) - sdot / s + s)))


class _Autonomous(NamedTuple):
    """The perturbation f(t, y, yd) = phi(y, yd), which ignores t."""

    phi: Callable[[float, float], float]

    def __call__(self, t, y, yd):
        return self.phi(y, yd)


@dataclass(frozen=True)
class ScalarDelayProblem:
    """The scalar second-order delay equation y'' = a y' + lam f(t, y, yd),
    the sunflower-like equation when f is phi(y, yd) (from_phi)."""

    a: PeriodicFn1D
    f: Callable[[float, float, float], float]
    period: float
    delay: float

    def __post_init__(self):
        object.__setattr__(self, "delay", normalize_delay(self.delay, self.period))
        if abs(average_scalar(self.a)) < 1e-12:
            raise ZeroAverageError("the scalar problem requires <a> != 0")

    @classmethod
    def from_phi(cls, a: PeriodicFn1D, phi, period: float, delay: float) -> "ScalarDelayProblem":
        """Autonomous perturbation phi(y, yd), the sunflower-like shape:
        a callable, or a BatchField of one with its DSL expression in y1
        and yd1 (presets.dsl_phi)."""
        return cls(a=a, f=_Autonomous(phi), period=period, delay=delay)


def _check_nonvanishing(gamma: PeriodicFn1D):
    vals = gamma(np.linspace(0.0, gamma.period, 512, endpoint=False))
    if np.min(np.abs(vals)) < 1e-12 or vals.max() * vals.min() < 0:
        raise InvalidParameterError("gamma must be nonvanishing (and sign-definite)")


def lienard_reduce(sdp: ScalarDelayProblem, gamma: PeriodicFn1D) -> CoupledProblem:
    """Rewrite the scalar equation as the planar coupled system (k = s = 1),
    x' = lam * f / gamma(t), y' = (x - y) * gamma(t), whose f and g are
    BatchFields with expressions; gamma is also its coefficient a.

    f's expression is phi/gamma(t) for an autonomous phi(y, yd)
    (ScalarDelayProblem.from_phi), else f(t, y, yd)/gamma(t).  A phi or f
    that carries its DSL expression (a BatchField, as presets.dsl_phi
    builds it) is inlined; a Python one is decided once
    (problem._as_array_fn) and enters as the Leaf of its call, phi(y1, yd1)
    or f(t, y1, yd1), as gamma does, gamma(t).  The problem's compiled
    stage (CoupledProblem.stage_at) reads gamma once per sweep grid, on all
    its stage times, and at mu < 1 reads the drive of phi/gamma(t) as
    <1/gamma> * phi(y1, y1) (stage.averaged), <1/gamma> by the same gamma
    call; that of an f that reads t stays fields.average_f.  g is x1 - y1,
    as expression and callable.  f's callable, which eval_f and average_f
    call, divides phi(y, yd) or f(t, y, yd), broadcast to the states'
    shape, by gamma(t).
    """
    _check_nonvanishing(gamma)
    f = sdp.f
    if isinstance(f, _Autonomous):
        given, args = f.phi, ("y1", "yd1")
        fn = _as_array_fn(given, (-1.0, 1.0), (-1.0, 1.0))
        drive = lambda t, y, yd: _broadcast_call(fn, y, yd)
    else:
        given, args = f, ("t", "y1", "yd1")
        fn = _as_array_fn(given, (0.0, sdp.period), (-1.0, 1.0), (-1.0, 1.0))
        drive = lambda t, y, yd: _broadcast_call(fn, t, y, yd)
    if isinstance(given, BatchField) and given.exprs is not None:
        (e,) = given.exprs
        root = e.root
    else:
        root = dsl.Leaf(fn, "__call__", args)
    f_expr = dsl.Expr(dsl.BinOp("/", root, dsl.Leaf(gamma, "__call__", ("t",))), frozenset({"t", *args}))

    def f_c(t, x, y, xd, yd):
        return (drive(t, y[..., 0], yd[..., 0]) / gamma(t))[..., None]

    def g_c(x, y):
        return (x[..., 0] - y[..., 0])[..., None]

    return CoupledProblem(
        dim_x=1,
        dim_y=1,
        f=BatchField(f_c, [f_expr]),
        g=BatchField(g_c, [dsl.parse("x1 - y1", {"x1", "y1"})]),
        h=None,
        a=gamma,
        period=sdp.period,
        delay=sdp.delay,
    )
