"""Problem data model: periodic coefficients, coupled delay systems, histories.

The coupled system integrated throughout the package is

    x'(t) = lambda * f(t, x(t), y(t), x(t-r), y(t-r)),
    y'(t) = a(t) * g(x(t), y(t)) + lambda * h(t, x(t), y(t), x(t-r), y(t-r)),

with x in R^k (k >= 0 allowed), y in R^s, a T-periodic coefficient a, and
delay r normalized into (0, T] at construction.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, ZeroAverageError

DEFAULT_N_QUAD = 1024

#: Number of sample points for the construction-time periodicity spot check.
_PERIODICITY_SAMPLES = 17
_PERIODICITY_TOL = 1e-9


def normalize_delay(r: float, T: float) -> float:
    """Reduce the delay modulo the period into the interval (0, T].

    T-periodic solution sets are unchanged when r is replaced by r - n*T
    for the unique integer n >= 0 with 0 < r - n*T <= T.
    """
    if r <= 0:
        raise InvalidParameterError(f"delay must be positive, got {r}")
    if T <= 0:
        raise InvalidParameterError(f"period must be positive, got {T}")
    if r <= T:
        return r
    n = math.ceil(r / T) - 1
    out = r - n * T
    # Guard against roundoff pushing an exact multiple to 0.
    if out <= 0:
        out += T
    return out


@dataclass(frozen=True)
class PeriodicFn1D:
    """A real-valued T-periodic function of time.

    A call at a Python float t remembers that t and its value, so repeated
    reads at one time evaluate once: RK4 stages come in pairs at one time,
    and a Lienard problem reads its coefficient a, which is the gamma its
    f divides by, in both the y-equation and f.  Any other t (np.float64,
    arrays) calls eval directly.
    """

    eval: Callable[[float], float]
    period: float
    _last: list = field(init=False, repr=False, compare=False, default_factory=lambda: [None, 0.0])

    def __post_init__(self):
        if self.period <= 0:
            raise InvalidParameterError(f"period must be positive, got {self.period}")

    def __call__(self, t):
        if type(t) is float:
            last = self._last
            if t != last[0]:
                last[0], last[1] = t, self.eval(t)
            return last[1]
        return self.eval(t)

    @classmethod
    def constant(cls, value: float, period: float) -> "PeriodicFn1D":
        return cls(eval=lambda t, _v=float(value): _v * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else _v, period=period)


def _sample_at(fn, *args) -> np.ndarray:
    """Evaluate a scalar function at the broadcast of its arguments: in one
    array call (a result that ignores an argument is broadcast), or element
    by element on Python floats for a callable that only takes scalars."""
    shape = np.broadcast(*args).shape
    try:
        out = np.asarray(fn(*args), dtype=float)
        return out if out.shape == shape else np.broadcast_to(out, shape).copy()
    except (TypeError, ValueError):
        pass  # on arrays math.sin raises TypeError, `if t < 1` ValueError
    full = [a if isinstance(a, np.ndarray) and a.shape == shape else np.broadcast_to(a, shape) for a in args]
    columns = [a.ravel().tolist() for a in full]
    points = itertools.starmap(fn, zip(*columns))
    return np.fromiter(points, dtype=float, count=math.prod(shape)).reshape(shape)


class BatchField:
    """A field callable that takes a leading batch axis in one call.

    Wrapping fn declares that, given states of shape (B, n_i) and a time t
    that is a float or an array broadcasting against the batch axes (as
    the (n_quad+1, 1) times of average_f), fn returns the values with the
    broadcast batch shape plus one axis of k components: (k,) for 1-d
    states at a float t.  Config expressions, the Lienard-reduced fields
    and hence the presets are BatchFields.  Any other callable is a
    single-state field, evaluated per (time, row) pair by eval_batch.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, *args):
        return self.fn(*args)


def eval_batch(fn: Callable, t, *states) -> np.ndarray:
    """Evaluate fn(t, *states), or fn(*states) when t is None.

    The states have shape (n_i,) for one point, or (B, n_i) for a batch of
    B points; t is a float, or an array that broadcasts against the batch
    axes.  The result has the broadcast batch shape plus one component
    axis.  A BatchField takes it all in one call; any other callable is
    called once per (time, row) pair.
    """
    lead = () if t is None else (t,)
    if isinstance(fn, BatchField):
        out = np.asarray(fn.fn(*lead, *states), dtype=float)
        if isinstance(t, np.ndarray) and out.ndim <= t.ndim:  # a field that ignores t
            out = np.broadcast_to(out, np.broadcast_shapes(t.shape, out.shape[:-1]) + out.shape[-1:])
        return out
    shape = states[0].shape[:-1]
    if isinstance(t, np.ndarray) and t.ndim:
        shape = np.broadcast_shapes(t.shape, shape)
    if not shape:
        return np.asarray(fn(*lead, *states), dtype=float).reshape(-1)
    n = math.prod(shape)
    full = [s if s.shape[:-1] == shape else np.broadcast_to(s, shape + s.shape[-1:]) for s in states]
    rows = [s.reshape(n, s.shape[-1]) for s in full]
    if t is not None:
        rows.insert(0, np.broadcast_to(t, shape).ravel() if np.ndim(t) else itertools.repeat(t))
    out = np.array([np.asarray(fn(*args), dtype=float).reshape(-1) for args in zip(*rows)])
    return out.reshape(shape + out.shape[1:])


@lru_cache(maxsize=16)
def _simpson_rule(n: int) -> np.ndarray:
    """The composite Simpson weights over n equispaced cells (n even and
    >= 8), divided by 3: built once per n, read-only."""
    if n % 2 != 0 or n < 8:
        raise InvalidParameterError(f"n_quad must be even and >= 8, got {n}")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w = w / 3.0
    w.flags.writeable = False
    return w


@lru_cache(maxsize=16)
def quadrature_times(period: float, n: int) -> np.ndarray:
    """The n+1 Simpson nodes np.linspace(0, period, n + 1) of a period
    average: built once per (period, n), read-only.  A bad n raises
    InvalidParameterError here, before any field is sampled."""
    _simpson_rule(n)
    ts = np.linspace(0.0, period, n + 1)
    ts.flags.writeable = False
    return ts


def simpson_mean(values: np.ndarray):
    """Mean over an interval by composite Simpson, from samples at its n+1
    equispaced nodes (n = len(values) - 1 cells, even and >= 8), with the
    weights of _simpson_rule, built once per n.  Trailing axes of values
    are components, averaged separately; in an (n+1, B, k) batch each is
    summed on its own, so its mean does not depend on B."""
    n = len(values) - 1
    w = _simpson_rule(n)
    if np.ndim(values) <= 2:
        return w @ values / n
    rows = np.ascontiguousarray(np.moveaxis(values, 0, -1))
    return (rows * w).sum(axis=-1) / n


def average_scalar(fn: PeriodicFn1D, n_quad: int = DEFAULT_N_QUAD) -> float:
    """Average of a periodic function over one period by composite Simpson,
    on the cached quadrature_times."""
    return float(simpson_mean(_sample_at(fn, quadrature_times(fn.period, n_quad))))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, the computational stand-in for open working sets."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise InvalidParameterError("box bounds must be 1-d arrays of equal length")
        if not np.all(lower < upper):
            raise InvalidParameterError("box requires lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def scale(self) -> float:
        return float(np.max(self.upper - self.lower))

    def contains(self, point, tol: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


def _hermite_eval(u, dt, y0, d0, y1, d1):
    """Cubic Hermite value on one segment; u in [0,1], dt segment length."""
    u2 = u * u
    u3 = u2 * u
    h00 = 2.0 * u3 - 3.0 * u2 + 1.0
    h10 = u3 - 2.0 * u2 + u
    h01 = -2.0 * u3 + 3.0 * u2
    h11 = u3 - u2
    return y0 * h00 + d0 * (dt * h10) + y1 * h01 + d1 * (dt * h11)


def _hermite_deriv(u, dt, y0, d0, y1, d1):
    u2 = u * u
    dh00 = (6.0 * u2 - 6.0 * u) / dt
    dh10 = 3.0 * u2 - 4.0 * u + 1.0
    dh01 = (-6.0 * u2 + 6.0 * u) / dt
    dh11 = 3.0 * u2 - 2.0 * u
    return y0 * dh00 + d0 * dh10 + y1 * dh01 + d1 * dh11


_NODE_SNAP = 1e-9  # a read this close to a node, in units of its segment, is at the node


def _hermite(grid, values, derivs, t, deriv=False):
    """Piecewise cubic Hermite interpolant, or with deriv its derivative, at t.

    grid is any increasing sequence of nodes; values and derivs have shape
    (len(grid), ...).  A t within _NODE_SNAP of a node reads that node's own
    value (or slope) exactly, and a t outside the grid the nearer end node.
    A scalar t bisects the grid and returns shape values.shape[1:]; an array
    t returns t.shape + values.shape[1:] (see _hermite_array).
    """
    kernel = _hermite_deriv if deriv else _hermite_eval
    if isinstance(t, float) or np.ndim(t) == 0:
        t = float(t)
        i = min(max(bisect_right(grid, t) - 1, 0), len(grid) - 2)
        g0 = float(grid[i])
        dt = float(grid[i + 1]) - g0
        u = (t - g0) / dt
        if u < _NODE_SNAP or u > 1.0 - _NODE_SNAP:
            return (derivs if deriv else values)[i if u < 0.5 else i + 1].copy()
        return kernel(u, dt, values[i], derivs[i], values[i + 1], derivs[i + 1])
    return _hermite_array(grid, values, derivs, t, (kernel,))[0]


def _hermite_array(grid, values, derivs, t, kernels):
    """_hermite at an array t for each of kernels (_hermite_eval for values,
    _hermite_deriv for slopes), from one segment lookup; returns a list."""
    grid = np.asarray(grid, dtype=float)
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)
    dt = grid[i + 1] - grid[i]
    u = (t - grid[i]) / dt
    u = np.where(u < _NODE_SNAP, 0.0, np.where(u > 1.0 - _NODE_SNAP, 1.0, u))
    col = t.shape + (1,) * (values.ndim - 1)
    segment = (u.reshape(col), dt.reshape(col), values[i], derivs[i], values[i + 1], derivs[i + 1])
    return [kernel(*segment) for kernel in kernels]


def _node_array(values) -> np.ndarray:
    """History node values as a float array of at least two axes: 1-d
    values are the nodes of a scalar history, shape (m+1, 1)."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else np.atleast_2d(values)


def _check_history_grid(delay: float, n_nodes: int):
    if delay <= 0:
        raise InvalidParameterError(f"delay must be positive, got {delay}")
    if n_nodes < 9:
        raise InvalidParameterError("history needs at least m = 8 (9 nodes)")


@dataclass(frozen=True)
class History:
    """A sampled function on [-r, 0] with cubic Hermite interpolation.

    values and derivs have shape (m+1, d), or (m+1,) for a scalar history
    (stored as (m+1, 1)); node j sits at -r + j*r/m.  A batch of B
    histories on the same grid has shape (m+1, B, d), and every method
    then works on all B at once.  Reads go through _hermite on the
    node grid (built once): within 1e-9 node spacings, a node reads exactly.
    """

    delay: float
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        values = _node_array(self.values)
        derivs = _node_array(self.derivs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)
        _check_history_grid(self.delay, values.shape[0])
        if values.shape != derivs.shape:
            raise InvalidParameterError("values and derivs must have the same shape")

    @property
    def m(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @cached_property
    def grid(self) -> np.ndarray:
        return np.linspace(-self.delay, 0.0, self.m + 1)

    @classmethod
    def constant(cls, point, delay: float, m: int = 32) -> "History":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        values = np.tile(point, (m + 1, 1))
        return cls(delay=delay, values=values, derivs=np.zeros_like(values))

    @classmethod
    def from_values(cls, values: np.ndarray, delay: float) -> "History":
        """Build a history from node values alone; node slopes are those of
        the not-a-knot cubic spline through the values (deterministic, so
        the discretized translation operator is a function of the values
        only).  values of shape (m+1,) give a scalar history, (m+1, B, d)
        a batch.

        On the uniform grid, in units of the spacing h = delay/m, the slopes
        solve s_{i-1} + 4 s_i + s_{i+1} = 3 (D_{i-1} + D_i) at interior nodes
        (D_i = (v_{i+1} - v_i)/h) and s_0 + 2 s_1 = (5 D_0 + D_1)/2 with its
        mirror image at the ends: one dense solve against all B*d columns.
        """
        values = _node_array(values)
        _check_history_grid(delay, values.shape[0])
        m = values.shape[0] - 1
        delta = np.diff(values, axis=0).reshape(m, -1) / (delay / m)
        A = np.zeros((m + 1, m + 1))
        i = np.arange(1, m)
        A[i, i - 1] = A[i, i + 1] = 1.0
        A[i, i] = 4.0
        A[0, :2] = A[m, m:m - 2:-1] = 1.0, 2.0
        b = np.empty((m + 1, delta.shape[1]))
        b[1:m] = 3.0 * (delta[:-1] + delta[1:])
        b[0] = 0.5 * (5.0 * delta[0] + delta[1])
        b[m] = 0.5 * (5.0 * delta[-1] + delta[-2])
        derivs = np.linalg.solve(A, b).reshape(values.shape)
        return cls(delay=delay, values=values, derivs=derivs)

    def eval(self, theta):
        """Interpolated value(s) at theta in [-r, 0]; exact at node points."""
        return _hermite(self.grid, self.values, self.derivs, theta)

    def deriv(self, theta):
        """Derivative of the interpolant at theta in [-r, 0]."""
        return _hermite(self.grid, self.values, self.derivs, theta, deriv=True)

    def terminal(self) -> np.ndarray:
        """Value at theta = 0."""
        return self.values[-1].copy()

    def sup_distance(self, other: "History") -> float:
        return float(np.max(np.abs(self.values - other.values)))


@dataclass(frozen=True)
class CoupledProblem:
    """The full parametrized delay system (fields, coefficient, period, delay).

    The delay is normalized into (0, T] at construction.  f and h may be
    None when absent (k = 0, or no delayed perturbation of y).  The fields
    are evaluated through eval_batch: a BatchField takes a whole batch of
    states in one call, any other callable one state at a time.
    """

    dim_x: int
    dim_y: int
    g: Callable
    a: PeriodicFn1D
    period: float
    delay: float
    f: Optional[Callable] = None
    h: Optional[Callable] = None
    abar: float = field(init=False)
    n_quad: int = DEFAULT_N_QUAD

    def __post_init__(self):
        k, s = self.dim_x, self.dim_y
        if not (isinstance(k, int) and k >= 0):
            raise InvalidParameterError(f"dim_x must be an integer >= 0, got {k}")
        if not (isinstance(s, int) and s >= 1):
            raise InvalidParameterError(f"dim_y must be an integer >= 1, got {s}")
        if self.period <= 0:
            raise InvalidParameterError(f"period must be positive, got {self.period}")
        if k > 0 and self.f is None:
            raise InvalidParameterError("f is required when dim_x > 0")
        if abs(self.a.period - self.period) > 1e-12 * max(1.0, self.period):
            raise InvalidParameterError(
                f"coefficient period {self.a.period} does not match system period {self.period}"
            )
        object.__setattr__(self, "delay", normalize_delay(self.delay, self.period))
        abar = average_scalar(self.a, self.n_quad)
        if abs(abar) < 1e-12:
            raise ZeroAverageError(
                "the coefficient a has zero average over one period; "
                "the methods of this package require <a> != 0"
            )
        object.__setattr__(self, "abar", abar)
        self._check_time_periodicity()

    def _check_time_periodicity(self):
        """Cheap construction-time guard: spot-check that f, h and a are
        T-periodic in t at a fixed probe state.  Not a proof."""
        T = self.period
        ts = np.linspace(0.0, T, _PERIODICITY_SAMPLES, endpoint=False)
        xp = 0.5 * np.ones(self.dim_x)
        yp = 0.5 * np.ones(self.dim_y)
        for t in ts:
            if abs(float(self.a(t + T)) - float(self.a(t))) > _PERIODICITY_TOL:
                raise InvalidParameterError(
                    f"coefficient a is not {T}-periodic (mismatch at t={t:.4g})"
                )
            for name, fn in (("f", self.f), ("h", self.h)):
                if fn is None:
                    continue
                v0 = np.atleast_1d(np.asarray(fn(t, xp, yp, xp, yp), dtype=float))
                v1 = np.atleast_1d(np.asarray(fn(t + T, xp, yp, xp, yp), dtype=float))
                if np.max(np.abs(v1 - v0)) > _PERIODICITY_TOL:
                    raise InvalidParameterError(
                        f"field {name} is not {T}-periodic in t (mismatch at t={t:.4g})"
                    )

    @property
    def dim(self) -> int:
        return self.dim_x + self.dim_y

    def eval_f(self, t, x, y, xd, yd) -> np.ndarray:
        """f at one state (1-d arguments) or a batch of rows (see eval_batch)."""
        if self.f is None:
            return np.zeros(np.shape(x)[:-1] + (0,))
        return eval_batch(self.f, t, x, y, xd, yd)

    def eval_g(self, x, y) -> np.ndarray:
        return eval_batch(self.g, None, x, y)

    def eval_h(self, t, x, y, xd, yd) -> np.ndarray:
        if self.h is None:
            return np.zeros(np.shape(y)[:-1] + (self.dim_y,))
        return eval_batch(self.h, t, x, y, xd, yd)

    def split(self, state: np.ndarray):
        return state[: self.dim_x], state[self.dim_x:]
