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
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import expr as dsl
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
    """A real-valued T-periodic function of time: a call is a call of
    eval, at a float or an array t."""

    eval: Callable[[float], float]
    period: float

    def __post_init__(self):
        if self.period <= 0:
            raise InvalidParameterError(f"period must be positive, got {self.period}")

    def __call__(self, t):
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
    """Declares that the field callable fn takes a leading batch axis.

    Given states of shape (B, n_i) and a time t that is a float or an array
    broadcasting against the batch axes (as the (n_quad+1, 1) times of
    average_f), fn returns the values with the broadcast batch shape plus
    one axis of k components: (k,) for 1-d states at a float t.  Every
    CoupledProblem field is one (see _as_batch_field); the DSL and the
    Lienard reduction (hence the presets) build theirs as BatchFields,
    which skips the probe.  exprs are the DSL expressions fn was compiled
    from (None when fn is a Python callable): a problem whose fields all
    carry them compiles its whole right-hand side into a compiled stage
    (CoupledProblem.stage).
    """

    __slots__ = ("fn", "exprs")

    def __init__(self, fn: Callable, exprs=None):
        self.fn = fn
        self.exprs = exprs


def state_columns(k: int, s: int):
    """The DSL's component names of x, y, xd and yd, one list each."""
    return [[f"{p}{j + 1}" for j in range(n)] for p, n in zip(("x", "y", "xd", "yd"), (k, s, k, s))]


def _state_free_subtrees(node, free, out: list):
    """Append to out, left to right, the maximal subtrees of node that are
    operations reading no variable outside free."""
    if isinstance(node, (dsl.Num, dsl.Var)):
        return
    if dsl.Expr(node, frozenset()).free_vars() <= free:
        out.append(node)
    elif isinstance(node, dsl.BinOp):
        _state_free_subtrees(node.left, free, out)
        _state_free_subtrees(node.right, free, out)
    else:
        _state_free_subtrees(node.operand if isinstance(node, dsl.Neg) else node.arg, free, out)


def compile_stage(k: int, s: int, f, g, h=None):
    """The right-hand side at mu = 1 from the expressions of f (k of them,
    or None when k = 0), g and h (s each; h may be None), split by the
    method of steps into two bare generated functions (interval, step).

    Its components are lam * f_i and at * g_j (+ lam * h_j), the
    operations eval_f, eval_g and eval_h and their combination make.
    Every maximal subtree of them that reads no x, y or at (only t, xd,
    yd and lam), such as sin(yd1) + 0.5*cos(t), is hoisted:
    interval(lam, t, delayed) evaluates them all at once on a delay
    interval's block of stage times and delayed states, (R, 1) and
    (R, B, d), and returns that block with one column appended per
    subtree.  step(lam, t, at, state, row) computes the components of a
    (B, d) state from one row of it, reading each hoisted subtree from
    its column.  interval is None when nothing is hoisted, and step then
    takes the delayed states themselves.  A domain error is raised by
    the first failing hoisted node, else by f's nodes before g's and g's
    before h's.  The DSL cannot name at or lam, so they clash with no
    field variable."""
    at, lam = dsl.Var("at"), dsl.Var("lam")
    parts = [dsl.BinOp("*", lam, e.root) for e in f or ()]
    for j, e in enumerate(g):
        part = dsl.BinOp("*", at, e.root)
        parts.append(part if h is None else dsl.BinOp("+", part, dsl.BinOp("*", lam, h[j].root)))
    x, y, xd, yd = state_columns(k, s)
    hoisted = []
    for part in parts:
        _state_free_subtrees(part, {"t", "lam", *xd, *yd}, hoisted)
    step = dsl.compile_function([dsl.Expr(part, frozenset()) for part in parts],
                                ["lam", "t", "at", x + y, xd + yd + hoisted]).__wrapped__
    if not hoisted:
        return None, step
    columns = [dsl.Expr(node, frozenset()) for node in [dsl.Var(v) for v in xd + yd] + hoisted]
    return dsl.compile_function(columns, ["lam", "t", xd + yd]).__wrapped__, step


def _per_row(fn: Callable, timed: bool) -> Callable:
    """fn, a field of one state (after a float time when timed), as a batch
    callable (see BatchField) that calls it once per (time, row) pair."""
    def per_row(*args):
        t, states = (args[0], args[1:]) if timed else (None, args)
        shape = states[0].shape[:-1]
        if isinstance(t, np.ndarray) and t.ndim:
            shape = np.broadcast_shapes(t.shape, shape)
        if not shape:
            return np.asarray(fn(*args), dtype=float).reshape(-1)
        n = math.prod(shape)
        full = [s if s.shape[:-1] == shape else np.broadcast_to(s, shape + s.shape[-1:]) for s in states]
        rows = [s.reshape(n, s.shape[-1]) for s in full]
        if timed:
            rows.insert(0, np.broadcast_to(t, shape).ravel() if np.ndim(t) else itertools.repeat(t))
        out = np.array([np.asarray(fn(*row), dtype=float).reshape(-1) for row in zip(*rows)])
        return out.reshape(shape + out.shape[1:])
    per_row.__wrapped__ = fn
    return per_row


def eval_batch(fn: Callable, t, *states) -> np.ndarray:
    """fn(t, *states), or fn(*states) when t is None, in one call of a batch
    callable (a BatchField's fn).  States of shape (n_i,) or (B, n_i) and a
    float t or an array broadcasting against the batch axes give the
    broadcast batch shape plus one component axis; a result that ignores t
    is broadcast to it."""
    lead = () if t is None else (t,)
    out = np.asarray(fn(*lead, *states), dtype=float)
    if isinstance(t, np.ndarray) and out.ndim <= t.ndim:  # a field that ignores t
        out = np.broadcast_to(out, np.broadcast_shapes(t.shape, out.shape[:-1]) + out.shape[-1:])
    return out


def _as_batch_field(fn: Callable, timed: bool, k: int, s: int) -> BatchField:
    """fn as a BatchField of itself when, on 3 seeded rows of states (at a
    float time and at a (2, 1) column of times when timed), eval_batch of
    it gives the shape and bytes of its per-row calls; else, or when the
    probe raises, as a BatchField of _per_row(fn, timed)."""
    per_row = _per_row(fn, timed)
    rng = np.random.default_rng(0)
    states = [rng.uniform(-1.0, 1.0, (3, n)) for n in (k, s, k, s)[:4 if timed else 2]]
    times = (float(rng.uniform(0.0, 1.0)), rng.uniform(0.0, 1.0, (2, 1))) if timed else (None,)
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # float(array) warns, and a filter may make that an error
            pairs = [(eval_batch(per_row, t, *states), eval_batch(fn, t, *states)) for t in times]
    except (TypeError, ValueError, IndexError, ArithmeticError):
        return BatchField(per_row)
    same = all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)
    return BatchField(fn if same else per_row)


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
        """Whether point (d,), or every row of an (n, d) array, lies in
        the box widened by tol."""
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))


def _hermite_eval(u, dt, y0, d0, y1, d1):
    """Cubic Hermite value on one segment; u in [0,1], dt segment length."""
    u2 = u * u
    u3 = u2 * u
    h00 = 2.0 * u3 - 3.0 * u2 + 1.0
    h10 = u3 - 2.0 * u2 + u
    h01 = -2.0 * u3 + 3.0 * u2
    h11 = u3 - u2
    return y0 * h00 + d0 * (dt * h10) + y1 * h01 + d1 * (dt * h11)


_NODE_SNAP = 1e-9  # a read this close to a node, in units of its segment, is at the node


def _hermite(grid, values, derivs, t):
    """Piecewise cubic Hermite interpolant of node values and slopes at t.

    grid is any increasing sequence of nodes; values and derivs have shape
    (len(grid), ...).  A t within _NODE_SNAP of a node reads that node's own
    value exactly, and a t outside the grid the nearer end node.  A scalar
    t bisects the grid and returns shape values.shape[1:]; an array t
    returns t.shape + values.shape[1:] (see _hermite_array).
    """
    if isinstance(t, float) or np.ndim(t) == 0:
        t = float(t)
        i = min(max(bisect_right(grid, t) - 1, 0), len(grid) - 2)
        g0 = float(grid[i])
        dt = float(grid[i + 1]) - g0
        u = (t - g0) / dt
        if u < _NODE_SNAP or u > 1.0 - _NODE_SNAP:
            return values[i if u < 0.5 else i + 1].copy()
        return _hermite_eval(u, dt, values[i], derivs[i], values[i + 1], derivs[i + 1])
    return _hermite_array(grid, values, derivs, t)


def _hermite_array(grid, values, derivs, t):
    """_hermite at an array t, from one segment lookup.  As in _hermite, a
    t that snaps to a node reads that node's value itself, and only the
    other times evaluate the cubic."""
    grid = np.asarray(grid, dtype=float)
    t = np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    i = np.searchsorted(grid[1:-1], ts, side="right")  # the segment; an end one outside the grid
    g0 = grid[i]
    dt = grid[i + 1] - g0
    u = (ts - g0) / dt
    out = values[i + (u > 0.5)]
    inner = np.flatnonzero(~((u < _NODE_SNAP) | (u > 1.0 - _NODE_SNAP)))  # not snapped; a nan t too
    if len(inner):
        i = i[inner]
        col = (len(i),) + (1,) * (values.ndim - 1)
        out[inner] = _hermite_eval(u[inner].reshape(col), dt[inner].reshape(col),
                                   values[i], derivs[i], values[i + 1], derivs[i + 1])
    return out.reshape(t.shape + values.shape[1:])


def _node_array(values) -> np.ndarray:
    """History node values as a float array of at least two axes: 1-d
    values are the nodes of a scalar history, shape (m+1, 1)."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else np.atleast_2d(values)


def _not_a_knot_slopes(history: "History") -> np.ndarray:
    """A history's node slopes (History.derivs): those of the not-a-knot
    cubic spline through its node values.

    On the uniform grid, in units of the spacing h = delay/m, the slopes
    solve s_{i-1} + 4 s_i + s_{i+1} = 3 (D_{i-1} + D_i) at interior nodes
    (D_i = (v_{i+1} - v_i)/h) and s_0 + 2 s_1 = (5 D_0 + D_1)/2 with its
    mirror image at the ends: one dense solve against all B*d columns.
    """
    values, m = history.values, history.m
    delta = np.diff(values, axis=0).reshape(m, -1) / (history.delay / m)
    A = np.zeros((m + 1, m + 1))
    i = np.arange(1, m)
    A[i, i - 1] = A[i, i + 1] = 1.0
    A[i, i] = 4.0
    A[0, :2] = A[m, m:m - 2:-1] = 1.0, 2.0
    b = np.empty((m + 1, delta.shape[1]))
    b[1:m] = 3.0 * (delta[:-1] + delta[1:])
    b[0] = 0.5 * (5.0 * delta[0] + delta[1])
    b[m] = 0.5 * (5.0 * delta[-1] + delta[-2])
    return np.linalg.solve(A, b).reshape(values.shape)


@dataclass(frozen=True)
class History:
    """A sampled function on [-r, 0] with cubic Hermite interpolation.

    values has shape (m+1, d), or (m+1,) for a scalar history (stored as
    (m+1, 1)); node j sits at -r + j*r/m.  A batch of B histories on the
    same grid has shape (m+1, B, d), and every method then works on all B
    at once.  A history is its node values: the node slopes (derivs) are
    derived from them, so the discretized translation operator is a
    function of the values only.  Reads go through _hermite_array on the
    node grid (built once): within 1e-9 node spacings, a node reads
    exactly.
    """

    delay: float
    values: np.ndarray

    def __post_init__(self):
        values = _node_array(self.values)
        object.__setattr__(self, "values", values)
        if self.delay <= 0:
            raise InvalidParameterError(f"delay must be positive, got {self.delay}")
        if values.shape[0] < 9:
            raise InvalidParameterError("history needs at least m = 8 (9 nodes)")

    @property
    def m(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @cached_property
    def grid(self) -> np.ndarray:
        return np.linspace(-self.delay, 0.0, self.m + 1)

    derivs = cached_property(_not_a_knot_slopes)

    @classmethod
    def constant(cls, point, delay: float, m: int) -> "History":
        return cls(delay, np.tile(np.atleast_1d(np.asarray(point, dtype=float)), (m + 1, 1)))

    @classmethod
    def from_values(cls, values: np.ndarray, delay: float) -> "History":
        """The history with these node values: (m+1,) gives a scalar
        history, (m+1, B, d) a batch."""
        return cls(delay, values)

    def terminal(self) -> np.ndarray:
        """Value at theta = 0."""
        return self.values[-1].copy()


@dataclass(frozen=True)
class CoupledProblem:
    """The full parametrized delay system (fields, coefficient, period, delay).

    The delay is normalized into (0, T] at construction.  f and h may be
    None when absent (k = 0, or no delayed perturbation of y).  Each field
    is any callable; construction stores it as a BatchField, decided once
    (_as_batch_field), and eval_f, eval_g and eval_h make one call of it.
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
        for name, timed in (("f", True), ("g", False), ("h", True)):  # decided once per field
            if (fn := getattr(self, name)) is not None and not isinstance(fn, BatchField):
                object.__setattr__(self, name, _as_batch_field(fn, timed, k, s))
        self._check_time_periodicity()

    def _check_time_periodicity(self):
        """Cheap construction-time guard: spot-check that a, f and h are
        T-periodic in t at a fixed probe state, each read in one call on
        the sample times and those times plus T.  Not a proof."""
        T = self.period
        ts = np.linspace(0.0, T, _PERIODICITY_SAMPLES, endpoint=False)
        both = np.concatenate([ts, ts + T])
        p, q = 0.5 * np.ones(self.dim_x), 0.5 * np.ones(self.dim_y)
        reads = {f"coefficient a is not {T}-periodic": _sample_at(self.a, both)[:, None]}
        for name, fn, ev in (("f", self.f, self.eval_f), ("h", self.h, self.eval_h)):
            if fn is not None:
                reads[f"field {name} is not {T}-periodic in t"] = ev(both, p, q, p, q)
        n = len(ts)
        bad = np.array([(np.abs(v[n:] - v[:n]) > _PERIODICITY_TOL).any(axis=1) for v in reads.values()])
        if bad.any():
            i = np.flatnonzero(bad.any(axis=0))[0]  # the first mismatching time, then a, f, h
            message = list(reads)[np.flatnonzero(bad[:, i])[0]]
            raise InvalidParameterError(f"{message} (mismatch at t={ts[i]:.4g})")

    @property
    def dim(self) -> int:
        return self.dim_x + self.dim_y

    @cached_property
    def stage(self) -> Optional[tuple]:
        """compile_stage of this problem's own fields, (interval, step),
        built on first use; None unless every field present is a
        BatchField with exprs."""
        fields = (self.f, self.g, self.h)
        if any(fn is not None and fn.exprs is None for fn in fields):
            return None
        return compile_stage(self.dim_x, self.dim_y, *(fn and fn.exprs for fn in fields))

    def eval_f(self, t, x, y, xd, yd) -> np.ndarray:
        """f at one state (1-d arguments) or a batch of rows (see eval_batch)."""
        if self.f is None:
            return np.zeros(np.shape(x)[:-1] + (0,))
        return eval_batch(self.f.fn, t, x, y, xd, yd)

    def eval_g(self, x, y) -> np.ndarray:
        return eval_batch(self.g.fn, None, x, y)

    def eval_h(self, t, x, y, xd, yd) -> np.ndarray:
        if self.h is None:
            return np.zeros(np.shape(y)[:-1] + (self.dim_y,))
        return eval_batch(self.h.fn, t, x, y, xd, yd)
