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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import expr as dsl
from .errors import InvalidParameterError, ZeroAverageError
from .stage import Stage, averaged, compile_stage

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


@dataclass(frozen=True, eq=False)
class PeriodicFn1D:
    """A real-valued T-periodic function of time.  eval is decided once, at
    construction (_as_array_fn): kept when it takes arrays of t, else
    replaced by its per-point loop.  A BatchField eval is declared to take
    them and is not probed, as the package's own are (the DSL coefficient,
    sigma and constant).  A call at a scalar t is a call of eval, as a
    float; at an array t it is one call of eval, broadcast to t's shape."""

    eval: Callable[[float], float]
    period: float

    def __post_init__(self):
        if self.period <= 0:
            raise InvalidParameterError(f"period must be positive, got {self.period}")
        object.__setattr__(self, "eval", _as_array_fn(self.eval, (0.0, self.period)))

    def __call__(self, t):
        if isinstance(t, float) or np.ndim(t) == 0:
            return float(self.eval(t))
        return _broadcast_call(self.eval, t)

    @classmethod
    def constant(cls, value: float, period: float) -> "PeriodicFn1D":
        return cls(eval=BatchField(lambda t, _v=float(value): _v), period=period)


class BatchField:
    """Declares that the callable fn takes arrays, so that it is not
    probed (_decide).

    A field's fn takes states of shape (B, n_i) and a time t that is a
    float or an array broadcasting against the batch axes (as the
    (n_quad+1, 1) times of average_f), and returns the values with the
    broadcast batch shape plus one axis of k components: (k,) for 1-d
    states at a float t.  Every CoupledProblem field is one (see
    _as_batch_field); the DSL and the Lienard reduction (hence the presets)
    build theirs as BatchFields.  A BatchField eval of a PeriodicFn1D, or a
    BatchField phi or f of lienard_reduce, takes arrays that broadcast
    against each other (see _as_array_fn).  exprs are DSL expressions that
    compute fn's values bit for bit (None when there are none: fn is a
    Python callable), such as those fn was compiled from.  The compiled
    stage (CoupledProblem.stage_at) inlines a field's, and calls a field
    without them once per RK4 stage, as Leaf nodes.
    """

    __slots__ = ("fn", "exprs")

    def __init__(self, fn: Callable, exprs=None):
        self.fn, self.exprs = fn, exprs

    def __call__(self, *args):  # a BatchField is also the callable fn
        return self.fn(*args)


def _decide(fn: Callable, per_point: Callable, call: Callable, samples) -> Callable:
    """The one rule for a Python callable, decided once: fn itself when, on
    each tuple of arguments in samples, call(fn, *args), which broadcasts a
    result that ignores an argument, has the shape and bytes of
    call(per_point, *args), fn's loop over points; else, or when the probe
    raises, per_point."""
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # float(array) warns, and a filter may make that an error
            pairs = [(call(per_point, *args), call(fn, *args)) for args in samples]
    except (TypeError, ValueError, IndexError, ArithmeticError):
        return per_point
    same = all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)
    return fn if same else per_point


def _broadcast_call(fn: Callable, *args) -> np.ndarray:
    """fn(*args) as a float array of the broadcast shape of args: a result
    that ignores an argument is broadcast (a read-only view)."""
    out = np.asarray(fn(*args), dtype=float)
    shape = np.broadcast(*args).shape
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _per_point(fn: Callable) -> Callable:
    """fn, a real function of reals, called on Python floats once per
    element of the broadcast of its arguments (once at scalars)."""
    def per_point(*args):
        shape = np.broadcast(*args).shape
        if not shape:
            return fn(*map(float, args))
        full = [a if isinstance(a, np.ndarray) and a.shape == shape else np.broadcast_to(a, shape) for a in args]
        points = itertools.starmap(fn, zip(*(a.ravel().tolist() for a in full)))
        return np.fromiter(points, dtype=float, count=math.prod(shape)).reshape(shape)
    per_point.__wrapped__ = fn
    return per_point


def _golden(rows: int, cols: int) -> np.ndarray:
    """The probe's samples in [0, 1): row k (from 1) is k * g^-(c + 1) mod
    1, c < cols, for the root g > 1 of g^(cols + 1) = g + 1: k / phi mod 1
    in cols dimensions (Roberts), whose columns do not move together, as
    blocks of one sequence do.  numpy.random costs 5 MiB and 10 ms."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (cols + 1))
    return np.mod(np.arange(1, rows + 1)[:, None] * g ** -np.arange(1.0, cols + 1), 1.0)


def _as_array_fn(fn: Callable, *ranges) -> Callable:
    """fn, a real function of len(ranges) reals, as a function of arrays
    that broadcast against each other, decided once (_decide) on fixed
    arguments in ranges (a row of 3 each, a column of _golden, then the
    first as a (2, 1) column): fn itself or _per_point(fn).  A BatchField
    is declared, and its fn is kept unprobed."""
    if isinstance(fn, BatchField):
        return fn.fn
    row = [lo + (hi - lo) * v for (lo, hi), v in zip(ranges, _golden(3, len(ranges)).T)]
    return _decide(fn, _per_point(fn), _broadcast_call, [row, [row[0][:2, None], *row[1:]]])


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
    or the batch is broadcast to it."""
    lead = () if t is None else (t,)
    out = np.asarray(fn(*lead, *states), dtype=float)
    batch = states[0].shape[:-1]
    if isinstance(t, np.ndarray) and t.ndim:
        if out.ndim <= t.ndim:  # a field that ignores t
            out = np.broadcast_to(out, np.broadcast_shapes(t.shape, batch) + out.shape[-1:])
    elif out.shape[:-1] != batch:  # a field that ignores the batch
        out = np.broadcast_to(out, batch + out.shape[-1:])
    return out


def _as_batch_field(fn: Callable, timed: bool, k: int, s: int) -> BatchField:
    """fn as a BatchField of itself or of _per_row(fn, timed), decided once
    (_decide) through eval_batch, which broadcasts a result that ignores t
    or the batch, on 3 rows of states in [-1, 1) by _golden (at a float
    time and at a (2, 1) column of times in [0, 1) when timed)."""
    sizes = (k, s, k, s)[:4 if timed else 2]
    u = _golden(3, sum(sizes) + 1)
    states = np.split(2.0 * u[:, :-1] - 1.0, np.cumsum(sizes)[:-1], axis=1)
    times = (float(u[0, -1]), u[1:, -1:]) if timed else (None,)
    return BatchField(_decide(fn, _per_row(fn, timed), eval_batch, [(t, *states) for t in times]))


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
    return float(simpson_mean(fn(quadrature_times(fn.period, n_quad))))


@dataclass(frozen=True, eq=False)
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


def _hermite_weights(u, dt):
    """The weights of y0, d0, y1 and d1 in the cubic Hermite value at u in
    [0, 1] on a segment of length dt (see _hermite_eval)."""
    u2 = u * u
    u3 = u2 * u
    h00 = 2.0 * u3 - 3.0 * u2 + 1.0
    h10 = u3 - 2.0 * u2 + u
    h01 = -2.0 * u3 + 3.0 * u2
    h11 = u3 - u2
    return h00, dt * h10, h01, dt * h11


def _hermite_eval(weights, y0, d0, y1, d1):
    """Cubic Hermite value on one segment, from its _hermite_weights."""
    h00, dh10, h01, dh11 = weights
    return y0 * h00 + d0 * dh10 + y1 * h01 + d1 * dh11


_NODE_SNAP = 1e-9  # a read this close to a node, in units of its segment, is at the node


class _HermiteLookup(NamedTuple):
    """The segment arithmetic of _hermite_array on a grid at times t, done
    once (_hermite_lookup): for each time the node it snaps to (or the left
    end of its segment), the times that evaluate the cubic, their segments
    and weights.  apply reads any node values and slopes on that grid."""

    shape: tuple
    take: np.ndarray
    inner: np.ndarray
    left: np.ndarray
    weights: tuple

    def apply(self, values, derivs):
        """The interpolant of values and derivs, of shape (len(grid), ...),
        at the lookup's times: t.shape + values.shape[1:]."""
        out = values[self.take]
        inner, i = self.inner, self.left
        if len(inner):
            col = (len(i),) + (1,) * (values.ndim - 1)
            out[inner] = _hermite_eval([w.reshape(col) for w in self.weights],
                                       values[i], derivs[i], values[i + 1], derivs[i + 1])
        return out.reshape(self.shape + values.shape[1:])


def _hermite_lookup(grid, t) -> _HermiteLookup:
    """The _HermiteLookup of the times t on grid, with _hermite_array's
    node snap."""
    grid = np.asarray(grid, dtype=float)
    t = np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    i = np.searchsorted(grid[1:-1], ts, side="right")  # the segment; an end one outside the grid
    g0 = grid[i]
    dt = grid[i + 1] - g0
    u = (ts - g0) / dt
    inner = np.flatnonzero(~((u < _NODE_SNAP) | (u > 1.0 - _NODE_SNAP)))  # not snapped; a nan t too
    return _HermiteLookup(t.shape, i + (u > 0.5), inner, i[inner], _hermite_weights(u[inner], dt[inner]))


def _hermite_array(grid, values, derivs, t):
    """Piecewise cubic Hermite interpolant of node values and slopes at the
    times t, from one segment lookup (_HermiteLookup): the package's one
    Hermite evaluator.

    grid is any increasing sequence of nodes; values and derivs have shape
    (len(grid), ...), and the result t.shape + values.shape[1:].  A t within
    _NODE_SNAP of a node reads that node's own value itself, and a t
    outside the grid the nearer end node; only the other times evaluate
    the cubic."""
    return _hermite_lookup(grid, t).apply(values, derivs)


def _node_array(values) -> np.ndarray:
    """History node values as a float array of at least two axes: 1-d
    values are the nodes of a scalar history, shape (m+1, 1)."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else np.atleast_2d(values)


@lru_cache(maxsize=16)
def _not_a_knot_matrix(m: int) -> np.ndarray:
    """The (m+1) x (m+1) system of _not_a_knot_slopes: built once per m,
    read-only."""
    A = np.zeros((m + 1, m + 1))
    i = np.arange(1, m)
    A[i, i - 1] = A[i, i + 1] = 1.0
    A[i, i] = 4.0
    A[0, :2] = A[m, m:m - 2:-1] = 1.0, 2.0
    A.flags.writeable = False
    return A


def _not_a_knot_slopes(history: "History") -> np.ndarray:
    """A history's node slopes (History.derivs): those of the not-a-knot
    cubic spline through its node values.

    On the uniform grid, in units of the spacing h = delay/m, the slopes
    solve s_{i-1} + 4 s_i + s_{i+1} = 3 (D_{i-1} + D_i) at interior nodes
    (D_i = (v_{i+1} - v_i)/h) and s_0 + 2 s_1 = (5 D_0 + D_1)/2 with its
    mirror image at the ends: one dense solve against all B*d columns, of
    the matrix _not_a_knot_matrix builds once per m.
    """
    values, m = history.values, history.m
    delta = np.diff(values, axis=0).reshape(m, -1) / (history.delay / m)
    b = np.empty((m + 1, delta.shape[1]))
    b[1:m] = 3.0 * (delta[:-1] + delta[1:])
    b[0] = 0.5 * (5.0 * delta[0] + delta[1])
    b[m] = 0.5 * (5.0 * delta[-1] + delta[-2])
    return np.linalg.solve(_not_a_knot_matrix(m), b).reshape(values.shape)


@dataclass(frozen=True, eq=False)
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
        reads = {f"coefficient a is not {T}-periodic": self.a(both)[:, None]}
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

    def stage_at(self, lam, mu) -> Stage:
        """compile_stage for integrate at lam and mu, once per regime: g
        alone at a scalar lam = 0, else f and h at mu > 0 and the drive at
        mu < 1.  A field enters as its DSL expressions or as one eval_f,
        eval_g or eval_h call.  The drive is w_f = sum_k <c_k> phi_k(x, y,
        x, y), each <c_k> a Simpson mean on quadrature_times, by the
        separated form of f's expressions (stage.averaged), whose phi_k may
        be Leaf calls of a Python phi; else it is one fields.average_f
        call."""
        regime = (False, False) if np.ndim(lam) == 0 and lam == 0.0 else (mu > 0.0, mu < 1.0)
        stages = vars(self).setdefault("_stages", {})  # per problem, as a cached_property
        if regime not in stages:
            def part(name, args, on=True):
                fn = getattr(self, name)
                return None if fn is None or not on else fn.exprs or dsl.Leaf(self, f"eval_{name}", args, 0)

            timed = ("t", "x", "y", "xd", "yd")
            stages[regime] = compile_stage(self.dim_x, self.dim_y, part("f", timed, regime[0]), part("g", ("x", "y")),
                                           part("h", timed, regime[0]), self._drive() if regime[1] else None)
        return stages[regime]

    def _drive(self):
        """The averaged drive of compile_stage (see stage_at)."""
        def average(fn):  # the period mean of each column of fn
            with np.errstate(all="ignore"):
                return simpson_mean(fn(quadrature_times(self.period, self.n_quad)[:, None, None]))[0]

        f, cs = self.f, []
        wf = [averaged(e.root, cs) for e in f.exprs] if f is not None and f.exprs else [None]
        if None not in wf:
            return [dsl.Expr(w, frozenset()) for w in wf], self.abar, cs, average
        from . import fields  # which imports this module

        return dsl.Leaf(fields, "average_f", (self, "x", "y"), 0), self.abar, [], None

    def plan_at(self, t_end: float, steps_per_delay: int, history: History):
        """integrator.SweepPlan from history's grid to t_end: the problem
        keeps the plan of the last grid it was asked for (every sweep of a
        branch, a Newton solve or a translate shares one) and builds a new
        one when the grid changes."""
        key = (t_end, steps_per_delay, history.delay, history.m)
        plan = vars(self).get("_plan")
        if plan is None or plan.key != key:
            from .integrator import SweepPlan  # which imports this module

            plan = vars(self)["_plan"] = SweepPlan(self, *key)  # per problem, as stage_at's stages
        return plan

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
