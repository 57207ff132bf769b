"""Fixed-step RK4 integration of the coupled delay system by the method of
steps, with cubic Hermite dense output.

The step is h = r / steps_per_delay, so every delayed read lands inside an
already-completed segment (or the initial history) and every multiple of r
is a segment boundary, keeping the derivative discontinuities of the
solution aligned with segment joints.  So the delayed reads of a whole
delay interval lie on the history or on finished nodes, and are read at
its start; the part of the right-hand side that reads no current state is
evaluated on them there, once per interval.  Past the first interval
those reads are the finished nodes one delay back, as slices, and the
midpoints of their segments, in one call of the Hermite cubic
(problem._hermite_eval).

What depends on the time grid alone is a SweepPlan, built once per
problem and grid (CoupledProblem.plan_at) and shared by its sweeps: the
nodes and stage times, the coefficient a on them, the part of the
right-hand side that reads t alone on them, and the segment arithmetic of
the package's one Hermite evaluator (problem._hermite_lookup) for the
delayed reads of the history, of a last interval holding a shortened step
and of the midpoints, and for translate's resample.

integrate holds the package's one RK4 loop, and its one right-hand side
is the problem's compiled stage (CoupledProblem.stage_at,
stage.compile_stage), in which a Python field and the mu-homotopy's
averaged drive are leaf nodes: one call of its generated kernel is one
whole RK4 step.  The delay-free flows (flow_unperturbed, flow_averaged)
are integrate at lambda = 0 from the constant history at each point, and
take a batch of points as one sweep.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .errors import BlowupError, InvalidParameterError
from .problem import (CoupledProblem, History, PeriodicFn1D, Stage, _hermite_array, _hermite_eval,
                      _hermite_lookup, _hermite_weights)

BLOWUP_THRESHOLD = 1e9
#: The flows take a step of at most t / FLOW_STEPS.
FLOW_STEPS = 2048


class Trajectory(NamedTuple):
    """Dense piecewise-cubic solution on [-r, t_end].

    On [-r, 0] evaluation delegates to the initial history, reproducing its
    interpolant exactly; on [0, t_end] nodes carry the RK4 states and the
    right-hand-side slopes, interpolated by cubic Hermite polynomials.
    states and slopes have shape (n_nodes, d), or (n_nodes, B, d) when init
    is a batch of B histories.
    """

    init: History
    times: np.ndarray
    states: np.ndarray
    slopes: np.ndarray
    dim_x: int

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def eval(self, t):
        """Solution value at time t (scalar or array), t in [-r, t_end];
        a time outside it raises InvalidParameterError."""
        ts = np.asarray(t, dtype=float)
        if np.any(ts < -self.init.delay - 1e-12):
            raise InvalidParameterError(f"time {float(ts.min())} precedes the history interval")
        if np.any(ts > self.t_end + 1e-12 * max(1.0, self.t_end)):
            raise InvalidParameterError(f"time {float(ts.max())} is past the trajectory's end {self.t_end}")
        out = np.empty(ts.shape + self.states.shape[1:])
        before, init = ts <= 0.0, self.init
        if before.any():
            out[before] = _hermite_array(init.grid, init.values, init.derivs, ts[before])
        if not before.all():
            out[~before] = _hermite_array(self.times, self.states, self.slopes, ts[~before])
        return out

    def to_csv(self, path, resolution: int = 400):
        """Write t, x1..xk, y1..ys samples at the requested resolution."""
        k = self.dim_x
        s = self.dim - k
        header = ["t"] + [f"x{i+1}" for i in range(k)] + [f"y{j+1}" for j in range(s)]
        ts = np.linspace(-self.init.delay, self.t_end, resolution + 1)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t, row in zip(ts, self.eval(ts)):
                writer.writerow([f"{t:.12g}"] + [f"{v:.15g}" for v in row])


class SweepPlan:
    """The part of an integrate sweep that depends on its time grid alone:
    the problem's delay r and coefficient a, t_end, steps_per_delay and
    the history grid (delay and m).  Built once per grid (plan_at) and
    read by every sweep on it.

    times are the nodes (read-only; node_times as Python floats): steps of
    h = r / steps_per_delay, the last one shortened to land on t_end.
    Stage time 2 j is node j, 2 j + 1 the midpoint of step j, and at holds
    a at each, as Python floats.  A delayed block holds the delayed values
    at the stage times of one delay interval, tau = stage time - r: at
    most rows of them.  first reads those of the first interval off the
    history grid, last those of a last interval holding a shortened step
    off the finished nodes (None when there is none); past the first
    interval, the midpoint of step j reads segment j - steps_per_delay
    with the Hermite weights in weights (4, segments, 1, 1).  Each is the
    segment arithmetic of _hermite_array, so has its bits.
    """

    def __init__(self, problem: CoupledProblem, t_end: float, steps_per_delay: int, delay: float, m: int):
        r, spd = problem.delay, steps_per_delay
        h = r / spd
        n_full = int(np.floor(t_end / h + 1e-9))
        has_partial = t_end - n_full * h > 1e-12 * max(1.0, t_end)
        times = np.empty(n_full + 1 + has_partial)
        times[: n_full + 1] = np.arange(n_full + 1) * h
        if has_partial:
            times[-1] = t_end
        n_steps = len(times) - 1
        stage_t = np.empty(2 * n_steps + 1)
        stage_t[0::2] = times
        stage_t[1::2] = times[:-1] + 0.5 * np.diff(times)
        tau = stage_t - r
        left = times[:max(n_steps - spd, 0)]
        width = times[1:len(left) + 1] - left
        col = (-1, 1, 1)
        with np.errstate(all="ignore"):
            self.at = problem.a(stage_t).tolist()
            self.weights = np.array(_hermite_weights(((tau[2 * spd + 1::2][:len(left)] - left) / width).reshape(col),
                                                     width.reshape(col)))
        self.rows = 2 * min(spd, n_steps) + 1
        self.first = _hermite_lookup(np.linspace(-delay, 0.0, m + 1), tau[:self.rows])
        last = spd * ((n_steps - 1) // spd)  # the start of the last interval
        self.last = _hermite_lookup(times[:last + 1], tau[2 * last:]) if has_partial and last else None
        times.flags.writeable = stage_t.flags.writeable = False
        self.times, self.node_times, self.stage_times = times, times.tolist(), stage_t
        self.n_steps, self.delay, self.t_end = n_steps, r, t_end
        self.key = (t_end, steps_per_delay, delay, m)
        self._blocks, self._resamples = {}, {}

    def time_block(self, stage: Stage) -> np.ndarray:
        """stage.times on every stage time, once per stage: the (N, 1, n)
        block its interval part reads.  A domain error of a subtree that
        reads t alone is raised here, before a sweep's first step."""
        block = self._blocks.get(stage)
        if block is None:
            with np.errstate(all="ignore"):
                block = self._blocks[stage] = stage.times(self.stage_times[:, None, None])
        return block

    def resample(self, m: int):
        """The lookup of the m + 1 times t_end + linspace(-r, 0, m + 1) on
        the nodes, once per m: translate's image.  They are read from the
        t_end asked for, as Trajectory.eval is given them, not from the
        last node, which can be an ulp short of it.  They lie in [0, t_end],
        and a time 0 reads node 0, the history's last value, as
        Trajectory.eval reads it off the history."""
        look = self._resamples.get(m)
        if look is None:
            times = self.t_end + np.linspace(-self.delay, 0.0, m + 1)
            look = self._resamples[m] = _hermite_lookup(self.times, times)
        return look


def _check_count(name: str, value, least: int):
    """Raise InvalidParameterError unless value is an int (Python or
    NumPy, not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")


def _check_state(t: float, state: np.ndarray, scratch: np.ndarray):
    """Blowup check on every row of a batch, its |state| written into
    scratch."""
    norm = np.maximum.reduce(np.absolute(state, out=scratch), axis=None)
    if not norm <= BLOWUP_THRESHOLD:  # also catches inf and nan
        raise BlowupError(t, float(norm), BLOWUP_THRESHOLD)


def integrate(
    problem: CoupledProblem,
    lam,
    mu: float,
    init: History,
    t_end: float,
    steps_per_delay: int,
) -> Trajectory:
    """Integrate the coupled system forward from a history by RK4 steps.

    Fixed step h = r / steps_per_delay (an integer >= 8); the final step is
    shortened to land exactly on t_end.  Each RK4 step is one call of the
    kernel of the problem's compiled stage at (lam, mu) (CoupledProblem.
    stage_at, stage.compile_stage), for the whole batch: its three stage
    inputs, four stage evaluations, update, blowup check and node slope.
    Node 0's slope is one more call, which skips the rest.  The kernel's
    column views of this sweep's buffers and of the trajectory's states
    and slopes are bound once per sweep.

    init may be a batch of B histories (values of shape (m+1, B, d)): the
    batch is integrated in one sweep as a (B, d) state array, each row
    exactly as it would be alone, and a blowup of any row ends the sweep.
    One history is the batch of one.  lam is a finite float >= 0, or a
    (B,) array of finite values > 0, one per row, each row again exactly
    as it would be alone at its own lambda.

    Everything that depends on the time grid alone is the problem's
    SweepPlan of this grid (CoupledProblem.plan_at), built once and shared
    by every sweep on it: the nodes and stage times, the coefficient a at
    every stage time (which reads t alone), the segment lookups of the
    delayed reads and, per compiled stage, every subtree of the right-hand
    side that reads t alone (such as 0.5*cos(t) or sigma(t)) on every
    stage time.  So a domain error of a or of such a subtree is raised
    before the first step.

    The delayed values of steps j .. j + steps_per_delay - 1 are read at
    every j that is a multiple of steps_per_delay, into one block per
    sweep.  At j = 0, and in a last interval holding a shortened step,
    they are the history or the finished nodes read by the plan's lookups
    (_hermite_array's arithmetic).  Otherwise they are the nodes j -
    steps_per_delay .. j themselves, as slices, and the cubic of each of
    their segments at its midpoint, in one _hermite_eval call on the
    plan's weights.  The right-hand side's state-free part is evaluated on
    them there, once per delay interval (the stage's interval part), so
    its domain errors are raised at the start of their interval.  The
    sweep runs under one np.errstate: NumPy's floating-point warnings are
    silenced, and a state that is inf, nan or above BLOWUP_THRESHOLD raises
    BlowupError, checked before its node's slope is computed.
    """
    if not 0.0 <= mu <= 1.0:
        raise InvalidParameterError(f"mu must be in [0, 1], got {mu}")
    if t_end <= 0:
        raise InvalidParameterError(f"t_end must be positive, got {t_end}")
    _check_count("steps_per_delay", steps_per_delay, 8)
    r = problem.delay
    if abs(init.delay - r) > 1e-12 * max(1.0, r):
        raise InvalidParameterError(
            f"history covers [-{init.delay}, 0] but the problem delay is {r}"
        )
    single = init.values.ndim == 2
    batch = History(init.delay, init.values[:, None]) if single else init
    if np.ndim(lam):
        lam = np.asarray(lam, dtype=float)
        if lam.shape != batch.values.shape[1:2] or not np.all(np.isfinite(lam) & (lam > 0.0)):
            raise InvalidParameterError(f"lambda per row must be {batch.values.shape[1]} finite values > 0, got {lam}")
    elif not (math.isfinite(lam) and lam >= 0):
        raise InvalidParameterError(f"lambda must be finite and >= 0, got {lam}")
    spd = steps_per_delay
    stage = problem.stage_at(lam, mu)
    plan = problem.plan_at(t_end, spd, batch)
    n_steps = plan.n_steps
    shape = (n_steps + 1,) + batch.values.shape[1:]
    states = np.empty(shape)
    slopes = np.empty(shape)
    block = np.empty((plan.rows,) + shape[1:-1] + (stage.width,))
    delayed = block[..., :shape[-1]]
    work = np.empty((5,) + shape[1:])  # the stage input, k2, k3, k4 and |state|

    def read(j: int, n: int):
        """The delayed values of steps j .. j + n - 1 into the block."""
        if j == 0:
            delayed[:2 * n + 1] = plan.first.apply(batch.values, batch.derivs)
        elif plan.last is not None and j + spd >= n_steps:
            delayed[:2 * n + 1] = plan.last.apply(states, slopes)
        else:
            # Nodes lo .. lo + n and the midpoints of the n segments between them.
            lo = j - spd
            delayed[0:2 * n + 1:2] = states[lo:lo + n + 1]
            delayed[1:2 * n:2] = _hermite_eval(plan.weights[:, lo:lo + n], states[lo:lo + n], slopes[lo:lo + n],
                                               states[lo + 1:lo + n + 1], slopes[lo + 1:lo + n + 1])

    with np.errstate(all="ignore"):
        interval, step = stage.bind(lam, float(mu), plan.time_block(stage), plan.at, plan.node_times,
                                    block, states, slopes, work, BLOWUP_THRESHOLD)
        state = batch.terminal()
        _check_state(0.0, state, work[4])
        states[0] = state
        for j0 in range(0, n_steps, spd):
            n = min(spd, n_steps - j0)
            read(j0, n)
            interval(2 * j0, 2 * n + 1)
            if j0 == 0:
                step(-1, -2)  # node 0's slope alone
            for j in range(j0, j0 + n):
                step(j, 2 * (j - j0))

    if single:
        states, slopes = states[:, 0], slopes[:, 0]
    return Trajectory(init=init, times=plan.times, states=states, slopes=slopes, dim_x=problem.dim_x)


def flow_unperturbed(problem: CoupledProblem, point, t: float) -> np.ndarray:
    """Flow of x' = 0, y' = a(t) g(x, y) from a point (d,) or from each row
    of a batch (N, d): integrate at lambda = 0 from the constant history at
    each point, all rows in one sweep, with a step of at most t / FLOW_STEPS."""
    if t < 0:
        raise InvalidParameterError(f"t must be >= 0, got {t}")
    points = np.atleast_1d(np.asarray(point, dtype=float))
    if t == 0.0:
        return points.copy()
    r = problem.delay
    # At lambda = 0 no delayed value enters the right-hand side, so the
    # coarsest history grid (m = 8) serves.
    init = History(r, np.broadcast_to(points, (9,) + points.shape).copy())
    steps_per_delay = max(8, math.ceil(FLOW_STEPS * r / t))
    return integrate(problem, 0.0, 1.0, init, t, steps_per_delay).states[-1]


def flow_averaged(problem: CoupledProblem, point, t: float) -> np.ndarray:
    """Flow of x' = 0, y' = <a> g(x, y): flow_unperturbed on the problem
    with a replaced by the constant <a>.  The two coincide at t = T."""
    averaged = replace(problem, a=PeriodicFn1D.constant(problem.abar, problem.period))
    return flow_unperturbed(averaged, point, t)
