"""Discretized Poincare-type translation operator, its fixed points, and the
numerical verification of the index identity.

The translation operator maps an initial history on [-r, 0] to the solution
history on [T - r, T].  On the (m+1)-node discretization its fixed points
are found by the package's one lockstep Newton (degree.newton_lockstep) on
R(u) = translate(u) - u: full damped Newton, with the forward-difference
Jacobian that newton_lockstep forms at every iterate.  _residual is the one
function between a Newton request and an integrator sweep, so each round of
all seeds' solves, every point with its n Jacobian points, is one batched
sweep.  Each hyperbolic fixed point carries the discrete index
sign(det(I - DQ)), the finite-dimensional stand-in for the fixed point
index of the compact operator, taken from the Jacobian at the converged
point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .degree import _NEWTON_TRIALS, degree_auto, newton_lockstep
from .errors import (
    BlowupError,
    DegeneracyError,
    ExprEvalError,
    InvalidParameterError,
    TranslationUndefinedError,
)
from .fields import nu_field
from .integrator import _check_count, integrate
from .problem import Box, CoupledProblem, History

#: The iteration cap of every Newton solve of R.
_NEWTON_MAX_ITER = 25


@dataclass(frozen=True)
class TranslationConfig:
    """Discretization and Newton parameters for the translation operator."""

    m: int = 32
    steps_per_delay: int = 32
    newton_tol: float = 1e-9
    fd_step: float = 1e-6

    def __post_init__(self):
        _check_count("m", self.m, 8)
        if self.newton_tol <= 0:
            raise InvalidParameterError("newton_tol must be positive")
        if self.fd_step <= 0:
            raise InvalidParameterError(f"fd_step must be positive, got {self.fd_step}")
        _check_count("steps_per_delay", self.steps_per_delay, 8)


class FixedPointRecord(NamedTuple):
    """A converged fixed point of the discretized translation operator."""

    history: History
    residual: float
    index: Optional[int]
    eigen_margin: float

    @property
    def degenerate(self) -> bool:
        return self.index is None


def translate(
    problem: CoupledProblem,
    lam,
    mu: float,
    init: History,
    cfg: TranslationConfig,
) -> History:
    """Apply the translation operator: integrate to T and resample the
    solution on [T - r, T] onto the m-node history grid.

    init may be a batch of histories, and lam then a float or an array of
    one lambda per history (see integrate); the image is the batch of
    their images.  The resample is Trajectory.eval at T + linspace(-r, 0,
    m + 1), bit for bit, on the segment lookup the sweep's plan
    (CoupledProblem.plan_at) holds for it.  A sweep that blows up, or
    whose fields fail to evaluate (an ExprEvalError of the DSL, an
    ArithmeticError such as a float overflow of a Python callable),
    raises TranslationUndefinedError: the input lies outside the
    operator's domain.
    """
    T = problem.period
    try:
        traj = integrate(problem, lam, mu, init, T, cfg.steps_per_delay)
    except (BlowupError, ExprEvalError, ArithmeticError) as exc:
        raise TranslationUndefinedError(str(exc)) from exc
    resample = problem.plan_at(T, cfg.steps_per_delay, init).resample(cfg.m)
    return History(problem.delay, resample.apply(traj.states, traj.slopes))


def _residual(problem, lam, mu, u, cfg):
    """R(u) = translate(u) - u on flattened node values: u has shape (n,),
    or (B, n) for B inputs translated in one sweep, where lam may be a
    (B,) array of one lambda per row (see integrate)."""
    nodes = np.moveaxis(u.reshape(u.shape[:-1] + (cfg.m + 1, problem.dim)), -2, 0)
    init = History.from_values(nodes, problem.delay)
    out = translate(problem, lam, mu, init, cfg)
    return np.moveaxis(out.values, 0, -2).reshape(u.shape) - u


def _solve_lockstep(problem, lam, mu, seeds, cfg, first=None, ahead=None, trials=_NEWTON_TRIALS):
    """newton_lockstep on R from each flattened seed, with `trials` step
    lengths per iterate: one (u, residual_norm, J_R) or None per seed.  A
    Newton round of all seeds is one _residual sweep, whose rows do not
    interact, so each seed ends as it would alone.

    first is newton_lockstep's.  ahead, a pair (lam_ahead, predict) for
    one seed, looks one solve ahead: each sweep also carries the block of
    predict(u) at lam_ahead, one lambda per row, and a converged solve
    also returns the answer at that point (newton_lockstep's nxt)."""
    look = None
    if ahead is not None:
        lam_ahead, predict = ahead

        def both(rows, block):
            lams = np.repeat([lam, lam_ahead], [len(rows), len(block)])
            return _residual(problem, lams, mu, np.vstack([rows, block]), cfg)

        look = (predict, both)
    return newton_lockstep(
        lambda rows: _residual(problem, lam, mu, rows, cfg),
        seeds, cfg.fd_step, cfg.newton_tol, _NEWTON_MAX_ITER, first, look, trials,
    )


def _newton_fixed_point(problem, lam, mu, u0, cfg, first=None, ahead=None, trials=_NEWTON_TRIALS):
    """One damped Newton solve of R from u0 (a lockstep solve of one seed);
    returns (u, residual_norm, J_R) on convergence, J_R the Jacobian at u,
    and None on failure.  first, when given, is the answer (R(u0), J_R(u0))
    at u0; with ahead (see _solve_lockstep) a converged solve returns
    (u, residual_norm, J_R, nxt).  trials is newton_steps': the
    continuation corrector passes 1, full steps only."""
    return _solve_lockstep(problem, lam, mu, [u0], cfg, first and [first], ahead, trials)[0]


def _record_from_solution(problem, u, rnorm, J_R, cfg) -> FixedPointRecord:
    dim = problem.dim
    DQ = J_R + np.eye(u.size)
    det = float(np.linalg.det(np.eye(u.size) - DQ))
    eigs = np.linalg.eigvals(DQ)
    eigen_margin = float(np.min(np.abs(1.0 - eigs)))
    hist = History.from_values(u.reshape(cfg.m + 1, dim), problem.delay)
    # A forward-difference Jacobian at a non-hyperbolic fixed point reports
    # a spurious margin of order fd_step * |quadratic term|, not roundoff,
    # so the cutoffs sit well above fd_step^2.
    if abs(det) < 1e-8 or eigen_margin < 1e-4:
        return FixedPointRecord(history=hist, residual=rnorm, index=None, eigen_margin=eigen_margin)
    return FixedPointRecord(
        history=hist, residual=rnorm, index=int(np.sign(det)), eigen_margin=eigen_margin
    )


def find_fixed_points(
    problem: CoupledProblem,
    lam: float,
    seeds: List[History],
    cfg: TranslationConfig,
    mu: float = 1.0,
) -> List[FixedPointRecord]:
    """Newton-refine each seed history into a fixed point of the translation
    operator; deduplicate and return records sorted deterministically.

    The seeds are solved in lockstep (_solve_lockstep): each Newton round
    of all of them costs one integrator sweep, and each seed's result is
    the one it would get alone.
    """
    for seed in seeds:
        if seed.m != cfg.m:
            raise InvalidParameterError(
                f"seed discretization m={seed.m} does not match cfg.m={cfg.m}"
            )
    outs = _solve_lockstep(problem, lam, mu, [seed.values.ravel() for seed in seeds], cfg)
    solutions = [out for out in outs if out is not None]

    # Deterministic order, then dedupe by sup distance of node values.
    solutions.sort(key=lambda s: tuple(np.round(s[0], 10)))
    records: List[FixedPointRecord] = []
    kept: List[np.ndarray] = []
    for u, rnorm, J in solutions:
        if any(float(np.max(np.abs(u - v))) < 1e-5 for v in kept):
            continue
        kept.append(u)
        records.append(_record_from_solution(problem, u, rnorm, J, cfg))
    return records


def _lattice_points(box: Box) -> List[np.ndarray]:
    axes = [
        np.linspace(box.lower[i], box.upper[i], 5)[1:-1]
        for i in range(box.dim)
    ]
    return [np.array(point) for point in itertools.product(*axes)]


def verify_index_identity(
    problem: CoupledProblem,
    lam: float,
    box: Box,
    cfg: TranslationConfig,
) -> dict:
    """Check ind(Q_T^lam, V) = sign(<a>)^s * deg(-nu, V) on the box V.

    The left side sums discrete indices over fixed points found from a seed
    grid: a 3-per-axis lattice, then each zero of -nu that degree_auto finds
    farther than 1e-6 * scale (sup norm) from every earlier seed.  The right
    side is degree_auto's degree.  lam must be chosen small by the caller.
    """
    if box.dim != problem.dim:
        raise InvalidParameterError(
            f"box dimension {box.dim} does not match problem dimension {problem.dim}"
        )
    nu = nu_field(problem)
    deg_report = degree_auto(nu.negated(), box)
    rhs = int(np.sign(problem.abar)) ** problem.dim_y * deg_report.degree

    points = _lattice_points(box)
    for z in deg_report.zeros:
        zero = np.array(z["point"])
        if all(float(np.max(np.abs(zero - p))) > 1e-6 * box.scale for p in points):
            points.append(zero)
    seeds = [History.constant(point, problem.delay, m=cfg.m) for point in points]

    records = find_fixed_points(problem, lam, seeds, cfg)
    inside = [rec for rec in records if box.contains(rec.history.values)]
    if any(rec.degenerate for rec in inside):
        raise DegeneracyError(
            "a fixed point in V is non-hyperbolic on this discretization; "
            "the discrete index sum is undefined"
        )
    lhs = int(sum(rec.index for rec in inside))
    return {
        "lhs_sum": lhs,
        "rhs": int(rhs),
        "pass": lhs == rhs,
        "degree": int(deg_report.degree),
        "sign_abar": int(np.sign(problem.abar)),
        "n_fixed_points": len(inside),
        "fixed_point_residuals": [rec.residual for rec in inside],
    }
