"""Discretized Poincare-type translation operator, its fixed points, and the
numerical verification of the index identity.

The translation operator maps an initial history on [-r, 0] to the solution
history on [T - r, T].  On the (m+1)-node discretization its fixed points
are found by the package's one lockstep Newton (degree.newton_lockstep) on
R(u) = translate(u) - u: full damped Newton, with the forward-difference
Jacobian at every iterate.  _solve_lockstep binds it to _residual, so each
round of all seeds' solves, every point with its n Jacobian points, is one
batched integrator sweep.  Each hyperbolic fixed point carries the discrete
index sign(det(I - DQ)), the finite-dimensional stand-in for the fixed
point index of the compact operator, taken from the Jacobian at the
converged point.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .degree import degree_auto, newton_lockstep
from .errors import (
    BlowupError,
    DegeneracyError,
    DomainEscapeError,
    InvalidParameterError,
    TranslationUndefinedError,
)
from .fields import nu_field
from .integrator import integrate
from .problem import Box, CoupledProblem, History


@dataclass(frozen=True)
class TranslationConfig:
    """Discretization and Newton parameters for the translation operator."""

    m: int = 32
    steps_per_delay: int = 32
    newton_tol: float = 1e-9
    newton_max_iter: int = 25
    fd_step: float = 1e-6

    def __post_init__(self):
        if self.m < 8:
            raise InvalidParameterError(f"m must be >= 8, got {self.m}")
        if self.newton_tol <= 0:
            raise InvalidParameterError("newton_tol must be positive")
        if self.fd_step <= 0:
            raise InvalidParameterError(f"fd_step must be positive, got {self.fd_step}")
        if self.newton_max_iter < 1:
            raise InvalidParameterError(f"newton_max_iter must be >= 1, got {self.newton_max_iter}")
        if self.steps_per_delay < 8:
            raise InvalidParameterError(f"steps_per_delay must be >= 8, got {self.steps_per_delay}")


@dataclass(frozen=True)
class FixedPointRecord:
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
    lam: float,
    mu: float,
    init: History,
    cfg: TranslationConfig,
    domain: Optional[Box] = None,
) -> History:
    """Apply the translation operator: integrate to T and resample the
    solution on [T - r, T] onto the m-node history grid.

    init may be a batch of histories (see integrate); the image is then the
    batch of their images.  Integrator failures (blowup, domain escape)
    surface as TranslationUndefinedError: the input lies outside the
    operator domain.
    """
    T = problem.period
    r = problem.delay
    try:
        traj = integrate(
            problem, lam, mu, init, T,
            steps_per_delay=cfg.steps_per_delay, domain=domain,
        )
    except (BlowupError, DomainEscapeError) as exc:
        raise TranslationUndefinedError(str(exc)) from exc
    values, derivs = traj.eval_with_deriv(T + np.linspace(-r, 0.0, cfg.m + 1))
    return History(delay=r, values=values, derivs=derivs)


def _translate_values(problem, lam, mu, u, cfg, domain, dim):
    """translate on flattened node values: u has shape (n,), or (B, n) for
    B inputs translated in one sweep."""
    nodes = np.moveaxis(u.reshape(u.shape[:-1] + (cfg.m + 1, dim)), -2, 0)
    init = History.from_values(nodes, problem.delay)
    out = translate(problem, lam, mu, init, cfg, domain=domain)
    return np.moveaxis(out.values, 0, -2).reshape(u.shape)


def _residual(problem, lam, mu, u, cfg, domain):
    """R(u) = translate(u) - u on flattened node values, (n,) or (B, n)."""
    return _translate_values(problem, lam, mu, u, cfg, domain, problem.dim) - u


def _solve_lockstep(problem, lam, mu, seeds, cfg, domain=None):
    """newton_lockstep on R from each flattened seed: one (u, residual_norm,
    J_R) or None per seed.  A Newton round of all seeds is one _residual
    sweep, whose rows do not interact, so each seed ends as it would alone."""
    return newton_lockstep(
        lambda rows: _residual(problem, lam, mu, rows, cfg, domain),
        seeds, cfg.fd_step, cfg.newton_tol, cfg.newton_max_iter,
    )


def _newton_fixed_point(problem, lam, mu, u0, cfg, domain=None):
    """One damped Newton solve of R from u0 (a lockstep solve of one seed);
    returns (u, residual_norm, J_R) on convergence, J_R the Jacobian at u,
    and None on failure."""
    return _solve_lockstep(problem, lam, mu, [u0], cfg, domain)[0]


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
    domain: Optional[Box] = None,
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
    outs = _solve_lockstep(problem, lam, mu, [seed.values.ravel() for seed in seeds], cfg, domain)
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


def _lattice_points(box: Box, per_axis: int = 3) -> List[np.ndarray]:
    axes = [
        np.linspace(box.lower[i], box.upper[i], per_axis + 2)[1:-1]
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
    grid (refined zeros of nu plus a 3-per-axis lattice); the right side
    comes from the degree module.  lam must be chosen small by the caller.
    """
    if box.dim != problem.dim:
        raise InvalidParameterError(
            f"box dimension {box.dim} does not match problem dimension {problem.dim}"
        )
    nu = nu_field(problem)
    deg_report = degree_auto(nu.negated(), box)
    rhs = int(np.sign(problem.abar)) ** problem.dim_y * deg_report.degree

    seeds = []
    if deg_report.zeros:
        for z in deg_report.zeros:
            seeds.append(History.constant(np.array(z["point"]), problem.delay, m=cfg.m))
    for point in _lattice_points(box):
        seeds.append(History.constant(point, problem.delay, m=cfg.m))

    records = find_fixed_points(problem, lam, seeds, cfg, domain=None)
    inside = [
        rec for rec in records
        if all(box.contains(v) for v in rec.history.values)
    ]
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


def index_report_json(report: dict) -> str:
    return json.dumps(report, allow_nan=False)
