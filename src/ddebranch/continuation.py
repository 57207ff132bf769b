"""Natural-parameter continuation of T-periodic solution branches.

Starting from a trivial point (lambda = 0, constant history at a zero of
the nu field), the tracer steps lambda monotonically, predicts the next
history (secant once two points exist), corrects by Newton on the
fixed-point residual of the translation operator, and adapts the step.
The termination tag records the computational reading of the branch
closure being noncompact: lambda exhausted, sup-norm blowup, Newton
failure (fold encounter), or exit from the declared domain box.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .degree import degree_auto
from .errors import AdmissibilityError, DegeneracyError, InvalidParameterError
from .fields import nu_field
from .integrator import integrate
from .poincare import TranslationConfig, _newton_fixed_point
from .problem import Box, CoupledProblem, History

TERMINATION_LAMBDA_MAX = "reached_lambda_max"
TERMINATION_BLOWUP = "norm_blowup"
TERMINATION_NEWTON = "newton_failure"
TERMINATION_LEFT_DOMAIN = "left_domain"
TERMINATION_MAX_POINTS = "max_points"

_SUP_NORM_BLOWUP = 1e6


@dataclass(frozen=True)
class ContinuationConfig:
    h0: float = 0.05
    h_min: float = 1e-6
    h_max: float = 0.25
    newton_tol: float = 1e-9
    max_points: int = 200
    m: int = 16
    steps_per_delay: int = 32
    fd_step: float = 1e-6
    domain: Optional[Box] = None

    def __post_init__(self):
        if not 0 < self.h_min <= self.h0 <= self.h_max:
            raise InvalidParameterError("need 0 < h_min <= h0 <= h_max")
        self.translation()  # the translation settings' own checks

    def translation(self) -> TranslationConfig:
        return TranslationConfig(
            m=self.m,
            steps_per_delay=self.steps_per_delay,
            newton_tol=self.newton_tol,
            fd_step=self.fd_step,
        )


@dataclass(frozen=True)
class BranchPoint:
    lam: float
    history: History
    residual: float
    sup_norm: float
    min_dist_to_trivial: float


@dataclass(frozen=True)
class Branch:
    points: List[BranchPoint]
    origin: np.ndarray
    termination: str

    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            n_hist = self.points[0].history.values.size if self.points else 0
            writer.writerow(
                ["lambda", "residual", "sup_norm", "min_dist_to_trivial"]
                + [f"u{i}" for i in range(n_hist)]
            )
            for p in self.points:
                writer.writerow(
                    [f"{p.lam:.15g}", f"{p.residual:.6e}", f"{p.sup_norm:.15g}",
                     f"{p.min_dist_to_trivial:.15g}"]
                    + [f"{v:.15g}" for v in p.history.values.ravel()]
                )

    def to_json_dict(self) -> dict:
        return {
            "origin": [float(v) for v in np.atleast_1d(self.origin)],
            "termination": self.termination,
            "n_points": len(self.points),
            "points": [
                {
                    "lambda": float(p.lam),
                    "residual": float(p.residual),
                    "sup_norm": float(p.sup_norm),
                    "min_dist_to_trivial": float(p.min_dist_to_trivial),
                    "history": [[float(v) for v in row] for row in p.history.values],
                }
                for p in self.points
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), allow_nan=False)


def _trivial_zeros(problem: CoupledProblem, origin: np.ndarray, domain: Optional[Box]):
    """Zeros of nu to measure triviality against: degree-module zeros over
    the domain box when available, the branch origin otherwise.

    A planar box is skipped: its winding-number degree locates no zeros.
    """
    if domain is not None and domain.dim == problem.dim and domain.dim != 2:
        try:
            report = degree_auto(nu_field(problem), domain)
            if report.zeros:
                return [np.array(z["point"]) for z in report.zeros]
        except (AdmissibilityError, DegeneracyError):
            pass
    return [np.atleast_1d(origin)]


def _min_dist_to_trivial(values: np.ndarray, zeros) -> float:
    best = np.inf
    for z in zeros:
        best = min(best, float(np.max(np.abs(values - z[None, :]))))
    return best


def continue_branch(
    problem: CoupledProblem,
    origin,
    lambda_max: float,
    cfg: ContinuationConfig = ContinuationConfig(),
) -> Branch:
    """Trace a branch of T-periodic solutions from a trivial point.

    origin must be an approximate zero of nu (|nu| <= 1e-8); a warning (not
    an error) is appropriate when the local degree vanishes, since the
    existence theorems only back branches from nonzero-degree zeros.
    """
    origin = np.atleast_1d(np.asarray(origin, dtype=float))
    if origin.size != problem.dim:
        raise InvalidParameterError(
            f"origin has dimension {origin.size}, problem has {problem.dim}"
        )
    nu = nu_field(problem)
    nu0 = float(np.max(np.abs(nu(origin))))
    if nu0 > 1e-8:
        raise InvalidParameterError(
            f"origin is not a zero of nu (|nu| = {nu0:.2e} > 1e-8)"
        )
    tcfg = cfg.translation()
    zeros = _trivial_zeros(problem, origin, cfg.domain)
    dim = problem.dim

    hist0 = History.constant(origin, problem.delay, m=cfg.m)
    points = [
        BranchPoint(
            lam=0.0,
            history=hist0,
            residual=0.0,
            sup_norm=float(np.max(np.abs(hist0.values))),
            min_dist_to_trivial=_min_dist_to_trivial(hist0.values, zeros),
        )
    ]
    if lambda_max <= 0:
        return Branch(points=points, origin=origin, termination=TERMINATION_LAMBDA_MAX)

    state_domain = None
    if cfg.domain is not None:
        if cfg.domain.dim != dim:
            raise InvalidParameterError(
                f"domain box dimension {cfg.domain.dim} does not match problem dimension {dim}"
            )
        state_domain = cfg.domain

    lam = 0.0
    h = cfg.h0
    u_prev = None
    u_last = points[0].history.values.ravel().copy()
    lam_prev = None
    termination = TERMINATION_MAX_POINTS

    while len(points) < cfg.max_points:
        lam_next = min(lam + h, lambda_max)
        # Predictor: previous history, secant once two points exist.
        if u_prev is not None and lam_prev is not None and lam - lam_prev > 1e-14:
            u_pred = u_last + (u_last - u_prev) * ((lam_next - lam) / (lam - lam_prev))
        else:
            u_pred = u_last.copy()
        # The corrector integrates unconstrained; the domain box is checked
        # against the converged history below so an exit is reported as
        # left_domain rather than as a Newton failure.
        out = _newton_fixed_point(problem, lam_next, 1.0, u_pred, tcfg)
        if out is None:
            if len(points) == 1 and h <= cfg.h_min * (1 + 1e-12):
                termination = TERMINATION_NEWTON
                break
            if h > cfg.h_min:
                h = max(0.5 * h, cfg.h_min)
                continue
            termination = TERMINATION_NEWTON
            break
        u_new, rnorm, _ = out
        hist = History.from_values(u_new.reshape(cfg.m + 1, dim), problem.delay)
        sup_norm = float(np.max(np.abs(u_new)))
        if sup_norm > _SUP_NORM_BLOWUP:
            termination = TERMINATION_BLOWUP
            break
        if state_domain is not None and not all(
            state_domain.contains(v) for v in hist.values
        ):
            termination = TERMINATION_LEFT_DOMAIN
            break
        u_prev, lam_prev = u_last, lam
        u_last, lam = u_new, lam_next
        points.append(
            BranchPoint(
                lam=lam,
                history=hist,
                residual=rnorm,
                sup_norm=sup_norm,
                min_dist_to_trivial=_min_dist_to_trivial(hist.values, zeros),
            )
        )
        if lam >= lambda_max - 1e-14:
            termination = TERMINATION_LAMBDA_MAX
            break
        h = min(2.0 * h, cfg.h_max, lambda_max - lam)
    return Branch(points=points, origin=origin, termination=termination)


def branch_to_pairs(branch: Branch, component: int, problem: CoupledProblem,
                    cfg: ContinuationConfig = ContinuationConfig(),
                    n_samples: int = 201):
    """Project each branch point onto one scalar component, re-integrating
    once to sample the full period [0, T]."""
    if not branch.points:
        raise InvalidParameterError("branch is empty")
    if not 0 <= component < problem.dim:
        raise InvalidParameterError(
            f"component {component} out of range for dimension {problem.dim}"
        )
    pairs = []
    ts = np.linspace(0.0, problem.period, n_samples)
    for p in branch.points:
        traj = integrate(
            problem, p.lam, 1.0, p.history, problem.period,
            steps_per_delay=cfg.steps_per_delay,
        )
        pairs.append((p.lam, traj.eval(ts)[:, component]))
    return pairs
