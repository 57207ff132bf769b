"""Natural-parameter continuation of T-periodic solution branches.

Starting from a trivial point (lambda = 0, constant history at a zero of
the nu field), the tracer steps lambda monotonically, predicts the next
history (the Lagrange polynomial in lambda through the last four kept
points), corrects by full Newton steps on the fixed-point residual of the
translation operator, and adapts the step: a corrector step that does not
lower the residual fails the attempt, which retries at half the step.
The termination tag records the computational reading of the branch
closure being noncompact: lambda exhausted, sup-norm blowup, Newton
failure (fold encounter), or exit from the declared domain box.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .degree import degree_auto
from .errors import AdmissibilityError, InvalidParameterError, ResolutionError
from .fields import nu_field
from .integrator import _check_count
from .poincare import TranslationConfig, _newton_fixed_point
from .problem import Box, CoupledProblem, History

TERMINATION_LAMBDA_MAX = "reached_lambda_max"
TERMINATION_BLOWUP = "norm_blowup"
TERMINATION_NEWTON = "newton_failure"
TERMINATION_LEFT_DOMAIN = "left_domain"
TERMINATION_MAX_POINTS = "max_points"

_SUP_NORM_BLOWUP = 1e6


@dataclass(frozen=True)
class ContinuationConfig(TranslationConfig):
    """The step settings of the tracer; as a TranslationConfig (m defaults
    to 16 here) it is the setting of every corrector solve."""

    m: int = 16
    h0: float = 0.05
    h_min: float = 1e-6
    h_max: float = 0.25
    max_points: int = 200
    domain: Optional[Box] = None

    def __post_init__(self):
        if not 0 < self.h_min <= self.h0 <= self.h_max:
            raise InvalidParameterError("need 0 < h_min <= h0 <= h_max")
        _check_count("max_points", self.max_points, 1)
        super().__post_init__()


class BranchPoint(NamedTuple):
    lam: float
    history: History
    residual: float
    sup_norm: float
    min_dist_to_trivial: float


class Branch(NamedTuple):
    points: List[BranchPoint]
    origin: np.ndarray
    termination: str

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


def _trivial_zeros(problem: CoupledProblem, origin: np.ndarray, domain: Optional[Box]):
    """Zeros of nu to measure triviality against: the degree's zeros over the
    domain box when it finds any, the branch origin otherwise.  A domain
    whose degree fails (AdmissibilityError, ResolutionError) falls back to
    the origin with a RuntimeWarning that names the error."""
    if domain is not None:
        try:
            report = degree_auto(nu_field(problem), domain)
        except (AdmissibilityError, ResolutionError) as exc:
            warnings.warn(f"zeros of nu over the domain not found ({type(exc).__name__}: {exc}); "
                          "measuring triviality against the origin", RuntimeWarning, stacklevel=3)
        else:
            if report.zeros:
                return [np.array(z["point"]) for z in report.zeros]
    return [np.atleast_1d(origin)]


def _min_dist_to_trivial(values: np.ndarray, zeros) -> float:
    best = np.inf
    for z in zeros:
        best = min(best, float(np.max(np.abs(values - z[None, :]))))
    return best


#: The predictor interpolates this many kept points, the origin included.
_PREDICTOR_POINTS = 4
#: Step lengths per corrector iterate (newton_steps' trials): full steps only.
_CORRECTOR_TRIALS = 1


def _predict(lams, us, lam_to):
    """The predictor at lam_to: the Lagrange polynomial in lambda through
    the points us[i] at lams[i], the last _PREDICTOR_POINTS kept ones.  It
    is us[0] itself for one point and the secant for two."""
    pred = np.zeros_like(us[0])
    for i, (lam_i, u_i) in enumerate(zip(lams, us)):
        weight = 1.0
        for j, lam_j in enumerate(lams):
            if j != i:
                weight *= (lam_to - lam_j) / (lam_i - lam_j)
        pred += weight * u_i
    return pred


def continue_branch(
    problem: CoupledProblem,
    origin,
    lambda_max: float,
    cfg: ContinuationConfig = ContinuationConfig(),
) -> Branch:
    """Trace a branch of T-periodic solutions from a trivial point.

    origin must be an approximate zero of nu (|nu| <= 1e-8), and
    lambda_max >= 0.  The local degree at origin is not checked: the
    existence theorems only back branches from zeros of nonzero degree,
    but a branch from any zero is traced, without a warning.

    Each attempt is one Newton solve (poincare._newton_fixed_point) from
    the predictor _predict, the polynomial in lambda through the last
    (at most four) kept points, origin included.  The solve takes full
    Newton steps only (_CORRECTOR_TRIALS): a step that does not lower the
    residual fails it, and the attempt is retried at half the step, down
    to h_min; the step doubles, up to h_max, after each kept point.  The
    step in lambda is the corrector's only globalization.

    On a problem whose fields all carry DSL expressions, whose rows cost
    little next to its calls, every sweep of an attempt also carries the
    block of the next attempt's predictor at its lambda: the polynomial
    through the kept points and the attempt's current request, which is
    the next predictor should that request converge and be kept.  The
    next attempt then starts from that answer and skips its first sweep,
    and computes the same bits as without the look-ahead.
    """
    origin = np.atleast_1d(np.asarray(origin, dtype=float))
    dim = problem.dim
    if origin.size != dim:
        raise InvalidParameterError(f"origin has dimension {origin.size}, problem has {dim}")
    if cfg.domain is not None and cfg.domain.dim != dim:
        raise InvalidParameterError(
            f"domain box dimension {cfg.domain.dim} does not match problem dimension {dim}"
        )
    if not lambda_max >= 0:
        raise InvalidParameterError(f"lambda_max must be >= 0, got {lambda_max}")
    nu = nu_field(problem)
    nu0 = float(np.max(np.abs(nu(origin))))
    if nu0 > 1e-8:
        raise InvalidParameterError(
            f"origin is not a zero of nu (|nu| = {nu0:.2e} > 1e-8)"
        )
    zeros = _trivial_zeros(problem, origin, cfg.domain)

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
    if lambda_max == 0:
        return Branch(points=points, origin=origin, termination=TERMINATION_LAMBDA_MAX)

    target = lambda lam, h: min(lam + h, lambda_max)  # an attempt's lambda, from the point kept at lam
    grown = lambda lam, h: min(2.0 * h, cfg.h_max, lambda_max - lam)  # the step after a point kept at lam
    lam = 0.0
    h = cfg.h0
    lams, us = [0.0], [points[0].history.values.ravel()]  # the predictor's points
    nxt = None  # the last attempt's look-ahead: this one's predictor, with R and J_R there
    termination = TERMINATION_MAX_POINTS
    look_ahead = all(fn is None or fn.exprs is not None for fn in (problem.f, problem.g, problem.h))

    while len(points) < cfg.max_points:
        lam_next = target(lam, h)
        if nxt is None:
            u_pred, first = _predict(lams, us, lam_next), None
        else:
            u_pred, first = nxt[0], nxt[1:]
        # Look ahead where rows cost little and another attempt can follow:
        # should this one's point be kept, the next is at lam_after (the
        # step rule), predicted through the kept points and this one.
        ahead = None
        if look_ahead and lam_next < lambda_max - 1e-14 and len(points) + 1 < cfg.max_points:
            lam_after = target(lam_next, grown(lam_next, h))
            ls, vs = lams[1 - _PREDICTOR_POINTS:] + [lam_next], us[1 - _PREDICTOR_POINTS:]
            ahead = (lam_after, lambda u: _predict(ls, vs + [u], lam_after))
        # The corrector integrates unconstrained; the domain box is checked
        # against the converged history below so an exit is reported as
        # left_domain rather than as a Newton failure.
        out = _newton_fixed_point(problem, lam_next, 1.0, u_pred, cfg, first, ahead, _CORRECTOR_TRIALS)
        nxt = out[3] if out is not None and ahead is not None else None
        if out is None:
            if h > cfg.h_min:
                h = max(0.5 * h, cfg.h_min)
                continue
            termination = TERMINATION_NEWTON
            break
        u_new, rnorm = out[0], out[1]
        hist = History.from_values(u_new.reshape(cfg.m + 1, dim), problem.delay)
        sup_norm = float(np.max(np.abs(u_new)))
        if sup_norm > _SUP_NORM_BLOWUP:
            termination = TERMINATION_BLOWUP
            break
        if cfg.domain is not None and not cfg.domain.contains(hist.values):
            termination = TERMINATION_LEFT_DOMAIN
            break
        lam = lam_next
        lams, us = lams[1 - _PREDICTOR_POINTS:] + [lam], us[1 - _PREDICTOR_POINTS:] + [u_new]
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
        h = grown(lam, h)
    return Branch(points=points, origin=origin, termination=termination)
