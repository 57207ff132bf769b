"""Brouwer degree of a vector field on a box.

Three computation paths:

* sign-1d: endpoint signs on an interval, with interior zeros located by a
  sign-change scan plus bisection;
* winding-2d: total winding of the field along the positively oriented box
  boundary, with automatic boundary refinement;
* jacobian-nd: grid search for sign-change cells, refinement by the
  package's one damped Newton, degree as the sum of Jacobian determinant
  signs over the refined zeros.

The damped Newton (newton_steps) asks for one thing at each point it
visits: the residual together with its forward-difference Jacobian
(fd_jacobian), so every iterate steps with the Jacobian at itself.
damped_newton drives it with callables here; the lockstep fixed-point
solver of the translation operator drives it with batched sweeps.

A field is a FieldHandle or any other callable.  A FieldHandle is
evaluated on a whole (N, n) array of points at once, so each sample set
(the winding boundary, the jacobian-nd boundary and grid, the sign-1d
scan, the points of a finite-difference Jacobian) costs one call; any
other callable is called once per point.

Admissibility (no zeros on the boundary) is certified on samples only; the
minimum sampled boundary norm is reported as admissibility_margin so callers
can judge the certificate.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    AdmissibilityError,
    DegeneracyError,
    InvalidParameterError,
    ResolutionError,
    TranslationUndefinedError,
)
from .fields import FieldHandle
from .problem import Box

_BOUNDARY_ZERO_TOL = 1e-14
_MARGIN_MIN = 1e-10
_MAX_BOUNDARY_SAMPLES = 2 ** 20
_NEWTON_HALVINGS = 10


@dataclass(frozen=True)
class DegreeReport:
    """Result of a degree computation."""

    degree: int
    admissibility_margin: float
    method: str
    zeros: Optional[List[dict]] = None

    def to_dict(self) -> dict:
        payload = {
            "degree": int(self.degree),
            "admissibility_margin": float(self.admissibility_margin),
            "method": self.method,
        }
        if self.zeros is not None:
            payload["zeros"] = [
                {
                    "point": [float(v) for v in z["point"]],
                    "jacobian_sign": int(z["jacobian_sign"]),
                }
                for z in self.zeros
            ]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False)


def _sample(fn, points: np.ndarray) -> np.ndarray:
    """Values of fn at the rows of points, (N, n) -> (N, n): one call for a
    FieldHandle, one call per row for any other callable."""
    if isinstance(fn, FieldHandle):
        return fn(points)
    return np.array([np.atleast_1d(np.asarray(fn(p), dtype=float)) for p in points])


def _as_scalar_field(fn):
    """Accept both scalar->scalar fields and 1-d vector fields."""

    def f(x):
        try:
            v = fn(x)
        except (TypeError, IndexError):
            v = fn(np.array([x]))
        return float(np.atleast_1d(np.asarray(v, dtype=float))[0])

    return f


def degree_1d(fn, interval, n_check: int = 256) -> DegreeReport:
    """Degree of a scalar field on an interval from endpoint signs.

    Interior zeros are located by scanning n_check (>= 8) subintervals for
    sign changes and bisecting, purely to populate the report; the degree itself
    is (sign f(b) - sign f(a)) / 2.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise InvalidParameterError(f"interval requires a < b, got ({a}, {b})")
    if n_check < 8:
        raise InvalidParameterError(f"n_check must be >= 8, got {n_check}")
    f = _as_scalar_field(fn)
    xs = np.linspace(a, b, n_check + 1)
    if isinstance(fn, FieldHandle):
        vals = fn(xs[:, None])[:, 0]
    else:
        vals = np.array([f(x) for x in xs])
    fa, fb = float(vals[0]), float(vals[-1])  # linspace keeps both ends exact
    margin = min(abs(fa), abs(fb))
    if margin <= _BOUNDARY_ZERO_TOL:
        raise AdmissibilityError(
            f"field vanishes at an interval endpoint (|f| = {margin:.2e})"
        )
    deg = (int(np.sign(fb)) - int(np.sign(fa))) // 2

    zeros = []
    for i in range(n_check):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0 or v0 * v1 > 0.0:
            continue
        lo, hi, flo = xs[i], xs[i + 1], v0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        root = 0.5 * (lo + hi)
        step = (b - a) * 1e-7
        slope = (f(root + step) - f(root - step)) / (2.0 * step)
        zeros.append({"point": [root], "jacobian_sign": int(np.sign(slope))})
    return DegreeReport(degree=deg, admissibility_margin=margin, method="sign-1d", zeros=zeros)


def _boundary_loop(box: Box, n: int) -> np.ndarray:
    """n points along the positively oriented boundary of a planar box."""
    lo, hi = box.lower, box.upper
    per_side = n // 4
    t = np.linspace(0.0, 1.0, per_side, endpoint=False)
    bottom = np.column_stack([lo[0] + t * (hi[0] - lo[0]), np.full(per_side, lo[1])])
    right = np.column_stack([np.full(per_side, hi[0]), lo[1] + t * (hi[1] - lo[1])])
    top = np.column_stack([hi[0] - t * (hi[0] - lo[0]), np.full(per_side, hi[1])])
    left = np.column_stack([np.full(per_side, lo[0]), hi[1] - t * (hi[1] - lo[1])])
    return np.vstack([bottom, right, top, left])


def degree_2d_winding(fn, box: Box, n_boundary: int = 1024) -> DegreeReport:
    """Degree of a planar field as the winding number along the box boundary.

    Angle increments between consecutive boundary samples are accumulated
    via atan2 and each must stay below pi/2; otherwise the sample count is
    doubled, up to 2^20 points.
    """
    if box.dim != 2:
        raise InvalidParameterError(f"winding method needs a planar box, got dim {box.dim}")
    if n_boundary < 256:
        raise InvalidParameterError(f"n_boundary must be >= 256, got {n_boundary}")
    n = n_boundary
    while True:
        pts = _boundary_loop(box, n)
        vals = _sample(fn, pts)
        norms = np.hypot(vals[:, 0], vals[:, 1])
        margin = float(norms.min())
        if margin < _MARGIN_MIN:
            raise AdmissibilityError(
                f"field norm {margin:.2e} on the boundary is below {_MARGIN_MIN:.0e}"
            )
        nxt = np.roll(vals, -1, axis=0)
        cross = vals[:, 0] * nxt[:, 1] - vals[:, 1] * nxt[:, 0]
        dot = vals[:, 0] * nxt[:, 0] + vals[:, 1] * nxt[:, 1]
        incr = np.arctan2(cross, dot)
        if np.max(np.abs(incr)) < 0.5 * np.pi:
            total = float(incr.sum())
            deg = int(round(total / (2.0 * np.pi)))
            return DegreeReport(
                degree=deg, admissibility_margin=margin, method="winding-2d", zeros=None
            )
        if n * 2 > _MAX_BOUNDARY_SAMPLES:
            raise ResolutionError(
                "winding increments stayed >= pi/2 at maximum boundary refinement"
            )
        n *= 2


def fd_points(u: np.ndarray, step: float) -> np.ndarray:
    """The n points u + step * e_j, as rows, at which fd_jacobian evaluates F."""
    return u + step * np.eye(u.size)


def fd_jacobian(F, u: np.ndarray, f0: np.ndarray, step: float) -> np.ndarray:
    """Forward-difference Jacobian of F at u, where f0 is the image of u.

    F maps a (B, n) array of points to the (B, n) array of their images, so
    the n points fd_points(u, step) go through F in one call; row j of the
    result becomes column j of the Jacobian.
    """
    return ((F(fd_points(u, step)) - f0) / step).T


def newton_steps(u0: np.ndarray, tol: float, max_iter: int):
    """Damped Newton on a residual R(u) = 0 from u0, as a generator that
    asks for the values it needs; residual norms are sup norms.

    Every request is a point u, to be sent the pair (R(u), J(u)) with J the
    Jacobian of R at u; a point where either is undefined gets
    TranslationUndefinedError thrown in instead.  Each iterate takes the
    full step solve(J, -R) at its own Jacobian, halved up to 10 times until
    the residual decreases; the first trial that decreases it becomes the
    next iterate, together with the pair it was sent.  A trial point whose
    pair is undefined counts as not decreasing the residual.  No decreasing
    trial, an undefined starting point or a singular Jacobian is a failure.

    The generator returns (u, residual_norm, J) once residual_norm <= tol,
    with J the Jacobian at u, or None.  Since it only asks for values, one
    driver can advance many solves at once (poincare._solve_lockstep);
    damped_newton drives one with callables.
    """

    def size(r):
        return float(np.linalg.norm(r, ord=np.inf))

    u = u0.copy()
    try:
        res, J = yield u
        for _ in range(max_iter):
            rnorm = size(res)
            if rnorm <= tol:
                break
            step = np.linalg.solve(J, -res)
            alpha = 1.0
            for _ in range(_NEWTON_HALVINGS):
                trial = u + alpha * step
                try:
                    res_new, J_new = yield trial
                    if size(res_new) < rnorm:
                        break
                except TranslationUndefinedError:
                    pass
                alpha *= 0.5
            else:
                return None
            u, res, J = trial, res_new, J_new
        rnorm = size(res)
    except (TranslationUndefinedError, np.linalg.LinAlgError):
        return None
    return (u, rnorm, J) if rnorm <= tol else None


def damped_newton(residual, jacobian, u0: np.ndarray, tol: float, max_iter: int):
    """newton_steps on residual(u) = 0 from u0, driven by callables.

    Each request u is answered with r = residual(u) and then jacobian(u, r);
    a TranslationUndefinedError either raises is thrown into the solve.
    Returns what newton_steps returns: (u, residual_norm, J) on
    convergence, with J = jacobian(u, residual(u)) at the returned u, and
    None on failure.
    """
    steps = newton_steps(u0, tol, max_iter)
    try:
        u = next(steps)
        while True:
            try:
                r = residual(u)
                J = jacobian(u, r)
            except TranslationUndefinedError as exc:
                u = steps.throw(exc)
            else:
                u = steps.send((r, J))
    except StopIteration as stop:
        return stop.value


def _boundary_samples(box: Box, per_axis: int) -> np.ndarray:
    """Sample grid on all faces of an n-dimensional box."""
    n = box.dim
    axes = [np.linspace(box.lower[i], box.upper[i], per_axis) for i in range(n)]
    pts = []
    for face_axis in range(n):
        for side in (box.lower[face_axis], box.upper[face_axis]):
            grids = [axes[i] if i != face_axis else np.array([side]) for i in range(n)]
            mesh = np.meshgrid(*grids, indexing="ij")
            pts.append(np.column_stack([m.ravel() for m in mesh]))
    return np.vstack(pts)


def degree_nd_jacobian(
    fn, box: Box, grid_per_axis: int = 16, tol: float = 1e-10
) -> DegreeReport:
    """Degree as the sum of Jacobian signs over Newton-refined zeros.

    Candidate cells are those of a uniform grid whose corner values change
    sign in every component; each candidate seeds damped_newton with
    forward-difference Jacobians, and each zero's sign comes from the
    Jacobian damped_newton returns, the one at the converged point.  A
    FieldHandle is sampled on the boundary, on the grid and at the points
    of each Jacobian in one call each; Newton's residuals are single-point
    calls.  Fails with DegeneracyError on a non-hyperbolic zero (fall back
    to the winding method when n = 2).
    """
    if grid_per_axis < 8:
        raise InvalidParameterError(f"grid_per_axis must be >= 8, got {grid_per_axis}")
    n = box.dim
    scale = box.scale
    fd_step = 1e-6 * scale

    def value(z):
        return np.atleast_1d(np.asarray(fn(z), dtype=float))

    def jacobian(z, f0):
        return fd_jacobian(lambda rows: _sample(fn, rows), z, f0, fd_step)

    bpts = _boundary_samples(box, grid_per_axis + 1)
    margin = float(min(np.linalg.norm(v) for v in _sample(fn, bpts)))
    if margin < _MARGIN_MIN:
        raise AdmissibilityError(
            f"field norm {margin:.2e} on the boundary sample grid is below {_MARGIN_MIN:.0e}"
        )

    axes = [np.linspace(box.lower[i], box.upper[i], grid_per_axis + 1) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid_pts = np.stack(mesh, axis=-1)
    vals = _sample(fn, grid_pts.reshape(-1, n)).reshape(grid_pts.shape)

    corner_offsets = list(itertools.product((0, 1), repeat=n))
    dedupe = 1e-6 * scale
    zeros: List[np.ndarray] = []
    signs: List[int] = []

    for cell in np.ndindex(*([grid_per_axis] * n)):
        corner_vals = np.array([vals[tuple(c + o for c, o in zip(cell, off))] for off in corner_offsets])
        # Candidate cell: every component takes both signs (or touches 0).
        if not all(
            corner_vals[:, j].min() <= 0.0 <= corner_vals[:, j].max() for j in range(n)
        ):
            continue
        z0 = np.array(
            [0.5 * (axes[i][cell[i]] + axes[i][cell[i] + 1]) for i in range(n)]
        )
        out = damped_newton(value, jacobian, z0, tol, 60)
        if out is None:
            continue
        z, _, J = out
        if not box.contains(z, tol=1e-9 * scale):
            continue
        if any(np.linalg.norm(z - zk) < dedupe for zk in zeros):
            continue
        det = float(np.linalg.det(J))
        # Newton stops once |F| <= tol, so at a zero of odd local degree the
        # iterate can stall at |z - z*| ~ tol^(1/3) where det J is small but
        # not yet at roundoff; the threshold must sit well above that.
        if abs(det) < 1e-5 * scale:
            raise DegeneracyError(
                f"non-hyperbolic zero at {z.tolist()} (|det J| = {abs(det):.2e}); "
                "fall back to degree_2d_winding when n = 2"
            )
        zeros.append(z)
        signs.append(int(np.sign(det)))

    report_zeros = [
        {"point": z.tolist(), "jacobian_sign": s} for z, s in zip(zeros, signs)
    ]
    return DegreeReport(
        degree=int(sum(signs)),
        admissibility_margin=margin,
        method="jacobian-nd",
        zeros=report_zeros,
    )


def degree_auto(fn, box: Box, **kwargs) -> DegreeReport:
    """Dispatch on dimension: 1 -> sign-1d, 2 -> winding-2d, else jacobian-nd."""
    if box.dim == 1:
        return degree_1d(fn, (box.lower[0], box.upper[0]), **kwargs)
    if box.dim == 2:
        return degree_2d_winding(fn, box, **kwargs)
    return degree_nd_jacobian(fn, box, **kwargs)
