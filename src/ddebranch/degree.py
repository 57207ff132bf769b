"""Brouwer degree of a vector field on a box.

Three computation paths:

* sign-1d: endpoint signs on an interval, with interior zeros located by a
  sign-change scan plus bisection of all brackets together;
* winding-2d: total winding of the field along the positively oriented box
  boundary, with automatic boundary refinement;
* jacobian-nd: grid search for sign-change cells, refinement of all
  candidates by the package's one lockstep Newton, degree as the sum of
  Jacobian determinant signs over the refined zeros.

Every method turns its field into a FieldHandle once, at entry
(_as_handle: any other callable is called once per point), and then
evaluates it only on (N, n) point sets.

The damped Newton (newton_steps) asks at each point it visits for the
residual and its Jacobian, so every iterate steps with the Jacobian at
itself.  newton_lockstep answers any number of solves with one batched call
per round and forms each Jacobian itself, as the forward-difference quotient
of that call's rows, the block a solve carries for the next one (its
look-ahead) included: it is the package's one Newton driver and its one
Jacobian site, and it refines jacobian-nd's zeros and the translation
operator's fixed points (poincare, continuation).

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
from .problem import Box, _per_row

_BOUNDARY_ZERO_TOL = 1e-14
_MARGIN_MIN = 1e-10
_MAX_BOUNDARY_SAMPLES = 2 ** 20
_NEWTON_HALVINGS = 10
_NEWTON_TOL = 1e-10  # jacobian-nd's sup-norm residual for a refined zero


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


def _as_handle(fn, dim: int) -> FieldHandle:
    """fn as a FieldHandle on R^dim: a FieldHandle as it is, any other
    callable called on each (dim,) row by the fields' loop, _per_row.  In 1-d
    fn gets the row's float first, the row on TypeError or IndexError."""
    if isinstance(fn, FieldHandle):
        return fn
    point = fn
    if dim == 1:
        def point(z):
            try:
                return fn(z[0])
            except (TypeError, IndexError):
                return fn(z)

    return FieldHandle(dim=dim, eval=_per_row(point, timed=False))


def degree_1d(fn, interval, n_check: int = 256) -> DegreeReport:
    """Degree of a scalar field on an interval from endpoint signs.

    The degree is (sign f(b) - sign f(a)) / 2; the interior zeros only
    populate the report.  One call scans n_check + 1 (n_check >= 8) points
    for sign changes; the K brackets are bisected together in 80 calls of
    K points, and one call of 2K points gives the central-difference
    slopes.  A scan without sign change makes no further call.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise InvalidParameterError(f"interval requires a < b, got ({a}, {b})")
    if n_check < 8:
        raise InvalidParameterError(f"n_check must be >= 8, got {n_check}")
    field = _as_handle(fn, 1)

    def f(x):
        return field(x[:, None])[:, 0]

    xs = np.linspace(a, b, n_check + 1)
    vals = f(xs)
    fa, fb = float(vals[0]), float(vals[-1])  # linspace keeps both ends exact
    margin = min(abs(fa), abs(fb))
    if margin <= _BOUNDARY_ZERO_TOL:
        raise AdmissibilityError(
            f"field vanishes at an interval endpoint (|f| = {margin:.2e})"
        )
    deg = (int(np.sign(fb)) - int(np.sign(fa))) // 2

    v0, v1 = vals[:-1], vals[1:]
    (cells,) = np.nonzero(~((v0 == 0.0) | (v0 * v1 > 0.0)))
    zeros = []
    if cells.size:
        lo, hi, flo = xs[cells], xs[cells + 1], v0[cells]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            left = flo * fm <= 0.0
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            flo = np.where(left, flo, fm)
        roots = 0.5 * (lo + hi)
        step = (b - a) * 1e-7
        ends = f(np.concatenate([roots + step, roots - step])).reshape(2, -1)
        slopes = (ends[0] - ends[1]) / (2.0 * step)
        zeros = [{"point": [root], "jacobian_sign": int(np.sign(slope))}
                 for root, slope in zip(roots, slopes)]
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
    field = _as_handle(fn, 2)
    n = n_boundary
    while True:
        pts = _boundary_loop(box, n)
        vals = field(pts)
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
    driver advances any number of solves at once: newton_lockstep, the
    package's only driver.
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


def newton_lockstep(F, seeds, fd_step: float, tol: float, max_iter: int, first=None, ahead=None):
    """newton_steps on F(u) = 0 from each seed in seeds, all advanced in
    lockstep; returns one (u, residual_norm, J) or None per seed.

    F maps (B, n) points to their (B, n) residuals.  Each round, every
    unfinished solve's request u is one block of 1 + n rows, u and the
    points u + fd_step * e_j; all blocks go through one F call, and each
    solve is answered with its first row as F(u) and the forward-difference
    quotient of the others, (F(u + fd_step * e_j) - F(u)) / fd_step as
    column j, as J(u).  If F treats rows independently, each solve runs
    the arithmetic it runs alone.  A call of several blocks that raises
    TranslationUndefinedError is rerun block by block, so that the error
    reaches just the solves whose own rows (Jacobian rows included) raise
    it.

    first, when given, holds one item per seed: the answer (F(u0), J(u0))
    at the seed u0 itself, which then takes no call, or None.

    ahead, given only with one seed, is a pair (predict, FG) that looks
    one solve ahead: each round's call also carries the block of the point
    v = predict(u) of the round's request u, as FG(rows, block), one call
    that returns F(rows) stacked on G(block) for a second residual G.  A
    converged solve then returns (u, residual_norm, J, nxt), where nxt is
    (v, G(v), J_G(v)) from the block of its last request, formed as J(u)
    is: the answer at the seed of a solve of G from v.  nxt is None when
    that request took no call with a look-ahead block: the first request
    answered from first, or any request after a call with the block
    raised TranslationUndefinedError.  Such a call is rerun without it,
    and the solve looks ahead no more.
    """

    def block(u):
        return np.vstack([u, u + fd_step * np.eye(u.size)])

    def quotient(rows):
        return rows[0], ((rows[1:] - rows[0]) / fd_step).T

    def sweep(call, *rows):
        try:
            return call(*rows)
        except TranslationUndefinedError as exc:
            return exc

    solves = [newton_steps(u0, tol, max_iter) for u0 in seeds]
    results = [None] * len(solves)
    requests = {}
    nxt = None

    def answer(i, pair):
        """Send solve i the pair (F(u), J(u)) or throw in the error."""
        try:
            if isinstance(pair, TranslationUndefinedError):
                requests[i] = solves[i].throw(pair)
            else:
                requests[i] = solves[i].send(pair)
        except StopIteration as stop:
            out = stop.value
            results[i] = out + (nxt,) if ahead is not None and out is not None else out
            del requests[i]

    for i, solve in enumerate(solves):
        requests[i] = next(solve)
        if first is not None and first[i] is not None:
            answer(i, first[i])
    predict, FG = (None, None) if ahead is None else ahead
    while requests:
        blocks = [block(u) for u in requests.values()]
        rows = np.vstack(blocks)
        merged, nxt = None, None
        if predict is not None:
            (u,) = requests.values()
            v = predict(u)
            both = sweep(FG, rows, block(v))
            if isinstance(both, TranslationUndefinedError):
                predict = None
            else:
                merged, nxt = both[:len(rows)], (v, *quotient(both[len(rows):]))
        if merged is None:
            merged = sweep(F, rows)
        if not isinstance(merged, TranslationUndefinedError):
            answers = np.split(merged, len(blocks))
        elif len(blocks) == 1:
            answers = [merged]
        else:
            answers = [sweep(F, b) for b in blocks]
        for i, out in zip(list(requests), answers):
            answer(i, out if isinstance(out, TranslationUndefinedError) else quotient(out))
    return results


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


def degree_nd_jacobian(fn, box: Box, grid_per_axis: int = 16) -> DegreeReport:
    """Degree as the sum of Jacobian signs over Newton-refined zeros.

    The field is sampled in one call each on the boundary faces and on a
    grid of grid_per_axis cells per axis.  A candidate cell's 2^n corner
    values (shifted slices of the grid values) take both signs, or touch 0,
    in every component.  newton_lockstep refines all candidates' centres
    together, one call per round.  In cell order, a zero outside the box
    or within 1e-6 * scale of a kept one is dropped; a kept zero's sign is
    that of det J at the converged point.  Fails with DegeneracyError on a
    non-hyperbolic zero (fall back to the winding method when n = 2).
    """
    if grid_per_axis < 8:
        raise InvalidParameterError(f"grid_per_axis must be >= 8, got {grid_per_axis}")
    n = box.dim
    scale = box.scale
    field = _as_handle(fn, n)

    bpts = _boundary_samples(box, grid_per_axis + 1)
    bvals = field(bpts)
    margin = float(np.sqrt((bvals[:, None, :] @ bvals[:, :, None])[:, 0, 0]).min())
    if margin < _MARGIN_MIN:
        raise AdmissibilityError(
            f"field norm {margin:.2e} on the boundary sample grid is below {_MARGIN_MIN:.0e}"
        )

    axes = [np.linspace(box.lower[i], box.upper[i], grid_per_axis + 1) for i in range(n)]
    grid_pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = field(grid_pts.reshape(-1, n)).reshape(grid_pts.shape)

    corners = np.stack([
        vals[tuple(slice(o, o + grid_per_axis) for o in offset)]
        for offset in itertools.product((0, 1), repeat=n)
    ])
    straddles = (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)
    cells = np.argwhere(straddles.all(axis=-1))
    centres = [0.5 * (ax[:-1] + ax[1:]) for ax in axes]
    seeds = np.column_stack([centres[i][cells[:, i]] for i in range(n)])
    outs = newton_lockstep(field, seeds, 1e-6 * scale, _NEWTON_TOL, 60)

    dedupe = 1e-6 * scale
    zeros: List[np.ndarray] = []
    signs: List[int] = []
    for out in outs:
        if out is None:
            continue
        z, _, J = out
        if not box.contains(z, tol=1e-9 * scale):
            continue
        if any(np.linalg.norm(z - zk) < dedupe for zk in zeros):
            continue
        det = float(np.linalg.det(J))
        # Newton stops once |F| <= _NEWTON_TOL, so at a zero of odd local degree
        # the iterate can stall at |z - z*| ~ _NEWTON_TOL^(1/3) where det J is
        # small but not yet at roundoff; the threshold must sit well above that.
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


#: Each degree method by name: its call on a box, the keyword of its
#: resolution, and the box dimension it needs (None: any).
DEGREE_METHODS = {
    "sign-1d": (lambda fn, box, **kw: degree_1d(fn, (box.lower[0], box.upper[0]), **kw), "n_check", 1),
    "winding-2d": (degree_2d_winding, "n_boundary", 2),
    "jacobian-nd": (degree_nd_jacobian, "grid_per_axis", None),
}


def auto_method(dim: int) -> str:
    """The first method in DEGREE_METHODS that takes dimension dim."""
    return next(name for name, (_, _, needs) in DEGREE_METHODS.items() if needs in (dim, None))


def degree_auto(fn, box: Box, **kwargs) -> DegreeReport:
    """Dispatch on dimension: 1 -> sign-1d, 2 -> winding-2d, else jacobian-nd."""
    run, _, _ = DEGREE_METHODS[auto_method(box.dim)]
    return run(fn, box, **kwargs)
