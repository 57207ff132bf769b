"""Brouwer degree of a vector field on a box: degree_auto, one method in
every dimension.

The degree is Stenger's boundary formula (Stenger, Numer. Math. 25, 1975).
Each face of the box is split into a grid of cells, each cell into Kuhn
simplices, and each (n-1)-simplex is oriented by the outward normal; then

    deg = sum over the simplices of det[sgn F(v_1); ...; sgn F(v_n)] / (2^n n!),

once every simplex has a component of F of one sign, nonzero, at all its n
vertices (the refinement test follows Kearfott, Numer. Math. 32, 1979; the
grid is doubled until it holds).  In the sum a component that is exactly 0
counts as +1: that is the sign of F + eps (1, ..., 1) for eps > 0 below
every nonzero sampled |F_i| and the admissibility margin, a field of the
same degree.  A 0 never witnesses the
refinement test: F_1 = (x - a)(x - b) is 0 at two adjacent vertices a and b
and negative between them, where F_1 + eps changes sign twice.  In 1-d the
formula is the endpoint rule (sgn F(b) - sgn F(a)) / 2, and in 2-d it
counts what the winding number counts.

Zeros come from one search in every dimension: the box's grid in one
call, every cell whose corners straddle 0 in every component refined by
newton_lockstep, each zero given the sign of det J (0 where it is too small
to carry one).  They only populate the report: the degree is the boundary
formula's, so a cluster of zeros in one cell or a non-hyperbolic zero
cannot change it.

degree_auto turns its field into a FieldHandle once, at entry (_as_handle:
any other callable is called once per point), and then evaluates it only on
(N, n) point sets: one call for the box's grid, whose faces are also the
first boundary pass, one per further boundary pass and one per Newton
round.

The damped Newton (newton_steps) asks at each point it visits for the
residual and its Jacobian, so every iterate steps with the Jacobian at
itself.  newton_lockstep answers any number of solves with one batched call
per round and forms each Jacobian itself, as the forward-difference quotient
of that call's rows, the block a solve carries for the next one (its
look-ahead) included: it is the package's one Newton driver and its one
Jacobian site, and it refines the degree's zeros and the translation
operator's fixed points (poincare, continuation).

Admissibility (no zeros on the boundary) is certified on samples only; the
minimum sampled boundary norm is reported as admissibility_margin so callers
can judge the certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (
    AdmissibilityError,
    InvalidParameterError,
    ResolutionError,
    TranslationUndefinedError,
)
from .fields import FieldHandle
from .problem import Box, _per_row

MIN_CELLS = 4
_MARGIN_MIN = 1e-10
_MAX_BOUNDARY_SAMPLES = 2 ** 20
_NEWTON_TRIALS = 10  # step lengths a cold Newton iterate tries: 1, 1/2, ..., 2^-9
_NEWTON_TOL = 1e-10  # sup-norm residual of a refined zero


@dataclass(frozen=True)
class DegreeReport:
    """Result of degree_auto: the degree, the least sampled |F| on the
    boundary, and the zeros of the search, each {"point", "jacobian_sign"}."""

    degree: int
    admissibility_margin: float
    zeros: List[dict]

    def to_dict(self) -> dict:
        return {
            "degree": int(self.degree),
            "admissibility_margin": float(self.admissibility_margin),
            "zeros": [
                {
                    "point": [float(v) for v in z["point"]],
                    "jacobian_sign": int(z["jacobian_sign"]),
                }
                for z in self.zeros
            ],
        }


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


def _lattice(k: int, size: int) -> np.ndarray:
    """Every point of {0, ..., size - 1}^k, one row each, in C order."""
    return np.indices((size,) * k).reshape(k, -1).T if k else np.zeros((1, 0), dtype=int)


def _boundary_complex(n: int, cells: int):
    """The boundary of the unit n-cube's grid of cells^n cells, Kuhn-split,
    as (vertices, simplices, orientation).

    vertices holds each face's (cells + 1)^(n-1) grid points as integer
    coordinates, face by face (axis 0 at 0, axis 0 at cells, axis 1 at
    0, ...), so a point on an edge of the cube is listed once per face.
    Each row of simplices is the n vertex rows of one (n-1)-simplex: a face
    cell's lowest corner, then one unit step along each other axis in the
    order of a permutation, (n-1)! simplices per cell.  orientation is +1
    where the outward normal followed by the simplex's steps is a positive
    basis of R^n, else -1: the normal's sign, times (-1)^axis (the normal's
    axis moved in front of the others), times the permutation's sign."""
    m = n - 1
    corners = _lattice(m, cells)
    perms = np.array(list(itertools.permutations(range(m))), dtype=int).reshape(math.factorial(m), m)
    steps = np.eye(m, dtype=int)[perms]  # (P, m, m): the steps of each permutation, in order
    walks = np.concatenate([np.zeros((len(perms), 1, m), dtype=int), np.cumsum(steps, axis=1)], axis=1)
    local = ((corners[:, None, None, :] + walks) @ ((cells + 1) ** np.arange(m - 1, -1, -1))).reshape(-1, n)
    turns = np.tile(np.linalg.det(steps), len(corners))  # the sign of each simplex's permutation
    face = _lattice(m, cells + 1)
    vertices = np.empty((2 * n, len(face), n), dtype=int)
    for axis in range(n):
        vertices[2 * axis:2 * axis + 2, :, axis] = [[0], [cells]]
        vertices[2 * axis:2 * axis + 2, :, np.arange(n) != axis] = face
    simplices = local + len(face) * np.arange(2 * n)[:, None, None]
    orientation = np.array([(-1.0) ** (axis + 1 - side) for axis in range(n) for side in (0, 1)])
    return vertices.reshape(-1, n), simplices.reshape(-1, n), np.outer(orientation, turns).ravel()


def degree_auto(fn, box: Box, cells: int = 16) -> DegreeReport:
    """Degree of fn on box by Stenger's boundary formula, with its zeros.

    One call evaluates the (cells + 1)^n grid of the box.  Its faces are
    the first boundary pass, with `cells` cells per face axis; a pass fails
    with AdmissibilityError where the least |F| on it is below 1e-10, and
    the next pass, one call on the faces alone, doubles the cells until
    every boundary simplex has a component of one sign, nonzero, at all its
    vertices, or fails with ResolutionError once it would take more than
    2^20 samples.  The refinement ends for an admissible F: near a vertex
    some component is nonzero and keeps its sign.

    The zero search refines every cell of the grid whose 2^n corner values
    take both signs, or touch 0, in every component: newton_lockstep from
    all their centres together, one call per round.  In cell order, a zero
    outside the box or within 1e-6 * scale of a kept one is dropped; a kept
    zero's jacobian_sign is the sign of det J at it, or 0 where
    |det J| < 1e-5 * scale.  cells is at least MIN_CELLS, and the grid's
    (cells + 1)^n points are at most 2^20 (cells <= 100 in 3-d).
    """
    n, scale = box.dim, box.scale
    if cells < MIN_CELLS:
        raise InvalidParameterError(f"cells must be >= {MIN_CELLS}, got {cells}")
    if (cells + 1) ** n > _MAX_BOUNDARY_SAMPLES:
        raise InvalidParameterError(
            f"cells = {cells} asks for {(cells + 1) ** n} grid points in {n}-d, "
            f"more than {_MAX_BOUNDARY_SAMPLES}"
        )
    field = _as_handle(fn, n)

    def axes(size):
        return [np.linspace(box.lower[i], box.upper[i], size + 1) for i in range(n)]

    def points(grid, index):
        return np.column_stack([grid[i][index[:, i]] for i in range(n)])

    grid = axes(cells)
    values = field(points(grid, _lattice(n, cells + 1))).reshape((cells + 1,) * n + (n,))
    size = cells
    while True:
        vertices, simplices, orientation = _boundary_complex(n, size)
        on = values[tuple(vertices.T)] if size == cells else field(points(axes(size), vertices))
        margin = float(np.linalg.norm(on, axis=1).min())
        if not margin >= _MARGIN_MIN:  # also a nan, which no refinement resolves
            raise AdmissibilityError(
                f"field norm {margin:.2e} on the boundary sample grid is below {_MARGIN_MIN:.0e}"
            )
        strict = np.sign(on)[simplices]  # (K, n, n): one sign vector per vertex, 0 at a 0
        if ((strict == strict[:, :1]).all(axis=1) & (strict[:, 0] != 0.0)).any(axis=1).all():
            break
        if 2 * n * (2 * size + 1) ** (n - 1) > _MAX_BOUNDARY_SAMPLES:
            raise ResolutionError(
                f"a boundary simplex still has no component of one sign at {size} cells per face axis"
            )
        size *= 2
    signs = np.where(strict == 0.0, 1.0, strict)
    degree = int(round(float(orientation @ np.linalg.det(signs)) / (2 ** n * math.factorial(n))))

    corners = np.stack([
        values[tuple(slice(o, o + cells) for o in offset)]
        for offset in itertools.product((0, 1), repeat=n)
    ])
    straddles = (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)
    candidates = np.argwhere(straddles.all(axis=-1))
    centres = [0.5 * (ax[:-1] + ax[1:]) for ax in grid]
    seeds = np.column_stack([centres[i][candidates[:, i]] for i in range(n)])

    zeros: List[dict] = []
    for out in newton_lockstep(field, seeds, 1e-6 * scale, _NEWTON_TOL, 60):
        if out is None:
            continue
        z, _, J = out
        if not box.contains(z, tol=1e-9 * scale) or any(math.dist(z, k["point"]) < 1e-6 * scale for k in zeros):
            continue
        det = float(np.linalg.det(J))
        # Newton stops once |F| <= _NEWTON_TOL, so at a zero of odd local degree
        # the iterate can stall at |z - z*| ~ _NEWTON_TOL^(1/3) where det J is
        # small but not yet at roundoff; the cutoff sits well above that.
        sign = int(np.sign(det)) if abs(det) >= 1e-5 * scale else 0
        zeros.append({"point": z.tolist(), "jacobian_sign": sign})
    return DegreeReport(degree=degree, admissibility_margin=margin, zeros=zeros)


def newton_steps(u0: np.ndarray, tol: float, max_iter: int, trials: int = _NEWTON_TRIALS):
    """Damped Newton on a residual R(u) = 0 from u0, as a generator that
    asks for the values it needs; residual norms are sup norms.

    Every request is a point u, to be sent the pair (R(u), J(u)) with J the
    Jacobian of R at u; a point where either is undefined gets
    TranslationUndefinedError thrown in instead.  Each iterate tries the
    full step solve(J, -R) at its own Jacobian, then its halves, `trials`
    step lengths in all (1, 1/2, ..., 2^(1 - trials)), until the residual
    decreases; the first trial that decreases it becomes the next iterate,
    together with the pair it was sent.  A trial point whose pair is
    undefined counts as not decreasing the residual.  No decreasing trial,
    an undefined starting point or a singular Jacobian is a failure.

    A cold solve, from a seed that may lie far from any zero, keeps the
    default 10 trials.  A continuation corrector starts from a predictor
    close to its zero and passes trials=1: full steps only, so a step that
    does not lower the residual fails the solve at once, and the tracer's
    own globalization, a smaller continuation step, takes over.

    The generator returns (u, residual_norm, J) once residual_norm <= tol,
    with J the Jacobian at u, or None.  Since it only asks for values, one
    driver advances any number of solves at once: newton_lockstep, the
    package's only driver.
    """

    def size(r):
        return float(np.abs(r).max())

    u = u0.copy()
    try:
        res, J = yield u
        rnorm = size(res)
        for _ in range(max_iter):
            if rnorm <= tol:
                break
            step = np.linalg.solve(J, -res)
            alpha = 1.0
            for _ in range(trials):
                trial = u + alpha * step
                try:
                    res_new, J_new = yield trial
                    trial_norm = size(res_new)
                    if trial_norm < rnorm:
                        break
                except TranslationUndefinedError:
                    pass
                alpha *= 0.5
            else:
                return None
            u, res, J, rnorm = trial, res_new, J_new, trial_norm
    except (TranslationUndefinedError, np.linalg.LinAlgError):
        return None
    return (u, rnorm, J) if rnorm <= tol else None


def newton_lockstep(F, seeds, fd_step: float, tol: float, max_iter: int, first=None, ahead=None,
                    trials: int = _NEWTON_TRIALS):
    """newton_steps on F(u) = 0 from each seed in seeds, all advanced in
    lockstep, each with `trials` step lengths per iterate; returns one
    (u, residual_norm, J) or None per seed.

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
        """The rows u, u + fd_step * e_1, ... of u, or of each point of a stack."""
        rows = np.repeat(u[..., None, :], u.shape[-1] + 1, axis=-2)
        rows[..., 1:, :] += fd_step * np.eye(u.shape[-1])
        return rows

    def quotient(rows):
        """(F(u), J(u)) from the values of a block, or of each of a stack."""
        return rows[..., 0, :], np.swapaxes((rows[..., 1:, :] - rows[..., :1, :]) / fd_step, -1, -2)

    def sweep(call, *rows):
        try:
            return call(*rows)
        except TranslationUndefinedError as exc:
            return exc

    solves = [newton_steps(u0, tol, max_iter, trials) for u0 in seeds]
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
        blocks = block(np.array(list(requests.values())))
        rows = blocks.reshape(-1, blocks.shape[-1])
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
            pairs = zip(*quotient(merged.reshape(blocks.shape)))
        else:
            outs = [merged] if len(blocks) == 1 else [sweep(F, b) for b in blocks]
            pairs = [out if isinstance(out, TranslationUndefinedError) else quotient(out) for out in outs]
        for i, pair in zip(list(requests), pairs):
            answer(i, pair)
    return results
