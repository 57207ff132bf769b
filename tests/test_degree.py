"""Brouwer degree computations: all three methods and their cross-checks."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from ddebranch import (
    Box,
    FieldHandle,
    degree_1d,
    degree_2d_winding,
    degree_auto,
    degree_nd_jacobian,
    nu_field,
    v_lambda_field,
)
from ddebranch.degree import DegreeReport, _boundary_samples, newton_lockstep
from ddebranch.errors import (
    AdmissibilityError,
    DegeneracyError,
    InvalidParameterError,
    ResolutionError,
    TranslationUndefinedError,
)
from ddebranch.problem import CoupledProblem, PeriodicFn1D

from conftest import SUITE_FIELDS, TWO_PI, box, damped_newton, fd_jacobian


class TestDegree1D:
    def test_sine_through_zero(self):
        report = degree_1d(math.sin, (-1.0, 1.0))
        assert report.degree == 1
        assert report.method == "sign-1d"

    def test_sine_no_sign_change(self):
        assert degree_1d(math.sin, (1.0, 2.0)).degree == 0

    def test_decreasing_line(self):
        assert degree_1d(lambda p: -p, (-1.0, 1.0)).degree == -1

    def test_vector_valued_input_accepted(self):
        fn = lambda z: np.array([z[0] - 0.25])
        assert degree_1d(fn, (-1.0, 1.0)).degree == 1

    def test_endpoint_zero_rejected(self):
        with pytest.raises(AdmissibilityError):
            degree_1d(lambda p: p - 1.0, (-1.0, 1.0))

    def test_invalid_interval(self):
        with pytest.raises(InvalidParameterError):
            degree_1d(math.sin, (1.0, -1.0))

    def test_zeros_located_with_slopes(self):
        report = degree_1d(lambda p: p - p ** 3, (-2.0, 2.0))
        assert report.degree == -1
        pts = sorted(z["point"][0] for z in report.zeros)
        assert np.allclose(pts, [-1.0, 0.0, 1.0], atol=1e-9)
        signs = {round(z["point"][0]): z["jacobian_sign"] for z in report.zeros}
        assert signs[0] == 1 and signs[1] == -1 and signs[-1] == -1


class TestDegree2DWinding:
    def test_identity(self):
        report = degree_2d_winding(lambda z: z, box([-1, -1], [1, 1]))
        assert report.degree == 1
        assert report.admissibility_margin > 0

    def test_averaged_coupling_field(self):
        fn = lambda z: np.array([z[1] / math.sqrt(3.0), z[0] - z[1]])
        assert degree_2d_winding(fn, box([-1, -1], [1, 1])).degree == -1

    def test_complex_squaring(self):
        fn = lambda z: np.array([z[0] ** 2 - z[1] ** 2, 2 * z[0] * z[1]])
        assert degree_2d_winding(fn, box([-1, -1], [1, 1])).degree == 2

    def test_boundary_zero_rejected(self):
        fn = lambda z: np.array([z[0] - 1.0, z[1]])
        with pytest.raises(AdmissibilityError):
            degree_2d_winding(fn, box([-1, -1], [1, 1]))

    def test_small_boundary_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            degree_2d_winding(lambda z: z, box([-1, -1], [1, 1]), n_boundary=64)

    def test_wrong_dimension(self):
        with pytest.raises(InvalidParameterError):
            degree_2d_winding(lambda z: z, box([-1], [1]))

    @staticmethod
    def _shifted_identity(z0, sizes):
        """z - z0, recording how many boundary points each call carries."""
        def eval(points):
            sizes.append(len(points))
            return points - z0
        return FieldHandle(dim=2, eval=eval)

    def test_zero_near_the_boundary_doubles_the_samples(self):
        # The zero sits 1e-3 inside the right side: the angle of z - z0
        # turns by nearly pi between two samples there until their spacing
        # is below 2e-3, which takes 4 096 points.
        sizes = []
        fn = self._shifted_identity(np.array([0.999, 0.3]), sizes)
        report = degree_2d_winding(fn, box([-1, -1], [1, 1]), n_boundary=256)
        assert report.degree == 1
        assert sizes == [256, 512, 1024, 2048, 4096]

    def test_refinement_stops_at_its_cap(self):
        sizes = []
        fn = self._shifted_identity(np.array([1.0 - 1e-7, 0.3]), sizes)
        with pytest.raises(ResolutionError):
            degree_2d_winding(fn, box([-1, -1], [1, 1]), n_boundary=256)
        assert sizes == [2 ** k for k in range(8, 21)]


class TestDegreeNdJacobian:
    def test_identity_3d(self):
        report = degree_nd_jacobian(lambda z: z, box([-1, -1, -1], [1, 1, 1]))
        assert report.degree == 1
        assert len(report.zeros) == 1
        assert np.max(np.abs(report.zeros[0]["point"])) < 1e-9

    def test_negated_identity_3d(self):
        assert degree_nd_jacobian(lambda z: -z, box([-1, -1, -1], [1, 1, 1])).degree == -1

    def test_nonlinear_3d(self):
        fn = lambda z: np.array([
            math.sin(z[0]) + 0.3 * z[1],
            z[1] - z[2] ** 3 + 0.2 * z[0],
            z[2] - 0.5 * math.tanh(z[0]) - 0.1,
        ])
        report = degree_nd_jacobian(fn, box([-1, -1, -1], [1, 1, 1]))
        assert report.degree == 1
        assert len(report.zeros) == 1
        (zero,) = report.zeros
        assert np.allclose(zero["point"], [-3.1763076e-4, 1.0587692e-3, 9.9841185e-2], atol=1e-9)
        assert np.max(np.abs(fn(np.array(zero["point"])))) <= 1e-10
        assert zero["jacobian_sign"] == 1

    def test_sine_coupled_matches_winding(self):
        fn = lambda z: np.array([math.sin(z[1]) / math.sqrt(3.0), z[0] - z[1]])
        b = box([-1, -1], [1, 1])
        assert degree_nd_jacobian(fn, b).degree == -1
        assert degree_2d_winding(fn, b).degree == -1

    def test_degenerate_zero_rejected(self):
        fn = lambda z: np.array([z[0] ** 3, z[1]])
        with pytest.raises(DegeneracyError):
            degree_nd_jacobian(fn, box([-1, -1], [1, 1]))

    def test_small_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            degree_nd_jacobian(lambda z: z, box([-1, -1], [1, 1]), grid_per_axis=4)


class TestDampedNewton:
    def test_no_retry_after_the_halvings(self):
        # On u -> u with the wrong-sign J = -I every damped step moves away
        # from the zero: the start and its 10 halved trials are requested,
        # then the solve gives up.  With J = I it lands on the zero and
        # returns the Jacobian formed there.
        start = np.array([1.0, -0.5])
        requests = []

        def residual(u):
            requests.append(u.copy())
            return u

        assert damped_newton(residual, lambda u, r: -np.eye(2), start, 1e-12, 5) is None
        assert len(requests) == 11

        formed = []

        def jacobian(u, r):
            formed.append((u.copy(), np.eye(2)))
            return formed[-1][1]

        out = damped_newton(lambda u: u, jacobian, start, 1e-12, 5)
        assert out is not None
        u, rnorm, J = out
        assert np.array_equal(u, [0.0, 0.0])
        assert rnorm == 0.0
        assert np.array_equal(formed[-1][0], u) and J is formed[-1][1]

    def test_jacobian_bit_equal_to_fd_jacobian_at_returned_point(self):
        field = lambda z: np.array([math.sin(z[1]) / math.sqrt(3.0), z[0] - z[1] + 0.1])
        rows = lambda points: np.array([field(p) for p in points])
        jacobian = lambda u, r: fd_jacobian(rows, u, r, 1e-6)
        out = damped_newton(field, jacobian, np.array([0.3, 0.2]), 1e-10, 60)
        assert out is not None
        u, _, J = out
        assert np.array_equal(J, fd_jacobian(rows, u, field(u), 1e-6))

    def test_singular_jacobian_fails(self):
        out = damped_newton(lambda u: u, lambda u, r: np.zeros((2, 2)), np.array([1.0, 1.0]),
                            1e-12, 5)
        assert out is None


def _counted(fn, calls):
    """fn, appending the number of rows of each call to calls."""
    def call(*blocks):
        calls.append(sum(len(b) for b in blocks))
        return fn(*blocks)
    return call


class TestLockstepLookAhead:
    """newton_lockstep's first answers and look-ahead block, on F(u) = u^3 - 2
    and the next system G(u) = u^3 - 3, componentwise in R^2 (blocks of 3
    rows)."""

    F = staticmethod(lambda rows: rows ** 3 - 2.0)
    G = staticmethod(lambda rows: rows ** 3 - 3.0)
    SEED = np.array([1.0, 1.5])

    @staticmethod
    def _solve(F, seed, first=None, ahead=None):
        return newton_lockstep(F, [seed], 1e-6, 1e-12, 25, first, ahead)[0]

    def test_look_ahead_answers_the_next_solve(self):
        F, G = self.F, self.G
        plain_calls, calls = [], []
        plain = self._solve(_counted(F, plain_calls), self.SEED)
        both = _counted(lambda rows, block: np.vstack([F(rows), G(block)]), calls)
        u, rnorm, J, nxt = self._solve(F, self.SEED, ahead=(lambda u: 1.1 * u, both))
        assert calls == [6] * len(plain_calls)
        assert [u.tobytes(), rnorm, J.tobytes()] == [plain[0].tobytes(), plain[1], plain[2].tobytes()]
        v, r_v, J_v = nxt
        assert np.array_equal(v, 1.1 * u)
        assert np.array_equal(r_v, G(v))
        assert np.array_equal(J_v, fd_jacobian(G, v, G(v), 1e-6))
        # The solve of G from v that starts from that answer skips one call.
        alone_calls, started_calls = [], []
        alone = self._solve(_counted(G, alone_calls), v)
        started = self._solve(_counted(G, started_calls), v, first=[(r_v, J_v)])
        assert len(started_calls) == len(alone_calls) - 1
        assert all(np.array_equal(a, b) for a, b in zip(started, alone))

    def test_undefined_look_ahead_block_is_dropped(self):
        # The first call with the look-ahead block raises: it is rerun
        # without the block, and the solve looks ahead no more.
        def both(rows, block):
            raise TranslationUndefinedError("the look-ahead block is undefined")

        plain_calls, calls = [], []
        plain = self._solve(_counted(self.F, plain_calls), self.SEED)
        out = self._solve(_counted(self.F, calls), self.SEED,
                          ahead=(lambda u: u + 10.0, _counted(both, calls)))
        assert calls == [6] + plain_calls
        assert out[3] is None
        assert all(np.array_equal(a, b) for a, b in zip(out[:3], plain))


class TestCrossMethod:
    def test_method_agreement_on_suite(self):
        for name, fn, b, expected in SUITE_FIELDS:
            winding = degree_2d_winding(fn, b).degree
            jacobian = degree_nd_jacobian(fn, b).degree
            assert winding == expected, name
            assert jacobian == expected, name

    def test_auto_dispatch(self):
        assert degree_auto(math.sin, box([-1], [1])).method == "sign-1d"
        assert degree_auto(lambda z: z, box([-1, -1], [1, 1])).method == "winding-2d"
        assert degree_auto(lambda z: z, box([-1, -1, -1], [1, 1, 1])).method == "jacobian-nd"

    def test_excision(self):
        fn = lambda z: np.array([z[1] / math.sqrt(3.0), z[0] - z[1]])
        whole = degree_2d_winding(fn, box([-1, -1], [1, 1])).degree
        left = degree_2d_winding(fn, box([-1, -1], [0.3, 1])).degree
        right = degree_2d_winding(fn, box([0.3, -1], [1, 1])).degree
        assert whole == left + right

    def test_product_sign_law(self):
        # For nu(p, q) = (c*w(q), p - q) with scalar w:
        #   deg(nu, box) = -sign(c) * deg(w, interval).
        w_deg = degree_1d(math.sin, (-1.0, 1.0)).degree
        for c in (1.0 / math.sqrt(3.0), -0.7):
            fn = lambda z, c=c: np.array([c * math.sin(z[1]), z[0] - z[1]])
            got = degree_2d_winding(fn, box([-1, -1], [1, 1])).degree
            assert got == -int(np.sign(c)) * w_deg


class TestVLambdaInvariance:
    def _problem(self):
        return CoupledProblem(
            dim_x=1, dim_y=1,
            f=lambda t, x, y, xd, yd: np.array([y[0]]),
            g=lambda x, y: np.array([x[0] - y[0]]),
            a=PeriodicFn1D.constant(-1.0, TWO_PI),
            period=TWO_PI, delay=1.0,
        )

    def test_scaling_invariance(self):
        prob = dataclasses.replace(self._problem(), n_quad=16)
        b = box([-1, -1], [1, 1])
        degs = [
            degree_2d_winding(v_lambda_field(prob, lam).negated(), b).degree
            for lam in (0.1, 1.0, 10.0)
        ]
        assert degs[0] == degs[1] == degs[2]

    def test_sign_relation_to_nu(self):
        prob = dataclasses.replace(self._problem(), n_quad=16)
        b = box([-1, -1], [1, 1])
        deg_v1 = degree_2d_winding(v_lambda_field(prob, 1.0).negated(), b).degree
        deg_nu = degree_2d_winding(nu_field(prob).negated(), b).degree
        # deg(-v_1) = sign(<a>)^k * deg(-nu) with k = 1 and <a> = -1 here.
        assert deg_v1 == int(np.sign(prob.abar)) ** prob.dim_x * deg_nu


class TestReportSerialization:
    def test_json_round_trip(self):
        report = degree_1d(lambda p: p - p ** 3, (-2.0, 2.0))
        payload = json.loads(report.to_json())
        assert payload["degree"] == -1
        assert payload["method"] == "sign-1d"
        assert payload["admissibility_margin"] > 0
        assert len(payload["zeros"]) == 3

    def test_winding_report_has_no_zeros(self):
        report = degree_2d_winding(lambda z: z, box([-1, -1], [1, 1]))
        payload = json.loads(report.to_json())
        assert "zeros" not in payload


def _zero_signs(report):
    return sorted((round(z["point"][0], 6), z["jacobian_sign"]) for z in report.zeros or [])


def _spiral_3d(Z):
    x, y, z = Z[:, 0], Z[:, 1], Z[:, 2]
    return np.column_stack([np.sin(x) + 0.3 * y, y - z ** 3 + 0.2 * x, z - 0.5 * np.tanh(x) - 0.1])


class TestFieldHandleBatch:
    """A FieldHandle is sampled a whole array at a time; the degree and the
    zeros' signs must match the same field called point by point."""

    def _cubic_nu(self):
        prob = CoupledProblem(
            dim_x=0, dim_y=1, g=lambda x, y: y - y ** 3,
            a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0,
        )
        return nu_field(dataclasses.replace(prob, n_quad=16))

    def _sunflower_nu(self, sunflower):
        return nu_field(dataclasses.replace(sunflower.coupled, n_quad=64)).negated()

    def _assert_same(self, method, handle, *args):
        batched = method(handle, *args)
        pointwise = method(lambda z: handle(z), *args)
        assert batched.degree == pointwise.degree
        assert _zero_signs(batched) == _zero_signs(pointwise)
        return batched

    def test_sign_1d(self):
        report = self._assert_same(degree_1d, self._cubic_nu(), (-2.0, 2.0))
        assert report.degree == -1 and len(report.zeros) == 3

    def test_winding_2d(self, sunflower):
        nu = self._sunflower_nu(sunflower)
        report = self._assert_same(degree_2d_winding, nu, box([-1, -1], [1, 1]))
        assert report.degree == -1

    def test_jacobian_nd(self, sunflower):
        nu = self._sunflower_nu(sunflower)
        report = self._assert_same(degree_nd_jacobian, nu, box([-1, -1], [1, 1]), 8)
        assert report.degree == -1 and len(report.zeros) == 1
        spiral = FieldHandle(dim=3, eval=_spiral_3d)
        report = self._assert_same(degree_nd_jacobian, spiral, box([-1, -1, -1], [1, 1, 1]))
        assert report.degree == 1

    def test_one_call_per_sample_set(self):
        calls = []

        def ev(Z):
            calls.append(len(Z))
            return Z - Z ** 3

        degree_1d(FieldHandle(dim=1, eval=ev), (-2.0, 2.0), n_check=64)
        assert calls[0] == 65
        # Then the 3 brackets are bisected together and their slopes taken.
        assert calls[1:] == [3] * 80 + [6]
        calls.clear()
        # No sign change: the scan is the only call.
        degree_1d(FieldHandle(dim=1, eval=lambda Z: ev(Z) + 10.0), (-2.0, 2.0), n_check=64)
        assert calls == [65]
        calls.clear()
        degree_2d_winding(FieldHandle(dim=2, eval=lambda Z: ev(Z) + [0.1, 0.2]), box([-1, -1], [1, 1]))
        assert calls == [1024]

    def test_per_point_eval_rejected(self):
        field = FieldHandle(dim=2, eval=lambda z: np.array([z[1], z[0] - z[1]]))
        with pytest.raises(InvalidParameterError):
            degree_2d_winding(field, box([-1, -1], [1, 1]))
        with pytest.raises(InvalidParameterError):
            degree_nd_jacobian(field, box([-1, -1], [1, 1]))


def _degree_1d_bracket_by_bracket(fn, interval, n_check=256):
    """Reference for degree_1d: every point its own call, each sign-change
    bracket bisected on its own."""

    def f(x):
        try:
            v = fn(x)
        except (TypeError, IndexError):
            v = fn(np.array([x]))
        return float(np.atleast_1d(np.asarray(v, dtype=float))[0])

    a, b = float(interval[0]), float(interval[1])
    xs = np.linspace(a, b, n_check + 1)
    vals = np.array([f(x) for x in xs])
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
    degree = (int(np.sign(vals[-1])) - int(np.sign(vals[0]))) // 2
    margin = min(abs(vals[0]), abs(vals[-1]))
    return DegreeReport(degree=degree, admissibility_margin=margin, method="sign-1d", zeros=zeros)


def _degree_nd_cell_by_cell(fn, b, grid_per_axis=16, tol=1e-10):
    """Reference for degree_nd_jacobian on fields with hyperbolic zeros:
    every point its own call, each candidate cell refined on its own by
    damped_newton."""
    n, scale = b.dim, b.scale
    value = lambda z: np.atleast_1d(np.asarray(fn(z), dtype=float))
    rows = lambda points: np.array([value(p) for p in points])
    jacobian = lambda z, f0: fd_jacobian(rows, z, f0, 1e-6 * scale)
    margin = float(min(np.linalg.norm(v) for v in rows(_boundary_samples(b, grid_per_axis + 1))))
    axes = [np.linspace(b.lower[i], b.upper[i], grid_per_axis + 1) for i in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = rows(grid.reshape(-1, n)).reshape(grid.shape)
    zeros = []
    for cell in np.ndindex(*([grid_per_axis] * n)):
        corners = np.array([vals[tuple(c + o for c, o in zip(cell, offset))]
                            for offset in itertools.product((0, 1), repeat=n)])
        if not all(corners[:, j].min() <= 0.0 <= corners[:, j].max() for j in range(n)):
            continue
        z0 = np.array([0.5 * (axes[i][cell[i]] + axes[i][cell[i] + 1]) for i in range(n)])
        out = damped_newton(value, jacobian, z0, tol, 60)
        if out is None or not b.contains(out[0], tol=1e-9 * scale):
            continue
        z, _, J = out
        if any(np.linalg.norm(z - np.array(k["point"])) < 1e-6 * scale for k in zeros):
            continue
        zeros.append({"point": z.tolist(), "jacobian_sign": int(np.sign(np.linalg.det(J)))})
    return DegreeReport(degree=sum(k["jacobian_sign"] for k in zeros), admissibility_margin=margin,
                        method="jacobian-nd", zeros=zeros)


def _counting(handle):
    """handle with a log of the number of points of each eval call."""
    calls = []

    def ev(Z):
        calls.append(len(Z))
        return handle.eval(Z)

    return FieldHandle(dim=handle.dim, eval=ev), calls


def _cubic_nu():
    return nu_field(CoupledProblem(
        dim_x=0, dim_y=1, g=lambda x, y: y - y ** 3,
        a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0,
    ))


def _sunflower_neg_nu(sunflower):
    return nu_field(dataclasses.replace(sunflower.coupled, n_quad=64)).negated()


_SPIRAL = FieldHandle(dim=3, eval=_spiral_3d)
_CUBE = box([-1, -1, -1], [1, 1, 1])
_SQUARE = box([-1, -1], [1, 1])


class TestBatchedRefinement:
    """degree_1d bisects all its brackets together and degree_nd_jacobian
    refines all its candidate cells in lockstep: the reports are the bits
    of the point-by-point references above, from a few calls."""

    @pytest.mark.parametrize("name, interval", [
        ("cubic-nu", (-2.0, 2.0)),
        ("sin", (-1.0, 1.0)),
        ("sin", (-2.0, 7.0)),
    ])
    def test_sign_1d_matches_bracket_by_bracket(self, name, interval):
        fn = _cubic_nu() if name == "cubic-nu" else math.sin
        report = degree_1d(fn, interval)
        assert report.zeros
        assert report.to_json() == _degree_1d_bracket_by_bracket(fn, interval).to_json()

    @pytest.mark.parametrize("name", ["sunflower-nu", "spiral-handle", "spiral-callable", "identity"])
    def test_jacobian_nd_matches_cell_by_cell(self, sunflower, name):
        fn, b = {
            "sunflower-nu": (_sunflower_neg_nu(sunflower), _SQUARE),
            "spiral-handle": (_SPIRAL, _CUBE),
            "spiral-callable": (lambda z: _spiral_3d(np.atleast_2d(z))[0], _CUBE),
            "identity": (lambda z: z, _CUBE),
        }[name]
        report = degree_nd_jacobian(fn, b)
        assert report.zeros
        assert report.to_json() == _degree_nd_cell_by_cell(fn, b).to_json()

    def test_call_counts(self, sunflower):
        field, calls = _counting(_cubic_nu())
        assert degree_1d(field, (-2.0, 2.0)).degree == -1
        assert len(calls) <= 82
        field, calls = _counting(_sunflower_neg_nu(sunflower))
        assert degree_nd_jacobian(field, _SQUARE, 16).degree == -1
        assert len(calls) <= 5
        field, calls = _counting(_SPIRAL)
        assert degree_nd_jacobian(field, _CUBE).degree == 1
        assert len(calls) <= 6
