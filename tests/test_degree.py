"""Brouwer degree: Stenger's boundary formula (degree_auto) in every
dimension, its zero search, and the package's Newton driver."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from ddebranch import FieldHandle, degree, degree_auto, nu_field
from ddebranch.degree import MIN_CELLS, newton_lockstep
from ddebranch.errors import (
    AdmissibilityError,
    InvalidParameterError,
    ResolutionError,
    TranslationUndefinedError,
)
from ddebranch.problem import CoupledProblem, PeriodicFn1D

from conftest import SUITE_FIELDS, TWO_PI, box, damped_newton, fd_jacobian, v_lambda_field

_CUBE = box([-1, -1, -1], [1, 1, 1])
_SQUARE = box([-1, -1], [1, 1])


def _counting(handle):
    """handle with a log of the number of points of each eval call."""
    calls = []

    def ev(Z):
        calls.append(len(Z))
        return handle.eval(Z)

    return FieldHandle(dim=handle.dim, eval=ev), calls


def _turning(k):
    """(Re z^k, Im z^k) of z = x + iy: degree k on a box around 0, its sign
    vectors turning k times around the boundary."""
    def ev(Z):
        w = (Z[:, 0] + 1j * Z[:, 1]) ** k
        return np.column_stack([w.real, w.imag])
    return FieldHandle(dim=2, eval=ev)


def _cluster(n):
    """((x - 0.06)^3 - 1e-4 (x - 0.06), y - 0.06, ...) in n dimensions: zeros
    at x = 0.05, 0.06 and 0.07, of local degrees +1, -1 and +1, all in one
    cell of the default grid."""
    def fn(z):
        s = z[0] - 0.06
        return np.array([s ** 3 - 1e-4 * s, *(z[1:] - 0.06)])
    return fn


class TestOneDimension:
    def test_sine_through_zero(self):
        assert degree_auto(math.sin, box([-1.0], [1.0])).degree == 1

    def test_sine_no_sign_change(self):
        assert degree_auto(math.sin, box([1.0], [2.0])).degree == 0

    def test_decreasing_line(self):
        assert degree_auto(lambda p: -p, box([-1.0], [1.0])).degree == -1

    def test_vector_valued_input_accepted(self):
        fn = lambda z: np.array([z[0] - 0.25])
        assert degree_auto(fn, box([-1.0], [1.0])).degree == 1

    def test_endpoint_zero_rejected(self):
        with pytest.raises(AdmissibilityError):
            degree_auto(lambda p: p - 1.0, box([-1.0], [1.0]))

    def test_invalid_interval(self):
        with pytest.raises(InvalidParameterError):
            degree_auto(math.sin, box([1.0], [-1.0]))

    def test_zeros_located_with_slopes(self):
        report = degree_auto(lambda p: p - p ** 3, box([-2.0], [2.0]))
        assert report.degree == -1
        pts = sorted(z["point"][0] for z in report.zeros)
        assert np.allclose(pts, [-1.0, 0.0, 1.0], atol=1e-9)
        signs = {round(z["point"][0]): z["jacobian_sign"] for z in report.zeros}
        assert signs[0] == 1 and signs[1] == -1 and signs[-1] == -1

    @pytest.mark.parametrize("fn, a, b", [
        (math.sin, -1.0, 1.0),
        (math.sin, 1.0, 2.0),
        (math.sin, -2.0, 7.0),
        (math.cos, 0.0, 4.0),
        (lambda p: p - p ** 3, -2.0, 2.0),
        (lambda p: p - p ** 3, -0.5, 2.0),
        (lambda p: p * p - 0.25, -1.0, 1.0),
    ])
    def test_formula_is_the_endpoint_rule(self, fn, a, b):
        expected = (int(np.sign(fn(b))) - int(np.sign(fn(a)))) // 2
        for cells in (MIN_CELLS, 16, 64):
            assert degree_auto(fn, box([a], [b]), cells=cells).degree == expected


class TestPlanar:
    def test_identity(self):
        report = degree_auto(lambda z: z, _SQUARE)
        assert report.degree == 1
        assert report.admissibility_margin > 0

    def test_averaged_coupling_field(self):
        fn = lambda z: np.array([z[1] / math.sqrt(3.0), z[0] - z[1]])
        assert degree_auto(fn, _SQUARE).degree == -1

    def test_complex_squaring(self):
        fn = lambda z: np.array([z[0] ** 2 - z[1] ** 2, 2 * z[0] * z[1]])
        assert degree_auto(fn, _SQUARE).degree == 2

    def test_boundary_zero_rejected(self):
        fn = lambda z: np.array([z[0] - 1.0, z[1]])
        with pytest.raises(AdmissibilityError):
            degree_auto(fn, _SQUARE)

    def test_nan_on_the_boundary_rejected_at_once(self):
        # No refinement can give a nan a sign: the first pass rejects it.
        field, calls = _counting(FieldHandle(dim=2, eval=lambda Z: np.where(Z[:, :1] == -1.0, np.nan, Z)))
        with pytest.raises(AdmissibilityError, match="field norm nan"):
            degree_auto(field, _SQUARE)
        assert calls == [17 * 17]

    def test_cells_below_the_floor_rejected(self):
        with pytest.raises(InvalidParameterError, match=f"cells must be >= {MIN_CELLS}, got {MIN_CELLS - 1}"):
            degree_auto(lambda z: z, _SQUARE, cells=MIN_CELLS - 1)
        assert degree_auto(lambda z: z, _SQUARE, cells=MIN_CELLS).degree == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_dimension(self, n):
        # The identity and a reflection of one axis, in R^1 to R^4.
        b = box([-1.0] * n, [1.0] * n)
        flip = np.ones(n)
        flip[-1] = -1.0
        assert degree_auto(lambda z: z, b, cells=MIN_CELLS).degree == 1
        assert degree_auto(lambda z: flip * z, b, cells=MIN_CELLS).degree == -1

    def test_zero_near_the_boundary_needs_no_refinement(self):
        # The zero sits 1e-3 inside the right side.  The angle of z - z0
        # turns by nearly pi between two samples there, but each boundary
        # simplex keeps one component's sign, so the first pass (the grid's
        # own call) decides; Newton refines the one straddling cell.
        z0 = np.array([0.999, 0.3])
        field, calls = _counting(FieldHandle(dim=2, eval=lambda Z: Z - z0))
        report = degree_auto(field, _SQUARE)
        assert report.degree == 1
        assert calls == [17 * 17, 3, 3]
        (zero,) = report.zeros
        assert np.allclose(zero["point"], z0, atol=1e-12)


class TestHigherDimensions:
    def test_identity_3d(self):
        report = degree_auto(lambda z: z, _CUBE)
        assert report.degree == 1
        assert len(report.zeros) == 1
        assert np.max(np.abs(report.zeros[0]["point"])) < 1e-9

    def test_negated_identity_3d(self):
        assert degree_auto(lambda z: -z, _CUBE).degree == -1

    def test_nonlinear_3d(self):
        fn = lambda z: np.array([
            math.sin(z[0]) + 0.3 * z[1],
            z[1] - z[2] ** 3 + 0.2 * z[0],
            z[2] - 0.5 * math.tanh(z[0]) - 0.1,
        ])
        report = degree_auto(fn, _CUBE)
        assert report.degree == 1
        assert len(report.zeros) == 1
        (zero,) = report.zeros
        assert np.allclose(zero["point"], [-3.1763076e-4, 1.0587692e-3, 9.9841185e-2], atol=1e-9)
        assert np.max(np.abs(fn(np.array(zero["point"])))) <= 1e-10
        assert zero["jacobian_sign"] == 1

    def test_sine_coupled(self):
        fn = lambda z: np.array([math.sin(z[1]) / math.sqrt(3.0), z[0] - z[1]])
        assert degree_auto(fn, _SQUARE).degree == -1

    def test_non_hyperbolic_zero_keeps_the_boundary_degree(self):
        # (x^3, y) has one zero, where det J = 0: the boundary gives +1, and
        # the zero search reports its points with jacobian_sign 0.
        fn = lambda z: np.array([z[0] ** 3, z[1]])
        report = degree_auto(fn, _SQUARE)
        assert report.degree == 1
        assert report.zeros
        assert all(z["jacobian_sign"] == 0 for z in report.zeros)
        assert all(np.max(np.abs(z["point"])) < 1e-3 for z in report.zeros)

    def test_small_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            degree_auto(lambda z: z, _CUBE, cells=2)

    def test_grid_above_2_20_points_rejected_before_any_call(self):
        # 1025^3 = 1.1e9 grid points; 101^3 is the largest 3-d grid.
        field, calls = _counting(FieldHandle(dim=3, eval=lambda Z: Z))
        with pytest.raises(InvalidParameterError, match="cells = 1024 asks for 1076890625 grid points"):
            degree_auto(field, _CUBE, cells=1024)
        with pytest.raises(InvalidParameterError):
            degree_auto(field, _CUBE, cells=101)
        assert calls == []


class TestBoundaryFormula:
    """The cases a sum of signs over sampled zeros gets wrong, and the
    formula's own edge cases: exact zeros on grid vertices, refinement, the
    sample cap, and its calls."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_cluster_of_zeros_in_one_cell(self, n):
        # Three zeros of local degrees +1, -1, +1 share a grid cell: the
        # search refines one of them, the boundary counts all three.
        b = box([-1.0] * n, [1.0] * n)
        for cells in (MIN_CELLS, 16):
            assert degree_auto(_cluster(n), b, cells=cells).degree == 1

    def test_exactly_zero_component_counts_as_plus_one(self):
        # The first component is exactly 0 all along the top and bottom
        # faces, and the identity's components are 0 at grid vertices: read
        # as +1 they give the degree of F + eps (1, ..., 1), F's own.
        fn = lambda z: np.array([z[0] * (1.0 - z[1] ** 2), z[1]])
        assert fn(np.array([0.3, 1.0]))[0] == 0.0
        for cells in (MIN_CELLS, 16, 64):
            assert degree_auto(fn, _SQUARE, cells=cells).degree == 1
            assert degree_auto(lambda z: z, _SQUARE, cells=cells).degree == 1

    def test_exact_zero_is_no_witness_of_one_sign(self):
        # F_1 = x (x - 0.125) + (y + 1) is exactly 0 at the adjacent bottom
        # vertices x = 0 and x = 0.125 and negative between them, and F_2
        # changes sign there: no component keeps one sign on that edge, so
        # the boundary is refined once.  The one zero, near (0.0625, -0.996),
        # has det J = -1.
        fn = FieldHandle(dim=2, eval=lambda Z: np.column_stack(
            [Z[:, 0] * (Z[:, 0] - 0.125) + (Z[:, 1] + 1.0), Z[:, 0] - 0.0625]))
        field, calls = _counting(fn)
        report = degree_auto(field, _SQUARE)
        assert report.degree == -1
        assert calls[:2] == [17 * 17, 4 * 33]
        assert [z["jacobian_sign"] for z in report.zeros] == [-1]

    def test_sunflower_g_vanishes_at_box_corners(self, sunflower):
        # g = x1 - y1 is exactly 0 at the corners (1, 1) and (-1, -1).
        nu = nu_field(dataclasses.replace(sunflower.coupled, n_quad=64)).negated()
        corners = nu(np.array([[1.0, 1.0], [-1.0, -1.0]]))
        assert np.all(corners[:, 1] == 0.0) and np.all(corners[:, 0] != 0.0)
        for cells in (8, 16):
            assert degree_auto(nu, _SQUARE, cells=cells).degree == -1

    def test_refinement_doubles_the_boundary_cells(self):
        # z^20's sign vectors turn too fast for 16 cells per side; 32 resolve
        # them.  Calls: the grid (also the first boundary pass), the second
        # pass, then one per Newton round.
        field, calls = _counting(_turning(20))
        assert degree_auto(field, _SQUARE).degree == 20
        assert calls[:2] == [17 * 17, 4 * 33]
        assert all(c % 3 == 0 for c in calls[2:])

    def test_refinement_stops_at_its_cap(self):
        # The sign vectors turn faster than any grid under 2^20 samples.
        def ev(Z):
            angle = 10 ** 6 * np.arctan2(Z[:, 1], Z[:, 0])
            return np.column_stack([np.cos(angle), np.sin(angle)])

        field, calls = _counting(FieldHandle(dim=2, eval=ev))
        with pytest.raises(ResolutionError):
            degree_auto(field, _SQUARE)
        assert calls == [17 * 17] + [4 * (2 ** k + 1) for k in range(5, 18)]
        assert 2 * calls[-1] - 4 > 2 ** 20

    def test_one_call_per_pass_grid_and_newton_round(self, sunflower, monkeypatch):
        nu = nu_field(dataclasses.replace(sunflower.coupled, n_quad=64)).negated()
        field, calls = _counting(nu)
        rounds = []

        def lockstep(F, seeds, *args):
            def counted(rows):
                rounds.append(len(rows))
                return F(rows)
            return newton_lockstep(counted, seeds, *args)

        monkeypatch.setattr(degree, "newton_lockstep", lockstep)
        report = degree_auto(field, _SQUARE)
        assert report.degree == -1
        assert calls == [17 * 17] + rounds
        assert rounds == [18, 18, 18]


class TestDampedNewton:
    def test_no_retry_after_the_halvings(self):
        # On u -> u with the wrong-sign J = -I every damped step moves away
        # from the zero: the start and its 10 trials (the full step and 9
        # halvings) are requested, then the solve gives up.  With J = I it lands on the zero and
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

    def test_full_steps_only_fail_at_the_first_step_that_does_not_decrease(self):
        # trials=1, the continuation corrector's: the start and the full
        # step are requested, then the solve gives up.  With J = I the full
        # step lands on the zero.
        start = np.array([1.0, -0.5])
        requests = []

        def residual(u):
            requests.append(u.copy())
            return u

        assert damped_newton(residual, lambda u, r: -np.eye(2), start, 1e-12, 5, trials=1) is None
        assert len(requests) == 2
        out = damped_newton(lambda u: u, lambda u, r: np.eye(2), start, 1e-12, 5, trials=1)
        assert out is not None and np.array_equal(out[0], [0.0, 0.0])

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


class TestDegreeLaws:
    @pytest.mark.parametrize("cells", [MIN_CELLS, 8, 16, 64])
    def test_suite_at_every_resolution(self, cells):
        for name, fn, b, expected in SUITE_FIELDS:
            assert degree_auto(fn, b, cells=cells).degree == expected, name

    def test_zero_signs_sum_to_the_degree_on_the_suite(self):
        # Every suite field has hyperbolic zeros in separate cells, so the
        # search finds them all and their signs add up to the boundary's
        # degree.
        for name, fn, b, expected in SUITE_FIELDS:
            report = degree_auto(fn, b)
            assert report.degree == expected, name
            assert sum(z["jacobian_sign"] for z in report.zeros) == expected, name

    def test_excision(self):
        fn = lambda z: np.array([z[1] / math.sqrt(3.0), z[0] - z[1]])
        whole = degree_auto(fn, box([-1, -1], [1, 1])).degree
        left = degree_auto(fn, box([-1, -1], [0.3, 1])).degree
        right = degree_auto(fn, box([0.3, -1], [1, 1])).degree
        assert whole == left + right

    def test_product_sign_law(self):
        # For nu(p, q) = (c*w(q), p - q) with scalar w:
        #   deg(nu, box) = -sign(c) * deg(w, interval).
        w_deg = degree_auto(math.sin, box([-1.0], [1.0])).degree
        for c in (1.0 / math.sqrt(3.0), -0.7):
            fn = lambda z, c=c: np.array([c * math.sin(z[1]), z[0] - z[1]])
            got = degree_auto(fn, _SQUARE).degree
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
        degs = [
            degree_auto(v_lambda_field(prob, lam).negated(), _SQUARE).degree
            for lam in (0.1, 1.0, 10.0)
        ]
        assert degs[0] == degs[1] == degs[2]

    def test_sign_relation_to_nu(self):
        prob = dataclasses.replace(self._problem(), n_quad=16)
        deg_v1 = degree_auto(v_lambda_field(prob, 1.0).negated(), _SQUARE).degree
        deg_nu = degree_auto(nu_field(prob).negated(), _SQUARE).degree
        # deg(-v_1) = sign(<a>)^k * deg(-nu) with k = 1 and <a> = -1 here.
        assert deg_v1 == int(np.sign(prob.abar)) ** prob.dim_x * deg_nu


class TestReportSerialization:
    def test_json_round_trip(self):
        report = degree_auto(lambda p: p - p ** 3, box([-2.0], [2.0]))
        payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert payload["degree"] == -1
        assert payload["admissibility_margin"] > 0
        assert len(payload["zeros"]) == 3

    def test_every_report_lists_its_zeros(self):
        payload = degree_auto(lambda z: z, _SQUARE).to_dict()
        assert set(payload) == {"degree", "admissibility_margin", "zeros"}
        (zero,) = payload["zeros"]
        assert zero["jacobian_sign"] == 1
        assert max(abs(v) for v in zero["point"]) < 1e-12


def _zero_signs(report):
    return sorted((round(z["point"][0], 6), z["jacobian_sign"]) for z in report.zeros)


def _spiral_3d(Z):
    x, y, z = Z[:, 0], Z[:, 1], Z[:, 2]
    return np.column_stack([np.sin(x) + 0.3 * y, y - z ** 3 + 0.2 * x, z - 0.5 * np.tanh(x) - 0.1])


def _cubic_nu():
    return nu_field(CoupledProblem(
        dim_x=0, dim_y=1, g=lambda x, y: y - y ** 3,
        a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0,
    ))


def _sunflower_neg_nu(sunflower):
    return nu_field(dataclasses.replace(sunflower.coupled, n_quad=64)).negated()


_SPIRAL = FieldHandle(dim=3, eval=_spiral_3d)


class TestFieldHandleBatch:
    """A FieldHandle is sampled a whole array at a time; the degree and the
    zeros' signs must match the same field called point by point."""

    def _assert_same(self, handle, b, **kwargs):
        batched = degree_auto(handle, b, **kwargs)
        pointwise = degree_auto(lambda z: handle(z), b, **kwargs)
        assert batched.degree == pointwise.degree
        assert _zero_signs(batched) == _zero_signs(pointwise)
        return batched

    def test_one_dimension(self):
        report = self._assert_same(_cubic_nu(), box([-2.0], [2.0]))
        assert report.degree == -1 and len(report.zeros) == 3

    def test_planar(self, sunflower):
        report = self._assert_same(_sunflower_neg_nu(sunflower), _SQUARE)
        assert report.degree == -1

    def test_coarse_grid_and_three_dimensions(self, sunflower):
        report = self._assert_same(_sunflower_neg_nu(sunflower), _SQUARE, cells=8)
        assert report.degree == -1 and len(report.zeros) == 1
        report = self._assert_same(_SPIRAL, _CUBE)
        assert report.degree == 1

    def test_one_call_per_sample_set(self):
        calls = []

        def ev(Z):
            calls.append(len(Z))
            return Z - Z ** 3

        degree_auto(FieldHandle(dim=1, eval=ev), box([-2.0], [2.0]), cells=64)
        # The grid, which is also the boundary pass, then each Newton round
        # of all the straddling cells together.
        assert calls[0] == 65
        assert len(calls) <= 8 and all(c % 2 == 0 for c in calls[1:])
        calls.clear()
        # No cell straddles 0: the grid is the only call.
        degree_auto(FieldHandle(dim=1, eval=lambda Z: ev(Z) + 10.0), box([-2.0], [2.0]), cells=64)
        assert calls == [65]
        calls.clear()
        degree_auto(FieldHandle(dim=2, eval=lambda Z: ev(Z) + [0.1, 0.2]), _SQUARE)
        assert calls[0] == 17 * 17

    def test_plain_callable_is_decided_once(self):
        # A plain callable is decided at entry: in 1-d by one float call at
        # the box's lower corner, then by the one probe (problem._decide) on
        # 3 points and their batch, 5 calls at most; a NumPy callable is
        # then called once per point set, as its FieldHandle is.  Before,
        # each point of a 1-d callable tried its float and then its row (33
        # failing float calls for z[0]**2 - 0.25), and every callable was
        # called point by point (73 calls for p - p*p*p, 397 for the
        # planar field).
        def counted(fn):
            calls = []

            def call(z):
                calls.append(z)
                return fn(z)
            return call, calls

        fn, calls = counted(lambda z: z[0] ** 2 - 0.25)
        assert degree_auto(fn, box([-1.0], [0.0])).degree == -1
        assert sum(isinstance(z, float) for z in calls) <= 1
        for fn, b, most in [(lambda p: p - p * p * p, box([-2.0], [2.0]), 6),
                            (lambda z: np.stack([z[..., 0] ** 2 - z[..., 1], z[..., 1] - 0.1], -1), _SQUARE, 9)]:
            plain, calls = counted(fn)
            handle, handle_calls = counted(fn)
            assert degree_auto(plain, b).to_dict() == degree_auto(FieldHandle(b.dim, handle), b).to_dict()
            assert len(handle_calls) == most
            assert len(calls) <= most + 5

    def test_per_point_eval_rejected(self):
        field = FieldHandle(dim=2, eval=lambda z: np.array([z[1], z[0] - z[1]]))
        with pytest.raises(InvalidParameterError):
            degree_auto(field, _SQUARE)
        with pytest.raises(InvalidParameterError):
            degree_auto(field, _CUBE)


def _face_grids(b, cells):
    """Every face's grid of cells cells per face axis, face by face."""
    n = b.dim
    axes = [np.linspace(b.lower[i], b.upper[i], cells + 1) for i in range(n)]
    pts = []
    for face_axis in range(n):
        for side in (b.lower[face_axis], b.upper[face_axis]):
            grids = [axes[i] if i != face_axis else np.array([side]) for i in range(n)]
            mesh = np.meshgrid(*grids, indexing="ij")
            pts.append(np.column_stack([m.ravel() for m in mesh]))
    return np.vstack(pts)


def _zeros_cell_by_cell(fn, b, cells=16, tol=1e-10):
    """Reference for degree_auto's zero search and margin on fields with
    hyperbolic zeros: every point its own call, each candidate cell refined
    on its own by damped_newton."""
    n, scale = b.dim, b.scale

    def value(z):
        if n == 1:
            try:
                return np.atleast_1d(np.asarray(fn(float(z[0])), dtype=float))
            except (TypeError, IndexError):
                pass
        return np.atleast_1d(np.asarray(fn(z), dtype=float))

    rows = lambda points: np.array([value(p) for p in points])
    jacobian = lambda z, f0: fd_jacobian(rows, z, f0, 1e-6 * scale)
    margin = float(np.linalg.norm(rows(_face_grids(b, cells)), axis=1).min())
    axes = [np.linspace(b.lower[i], b.upper[i], cells + 1) for i in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = rows(grid.reshape(-1, n)).reshape(grid.shape)
    zeros = []
    for cell in np.ndindex(*([cells] * n)):
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
    return margin, zeros


class TestBatchedRefinement:
    """degree_auto refines all its candidate cells in lockstep: the zeros and
    the margin are the bits of the point-by-point reference above, from a
    few calls, and the degree is the sum of the zeros' signs."""

    @pytest.mark.parametrize("name", [
        "cubic-nu", "sin", "sin-wide", "sunflower-nu", "spiral-handle", "spiral-callable", "identity",
    ])
    def test_zeros_match_cell_by_cell(self, sunflower, name):
        fn, b = {
            "cubic-nu": (_cubic_nu(), box([-2.0], [2.0])),
            "sin": (math.sin, box([-1.0], [1.0])),
            "sin-wide": (math.sin, box([-2.0], [7.0])),
            "sunflower-nu": (_sunflower_neg_nu(sunflower), _SQUARE),
            "spiral-handle": (_SPIRAL, _CUBE),
            "spiral-callable": (lambda z: _spiral_3d(np.atleast_2d(z))[0], _CUBE),
            "identity": (lambda z: z, _CUBE),
        }[name]
        report = degree_auto(fn, b).to_dict()
        margin, zeros = _zeros_cell_by_cell(fn, b)
        assert report["zeros"]
        assert json.dumps(report["zeros"]) == json.dumps(zeros)
        assert report["admissibility_margin"] == margin
        assert report["degree"] == sum(z["jacobian_sign"] for z in zeros)

    def test_call_counts(self, sunflower):
        field, calls = _counting(_cubic_nu())
        assert degree_auto(field, box([-2.0], [2.0])).degree == -1
        assert len(calls) <= 8
        field, calls = _counting(_sunflower_neg_nu(sunflower))
        assert degree_auto(field, _SQUARE, cells=16).degree == -1
        assert len(calls) <= 5
        field, calls = _counting(_SPIRAL)
        assert degree_auto(field, _CUBE).degree == 1
        assert len(calls) <= 6
