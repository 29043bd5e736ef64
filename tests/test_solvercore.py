"""Tests for the shared numerics: tridiagonal Newton with two boundary corners
on LAPACK dgtsv, continuation, the embedded RK4(5) integrator, and the
tridiagonal eigensolver (LAPACK bisection via scipy.linalg.eigh_tridiagonal)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchfront.solvercore import (
    ContinuationError,
    JacobianSingularError,
    Mesh,
    OdeBlowUpError,
    ParameterizedBVP,
    continue_branch,
    eig_tridiag_symmetric,
    integrate_ode,
    solve_bvp,
)


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

class TestMesh:
    def test_uniform(self):
        m = Mesh(np.linspace(0.0, 1.0, 11))
        assert m.count == 11
        assert np.allclose(m.spacing, 0.1)

    def test_graded_ratio_bound(self):
        m = Mesh.graded(-100.0, 50.0, -2.0, 3.0, h_min=0.1, factor=1.3, h_max=5.0)
        r = m.spacing[1:] / m.spacing[:-1]
        assert r.max() <= 4.0 and r.min() >= 0.25
        assert m.nodes[0] == -100.0 and m.nodes[-1] == 50.0

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            Mesh(np.array([0.0, 1.0, 0.5] + list(range(2, 12))))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            Mesh(np.linspace(0, 1, 5))

    @given(st.floats(min_value=0.01, max_value=0.5), st.floats(min_value=1.02, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_graded_property(self, h_min, factor):
        m = Mesh.graded(-30.0, 30.0, -1.0, 1.0, h_min=h_min, factor=factor, h_max=4.0)
        r = m.spacing[1:] / m.spacing[:-1]
        assert r.max() <= 4.0 + 1e-9 and r.min() >= 0.25 - 1e-9


# ---------------------------------------------------------------------------
# solve_bvp
# ---------------------------------------------------------------------------

def _banded_from_tridiag(lower, diag, upper):
    n = len(diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return ab


class TestSolveBvp:
    def test_linear_spd_one_iteration(self):
        n = 40
        diag = np.full(n, 2.0)
        off = np.full(n - 1, -1.0)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n)

        def apply_a(x):
            y = diag * x
            y[:-1] += off * x[1:]
            y[1:] += off * x[:-1]
            return y

        x, rep = solve_bvp(
            residual=lambda x: apply_a(x) - b,
            jacobian=lambda x: _banded_from_tridiag(off, diag, off),
            initial_guess=np.zeros(n),
            tol=1e-12,
        )
        assert rep.converged and rep.iterations == 1
        assert np.max(np.abs(apply_a(x) - b)) <= 1e-12

    def test_sinh_bvp(self):
        # u'' = u, u(0) = 1, u(1) = 0; closed form sinh(1 - x)/sinh(1).
        n = 101
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]

        def residual(u):
            r = np.empty(n)
            r[0] = u[0] - 1.0
            r[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2 - u[1:-1]
            r[-1] = u[-1]
            return r

        def jacobian(u):
            lower = np.full(n - 1, 1.0 / h**2)
            diag = np.full(n, -2.0 / h**2 - 1.0)
            upper = np.full(n - 1, 1.0 / h**2)
            diag[0], upper[0] = 1.0, 0.0
            diag[-1], lower[-1] = 1.0, 0.0
            return _banded_from_tridiag(lower, diag, upper)

        u, rep = solve_bvp(residual, jacobian, np.linspace(1, 0, n), tol=1e-8)
        assert rep.converged
        exact = np.sinh(1.0 - x) / math.sinh(1.0)
        assert np.max(np.abs(u - exact)) <= 1e-6

    def test_sinh_bvp_convergence_order(self):
        # measured order of the second-order central scheme in [1.8, 2.2]
        errs = []
        for n in (51, 101, 201):
            x = np.linspace(0.0, 1.0, n)
            h = x[1] - x[0]

            def residual(u):
                r = np.empty(n)
                r[0] = u[0] - 1.0
                r[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2 - u[1:-1]
                r[-1] = u[-1]
                return r

            def jacobian(u):
                lower = np.full(n - 1, 1.0 / h**2)
                diag = np.full(n, -2.0 / h**2 - 1.0)
                upper = np.full(n - 1, 1.0 / h**2)
                diag[0], upper[0] = 1.0, 0.0
                diag[-1], lower[-1] = 1.0, 0.0
                return _banded_from_tridiag(lower, diag, upper)

            u, rep = solve_bvp(residual, jacobian, np.linspace(1, 0, n), tol=1e-8)
            assert rep.converged
            errs.append(np.max(np.abs(u - np.sinh(1.0 - x) / math.sinh(1.0))))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert all(1.8 <= o <= 2.2 for o in order)

    @staticmethod
    def _neumann_sinh(n):
        # u'' = u, u(0) = 0, u'(1) = 1 by the second-order one-sided stencil
        # (3u[n-1] - 4u[n-2] + u[n-3]) / 2h; closed form sinh(x)/cosh(1)
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]

        def residual(u):
            r = np.empty(n)
            r[0] = u[0]
            r[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2 - u[1:-1]
            r[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h) - 1.0
            return r

        def jacobian(u):
            lower = np.full(n - 1, 1.0 / h**2)
            diag = np.full(n, -2.0 / h**2 - 1.0)
            upper = np.full(n - 1, 1.0 / h**2)
            diag[0], upper[0] = 1.0, 0.0
            diag[-1], lower[-1] = 3.0 / (2.0 * h), -4.0 / (2.0 * h)
            return _banded_from_tridiag(lower, diag, upper)

        u, rep = solve_bvp(
            residual, jacobian, np.zeros(n), tol=1e-8, corners=(0.0, 1.0 / (2.0 * h))
        )
        assert rep.converged
        return np.max(np.abs(u - np.sinh(x) / math.cosh(1.0)))

    def test_sinh_bvp_one_sided_neumann_order(self):
        # measured order with the corner J[n-1, n-3] of the one-sided closure
        errs = [self._neumann_sinh(n) for n in (51, 101, 201)]
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert all(1.8 <= o <= 2.2 for o in order)

    @pytest.mark.parametrize("n", [1, 3, 4, 7, 50, 400])
    def test_step_matches_dense_solve(self, n):
        # one Newton step on J x - b from x = 0 is x = J^{-1} b; J is a random
        # diagonally dominant tridiagonal plus the corners J[0, 2], J[n-1, n-3]
        rng = np.random.default_rng(n)
        dense = np.diag(rng.uniform(-1.0, 1.0, n - 1), -1) + np.diag(
            rng.uniform(-1.0, 1.0, n - 1), 1
        )
        if n >= 3:
            dense[0, 2], dense[-1, -3] = rng.uniform(0.5, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
        dense += np.diag(rng.choice([-1.0, 1.0], n) * (3.0 + rng.uniform(0.0, 1.0, n)))
        corners = (dense[0, 2], dense[-1, -3]) if n >= 3 else (0.0, 0.0)
        ab = _banded_from_tridiag(np.diag(dense, -1), np.diag(dense), np.diag(dense, 1))
        cached = ab.copy()
        b = rng.standard_normal(n)
        x, rep = solve_bvp(
            residual=lambda x: dense @ x - b,
            jacobian=lambda x: ab,
            initial_guess=np.zeros(n),
            tol=0.0,
            corners=corners,
            max_iter=1,
        )
        want = np.linalg.solve(dense, b)
        assert rep.iterations == 1 and rep.damping_history == [1.0]
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(ab, cached)  # the caller's Jacobian is not overwritten

    @pytest.mark.parametrize("n", [1, 2])
    def test_corner_needs_three_unknowns(self, n):
        ab = _banded_from_tridiag(np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
        with pytest.raises(ValueError, match="corners"):
            solve_bvp(
                residual=lambda x: x,
                jacobian=lambda x: ab,
                initial_guess=np.ones(n),
                tol=1e-14,
                corners=(0.0, 1.0),
            )

    def test_no_root_reports_failure(self):
        x, rep = solve_bvp(
            residual=lambda x: np.array([x[0] ** 2 + 1.0]),
            jacobian=lambda x: np.vstack([[0.0], [2.0 * x[0]], [0.0]]),
            initial_guess=np.array([1.3]),
            tol=1e-10,
            max_iter=50,
        )
        assert not rep.converged
        assert rep.iterations == 50

    def test_singular_jacobian_raises_with_pivot(self):
        n = 5

        def jac(x):
            ab = _banded_from_tridiag(np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
            ab[1, 2] = 0.0  # exact zero pivot at index 2
            return ab

        with pytest.raises(JacobianSingularError) as err:
            solve_bvp(
                residual=lambda x: x,
                jacobian=jac,
                initial_guess=np.ones(n),
                tol=1e-14,
            )
        assert err.value.pivot_index == 2


# ---------------------------------------------------------------------------
# continue_branch
# ---------------------------------------------------------------------------

def _pitchfork_problem():
    # 0 = mu*u - u^3, nontrivial branch u = sqrt(mu)
    return ParameterizedBVP(
        residual=lambda u, mu: mu * u - u**3,
        jacobian=lambda u, mu: np.vstack([[0.0], [mu - 3.0 * u[0] ** 2], [0.0]]),
        corners=(0.0, 0.0),
        tol=1e-12,
    )


class TestContinuation:
    def test_pitchfork_branch(self):
        branch = continue_branch(
            _pitchfork_problem(), np.array([math.sqrt(0.1)]), (0.1, 1.0), step0=0.05
        )
        assert branch.status == "completed"
        for e in branch.entries:
            assert abs(e.solution[0] - math.sqrt(e.param)) < 1e-8
        p = branch.params
        assert np.all(np.diff(p) > 0)  # natural stepping is monotone

    def test_immediate_failure_raises(self):
        bad = ParameterizedBVP(
            residual=lambda u, mu: u**2 + 1.0,
            jacobian=lambda u, mu: np.vstack([[0.0], [2.0 * u[0] + 1e-8], [0.0]]),
            tol=1e-12,
        )
        with pytest.raises(ContinuationError) as err:
            continue_branch(bad, np.array([1.0]), (0.0, 1.0), step0=0.1)
        assert err.value.report.converged is False

    def test_interior_stops_landed_exactly(self):
        stops = [0.1, 0.25, 0.4, 1.0]
        branch = continue_branch(
            _pitchfork_problem(), np.array([math.sqrt(0.1)]), stops, step0=0.05
        )
        assert branch.status == "completed"
        params = list(branch.params)
        assert all(stop in params for stop in stops)
        for e in branch.entries:
            assert abs(e.solution[0] - math.sqrt(e.param)) < 1e-8

    def test_stop_landed_exactly_where_adding_the_step_rounds(self):
        # x + (0.9 - x) rounds away from 0.9: the step onto a stop must set
        # the parameter to the stop, not add the remaining distance
        prob = ParameterizedBVP(
            residual=lambda u, mu: np.array([u[0] ** 2 - mu]),
            jacobian=lambda u, mu: np.vstack([[0.0], [2.0 * u[0]], [0.0]]),
            tol=1e-12,
        )
        x = 0.06353383458646616
        assert x + (0.9 - x) != 0.9
        branch = continue_branch(prob, np.array([math.sqrt(x)]), [x, 0.9], step0=1.0)
        assert list(branch.params) == [x, 0.9]

    def test_unordered_stops_refused(self):
        with pytest.raises(ValueError, match="ordered in one direction"):
            continue_branch(_pitchfork_problem(), np.array([0.5]), [0.25, 0.5, 0.4], step0=0.05)

    def test_stall_on_unsolvable_range(self):
        # branch u = sqrt(mu) ceases to exist for mu < 0: stepping into the
        # unsolvable range must collapse the step and flag a stall
        prob = ParameterizedBVP(
            residual=lambda u, mu: np.array([u[0] ** 2 - mu]),
            jacobian=lambda u, mu: np.vstack([[0.0], [2.0 * u[0]], [0.0]]),
            tol=1e-12,
        )
        branch = continue_branch(prob, np.array([1.0]), (1.0, -1.0), step0=0.25)
        assert branch.status == "stalled"
        assert branch.entries[-1].param > -1.0


# ---------------------------------------------------------------------------
# integrate_ode
# ---------------------------------------------------------------------------

class TestIntegrateOde:
    stiff = False  # DOP853; TestIntegrateOdeStiff reruns every test on LSODA

    def test_exponential_decay(self):
        res = integrate_ode(
            lambda t, y: -y, [1.0], (0.0, 1.0), rtol=1e-9, atol=1e-12, stiff=self.stiff
        )
        assert res.status == "completed"
        assert res.y[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_blowup_reports_last_state(self):
        # y' = y^2 blows up at t = 1; LSODA's step size collapses to 0 there,
        # so this must raise rather than loop
        with pytest.raises(OdeBlowUpError) as err:
            integrate_ode(
                lambda t, y: y**2, [1.0], (0.0, 2.0), rtol=1e-8, atol=1e-10, stiff=self.stiff
            )
        assert err.value.t < 1.001
        assert err.value.y[0] > 1e6

    def test_linear_event_time(self):
        ev = lambda t, y: y[0]
        ev.terminal = True
        res = integrate_ode(
            lambda t, y: np.array([-1.0]), [1.0], (0.0, 3.0), events=[ev], stiff=self.stiff
        )
        assert res.status == "event"
        assert res.events[0].t == pytest.approx(1.0, abs=1e-10)
        assert res.t[-1] == res.events[0].t

    def test_nonterminal_event_direction(self):
        # y = cos t falls through zero at pi/2 and 5 pi/2, rises at 3 pi/2
        ev = lambda t, y: y[0]
        ev.direction = -1
        field = lambda t, y: np.array([y[1], -y[0]])
        res = integrate_ode(
            field, [1.0, 0.0], (0.0, 10.0), rtol=1e-10, atol=1e-12, events=[ev], stiff=self.stiff
        )
        assert res.status == "completed"
        assert [e.t for e in res.events] == pytest.approx([math.pi / 2, 2.5 * math.pi], abs=1e-8)
        assert all(abs(e.y[0]) < 1e-8 for e in res.events)

    def test_time_reversal(self):
        rtol = 1e-9
        field = lambda t, y: np.array([y[1], -math.sin(y[0])])
        fwd = integrate_ode(field, [0.9, 0.0], (0.0, 5.0), rtol=rtol, atol=1e-12, stiff=self.stiff)
        back = integrate_ode(field, fwd.y[-1], (5.0, 0.0), rtol=rtol, atol=1e-12, stiff=self.stiff)
        assert np.max(np.abs(back.y[-1] - [0.9, 0.0])) <= 10.0 * rtol

    def test_backward_integration(self):
        res = integrate_ode(
            lambda t, y: -y, [1.0], (1.0, 0.0), rtol=1e-10, atol=1e-13, stiff=self.stiff
        )
        assert res.y[-1, 0] == pytest.approx(math.e, rel=1e-8)


class TestIntegrateOdeStiff(TestIntegrateOde):
    stiff = True


# ---------------------------------------------------------------------------
# eig_tridiag_symmetric
# ---------------------------------------------------------------------------

class TestEig:
    def test_toeplitz_laplacian(self):
        # (-2, 1) pattern on unit spacing: lambda_max = -2 + 2 cos(pi/101)
        n = 100
        spec = eig_tridiag_symmetric(np.full(n, -2.0), np.ones(n - 1), 3)
        exact = [-2.0 + 2.0 * math.cos(k * math.pi / (n + 1)) for k in (1, 2, 3)]
        assert np.allclose(spec.eigenvalues, exact, atol=1e-10)

    def test_diagonal_matrix(self):
        spec = eig_tridiag_symmetric(np.full(12, 3.5), np.zeros(11), 5)
        assert np.allclose(spec.eigenvalues, 3.5, atol=1e-12)

    def test_two_by_two(self):
        spec = eig_tridiag_symmetric([0.0, 0.0], [1.0], 2)
        assert np.allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-10)

    def test_sorted_descending_and_matches_dense(self):
        rng = np.random.default_rng(7)
        cases = [(rng.standard_normal(n), rng.standard_normal(n - 1)) for n in (10, 37, 50)]
        cases.append((np.array([0.7]), np.empty(0)))
        # two identical blocks split by a zero coupling: every eigenvalue twice
        block_d, block_e = rng.standard_normal(6), rng.standard_normal(5)
        cases.append((np.tile(block_d, 2), np.concatenate([block_e, [0.0], block_e])))
        for d, e in cases:
            n = d.size
            spec = eig_tridiag_symmetric(d, e, n)
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
            dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            ref = np.sort(np.linalg.eigvalsh(dense))[::-1]
            assert np.max(np.abs(spec.eigenvalues - ref)) <= 1e-9

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            eig_tridiag_symmetric([1.0, 2.0], [0.3], 3)
        with pytest.raises(ValueError):
            eig_tridiag_symmetric([1.0, 2.0], [0.3], 0)
