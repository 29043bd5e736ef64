"""Tests for the shared numerics: damped Newton whose every step is one
tridiagonal LAPACK dgtsv solve, continuation, the DOP853 and (stiff) LSODA
integrators, and the tridiagonal eigensolver (LAPACK bisection via
scipy.linalg.eigh_tridiagonal)."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from quenchfront.solvercore import (
    JacobianSingularError,
    Mesh,
    OdeBlowUpError,
    SolveError,
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
        assert np.allclose(np.diff(m.nodes), 0.1)

    def test_graded_ratio_bound(self):
        m = Mesh.graded(-100.0, 50.0, -2.0, 3.0, h_min=0.1, h_max=5.0)
        h = np.diff(m.nodes)
        r = h[1:] / h[:-1]
        assert r.max() <= 4.0 and r.min() >= 0.25
        assert m.nodes[0] == -100.0 and m.nodes[-1] == 50.0

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            Mesh(np.array([0.0, 1.0, 0.5] + list(range(2, 12))))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            Mesh(np.linspace(0, 1, 5))

    @given(st.floats(min_value=0.01, max_value=0.5), st.floats(min_value=0.5, max_value=8.0))
    @settings(max_examples=25, deadline=None)
    def test_graded_property(self, h_min, h_max):
        m = Mesh.graded(-30.0, 30.0, -1.0, 1.0, h_min=h_min, h_max=h_max)
        h = np.diff(m.nodes)
        r = h[1:] / h[:-1]
        assert r.max() <= 4.0 + 1e-9 and r.min() >= 0.25 - 1e-9


def _graded_loop(a, b, focus_lo, focus_hi, h_min, factor, h_max):
    """The step-by-step ``Mesh.graded`` that the vectorized ramp replaced,
    kept as the oracle: (nodes, whether a merged tail was split)."""
    core = np.arange(focus_lo, focus_hi + 0.5 * h_min, h_min)
    split = False

    def ramp(start, limit, direction):
        nonlocal split
        dist = (limit - start) * direction
        if dist <= 1e-12 * max(1.0, abs(limit)):
            return np.empty(0)
        hs = []
        h, total = h_min, 0.0
        while total < dist * (1.0 - 1e-14):
            h = min(h * factor, h_max, dist - total)
            hs.append(h)
            total += h
        if len(hs) >= 2 and hs[-1] < 0.3 * hs[-2]:
            half = 0.5 * (hs[-1] + hs[-2])
            hs[-2:] = [half, half]
            split = True
        nodes = start + direction * np.cumsum(hs)
        nodes[-1] = limit
        return nodes

    left = ramp(core[0], a, -1.0)[::-1]
    right = ramp(core[-1], b, +1.0)
    return Mesh(np.concatenate([left, core, right])).nodes, split


def _graded_grid():
    """Seeded (a, b, focus_lo, focus_hi, h_min, h_max) cases: finite and
    infinite caps, focus edges on a domain end, and caps below h_min / 4
    that the grading bound refuses.  These 120 cases reach 50 merged-tail
    splits and 13 refusals."""
    rng = np.random.default_rng(20260)
    cases = []
    for k in range(120):
        a = -float(rng.uniform(1.0, 800.0))
        b = float(rng.uniform(1.0, 800.0))
        lo = float(rng.uniform(a, 0.0))
        hi = float(rng.uniform(0.5, b))
        if k % 6 == 0:
            lo = a
        elif k % 6 == 1:
            hi = b
        h_min = float(rng.uniform(0.01, 0.5))
        h_max = math.inf if k % 2 else h_min * float(np.exp(rng.uniform(-2.5, 5.0)))
        cases.append((a, b, lo, hi, h_min, h_max))
    return cases


class TestGradedAgainstLoop:
    def test_nodes_or_error_match_the_loop(self):
        splits = errors = 0
        for a, b, lo, hi, h_min, h_max in _graded_grid():
            try:
                want, split = _graded_loop(a, b, lo, hi, h_min, 1.05, h_max)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    Mesh.graded(a, b, lo, hi, h_min=h_min, h_max=h_max)
                errors += 1
                continue
            got = Mesh.graded(a, b, lo, hi, h_min=h_min, h_max=h_max).nodes
            assert np.array_equal(got, want), (a, b, lo, hi, h_min, h_max)
            splits += split
        # the grid reaches the merged-tail split and the refused caps
        assert splits >= 10 and errors >= 5

    @pytest.mark.parametrize("h_min, h_max", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, math.nan)])
    def test_nonpositive_spacing_refused(self, h_min, h_max):
        with pytest.raises(ValueError, match="positive"):
            Mesh.graded(-10.0, 10.0, -1.0, 1.0, h_min=h_min, h_max=h_max)


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
        # u'' = u, u(0) = 0, u'(1) = 1 closed through the equation:
        # u'(1) = (u[n-1] - u[n-2]) / h + (h/2) u''(1) with u'' = u, the
        # two-point difference that keeps the Jacobian tridiagonal; closed
        # form sinh(x)/cosh(1)
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]

        def residual(u):
            r = np.empty(n)
            r[0] = u[0]
            r[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2 - u[1:-1]
            r[-1] = (u[-1] - u[-2]) / h + 0.5 * h * u[-1] - 1.0
            return r

        def jacobian(u):
            lower = np.full(n - 1, 1.0 / h**2)
            diag = np.full(n, -2.0 / h**2 - 1.0)
            upper = np.full(n - 1, 1.0 / h**2)
            diag[0], upper[0] = 1.0, 0.0
            diag[-1], lower[-1] = 1.0 / h + 0.5 * h, -1.0 / h
            return _banded_from_tridiag(lower, diag, upper)

        u, rep = solve_bvp(residual, jacobian, np.zeros(n), tol=1e-8)
        assert rep.converged
        return np.max(np.abs(u - np.sinh(x) / math.cosh(1.0)))

    def test_sinh_bvp_one_sided_neumann_order(self):
        # measured order of the closure through the equation: 2.000
        errs = [self._neumann_sinh(n) for n in (51, 101, 201)]
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert all(1.8 <= o <= 2.2 for o in order)

    def test_step_stop_below_the_rounding_floor(self):
        # tol = 0 lies below any residual's rounding floor: the first step
        # solves the linear system to rounding, and the second, below
        # 1e-10 (1 + |x|), is taken in full and ends the solve
        n = 40
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n)
        off = np.full(n - 1, -1.0)
        dense = np.diag(np.full(n, 2.0)) + np.diag(off, 1) + np.diag(off, -1)
        x, rep = solve_bvp(
            residual=lambda x: dense @ x - b,
            jacobian=lambda x: _banded_from_tridiag(off, np.full(n, 2.0), off),
            initial_guess=np.zeros(n),
            tol=0.0,
        )
        assert rep.converged and rep.iterations == 2 and rep.damping_history == [1.0, 1.0]
        assert rep.final_residual_norm == np.max(np.abs(dense @ x - b)) > 0.0
        assert rep.stop == "step"
        # at a reachable tolerance the residual test ends the same solve
        _, rep = solve_bvp(
            residual=lambda x: dense @ x - b,
            jacobian=lambda x: _banded_from_tridiag(off, np.full(n, 2.0), off),
            initial_guess=np.zeros(n),
            tol=1e-8,
        )
        assert rep.converged and rep.stop == "residual"

    @pytest.mark.parametrize("n", [1, 3, 4, 7, 50, 400])
    def test_step_matches_dense_solve(self, n):
        # one Newton step on J x - b from x = 0 is x = J^{-1} b; J is a random
        # diagonally dominant tridiagonal
        rng = np.random.default_rng(n)
        dense = np.diag(rng.uniform(-1.0, 1.0, n - 1), -1) + np.diag(
            rng.uniform(-1.0, 1.0, n - 1), 1
        )
        dense += np.diag(rng.choice([-1.0, 1.0], n) * (3.0 + rng.uniform(0.0, 1.0, n)))
        ab = _banded_from_tridiag(np.diag(dense, -1), np.diag(dense), np.diag(dense, 1))
        cached = ab.copy()
        b = rng.standard_normal(n)
        x, rep = solve_bvp(
            residual=lambda x: dense @ x - b,
            jacobian=lambda x: ab,
            initial_guess=np.zeros(n),
            tol=0.0,
            max_iter=1,
        )
        want = np.linalg.solve(dense, b)
        assert rep.iterations == 1 and rep.damping_history == [1.0]
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(ab, cached)  # the caller's Jacobian is not overwritten

    def test_no_root_reports_failure(self):
        x, rep = solve_bvp(
            residual=lambda x: np.array([x[0] ** 2 + 1.0]),
            jacobian=lambda x: np.vstack([[0.0], [2.0 * x[0]], [0.0]]),
            initial_guess=np.array([1.3]),
            tol=1e-10,
            max_iter=50,
        )
        assert not rep.converged and rep.stop is None
        assert rep.iterations == 50

    def test_nonfinite_trials_stop_at_the_last_finite_iterate(self):
        # the residual is finite only for x <= 0, and the Newton step from 0
        # points to x = 1: every halving down to 2^-10 is non-finite, so the
        # solve stops unconverged at x = 0 after one Jacobian
        jacobians = []

        def jac(x):
            jacobians.append(x.copy())
            return np.vstack([[0.0], [1.0], [0.0]])

        with np.errstate(invalid="ignore"):
            x, rep = solve_bvp(
                residual=lambda x: np.where(x <= 0.0, x - 1.0, np.inf),
                jacobian=jac,
                initial_guess=np.zeros(1),
                tol=1e-10,
                max_iter=50,
            )
        assert x.tolist() == [0.0] and len(jacobians) == 1
        assert not rep.converged and rep.stop is None
        assert rep.iterations == 1 and rep.final_residual_norm == 1.0
        assert rep.damping_history == []

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
# The Newton systems' banded Jacobians against their residuals
# ---------------------------------------------------------------------------

def _band_rows(ab):
    """(J[i, i-1], J[i, i], J[i, i+1]) of each row i of the (1, 1) band
    storage ``ab``; the two entries outside the matrix read 0."""
    rows = np.zeros((ab.shape[1], 3))
    rows[1:, 0], rows[:, 1], rows[:-1, 2] = ab[2, :-1], ab[1], ab[0, 1:]
    return rows


def _central_difference_rows(residual, w, rel_step=1e-6):
    """``_band_rows`` of the residual's central difference at ``w``.

    The columns are perturbed three at a time, j = k mod 3, so each row
    sees one perturbed column of its band per pass; a row that also reads
    a column outside its band mixes that column's response into one of its
    band entries, so the comparison catches it."""
    n = w.size
    rows = np.zeros((n, 3))
    for k in range(3):
        cols = np.arange(k, n, 3)
        d = np.zeros(n)
        d[cols] = rel_step * (1.0 + np.abs(w[cols]))
        dr = residual(w + d) - residual(w - d)
        for off in (-1, 0, 1):  # the column j = i + off of row i
            i = cols - off
            keep = (i >= 0) & (i < n)
            rows[i[keep], 1 + off] = dr[i[keep]] / (2.0 * d[cols[keep]])
    return rows


def _captured_newton_system(monkeypatch, module, run):
    """(residual, jacobian, seed, solution) of the one ``solve_bvp`` call
    that ``run()`` makes through ``module``."""
    seen = []

    def capture(residual, jacobian, guess, *args, **kwargs):
        x, report = solve_bvp(residual, jacobian, guess, *args, **kwargs)
        seen.append((residual, jacobian, np.array(guess, dtype=float), x))
        return x, report

    monkeypatch.setattr(module, "solve_bvp", capture)
    run()
    assert len(seen) == 1
    return seen[0]


class TestNewtonSystemJacobians:
    """Every Newton system's banded Jacobian agrees with a central
    difference of its residual on every row, the boundary rows included:
    a wrong boundary entry only slows Newton down, so no convergence test
    sees it."""

    @staticmethod
    def _assert_rows_agree(residual, jacobian, w):
        with np.errstate(over="ignore", invalid="ignore"):
            want = _band_rows(jacobian(w))
            got = _central_difference_rows(residual, w)
        scale = np.max(np.abs(want), axis=1)
        err = np.max(np.abs(got - want), axis=1) / scale
        assert np.all(scale > 0.0)
        # measured at most 3.9e-10, on the steady state's first row
        assert err.max() <= 1e-8, f"row {int(err.argmax())} of {w.size}: {err.max():.2e}"

    @pytest.mark.parametrize("c", [0.0, 1.2, 1.8])
    def test_front_system(self, c):
        from quenchfront.travelingwave import (
            QuenchParams,
            _front_mesh,
            _front_seed,
            _LogFrontSystem,
        )

        params = QuenchParams(c, 1e-3)
        mesh = _front_mesh(params, 5.0 / params.epsilon, 2001)
        system = _LogFrontSystem(mesh, c)
        mu = params.mu_of_zeta(mesh.nodes)
        residual, jacobian = system.equations(mu)
        seed = _front_seed(mesh.nodes, mu, c, params.epsilon)
        for w in (seed, system.solve(seed, mu)[0]):
            self._assert_rows_agree(residual, jacobian, w)

    def test_connection_system(self, monkeypatch):
        from quenchfront import painleve

        residual, jacobian, seed, w = _captured_newton_system(
            monkeypatch, painleve, lambda: painleve.solve_hastings_mcleod(n=4001)
        )
        for state in (seed, w):
            self._assert_rows_agree(residual, jacobian, state)

    @pytest.mark.parametrize("c", [0.0, 1.2])
    def test_pde_steady_state_system(self, monkeypatch, c):
        from quenchfront import pdesim

        cfg = pdesim.SimConfig(frame="comoving", c=c, epsilon=0.05, domain=(-20.0, 60.0), n=201)
        residual, jacobian, seed, w = _captured_newton_system(
            monkeypatch, pdesim, lambda: pdesim.steady_state(cfg)
        )
        for state in (seed, w):
            self._assert_rows_agree(residual, jacobian, state)


# ---------------------------------------------------------------------------
# continue_branch
# ---------------------------------------------------------------------------

def _corrector(residual, jacobian):
    # Newton at tolerance 1e-12 with solve_bvp's default budget
    return lambda guess, mu: solve_bvp(
        lambda u: residual(u, mu), lambda u: jacobian(u, mu), guess, tol=1e-12
    )


def _pitchfork_problem():
    # 0 = mu*u - u^3, nontrivial branch u = sqrt(mu)
    return _corrector(
        lambda u, mu: mu * u - u**3,
        lambda u, mu: np.vstack([[0.0], [mu - 3.0 * u[0] ** 2], [0.0]]),
    )


def _square_root_problem():
    # 0 = u^2 - mu, branch u = sqrt(mu) for mu > 0
    return _corrector(
        lambda u, mu: np.array([u[0] ** 2 - mu]),
        lambda u, mu: np.vstack([[0.0], [2.0 * u[0]], [0.0]]),
    )


class TestContinuation:
    def test_pitchfork_branch(self):
        branch = continue_branch(
            _pitchfork_problem(), np.array([math.sqrt(0.1)]), (0.1, 1.0), step0=0.05
        )
        assert branch.entries[-1].param == 1.0
        for e in branch.entries:
            assert abs(e.solution[0] - math.sqrt(e.param)) < 1e-8
        p = [e.param for e in branch.entries]
        assert np.all(np.diff(p) > 0)  # natural stepping is monotone

    def test_immediate_failure_raises(self):
        bad = _corrector(
            lambda u, mu: u**2 + 1.0,
            lambda u, mu: np.vstack([[0.0], [2.0 * u[0] + 1e-8], [0.0]]),
        )
        with pytest.raises(SolveError) as err:
            continue_branch(bad, np.array([1.0]), (0.0, 1.0), step0=0.1)
        assert err.value.report.converged is False

    def test_interior_stops_landed_exactly(self):
        stops = [0.1, 0.25, 0.4, 1.0]
        branch = continue_branch(
            _pitchfork_problem(), np.array([math.sqrt(0.1)]), stops, step0=0.05
        )
        params = [e.param for e in branch.entries]
        assert all(stop in params for stop in stops)
        for e in branch.entries:
            assert abs(e.solution[0] - math.sqrt(e.param)) < 1e-8

    def test_stop_landed_exactly_where_adding_the_step_rounds(self):
        # x + (0.9 - x) rounds away from 0.9: the step onto a stop must set
        # the parameter to the stop, not add the remaining distance
        prob = _square_root_problem()
        x = 0.06353383458646616
        assert x + (0.9 - x) != 0.9
        branch = continue_branch(prob, np.array([math.sqrt(x)]), [x, 0.9], step0=1.0)
        assert [e.param for e in branch.entries] == [x, 0.9]

    def test_one_entry_range_is_one_corrector_call(self):
        calls = []
        prob = _pitchfork_problem()

        def counted(guess, mu):
            calls.append(mu)
            return prob(guess, mu)

        branch = continue_branch(counted, np.array([0.6]), [0.25], step0=0.05)
        assert calls == [0.25]
        assert [e.param for e in branch.entries] == [0.25] and branch.step_history == []
        assert branch.entries[0].solution[0] == pytest.approx(0.5, abs=1e-12)

    def test_unordered_stops_refused(self):
        with pytest.raises(ValueError, match="ordered in one direction"):
            continue_branch(_pitchfork_problem(), np.array([0.5]), [0.25, 0.5, 0.4], step0=0.05)
        with pytest.raises(ValueError, match="needs a start"):
            continue_branch(_pitchfork_problem(), np.array([0.5]), [], step0=0.05)

    @pytest.mark.parametrize(
        "stops, reached", [((1.0, -1.0), "0 of 1"), ((1.0, 0.5, 0.25, -1.0), "2 of 3")]
    )
    def test_stall_on_unsolvable_range(self, stops, reached):
        # branch u = sqrt(mu) ceases to exist for mu < 0: stepping into the
        # unsolvable range must collapse the step and raise, naming the stop
        # and the stops reached, with the failed corrector's report
        prob = _square_root_problem()
        with pytest.raises(SolveError, match=rf"before stop -1\.0; {reached} stops reached") as err:
            continue_branch(prob, np.array([1.0]), stops, step0=0.25)
        assert err.value.report is not None and err.value.report.converged is False


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
        assert res.t[-1] == pytest.approx(1.0, abs=1e-10)
        assert abs(res.y[-1, 0]) <= 1e-10

    def test_terminal_event_ends_the_run_at_its_crossing(self):
        # y = cos t falls through zero at pi/2 and 5 pi/2, rises at 3 pi/2:
        # the run ends at the first falling crossing, the one solve_ivp
        # locates, and a range without a crossing runs to its end
        ev = lambda t, y: y[0]
        ev.terminal = True
        ev.direction = -1
        field = lambda t, y: np.array([y[1], -y[0]])
        res = integrate_ode(
            field, [1.0, 0.0], (0.0, 10.0), rtol=1e-10, atol=1e-12, events=[ev], stiff=self.stiff
        )
        ref = solve_ivp(
            field, (0.0, 10.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12, events=ev
        )
        assert res.status == "event"
        assert res.t[-1] == ref.t_events[0][0] == pytest.approx(math.pi / 2, abs=1e-8)
        assert np.array_equal(res.y[-1], ref.y_events[0][0]) and abs(res.y[-1, 0]) < 1e-8
        short = integrate_ode(field, [1.0, 0.0], (0.0, 1.0), events=[ev], stiff=self.stiff)
        assert short.status == "completed" and short.t[-1] == 1.0

    def test_nonterminal_event_refused(self):
        # the result records no crossing that does not end the run
        ev = lambda t, y: y[0]
        ev.direction = -1
        field = lambda t, y: np.array([y[1], -y[0]])
        with pytest.raises(ValueError, match="must be terminal"):
            integrate_ode(field, [1.0, 0.0], (0.0, 10.0), events=[ev], stiff=self.stiff)
        ev.terminal = False
        with pytest.raises(ValueError, match="must be terminal"):
            integrate_ode(field, [1.0, 0.0], (0.0, 10.0), events=[ev], stiff=self.stiff)

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

    def test_empty_range(self):
        res = integrate_ode(lambda t, y: -y, [1.0], (0.5, 0.5), stiff=self.stiff)
        assert res.status == "completed"
        assert res.t[-1] == 0.5 and res.y[-1, 0] == 1.0

    def test_steps_match_scipy_stepper(self):
        # the same run through solve_ivp ends in the same state after the
        # same number of accepted steps
        field = lambda t, y: np.array([y[1], -math.sin(y[0])])
        res = integrate_ode(field, [0.9, 0.0], (0.0, 5.0), rtol=1e-9, atol=1e-12, stiff=self.stiff)
        ref = solve_ivp(
            field,
            (0.0, 5.0),
            [0.9, 0.0],
            method="LSODA" if self.stiff else "DOP853",
            rtol=1e-9,
            atol=1e-12,
        )
        assert res.steps == len(ref.t) - 1 > 0
        assert np.array_equal(res.y[-1], ref.y[:, -1])

    def test_field_warnings_pass_through(self):
        def field(t, y):
            warnings.warn("from the field", UserWarning)
            return -y

        with pytest.warns(UserWarning, match="from the field"):
            integrate_ode(field, [1.0], (0.0, 1.0), stiff=self.stiff)


class TestIntegrateOdeStiff(TestIntegrateOde):
    stiff = True  # one odeint call: the two endpoints, no events

    def test_linear_event_time(self):
        ev = lambda t, y: y[0]
        ev.terminal = True
        with pytest.raises(ValueError, match="no events"):
            integrate_ode(lambda t, y: np.array([-1.0]), [1.0], (0.0, 3.0), events=[ev], stiff=True)

    def test_terminal_event_ends_the_run_at_its_crossing(self):
        ev = lambda t, y: y[0]
        ev.terminal = True
        field = lambda t, y: np.array([y[1], -y[0]])
        with pytest.raises(ValueError, match="no events"):
            integrate_ode(field, [1.0, 0.0], (0.0, 10.0), events=[ev], stiff=True)


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
