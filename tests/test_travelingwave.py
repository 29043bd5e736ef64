"""Tests for the front boundary-value problem, interface diagnostics, the
delay prediction, and the eps-continuation machinery.

The frozen-ramp (z, u) subsystem oracles (trapping bound and local-manifold
tangency) are exercised by backward shooting with the shared RK integrator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchfront.painleve import solve_hastings_mcleod
from quenchfront.solvercore import integrate_ode
from quenchfront.travelingwave import (
    FrontSolution,
    QuenchParams,
    compare_with_rescaled_profile,
    default_halflength,
    delay_prefactor,
    front_branch,
    front_location,
    predicted_delay,
    projection_rates,
    solve_front,
    stationary_amplitude_at_pitchfork,
)
from quenchfront.solvercore import Mesh, NewtonReport, SolveError


class TestEquilibria:
    def test_fast_unstable_rate(self):
        # c/2 + sqrt(c^2/4 + 1) at u = 0, mu = -1
        nu_u, _ = projection_rates(1.2, -1.0, 1.0)
        assert nu_u == pytest.approx(0.6 + math.sqrt(1.36), abs=1e-6)
        assert nu_u == pytest.approx(1.766190, abs=1e-6)

    def test_fast_stable_rate(self):
        # c/2 - sqrt(c^2/4 + 2) = 0.6 - sqrt(2.36) at u = 1, mu = 1
        _, nu_s = projection_rates(1.2, -1.0, 1.0)
        assert nu_s == pytest.approx(0.6 - math.sqrt(2.36), abs=1e-6)
        assert nu_s == pytest.approx(-0.936229, abs=1e-6)


class TestPredictedDelay:
    def test_reference_point(self):
        # 0.36 + 2.338107 * 0.8704^{2/3} * 0.0025^{2/3}
        assert predicted_delay(1.2, 0.0025) == pytest.approx(0.3992618, abs=1e-5)

    def test_small_speed_limit(self):
        eps = 1e-3
        want = 1e-8 / 4 + 2.338107410459767 * eps ** (2.0 / 3.0)
        assert predicted_delay(1e-4, eps) == pytest.approx(want, rel=1e-6)

    def test_zero_ramp_rate(self):
        assert predicted_delay(1.2, 0.0) == pytest.approx(0.36)

    @pytest.mark.parametrize("c", [0.4, 1.2, 1.6])
    def test_law_is_built_on_the_prefactor(self, c):
        for eps in (1e-5, 2.5e-4, 2.5e-3):
            assert predicted_delay(c, eps) == c * c / 4 + delay_prefactor(c) * eps ** (2 / 3)


@pytest.fixture(scope="module")
def front_c12():
    return solve_front(QuenchParams(1.2, 0.0025), domain_halflength=2000.0, n=4001)


class TestSolveFront:
    def test_converged_with_positive_delay(self, front_c12):
        sol = front_c12
        assert sol.report.converged
        assert sol.mu_fr is not None and sol.mu_fr - 0.36 > 0.0

    def test_monotone(self, front_c12):
        assert np.min(np.diff(front_c12.u)) >= -1e-9

    def test_amplitude_bounds(self, front_c12):
        assert np.all(front_c12.u >= -1e-9)
        assert np.all(front_c12.u <= 1.0 + 1e-6)

    def test_mu_is_closed_form(self, front_c12):
        sol = front_c12
        want = np.tanh(0.0025 * sol.mesh.nodes)
        assert np.max(np.abs(sol.mu - want)) < 1e-12

    def test_plateau_property(self, front_c12):
        sol = front_c12
        left = sol.mu <= 0.36 - 0.1
        right = sol.mu >= 0.36 + 0.1
        assert np.max(sol.u[left]) < 1e-3
        assert np.max(np.abs(sol.u[right] - np.sqrt(sol.mu[right]))) < 1e-2

    def test_delay_matches_prediction_within_20_percent(self, front_c12):
        sol = front_c12
        got = sol.mu_fr - 0.36
        want = predicted_delay(1.2, 0.0025) - 0.36
        assert abs(got - want) <= 0.2 * want

    def test_mesh_refinement_invariance(self, front_c12):
        finer = solve_front(QuenchParams(1.2, 0.0025), domain_halflength=2000.0, n=8001)
        assert abs(finer.mu_fr - front_c12.mu_fr) < 1e-4

    def test_domain_too_short(self):
        with pytest.raises(ValueError, match="domain too short"):
            solve_front(QuenchParams(1.2, 0.0025), domain_halflength=100.0)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="n >= 2001"):
            solve_front(QuenchParams(1.2, 0.01), domain_halflength=600.0, n=501)

    def test_stationary_front(self):
        sol = solve_front(QuenchParams(0.0, 0.00981), domain_halflength=511.0, n=3001)
        assert sol.report.converged
        assert sol.mu_fr is None
        # amplitude at the instantaneous pitchfork point scales like
        # sqrt(2) eps^{1/3} w(0) with w(0) ~ 0.367
        assert sol.u_at_origin == pytest.approx(
            math.sqrt(2.0) * 0.00981 ** (1 / 3) * 0.367, rel=0.05
        )

    def test_stationary_amplitude_against_painleve_ii(self):
        # u(0) = sqrt(2) w_HM(0) eps^{1/3} + O(eps^{2/3}), with w_HM(0) the
        # 16001/32001 Richardson value (0.36706155155); the gaps over
        # eps^{2/3} measure -0.0069, -0.0015 and -0.0002.  Below eps = 1e-4
        # the 4001-node solve's own floor shows
        coarse, fine = (solve_hastings_mcleod(12.0, 8.0, m) for m in (16001, 32001))
        i, j = 3 * 16000 // 5, 3 * 32000 // 5
        assert coarse.eta[i] == fine.eta[j] == 0.0
        prefactor = math.sqrt(2.0) * (4.0 * fine.w[j] - coarse.w[i]) / 3.0
        for eps in (1e-2, 1e-3, 1e-4):
            sol = solve_front(QuenchParams(0.0, eps), domain_halflength=5.0 / eps, n=4001)
            assert sol.report.converged
            assert abs(sol.u_at_origin / eps ** (1 / 3) - prefactor) <= 0.01 * eps ** (2 / 3)


    @pytest.mark.parametrize(
        "c,eps,lo,hi", [(0.0, 9.81e-3, 3.5, 4.5), (1.2, 2.5e-3, 3.0, math.inf)], ids=["c=0", "c=1.2"]
    )
    def test_newton_stops_on_every_mesh(self, c, eps, lo, hi):
        # the residual's rounding floor grows like 1/h^2 and passes 1e-10 by
        # n = 16001; the step stop still ends every solve.  u(0) at c = 0
        # converges at second order (difference ratios 3.998, 3.999).  mu_fr
        # is a threshold crossing interpolated linearly in mu, no clean h^2
        # series: its differences 3.94e-8, 8.50e-9, 2.43e-9 shrink by 4.64
        # and 3.50, so each must shrink by at least 3
        values = []
        for n in (4001, 8001, 16001, 32001):
            sol = solve_front(QuenchParams(c, eps), domain_halflength=5.0 / eps, n=n)
            assert sol.report.converged
            values.append(sol.u_at_origin if c == 0.0 else sol.mu_fr)
        diffs = np.abs(np.diff(values))
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((lo <= ratios) & (ratios <= hi))


class TestSmallGammaSeed:
    """Below gamma = c/eps^{1/3} = 1 the seed anchors on the inner
    Hastings-McLeod tail, before mu_c, not at the delay law."""

    # the cells of c in {1e-6, 1e-4, 1e-3, 3e-3, 0.01} x eps in {0.1, 1e-2,
    # 1e-3, 1e-4, 1e-5, 1e-7} that failed at front's defaults when the seed
    # anchored at the delay law for every gamma; from the tail anchor, with
    # the plateau floored where it first reaches the tail, all 30 cells
    # solve, these 15 in 7-24 iterations (measured)
    FAILED_AT_THE_LAW = [
        *((1e-6, eps) for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-7)),
        *((1e-4, eps) for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-7)),
        *((1e-3, eps) for eps in (1e-2, 1e-3, 1e-4)),
        *((3e-3, eps) for eps in (1e-2, 1e-3)),
    ]

    @pytest.mark.parametrize("c,eps", FAILED_AT_THE_LAW)
    def test_solves_where_the_law_anchor_failed(self, c, eps):
        sol = solve_front(QuenchParams(c, eps), domain_halflength=5.0 / eps, n=4001)
        assert sol.report.converged and sol.report.iterations <= 30
        assert sol.mu_fr is not None and sol.mu_fr < c * c / 4.0

    @pytest.mark.parametrize("c", [1e-6, 1e-3])
    def test_solves_where_the_tail_passes_one(self, c):
        # at eps = 0.1 the tail from the tail anchor passes u = 1 before mu =
        # 0 at c <= 3e-3, so the anchor moves to mu = c^2/16; 34 and 21
        # iterations (measured; the delay-law anchor took 35 and 21)
        sol = solve_front(QuenchParams(c, 0.1), domain_halflength=50.0, n=4001)
        assert sol.report.converged and sol.report.iterations <= 40

    @pytest.mark.parametrize("c,eps", [(0.2, 1e-3), (0.4, 2.5e-3), (1.2, 1e-6), (1.9, 0.1)])
    def test_law_anchor_kept_from_gamma_one(self, c, eps):
        import quenchfront.travelingwave as tw

        assert tw._seed_mu(c, eps) == tw._interface_mu(c, eps)


_GRID_EPS = (0.1, 1e-2, 1e-3, 1e-5, 1e-7, 1e-9)
# the cells that stalled on uncapped core cells of 3.7-6.4
_GRID_CORNER = [(0.5, 1e-9), (1.9, 1e-9), (1.95, 1e-9)]


class TestCoverageGrid:
    """``solve_front`` at ``front``'s defaults (L = ``default_halflength``,
    n = 4001) over a log grid of c in [1e-6, 1.99] and eps in [1e-11, 0.1]:
    every cell solves within the iterations measured on its part of the
    grid, is refused with its documented reason, or raises ``SolveError``
    where that was measured."""

    @pytest.mark.parametrize(
        "c,eps,max_iter",
        # measured: 4-34 iterations over the other 51 cells, 34 at
        # (1e-6, 0.1); 56, 27 and 39 in the corner, on 8.9k-14.4k nodes where
        # the core cap binds; 11-70 at c = 1.99 (70 at eps = 1e-3); 50 at
        # (1.2, 1e-11), on 36.9k nodes
        [
            (c, eps, 58 if (c, eps) in _GRID_CORNER else 36)
            for c in (1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.2, 1.9, 1.95)
            for eps in _GRID_EPS
        ]
        + [(1.99, eps, 72) for eps in _GRID_EPS[:-1]]
        + [(1.2, 1e-11, 52)],
    )
    def test_solves_within_the_measured_iterations(self, c, eps, max_iter):
        params = QuenchParams(c, eps)
        sol = solve_front(params, domain_halflength=default_halflength(params), n=4001)
        assert sol.report.converged and sol.report.iterations <= max_iter

    @pytest.mark.parametrize("c,eps", [(1.99, 1e-9), (1.95, 1e-11)])
    def test_raises_solve_error_where_measured(self, c, eps):
        # not mended: Newton runs all 80 iterations and stops at residual
        # 4.4e-2 and 3.6e-2 (measured); (0.5, 1e-11) and (1.9, 1e-11) solve
        params = QuenchParams(c, eps)
        with pytest.raises(SolveError, match=f"front solve failed at c={c}, eps={eps}"):
            solve_front(params, domain_halflength=default_halflength(params), n=4001)

    @pytest.mark.parametrize("eps", _GRID_EPS)
    def test_refused_where_the_instability_point_passes_half_the_domain(self, eps):
        # an explicit L = 5/eps puts zeta_c = atanh(c^2/4)/eps at c = 1.99
        # beyond L/2 = 2.5/eps
        with pytest.raises(ValueError, match="beyond L/2"):
            solve_front(QuenchParams(1.99, eps), domain_halflength=5.0 / eps, n=4001)


class TestFrontLocation:
    def _synthetic(self, c, eps, jump_index, at_threshold):
        params = QuenchParams(c, eps)
        nodes = np.linspace(-40.0, 40.0, 81)
        u = np.zeros(81)
        u[jump_index] = c / 4.0 if at_threshold else 1.0
        u[jump_index + 1 :] = 1.0
        return FrontSolution(
            mesh=Mesh(nodes),
            u=u,
            w=None,
            params=params,
            report=NewtonReport(1, 0.0, True),
        )

    def test_step_profile_exact_node(self):
        sol = self._synthetic(1.2, 0.01, 45, at_threshold=True)
        mu_fr, zeta_fr = front_location(sol)
        assert mu_fr == pytest.approx(float(sol.mu[45]), abs=1e-14)
        assert zeta_fr == pytest.approx(float(sol.mesh.nodes[45]), abs=1e-9)

    def test_no_interface(self):
        params = QuenchParams(1.2, 0.01)
        nodes = np.linspace(-40, 40, 81)
        sol = FrontSolution(
            mesh=Mesh(nodes),
            u=np.zeros(81),
            w=None,
            params=params,
            report=NewtonReport(1, 0.0, True),
        )
        with pytest.raises(SolveError):
            front_location(sol)

    def test_stationary_rejected(self):
        params = QuenchParams(0.0, 0.01)
        nodes = np.linspace(-40, 40, 81)
        sol = FrontSolution(
            mesh=Mesh(nodes),
            u=np.linspace(0, 1, 81),
            w=None,
            params=params,
            report=NewtonReport(1, 0.0, True),
        )
        with pytest.raises(ValueError):
            front_location(sol)

    @staticmethod
    def _full_array_read(sol):
        """mu_fr read from the ramp on every node."""
        mu, thr = sol.mu, sol.params.c / 4.0
        j = int(np.nonzero(sol.u >= thr)[0][0])
        if sol.u[j] == thr or j == 0:
            return float(mu[j])
        t = (thr - sol.u[j - 1]) / (sol.u[j] - sol.u[j - 1])
        return float(mu[j - 1] + t * (mu[j] - mu[j - 1]))

    @pytest.mark.parametrize("c", [0.4, 1.2, 1.9])
    def test_two_node_read_of_solved_fronts(self, c):
        sol = solve_front(QuenchParams(c, 5e-3), domain_halflength=1000.0, n=2001)
        assert sol.mu_fr == front_location(sol)[0] == self._full_array_read(sol)

    @pytest.mark.parametrize(
        "jump_index, at_threshold", [(45, True), (45, False), (0, True), (0, False)]
    )
    def test_two_node_read_of_step_profiles(self, jump_index, at_threshold):
        sol = self._synthetic(1.2, 0.01, jump_index, at_threshold)
        assert front_location(sol)[0] == self._full_array_read(sol)


def _branch_ramp(mesh, c, eps):
    """The ramp ``front_branch`` hands its system at ``eps``: tanh(eps z +
    phase) on the nodes z of its shifted frame, phase = atanh(_interface_mu)
    (0 at c = 0)."""
    import quenchfront.travelingwave as tw

    phase = math.atanh(tw._interface_mu(c, eps)) if c > 0.0 else 0.0
    return np.tanh(eps * mesh.nodes + phase)


class TestFrontBranch:
    def test_small_branch_slope(self):
        targets = np.geomspace(1e-3, 2.5e-3, 5)
        fb = front_branch(1.2, targets)
        assert len(fb.fronts) == 5
        eps = np.array([f.params.epsilon for f in fb.fronts])
        delays = np.array([f.mu_fr - 0.36 for f in fb.fronts])
        assert np.all(delays > 0)
        slope = np.polyfit(np.log(eps), np.log(delays), 1)[0]
        assert 0.55 <= slope <= 0.75

    def test_entries_satisfy_residual_tolerance(self):
        import quenchfront.travelingwave as tw

        fb = front_branch(1.2, [2.5e-3, 1.5e-3])
        # the discretization front_branch continues on: its mesh, in the
        # frame shifted by atanh(_interface_mu)/eps
        system = tw._LogFrontSystem(fb.mesh, 1.2)
        for entry in fb.branch.entries:
            mu = _branch_ramp(fb.mesh, 1.2, math.exp(entry.param))
            r = system.equations(mu)[0](entry.solution)
            assert np.max(np.abs(r)) <= 1e-10

    def test_one_newton_solve_per_step(self, monkeypatch):
        # no seed solve, segment restart or landing re-solve: every Newton
        # call is one accepted continuation step (or the start)
        import quenchfront.travelingwave as tw

        calls = []
        solve = tw.solve_bvp

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(tw, "solve_bvp", counted)
        targets = list(np.geomspace(1e-3, 2.5e-3, 5))
        fb = front_branch(1.2, targets)
        assert len(calls) == len(fb.branch.entries)
        assert [f.params.epsilon for f in fb.fronts] == sorted(targets, reverse=True)

    @pytest.mark.parametrize("c", [0.4, 0.8, 1.2, 1.6, 1.8, 1.9, 1.95])
    def test_every_front_nonnegative_and_monotone(self, c):
        # the paper's existence claim over 0 < c < 2, with the delayed
        # interface; u underflows to 0 deep in the tail, and min diff(u)
        # measures >= -1.1e-16
        branch = front_branch(c, np.geomspace(2.5e-4, 2.5e-3, 10))
        assert len(branch.fronts) == 10
        for front in branch.fronts:
            assert np.all(front.u >= 0.0)
            assert np.min(np.diff(front.u)) >= -1e-9
            assert front.mu_fr > c * c / 4.0

    @pytest.mark.parametrize(
        "c,eps",
        [(1.95, 1e-6), (1.9, 1e-7), (0.4, 2.5e-4), (1.2, 2.5e-3), (1.99, 1e-3), (0.0, 8.27e-4)],
    )
    def test_single_target_near_two_matches_the_direct_solve(self, c, eps):
        # a single target is the direct solve's discrete problem in the
        # branch's shifted frame: measured, the same 26, 29, 6, 7, 70 and 6
        # iterations, and mu_fr (u(0) at c = 0) within 1.7e-16
        fb = front_branch(c, [eps])
        front = fb.fronts[0]
        params = QuenchParams(c, eps)
        direct = solve_front(params, domain_halflength=default_halflength(params))
        assert front.report.converged
        assert front.report.iterations == direct.report.iterations <= (72 if c == 1.99 else 40)
        assert np.min(np.diff(front.u)) >= -1e-9
        if c > 0.0:
            assert front.mu_fr > c * c / 4.0
            assert abs(front.mu_fr - direct.mu_fr) <= 1e-12
        else:
            assert abs(front.u_at_origin - direct.u_at_origin) <= 1e-12

    def test_failure_names_c_and_the_eps_range(self, monkeypatch):
        # a failed start or a stall reaches the caller as one SolveError
        # that keeps the corrector's report
        import quenchfront.travelingwave as tw

        report = NewtonReport(80, 2e-10, False)

        def stalled(*args):
            raise SolveError("continuation stalled at parameter -9.0 before stop -9.2", report)

        monkeypatch.setattr(tw, "continue_branch", stalled)
        with pytest.raises(
            SolveError,
            match=r"c=1\.2 failed over eps from 0\.01 down to 0\.0001 "
            r"\(continuation parameter log eps\): continuation stalled at parameter -9\.0",
        ) as err:
            front_branch(1.2, [1e-3, 1e-2, 1e-4])
        assert err.value.report is report

    def test_monotone_parameter_path(self):
        fb = front_branch(0.0, [5e-3, 2e-3])
        p = [e.param for e in fb.branch.entries]
        assert np.all(np.diff(p) < 0)

    def test_corner_target_solved_and_bad_targets_refused(self):
        # the interface clip keeps the shifted frame's atanh phase defined
        # where the law passes mu = 1: predicted_delay(1.99, 0.1) = 1.027
        fb = front_branch(1.99, [0.1])
        assert len(fb.branch.entries) == 1 and fb.fronts[0].report.converged
        assert 1.99**2 / 4.0 < fb.fronts[0].mu_fr < 1.0
        for bad in ([0.11], [2.5e-3, 0.0], [-1e-3], []):
            with pytest.raises(ValueError):
                front_branch(1.2, bad)


class TestOneAssemblyPerIterate:
    """``equations``' residual keeps w' and e^{2w} for the jacobian at the
    same iterate; every Jacobian equals a from-scratch one."""

    @staticmethod
    def _system(c=1.2, eps=1e-3):
        import quenchfront.travelingwave as tw

        params = QuenchParams(c, eps)
        mesh = tw._front_mesh(params, 5.0 / eps, 2001)
        system = tw._LogFrontSystem(mesh, c)
        mu = params.mu_of_zeta(mesh.nodes)
        return system, tw._front_seed(mesh.nodes, mu, c, eps), mu

    @staticmethod
    def _counting_differences(system, monkeypatch):
        # ``differences`` is the one place w' is formed
        calls = []
        differences = system.differences

        def counted(w):
            calls.append(1)
            return differences(w)

        monkeypatch.setattr(system, "differences", counted)
        return calls

    def test_jacobian_after_residual_at_the_same_iterate(self, monkeypatch):
        system, w, mu = self._system()
        calls = self._counting_differences(system, monkeypatch)
        residual, jacobian = system.equations(mu)
        r = residual(w)
        got = jacobian(w)
        assert len(calls) == 1  # the jacobian reused the residual's w'
        fresh_residual, fresh_jacobian = system.equations(mu)
        assert np.array_equal(got, fresh_jacobian(w))
        assert np.array_equal(r, fresh_residual(w))

    def test_jacobian_at_an_earlier_trial_recomputes(self, monkeypatch):
        # the line search accepting an earlier trial than the one last evaluated
        system, w1, mu = self._system()
        w2 = w1 + 1e-3 * np.sin(np.arange(w1.size))
        residual, jacobian = system.equations(mu)
        residual(w1)
        residual(w2)
        calls = self._counting_differences(system, monkeypatch)
        got = jacobian(w1)
        assert len(calls) == 1
        assert np.array_equal(got, system.equations(mu)[1](w1))


def _stencil_equations(system, mu):
    """The reference assembly: ``equations`` as it was written with the
    three-term stencils d2m w_{i-1} + d2c w_i + d2p w_{i+1} and d1m, d1c, d1p
    and w'^2 - c w', one w' per call of either function."""
    h = np.diff(system.mesh.nodes)
    hm, hp = h[:-1], h[1:]
    d2m, d2c, d2p = 2.0 / (hm * (hm + hp)), -2.0 / (hm * hp), 2.0 / (hp * (hm + hp))
    d1m, d1c, d1p = -hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp))
    c, h0, h1 = system.c, h[0], h[-1]
    nu_u, nu_s = projection_rates(c, mu[0], mu[-1])
    g0 = -nu_u * nu_u + c * nu_u - mu[0]
    u_plus = math.sqrt(mu[-1])

    def derivative(w):
        return d1m * w[:-2] + d1c * w[1:-1] + d1p * w[2:]

    def residual(w):
        dc, e2 = derivative(w), np.exp(2.0 * w)
        r = np.empty_like(w)
        r[1:-1] = (
            d2m * w[:-2] + d2c * w[1:-1] + d2p * w[2:] + dc * dc - c * dc + mu[1:-1] - e2[1:-1]
        )
        r[0] = (w[1] - w[0]) / h0 - 0.5 * h0 * (g0 + e2[0]) - nu_u
        q = nu_s * (1.0 - u_plus * np.exp(-w[-1]))
        d2 = c * q - q * q - mu[-1] + e2[-1]
        r[-1] = (w[-1] - w[-2]) / h1 + 0.5 * h1 * d2 - q
        return r

    def jacobian(w):
        dc, e2 = derivative(w), np.exp(2.0 * w)
        g = 2.0 * dc - c
        ab = np.empty((3, w.size))
        ab[0, 2:] = d2p + g * d1p
        ab[1, 1:-1] = d2c + g * d1c - 2.0 * e2[1:-1]
        ab[2, :-2] = d2m + g * d1m
        ab[0, 0], ab[0, 1] = 0.0, 1.0 / h0
        ab[1, 0] = -1.0 / h0 - h0 * e2[0]
        dq = nu_s * u_plus * np.exp(-w[-1])
        q = nu_s - dq
        ab[2, -2], ab[2, -1] = -1.0 / h1, 0.0
        ab[1, -1] = 1.0 / h1 + 0.5 * h1 * ((c - 2.0 * q) * dq + 2.0 * e2[-1]) - dq
        return ab

    return residual, jacobian


class TestAssemblyAgainstStencil:
    """``equations`` forms w'' and w' from one first difference and writes
    its rows in place; the three-term-stencil assembly it replaced is the
    reference.  Over these 24 cases, on the branch's mesh and the direct
    one, the residuals differ by at most 1.7e-11 (a quarter of the Newton
    tolerance 1e-10 is asserted), each Jacobian band by at most 1.4e-14 of
    its largest entry (5e-14 asserted), and the Newton solves from the seed
    take the same iterations and halvings and end within 6.6e-12 in u
    (5e-11 asserted)."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("mesh_kind", ["branch", "default"])
    @pytest.mark.parametrize("c", [0.0, 0.6, 1.2, 1.9])
    def test_matches_the_stencil_assembly(self, c, mesh_kind, eps):
        import quenchfront.travelingwave as tw
        from quenchfront.solvercore import solve_bvp

        params = QuenchParams(c, eps)
        if mesh_kind == "branch":
            mesh = front_branch(c, [eps]).mesh
            mu = _branch_ramp(mesh, c, eps)
        else:
            mesh = tw._front_mesh(params, default_halflength(params), 4001)
            mu = params.mu_of_zeta(mesh.nodes)
        system = tw._LogFrontSystem(mesh, c)
        seed = tw._front_seed(mesh.nodes, mu, c, eps)
        w, report = system.solve(seed, mu)
        ref_residual, ref_jacobian = _stencil_equations(system, mu)
        with np.errstate(over="ignore"):
            w_ref, ref_report = solve_bvp(ref_residual, ref_jacobian, seed, tw._TOL, max_iter=80)
        assert report.converged and ref_report.converged
        assert report.iterations == ref_report.iterations
        assert report.damping_history == ref_report.damping_history
        assert np.max(np.abs(np.exp(w) - np.exp(w_ref))) <= 5e-11
        residual, jacobian = system.equations(mu)
        for x in (seed, w):
            assert np.max(np.abs(residual(x) - ref_residual(x))) <= 0.25 * tw._TOL
            ab, ab_ref = jacobian(x), ref_jacobian(x)
            scale = np.max(np.abs(ab_ref), axis=1, keepdims=True)
            assert np.max(np.abs(ab - ab_ref) / scale) <= 5e-14


class TestContinuousSeed:
    """``_front_seed`` at c > 0 keeps the tail's slope past the anchor up to
    the plateau.  The seed it replaced jumped there from log(c/4) to
    0.5 log(mu), by at least 0.69, and its first solves took 9-12 Newton
    iterations with 63 line-search halvings per pass over the benchmark's
    ``fronts`` inputs (seed 0); these fronts are that seed's, to 1e-9."""

    # mu_fr (u(0) at c = 0) of every front of a ``fronts`` pass, from the
    # step seed, on the branch mesh of ``solve_front``'s rule
    STEP_SEED_BRANCHES = {
        0.4: [0.0650619951464, 0.062663407331, 0.0603273329221, 0.0580990100037,
              0.0560091514042, 0.0540767740857, 0.0523116342065, 0.0507162488508,
              0.0492876521595, 0.0480188708616],
        0.8: [0.195818494753, 0.1909166226, 0.18659736422, 0.182815215155,
              0.179521506222, 0.176666883917, 0.174203082599, 0.172084197252,
              0.170267513648, 0.168713976421],
        1.2: [0.396000779204, 0.390711493863, 0.38615404241, 0.382240069933,
              0.378888171316, 0.37602448832, 0.373582850096, 0.371504596505,
              0.369738170207, 0.368238578095],
        1.6: [0.668442164527, 0.664182721805, 0.66053637306, 0.657421987612,
              0.654767086259, 0.652507560973, 0.650587169144, 0.64895689874,
              0.647574266584, 0.646402621643],
        1.9: [0.915540744506, 0.913607114487, 0.911946132137, 0.91052340263,
              0.909307659785, 0.908270884678, 0.907388229588, 0.906637861523,
              0.906000726457, 0.905460290991],
        0.0: [0.111768230723, 0.100183206231, 0.0897919791211, 0.0804744936703,
              0.0721215124332, 0.0646341856696, 0.0579233751512, 0.0519088790552],
    }
    # the same fronts on the branch's former mesh (uniform core cells of 0.05
    # over the take-off zone); the move measured 1.32e-7 in mu_fr and 1.91e-7
    # in u(0)
    FORMER_MESH_BRANCHES = {
        0.4: [0.0650619708018, 0.0626634009978, 0.0603273195783, 0.0580990115389,
              0.0560091508297, 0.0540767791122, 0.0523116364219, 0.0507162497648,
              0.0492876535204, 0.0480188708264],
        0.8: [0.195818511686, 0.190916621546, 0.186597374644, 0.182815221965,
              0.179521509794, 0.17666688941, 0.174203088044, 0.172084202754,
              0.170267517681, 0.168713980077],
        1.2: [0.396000807767, 0.390711534538, 0.386154069332, 0.382240094216,
              0.378888191704, 0.376024505678, 0.373582865222, 0.371504609282,
              0.369738180614, 0.368238586806],
        1.6: [0.668442254456, 0.664182797768, 0.660536437613, 0.657422040949,
              0.654767129965, 0.652507596976, 0.650587199332, 0.648956922828,
              0.647574286216, 0.646402637355],
        1.9: [0.915540876408, 0.913607224127, 0.911946222154, 0.910523475212,
              0.909307719409, 0.90827093212, 0.907388267788, 0.906637892184,
              0.906000750752, 0.905460310375],
        0.0: [0.111768039359, 0.100183068514, 0.0897918800073, 0.080474422337,
              0.072121461093, 0.0646341487188, 0.0579233485567, 0.0519088599144],
    }
    STEP_SEED_DIRECT = {  # (c, eps, halflength, n)
        (1.2, 2.5e-3, 2000.0, 4001): 0.396000841174,
        (1.2, 2.5e-3, 2000.0, 8001): 0.396000880619,
        (1.2, 5e-3, 1000.0, 3001): 0.414761200258,
        (0.0, 9.81e-3, 5.0 / 9.81e-3 + 1.0, 4001): 0.111057351384,
    }

    def test_fronts_pass_matches_the_step_seed(self, monkeypatch):
        # measured: the largest change 5.4e-12; first solves at c > 0 take
        # 5-8 iterations (8-12 from the step), those at c = 0 5 from either
        # seed; the pass's 4 halvings are all in first solves
        import quenchfront.travelingwave as tw

        reports, solve_bvp = [], tw.solve_bvp

        def counted(*args, **kwargs):
            w, report = solve_bvp(*args, **kwargs)
            reports.append(report)
            return w, report

        monkeypatch.setattr(tw, "solve_bvp", counted)
        halvings = lambda r: sum(round(-math.log2(lam)) for lam in r.damping_history)
        for c, want in self.STEP_SEED_BRANCHES.items():
            move = max(abs(a - b) for a, b in zip(want, self.FORMER_MESH_BRANCHES[c]))
            assert move <= (2e-7 if c == 0.0 else 1.4e-7)
        firsts = []
        for c, want in self.STEP_SEED_BRANCHES.items():
            lo, hi = (1e-3, 1e-2) if c == 0.0 else (2.5e-4, 2.5e-3)
            start = len(reports)
            branch = front_branch(c, np.geomspace(lo, hi, len(want)))
            firsts.append((c, reports[start]))
            got = [f.u_at_origin if c == 0.0 else f.mu_fr for f in branch.fronts]
            assert got == pytest.approx(want, abs=1e-9)
        for (c, eps, half, n), want in self.STEP_SEED_DIRECT.items():
            sol = solve_front(QuenchParams(c, eps), half, n)
            firsts.append((c, reports[-1]))
            assert (sol.u_at_origin if c == 0.0 else sol.mu_fr) == pytest.approx(want, abs=1e-9)
        assert len(reports) == 62
        assert all(r.iterations <= (5 if c == 0.0 else 8) for c, r in firsts)
        assert sum(halvings(r) for r in reports) <= 4
        assert sum(halvings(r) for _, r in firsts) == sum(halvings(r) for r in reports)

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 0.05, 0.4, 1.2, 1.9, 1.95])
    @pytest.mark.parametrize("eps", [1e-7, 2.5e-4, 2.5e-3, 0.1])
    def test_no_rise_steeper_than_the_tail(self, c, eps):
        # w rises from node to node by at most the trapezoid step of the
        # tail's slope q; the step at the anchor broke this by >= 0.69.  The
        # slack is the cumulative sum's rounding (measured 2.1e-8 at
        # |w| ~ 1e8, eps = 1e-7).  c = 1e-6 and 1e-3 lie below gamma = 1 at
        # every eps here: the plateau is floored where it first reaches the
        # tail, or, at eps = 0.1, the tail is anchored at mu = c^2/16
        import quenchfront.travelingwave as tw

        params = QuenchParams(c, eps)
        mesh = tw._front_mesh(params, default_halflength(params), 4001)
        meshes = [(mesh, params.mu_of_zeta(mesh.nodes))]
        if eps >= 2.5e-4:
            mesh = front_branch(c, [eps]).mesh
            meshes.append((mesh, _branch_ramp(mesh, c, eps)))
        for mesh, mu in meshes:
            w = tw._front_seed(mesh.nodes, mu, c, eps)
            q = 0.5 * c + np.sqrt(np.maximum(0.25 * c * c - mu, 0.0))
            rise = np.diff(w) - 0.5 * (q[1:] + q[:-1]) * np.diff(mesh.nodes)
            assert rise.max() <= 1e-14 * np.max(np.abs(w))
            assert w.max() <= 0.0 and np.all(np.diff(w) >= 0.0)


class TestFrontSlope:
    """v = u w' is derived on read from the stored w = log u, by numpy's
    second-order ``np.gradient`` on the front's own nodes."""

    def test_direct_solve(self):
        sol = solve_front(QuenchParams(1.2, 5e-3), domain_halflength=1000.0, n=3001)
        assert np.array_equal(sol.u, np.exp(sol.w))
        assert np.array_equal(sol.v, sol.u * np.gradient(sol.w, sol.mesh.nodes, edge_order=2))
        assert np.min(sol.v) >= 0.0  # the front rises monotonically in zeta

    def test_shifted_frame_branch(self):
        fb = front_branch(1.2, [2.5e-3, 1.5e-3])
        landed = {e.param: e.solution for e in fb.branch.entries}
        for front in fb.fronts:
            w = landed[math.log(front.params.epsilon)]
            assert front.w is w
            assert not np.array_equal(front.mesh.nodes, fb.mesh.nodes)  # shifted frame
            assert np.array_equal(front.v, front.u * np.gradient(w, front.mesh.nodes, edge_order=2))


class TestAmplitudeFit:
    def _fake_front(self, eps, amp):
        params = QuenchParams(0.0, eps)
        nodes = np.linspace(-40, 40, 11)
        return FrontSolution(
            mesh=Mesh(nodes),
            u=np.full(11, amp),
            w=None,
            params=params,
            report=NewtonReport(1, 0.0, True),
            u_at_origin=amp,
        )

    def test_exact_cube_root(self):
        eps = np.geomspace(1e-3, 1e-2, 7)
        fronts = [self._fake_front(e, e ** (1.0 / 3.0)) for e in eps]
        assert stationary_amplitude_at_pitchfork(fronts) == pytest.approx(0.3333, abs=1e-4)

    def test_constant_amplitude(self):
        eps = np.geomspace(1e-3, 1e-2, 7)
        fronts = [self._fake_front(e, 0.5) for e in eps]
        assert stationary_amplitude_at_pitchfork(fronts) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_entries(self):
        eps = np.geomspace(1e-3, 1e-2, 5)
        with pytest.raises(ValueError):
            stationary_amplitude_at_pitchfork([self._fake_front(e, e) for e in eps])

    def test_too_few_usable(self):
        eps = np.geomspace(1e-3, 1e-2, 7)
        fronts = [self._fake_front(e, e) for e in eps]
        for f in fronts[:4]:
            f.report.converged = False
        with pytest.raises(ValueError, match="usable"):
            stationary_amplitude_at_pitchfork(fronts)


class TestFrozenSubsystemOracles:
    """Backward-shooting checks of the frozen-ramp (z, u) system
    z' = -z^2 - theta + u^2, u' = (z + c/2) u for fixed theta > 0."""

    C = 1.2

    def _shoot(self, theta):
        c = self.C
        z_star, u_star = -c / 2.0, math.sqrt(theta + c * c / 4.0)
        nu_s = c / 2.0 - math.sqrt(3.0 * c * c / 4.0 + 2.0 * theta)
        vec = np.array([nu_s / u_star, 1.0])
        vec /= np.linalg.norm(vec)
        start = np.array([z_star, u_star]) - 1e-7 * vec  # branch toward z = 0

        def field(t, y):
            z, u = y
            return np.array([-z * z - theta + u * u, (z + c / 2.0) * u])

        ev = lambda t, y: y[0]
        ev.terminal = True
        res = integrate_ode(field, start, (0.0, -200.0), rtol=1e-10, atol=1e-13, events=[ev])
        assert res.status == "event"
        return res, z_star, u_star

    @pytest.mark.parametrize("theta", [0.005, 0.02, 0.05])
    def test_trapping_bound(self, theta):
        res, _, _ = self._shoot(theta)
        u_s = res.y[-1, 1]
        assert 0.0 < u_s <= theta / math.sqrt(theta + self.C**2 / 4.0) + 1e-12

    def test_tangency_slope(self):
        # manifold leaves the equilibrium along u = h^s(z): du/dz -> b1
        theta = 0.02
        c = self.C
        res, z_star, u_star = self._shoot(theta)
        b1 = (-c - math.sqrt(3 * c * c + 8 * theta)) / (2.0 * math.sqrt(c * c + 4 * theta))
        dist = np.hypot(res.y[:, 0] - z_star, res.y[:, 1] - u_star)
        k = int(np.argmin(np.abs(dist - 1e-3)))
        slope = (res.y[k, 1] - u_star) / (res.y[k, 0] - z_star)
        assert slope == pytest.approx(b1, abs=1e-3)


class TestQuenchParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuenchParams(2.0, 0.01)
        with pytest.raises(ValueError):
            QuenchParams(1.0, 0.0)
        with pytest.raises(ValueError):
            QuenchParams(1.0, 0.2)

    def test_ramp_shapes(self):
        p = QuenchParams(1.0, 0.01)
        assert p.mu_of_zeta(0.0) == pytest.approx(0.0)
        assert p.mu_of_zeta(1000.0) == pytest.approx(1.0, abs=1e-8)

    def test_ramp_inverse_roundtrip(self):
        p = QuenchParams(1.2, 0.004)
        for mu in (-0.9, -0.1, 0.36, 0.8):
            assert p.mu_of_zeta(p.zeta_of_mu(mu)) == pytest.approx(mu, abs=1e-12)
