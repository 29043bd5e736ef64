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

from quenchfront.solvercore import integrate_ode
from quenchfront.travelingwave import (
    FrontSolution,
    NoInterfaceError,
    QuenchParams,
    compare_with_rescaled_profile,
    delay_prefactor,
    front_branch,
    front_location,
    predicted_delay,
    projection_rates,
    solve_front,
    stationary_amplitude_at_pitchfork,
)
from quenchfront.solvercore import Mesh, NewtonReport


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
            v=np.zeros(81),
            mu=params.mu_of_zeta(nodes),
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
            v=np.zeros(81),
            mu=params.mu_of_zeta(nodes),
            params=params,
            report=NewtonReport(1, 0.0, True),
        )
        with pytest.raises(NoInterfaceError):
            front_location(sol)

    def test_stationary_rejected(self):
        params = QuenchParams(0.0, 0.01)
        nodes = np.linspace(-40, 40, 81)
        sol = FrontSolution(
            mesh=Mesh(nodes),
            u=np.linspace(0, 1, 81),
            v=np.zeros(81),
            mu=params.mu_of_zeta(nodes),
            params=params,
            report=NewtonReport(1, 0.0, True),
        )
        with pytest.raises(ValueError):
            front_location(sol)


class TestFrontBranch:
    def test_small_branch_slope(self):
        targets = np.geomspace(1e-3, 2.5e-3, 5)
        fb = front_branch(1.2, targets)
        assert fb.branch.status == "completed"
        eps = np.array([f.params.epsilon for f in fb.fronts])
        delays = np.array([f.mu_fr - 0.36 for f in fb.fronts])
        assert np.all(delays > 0)
        slope = np.polyfit(np.log(eps), np.log(delays), 1)[0]
        assert 0.55 <= slope <= 0.75

    def test_entries_satisfy_residual_tolerance(self):
        fb = front_branch(1.2, [2.5e-3, 1.5e-3])
        for entry in fb.branch.entries:
            r = fb.system.residual(entry.solution, math.exp(entry.param))
            assert np.max(np.abs(r)) <= 1e-10

    def test_one_newton_solve_per_step(self, monkeypatch):
        # no seed solve, segment restart or landing re-solve: every Newton
        # call is one accepted continuation step (or the start)
        import quenchfront.solvercore as sc

        calls = []
        solve = sc.solve_bvp

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sc, "solve_bvp", counted)
        targets = list(np.geomspace(1e-3, 2.5e-3, 5))
        fb = front_branch(1.2, targets)
        assert len(calls) == len(fb.branch.entries)
        assert [f.params.epsilon for f in fb.fronts] == sorted(targets, reverse=True)

    def test_monotone_parameter_path(self):
        fb = front_branch(0.0, [5e-3, 2e-3])
        p = fb.branch.params
        assert np.all(np.diff(p) < 0)

    @pytest.mark.parametrize("c", [1.9, 1.95])
    def test_start_beyond_atanh_phase_refused(self, c, monkeypatch):
        # predicted_delay(c, 0.05) >= 1: refused before any mesh is built
        import quenchfront.travelingwave as tw

        def no_mesh(*args):
            raise AssertionError("mesh built")

        monkeypatch.setattr(tw, "_branch_mesh", no_mesh)
        with pytest.raises(ValueError, match=rf"c={c}, eps_start=0.05: the atanh phase"):
            front_branch(c, [2.5e-3])


class TestAmplitudeFit:
    def _fake_front(self, eps, amp):
        params = QuenchParams(0.0, eps)
        nodes = np.linspace(-40, 40, 11)
        return FrontSolution(
            mesh=Mesh(nodes),
            u=np.full(11, amp),
            v=np.zeros(11),
            mu=params.mu_of_zeta(nodes),
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
        u_s = res.events[0].y[1]
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
