"""Acceptance suite: every headline quantitative claim at its stated
tolerance, one criterion per test.

Each test finishes by printing a PASS line with the measured values (run
with ``pytest -s tests/test_acceptance.py`` to see them as they go; a
failed criterion fails its test).
"""

import math

import numpy as np
import pytest

from quenchfront import specfun
from quenchfront.folddelay import fit_delay_scaling, run_fold_passage
from quenchfront.painleve import (
    certify_lower_bound,
    certify_potential_positive,
    left_boundary_value,
    linearization_ground_state,
    solve_hastings_mcleod,
)
from quenchfront.pdesim import SimConfig, compare_homogeneous_quench, simulate, steady_state
from quenchfront.solvercore import eig_tridiag_symmetric, integrate_ode, solve_bvp
from quenchfront.stability import build_Lc, leading_eigenvalues
from quenchfront.travelingwave import (
    QuenchParams,
    compare_with_rescaled_profile,
    front_branch,
    solve_front,
    stationary_amplitude_at_pitchfork,
)

OMEGA0_REF = 2.338107


def _report(k, message):
    print(f"criterion {k}: PASS - {message}")


@pytest.fixture(scope="module")
def hm_solution():
    return solve_hastings_mcleod(12.0, 8.0, 8001)


@pytest.fixture(scope="module")
def front_c12_branch():
    return front_branch(1.2, np.geomspace(2.5e-4, 2.5e-3, 10))


def test_criterion_1_omega0():
    o = specfun.omega0()
    assert o.value == pytest.approx(OMEGA0_REF, abs=5e-7)
    airy_at_root = specfun.airy(-o.value).value
    assert abs(airy_at_root) < 1e-8
    _report(1, f"Omega0 = {o.value:.9f}, |Ai(-Omega0)| = {abs(airy_at_root):.2e}")


def test_criterion_2_fold_delay_law():
    eps_list = np.geomspace(1e-5, 1e-3, 7)
    records = [run_fold_passage(1.2, float(e), 0.25) for e in eps_list]
    fit = fit_delay_scaling(records)
    assert fit.exponent == pytest.approx(0.667, abs=0.02)
    assert fit.reference_prefactor == pytest.approx(2.1315, abs=2e-4)
    assert fit.prefactor == pytest.approx(fit.reference_prefactor, rel=0.05)
    _report(
        2,
        f"exponent = {fit.exponent:.4f} (0.667 +- 0.02), prefactor = "
        f"{fit.prefactor:.4f} vs {fit.reference_prefactor:.4f} "
        f"({100*(fit.prefactor/fit.reference_prefactor-1):+.2f}%)",
    )


def test_criterion_3_bvp_delay_slope(front_c12_branch):
    fronts = front_c12_branch.fronts
    assert len(fronts) == 10
    eps = np.array([f.params.epsilon for f in fronts])
    delays = np.array([f.mu_fr - 0.36 for f in fronts])
    assert np.all(delays > 0.0), "mu_fr - mu_c must be positive at every point"
    slope = np.polyfit(np.log(eps), np.log(delays), 1)[0]
    assert slope == pytest.approx(0.65, abs=0.05)
    _report(3, f"log-log slope = {slope:.4f} (0.65 +- 0.05), all delays positive")


def test_criterion_4_hastings_mcleod_certificates(hm_solution):
    sol = hm_solution
    w0 = float(np.interp(0.0, sol.eta, sol.w))
    assert w0 >= 0.3550280
    cert = certify_potential_positive(sol)
    assert cert.min_value > 0.0 and cert.margin_bound > 0.0
    assert certify_lower_bound(sol) is True
    assert np.max(np.diff(sol.w)) <= 1e-9  # strict monotone decay
    # boundary-series agreement at eta = -12 measured inside a wider window
    wide = solve_hastings_mcleod(14.0, 10.0, 16001)
    w12 = float(np.interp(-12.0, wide.eta, wide.w))
    assert w12 / math.sqrt(6.0) == pytest.approx(1.0 + 1.0 / (8.0 * (-12.0) ** 3), abs=1e-5)
    assert abs(float(np.interp(0.0, wide.eta, wide.w)) - w0) < 1e-6
    _report(
        4,
        f"w(0) = {w0:.7f} >= 0.3550280, min(eta+6w^2) = {cert.min_value:.4f} "
        f"(margin {cert.margin_bound:.4f}), lower bound certified, trans-series ok",
    )


def test_criterion_5_inner_expansion(hm_solution):
    hm = hm_solution
    s1 = solve_front(QuenchParams(0.0, 0.00981), 5.0 / 0.00981 + 1.0, 4001)
    dev1, e1 = compare_with_rescaled_profile(s1, hm.eta, hm.w)
    assert dev1 <= 2.0 * e1
    s2 = front_branch(0.0, [8.27e-4]).fronts[0]
    dev2, e2 = compare_with_rescaled_profile(s2, hm.eta, hm.w)
    assert dev2 <= 2.0 * e2
    # the remainder ratio must not grow (bounded within a factor 3); here it
    # in fact shrinks, the deviation being higher order on this window
    assert dev2 / e2 <= 3.0 * (dev1 / e1)
    _report(
        5,
        f"sup dev = {dev1:.2e} <= 2 eps^(2/3) = {2*e1:.2e} at eps = 9.81e-3; "
        f"ratio {dev1/e1:.4f} -> {dev2/e2:.4f} at eps = 8.27e-4 (no growth)",
    )


def test_criterion_6_amplitude_scaling():
    branch = front_branch(0.0, np.geomspace(1e-3, 1e-2, 8))
    slope = stationary_amplitude_at_pitchfork(branch.fronts)
    assert slope == pytest.approx(1.0 / 3.0, abs=0.05)
    _report(6, f"u(xi=0) scaling exponent = {slope:.4f} (1/3 +- 0.05)")


def test_criterion_7_spectral_negativity(hm_solution):
    front = solve_front(QuenchParams(1.2, 0.0025), 2000.0, 4001)
    spec = leading_eigenvalues(build_Lc(front, h=0.25), 3)
    fine = leading_eigenvalues(build_Lc(front, h=0.125), 3)
    assert spec.eigenvalues[0] < 0.0 and fine.eigenvalues[0] < 0.0
    pii = linearization_ground_state(hm_solution)
    assert pii.eigenvalues[0] < 0.0
    # box-potential oracle at 1e-8 against the exact discrete spectrum
    n_int, box = 49, 10.0
    h = box / (n_int + 1)
    bspec = eig_tridiag_symmetric(
        np.full(n_int, -2.0 / h**2 - 1.0), np.full(n_int - 1, 1.0 / h**2), 3
    )
    for k, lam in enumerate(bspec.eigenvalues, start=1):
        want = -1.0 - (4.0 / h**2) * math.sin(k * math.pi * h / (2.0 * box)) ** 2
        assert lam == pytest.approx(want, abs=1e-8)
    _report(
        7,
        f"lambda0(Lc) = {spec.eigenvalues[0]:.5f} (refined {fine.eigenvalues[0]:.5f}) < 0; "
        f"ground state of the connection linearization = {pii.eigenvalues[0]:.4f} < 0; "
        f"box oracle to 1e-8",
    )


def test_criterion_8_pde_cross_validation():
    # (a) the comoving discrete steady state within 5e-3 of the BVP front
    # (Richardson pair)
    front = solve_front(QuenchParams(1.2, 0.0025), 2000.0, 8001)
    lo, hi = -60.0, front.zeta_fr + 200.0
    finals = {}
    for h in (0.2, 0.1):
        n = int(round((hi - lo) / h)) + 1
        cfg = SimConfig(frame="comoving", c=1.2, epsilon=0.0025, domain=(lo, hi), n=n)
        finals[h] = steady_state(cfg)
    coarse, fine = finals[0.2], finals[0.1]
    u_sim = (16.0 * fine.u[::2] - coarse.u) / 15.0  # pdesim is fourth order in space
    u_bvp = np.interp(coarse.x, front.mesh.nodes, front.u)
    sup = float(np.max(np.abs(u_sim - u_bvp)))
    assert sup <= 5e-3

    # (b) frozen mu = 1 invasion at speed 2 +- 0.05
    cfg = SimConfig(
        frame="lab", frozen_mu=1.0, domain=(0.0, 200.0), n=2001, t_end=60.0,
        ic="small-bump", ic_width=5.0, ic_amplitude=0.05,
    )
    res = simulate(cfg)
    tt, xx = res.track.times, res.track.x_fr_num
    sel = (tt >= 30.0) & np.isfinite(xx)
    speed = float(np.polyfit(tt[sel], xx[sel], 1)[0])
    assert speed == pytest.approx(2.0, abs=0.05)

    # (c) homogeneous quench: measured front at or ahead of the prediction
    cfg = SimConfig(
        frame="lab", alpha=0.0, epsilon=0.005, domain=(0.0, 300.0), n=3001,
        t_end=200.0, ic="small-bump", ic_width=5.0, ic_amplitude=0.05,
    )
    comp = compare_homogeneous_quench(cfg, simulate(cfg))
    assert comp.nonnegative_after_transient and comp.growing
    _report(
        8,
        f"comoving sup dev = {sup:.2e} <= 5e-3; speed = {speed:.4f} (2 +- 0.05); "
        f"quench lead nonnegative and growing (final lead {comp.difference[-1]:.2f})",
    )


def test_criterion_9_property_suites(tmp_path):
    # Newton oracle: sinh BVP at 1e-6
    n = 101
    x = np.linspace(0.0, 1.0, n)
    h = x[1] - x[0]

    def residual(u):
        r = np.empty(n)
        r[0] = u[0] - 1.0
        r[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2 - u[1:-1]
        r[-1] = u[-1]
        return r

    def jacobian(u):
        ab = np.zeros((3, n))
        ab[0, 2:] = 1.0 / h**2
        ab[1, 1:-1] = -2.0 / h**2 - 1.0
        ab[2, :-2] = 1.0 / h**2
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = ab[2, -2] = 0.0
        return ab

    u, rep = solve_bvp(residual, jacobian, np.linspace(1, 0, n), tol=1e-8)
    assert rep.converged
    assert np.max(np.abs(u - np.sinh(1 - x) / math.sinh(1.0))) <= 1e-6

    # eigensolver oracle: tridiagonal Toeplitz closed form
    spec = eig_tridiag_symmetric(np.full(100, -2.0), np.ones(99), 1)
    assert spec.eigenvalues[0] == pytest.approx(-2 + 2 * math.cos(math.pi / 101), abs=1e-10)

    # ODE time reversal
    field = lambda t, y: np.array([y[1], -math.sin(y[0])])
    fwd = integrate_ode(field, [0.7, 0.0], (0.0, 4.0), rtol=1e-9, atol=1e-12)
    back = integrate_ode(field, fwd.y[-1], (4.0, 0.0), rtol=1e-9, atol=1e-12)
    assert np.max(np.abs(back.y[-1] - [0.7, 0.0])) <= 1e-8

    # front monotonicity and plateau invariants
    front = solve_front(QuenchParams(1.2, 0.005), 1000.0, 3001)
    assert np.min(np.diff(front.u)) >= -1e-9
    left = front.mu <= 0.26
    assert np.max(front.u[left]) < 1e-3

    # trapping bound by backward shooting (frozen-ramp subsystem)
    theta, c = 0.02, 1.2
    z_star, u_star = -c / 2.0, math.sqrt(theta + c * c / 4.0)
    nu_s = c / 2.0 - math.sqrt(3 * c * c / 4.0 + 2 * theta)
    vec = np.array([nu_s / u_star, 1.0])
    vec /= np.linalg.norm(vec)
    ev = lambda t, y: y[0]
    ev.terminal = True
    res = integrate_ode(
        lambda t, y: np.array([-y[0] ** 2 - theta + y[1] ** 2, (y[0] + c / 2) * y[1]]),
        np.array([z_star, u_star]) - 1e-7 * vec,
        (0.0, -200.0),
        rtol=1e-10,
        atol=1e-13,
        events=[ev],
    )
    assert res.status == "event"
    u_s = res.y[-1, 1]
    assert 0.0 < u_s <= theta / math.sqrt(theta + c * c / 4.0) + 1e-12

    # CLI determinism
    from quenchfront import cli

    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert (
            cli.main(
                ["pde", "--frozen-mu", "1", "--domain", "0", "100", "--n", "501",
                 "--t-end", "10", "--outdir", str(d)]
            )
            == 0
        )
    assert (tmp_path / "a" / "pde_snapshots.csv").read_bytes() == (
        tmp_path / "b" / "pde_snapshots.csv"
    ).read_bytes()
    _report(9, "solver/ODE/eigen oracles, front invariants, trapping bound, CLI determinism")
