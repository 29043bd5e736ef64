"""Tests for the front-linearization spectra: box-potential oracles, the
negativity of the leading eigenvalue, and the conjugation between the
comoving and symmetrized forms."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from quenchfront.stability import (
    build_Lc,
    leading_eigenvalues,
    operator_from_potential,
)
from quenchfront.travelingwave import QuenchParams, solve_front


@pytest.fixture(scope="module")
def front_c12():
    return solve_front(QuenchParams(1.2, 0.0025), 2000.0, 4001)


@pytest.fixture(scope="module")
def spectrum_c12(front_c12):
    op = build_Lc(front_c12, h=0.25)
    return op, leading_eigenvalues(op, 3)


def _box_operator(L=10.0, n_interior=49, q0=-1.0):
    h = L / (n_interior + 1)
    grid = np.linspace(h, L - h, n_interior)
    return operator_from_potential(grid, np.full(n_interior, q0)), h


class TestBoxOracle:
    def test_discrete_closed_form(self):
        # lambda_k = q0 - (4/h^2) sin^2(k pi h / (2L)); LAPACK bisection via
        # scipy.linalg.eigh_tridiagonal resolves it far below 1e-8
        op, h = _box_operator()
        spec = leading_eigenvalues(op, 4)
        L = 10.0
        for k, lam in enumerate(spec.eigenvalues, start=1):
            want = -1.0 - (4.0 / h**2) * math.sin(k * math.pi * h / (2.0 * L)) ** 2
            assert lam == pytest.approx(want, abs=1e-8)

    def test_convergence_order_two(self):
        # error against the continuum -1 - (pi/L)^2 halves 4x per refinement
        errs = []
        for m in (49, 99, 199):
            op, _ = _box_operator(n_interior=m)
            lam = leading_eigenvalues(op, 1).eigenvalues[0]
            errs.append(abs(lam - (-1.0 - (math.pi / 10.0) ** 2)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders)

    def test_symmetry_by_construction(self):
        op, _ = _box_operator(n_interior=20)
        dense = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
        assert np.array_equal(dense, dense.T)


class TestFrontSpectrum:
    def test_all_leading_negative(self, spectrum_c12):
        _, spec = spectrum_c12
        assert np.all(spec.eigenvalues < 0.0)
        gap = abs(spec.eigenvalues[0])
        assert gap > 0.0

    def test_sign_stable_under_refinement(self, front_c12, spectrum_c12):
        _, coarse = spectrum_c12
        fine = leading_eigenvalues(build_Lc(front_c12, h=0.125), 3)
        assert np.all(fine.eigenvalues < 0.0)
        # no translation zero mode: the gap stays bounded away from zero
        assert abs(fine.eigenvalues[0]) > 1e-3
        assert abs(coarse.eigenvalues[0]) > 1e-3
        assert abs(fine.eigenvalues[0] - coarse.eigenvalues[0]) < 1e-4

    @pytest.mark.parametrize("c", [0.4, 1.2, 1.8])
    @pytest.mark.parametrize("eps", [2.5e-3, 2.5e-4])
    def test_leading_eigenvalue_negative_across_speeds(self, c, eps):
        # the paper's stability claim over 0 < c < 2; lambda0 measures from
        # -1.04e-2 (c = 0.4, eps = 2.5e-3) to -9.46e-5 (c = 1.8, eps = 2.5e-4)
        front = solve_front(QuenchParams(c, eps), domain_halflength=5.0 / eps)
        assert leading_eigenvalues(build_Lc(front), 1).eigenvalues[0] < 0.0

    def test_requires_converged_front(self, front_c12):
        import copy

        bad = copy.copy(front_c12)
        bad.report = copy.copy(front_c12.report)
        bad.report.converged = False
        with pytest.raises(ValueError):
            build_Lc(bad)

    def test_k_validation(self, spectrum_c12):
        op, _ = spectrum_c12
        with pytest.raises(ValueError):
            leading_eigenvalues(op, 0)

    def test_conjugation_consistency(self, front_c12):
        # applying the comoving-frame operator to e^{c zeta/2} x (eigenvector
        # of Lc) reproduces lambda times the same vector to O(h^2)
        c = 1.2
        h = 0.05
        z_fr = front_c12.zeta_fr
        grid = np.arange(z_fr - 40.0, z_fr + 40.0 + 0.5 * h, h)
        from scipy.interpolate import CubicSpline

        u_star = CubicSpline(front_c12.mesh.nodes, front_c12.u)(grid)
        mu = front_c12.params.mu_of_zeta(grid)
        q_sym = mu - c * c / 4.0 - 3.0 * u_star**2
        op = operator_from_potential(grid[1:-1], q_sym[1:-1])
        lam = leading_eigenvalues(op, 1).eigenvalues[0]
        top = op.diag.size - 1
        phi = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(top, top))[1][:, 0]
        weight = np.exp(0.5 * c * (grid[1:-1] - z_fr))
        psi = weight * phi
        q_com = (mu - 3.0 * u_star**2)[1:-1]
        apply_l0 = (
            (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h**2
            - c * (psi[2:] - psi[:-2]) / (2.0 * h)
            + q_com[1:-1] * psi[1:-1]
        )
        resid = apply_l0 - lam * psi[1:-1]
        assert np.max(np.abs(resid)) <= 10.0 * h**2 * np.max(np.abs(psi))

