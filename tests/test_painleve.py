"""Tests for the connection-problem solver, the tail classification, and
the certification routines."""

import math

import numpy as np
import pytest

from quenchfront import painleve
from quenchfront.painleve import (
    CertificateError,
    HMSolution,
    certify_lower_bound,
    certify_potential_positive,
    classify_airy_tail,
    left_boundary_value,
    linearization_ground_state,
    solve_hastings_mcleod,
)
from quenchfront.solvercore import Mesh, NewtonReport, eig_tridiag_symmetric, integrate_ode
from quenchfront.specfun import airy


@pytest.fixture(scope="module")
def hm():
    return solve_hastings_mcleod(12.0, 8.0, 8001)


@pytest.fixture(scope="module")
def hm_wide():
    return solve_hastings_mcleod(14.0, 10.0, 16001)


class TestSolve:
    @pytest.mark.parametrize("window", [(12.0, 8.0, 8001), (8.0, 6.0, 4001),
                                        (20.0, 10.0, 16001), (12.0, 100.0, 20001)])
    def test_seed_equals_the_full_grid_seed(self, window):
        # Ai is evaluated only on eta > -1; the seed must equal the max
        # taken with Ai on every node, bit for bit
        l_minus, l_plus, n = window
        eta = np.linspace(-l_minus, l_plus, n)
        full = np.maximum(np.sqrt(np.maximum(-eta / 2.0, 0.0)), airy(eta).value)
        assert painleve._connection_seed(eta).tobytes() == full.tobytes()

    def test_value_at_zero_above_airy(self, hm):
        w0 = float(np.interp(0.0, hm.eta, hm.w))
        assert w0 >= 0.3550280

    def test_value_at_zero_stable(self, hm, hm_wide):
        finer = solve_hastings_mcleod(12.0, 8.0, 16001)
        w0 = float(np.interp(0.0, hm.eta, hm.w))
        assert abs(float(np.interp(0.0, finer.eta, finer.w)) - w0) < 1e-6
        assert abs(float(np.interp(0.0, hm_wide.eta, hm_wide.w)) - w0) < 1e-6

    def test_boundary_residuals(self, hm):
        assert max(hm.boundary_residuals) <= 1e-8

    def test_positive_and_monotone(self, hm):
        assert np.all(hm.w > 0.0)
        assert np.max(np.diff(hm.w)) <= 1e-9
        assert np.all(hm.wprime < 0.0)

    def test_airy_ratio_at_right_end(self, hm):
        assert hm.w[-1] / airy(8.0).value == pytest.approx(1.0, abs=1e-4)

    def test_trans_series_at_minus_12(self, hm, hm_wide):
        # at the boundary node the closure holds exactly ...
        assert hm.w[0] == pytest.approx(left_boundary_value(12.0), abs=1e-12)
        # ... and away from the boundary of the wider window the interior
        # solution still matches the two-term series at eta = -12
        w12 = float(np.interp(-12.0, hm_wide.eta, hm_wide.w))
        assert w12 / math.sqrt(6.0) == pytest.approx(1.0 - 1.0 / (8.0 * 12.0**3), abs=1e-5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            solve_hastings_mcleod(6.0, 8.0, 8001)
        with pytest.raises(ValueError):
            solve_hastings_mcleod(12.0, 4.0, 8001)
        with pytest.raises(ValueError):
            solve_hastings_mcleod(12.0, 8.0, 1001)

    def test_continuum_residual_order(self):
        # 5-point probe of w'' - eta w - 2w^3 measures the O(h^2) consistency
        # error of the 3-point scheme; doubling n must reduce it 4x
        sups = []
        for n in (4001, 8001):
            s = solve_hastings_mcleod(12.0, 8.0, n)
            h = s.eta[1] - s.eta[0]
            w = s.w
            d2 = (-w[:-4] + 16 * w[1:-3] - 30 * w[2:-2] + 16 * w[3:-1] - w[4:]) / (12 * h * h)
            res = d2 - s.eta[2:-2] * w[2:-2] - 2.0 * w[2:-2] ** 3
            sups.append(float(np.max(np.abs(res))))
        order = math.log2(sups[0] / sups[1])
        assert 1.8 <= order <= 2.2

    def test_richardson_constants_agree_across_mesh_pairs(self):
        # the solve is second order in h, so (4 w_h/2 - w_h) / 3 from the
        # 4001/8001 pair must match the 16001/32001 pair's value; eta = 0 is
        # node 3 (n - 1) / 5 of the [-12, 8] window
        def richardson(n):
            coarse, fine = (solve_hastings_mcleod(12.0, 8.0, m) for m in (n, 2 * n - 1))
            i, j = 3 * (n - 1) // 5, 3 * (2 * n - 2) // 5
            assert coarse.eta[i] == fine.eta[j] == 0.0
            return np.array(
                [
                    (4.0 * fine.w[j] - coarse.w[i]) / 3.0,
                    (4.0 * fine.wprime[j] - coarse.wprime[i]) / 3.0,
                ]
            )

        assert np.max(np.abs(richardson(4001) - richardson(16001))) <= 1e-12

    def test_shooting_cross_validation(self):
        # integrating the converged right-end data backward reproduces the
        # BVP interior at -L/2.  Deviations off the separatrix grow like
        # exp(sqrt(2)(2/3)|eta|^{3/2}) once eta < 0, so the O(h^2) data
        # defect needs a fine solve to survive to the comparison point.
        sol = solve_hastings_mcleod(8.0, 8.0, 32001)
        y0 = np.array([sol.w[-1], sol.wprime[-1]])
        field = lambda t, y: np.array([y[1], t * y[0] + 2.0 * y[0] ** 3])
        res = integrate_ode(field, y0, (8.0, -4.0), rtol=1e-11, atol=1e-16)
        w_interp = float(np.interp(-4.0, sol.eta, sol.w))
        assert res.y[-1, 0] == pytest.approx(w_interp, abs=1e-3)


class TestClassification:
    def test_zero_multiplier(self):
        assert classify_airy_tail(0.0).kind == "oscillatory-decay"

    def test_dichotomy_across_one(self):
        inner = classify_airy_tail(0.5)
        outer = classify_airy_tail(1.5)
        assert {inner.kind, outer.kind} == {"oscillatory-decay", "pole"}
        assert inner.kind != outer.kind
        assert outer.pole_position is not None and outer.pole_position < 0.0

    @pytest.mark.parametrize("k", [0.2, -0.6, 0.9])
    def test_inside_family(self, k):
        assert classify_airy_tail(k).kind == "oscillatory-decay"

    @pytest.mark.parametrize("k", [1.2, -1.5, 2.5])
    def test_outside_family(self, k):
        got = classify_airy_tail(k)
        assert got.kind == "pole"
        assert got.pole_position < 0.0

    @pytest.mark.parametrize("k", [1.5, 2.5])
    def test_pole_odd_in_multiplier(self, k):
        # the field is odd in w, so -k runs the mirror image of k
        assert classify_airy_tail(-k).pole_position == classify_airy_tail(k).pole_position

    @pytest.mark.parametrize("k", [1.5, 2.5, 10.0])
    def test_pole_against_tight_lsoda_reference(self, k):
        # LSODA at rtol 1e-12 lies within 7e-11 of Radau at rtol 1e-13; the
        # classifier is 2e-10 to 5e-10 from that Radau reference
        from scipy.integrate import solve_ivp

        ai = airy(8.0)
        blow = lambda t, y: y[0] ** 2 - 1e6
        blow.terminal = True
        ref = solve_ivp(
            lambda t, y: [y[1], t * y[0] + 2.0 * y[0] ** 3],
            (8.0, -8.0),
            [k * ai.value, k * ai.derivative],
            method="LSODA",
            rtol=1e-12,
            atol=1e-18,
            events=[blow],
        )
        assert ref.status == 1
        got = classify_airy_tail(k)
        assert got.kind == "pole"
        assert got.pole_position == pytest.approx(ref.t_events[0][0], abs=5e-9)

    def test_reflected_separatrix(self):
        got = classify_airy_tail(-1.0)
        assert got.kind == "separatrix"

    def test_invalid(self):
        with pytest.raises(ValueError):
            classify_airy_tail(float("nan"))

    @pytest.mark.parametrize("k", [1e11, -1e11, 1e150])
    def test_start_past_pole_event_refused(self, k):
        # k Ai(8) = 4.7e3 at k = 1e11: the start already has |w| >= 1e3
        with pytest.raises(ValueError, match="past the pole event"):
            classify_airy_tail(k)


def _synthetic_solution(eta, w):
    wprime = np.gradient(w, eta)
    return HMSolution(
        mesh=Mesh(eta),
        w=w,
        wprime=wprime,
        report=NewtonReport(1, 0.0, True),
        boundary_residuals=(0.0, 0.0),
    )


class TestCertificates:
    def test_potential_positive(self, hm):
        cert = certify_potential_positive(hm)
        assert cert.min_value > 0.0
        assert cert.margin_bound > 0.0

    def test_potential_trivial_on_right(self, hm):
        # for eta >= 0, V >= eta > 0 holds without any margin bookkeeping
        right = hm.eta >= 0.0
        assert np.all(hm.eta[right] + 6.0 * hm.w[right] ** 2 >= hm.eta[right])

    def test_perturbed_profile_fails(self, hm):
        w = hm.w.copy()
        w[hm.eta < -2.0] *= 0.5
        bad = _synthetic_solution(hm.eta.copy(), w)
        with pytest.raises(CertificateError):
            certify_potential_positive(bad)

    def test_lower_bound(self, hm):
        assert certify_lower_bound(hm) is True

    def test_lower_bound_at_origin(self, hm):
        w0 = float(np.interp(0.0, hm.eta, hm.w))
        assert w0 > 0.0  # bound sqrt(-eta/6) degenerates to 0 at eta = 0

    def test_eighth_profile_fails(self):
        eta = np.linspace(-12.0, 8.0, 4001)
        w = np.sqrt(np.maximum(-eta, 1e-4) / 8.0)
        with pytest.raises(CertificateError):
            certify_lower_bound(_synthetic_solution(eta, w))

    def test_unconverged_rejected(self, hm):
        bad = _synthetic_solution(hm.eta.copy(), hm.w.copy())
        bad.report.converged = False
        with pytest.raises(ValueError):
            certify_potential_positive(bad)


class TestGroundState:
    def test_negative_ground_state(self, hm):
        spec = linearization_ground_state(hm)
        assert spec.eigenvalues[0] < 0.0
        assert len(spec.eigenvalues) == 5

    def test_numerical_range_bound(self, hm):
        # lambda0 <= -min V for the certified positive potential
        spec = linearization_ground_state(hm)
        cert = certify_potential_positive(hm)
        assert spec.eigenvalues[0] <= -cert.min_value + 1e-8

    def test_box_potential_oracle(self):
        # constant potential -1 on a Dirichlet box of full length L:
        # lambda_k = -1 - (k pi / L)^2.  n is chosen so the O(h^2)
        # discretization error sits below the 1e-6 target; LAPACK bisection
        # via scipy.linalg.eigh_tridiagonal resolves each eigenvalue to about
        # machine epsilon times the matrix 1-norm (4/h^2).
        L, n = 10.0, 601
        h = L / (n - 1)
        diag = np.full(n - 2, -2.0 / h**2 - 1.0)
        off = np.full(n - 3, 1.0 / h**2)
        spec = eig_tridiag_symmetric(diag, off, 3)
        assert spec.eigenvalues[0] == pytest.approx(-1.0 - (math.pi / L) ** 2, abs=1e-6)
        # higher modes against the exact discrete (Toeplitz) spectrum, whose
        # O(k^4 h^2) separation from the continuum grows with k
        for k, lam in enumerate(spec.eigenvalues, start=1):
            disc = -1.0 - (4.0 / h**2) * math.sin(k * math.pi * h / (2.0 * L)) ** 2
            assert lam == pytest.approx(disc, abs=1e-6)

    def test_ground_state_mesh_stability(self, hm):
        a = linearization_ground_state(hm, n_sub=2001)
        b = linearization_ground_state(hm, n_sub=4001)
        assert a.eigenvalues[0] < 0.0 and b.eigenvalues[0] < 0.0
        assert abs(a.eigenvalues[0] - b.eigenvalues[0]) < 1e-3
