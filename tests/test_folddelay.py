"""Tests for the slow-passage fold-delay measurements and the scaling fit."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quenchfront.folddelay import (
    DelayFit,
    FoldDelayRecord,
    fit_delay_scaling,
    run_fold_passage,
)
from quenchfront.solvercore import integrate_ode
from quenchfront.travelingwave import delay_prefactor

OMEGA0 = 2.3381074104597670


@pytest.fixture(scope="module")
def record_c12():
    return run_fold_passage(1.2, 1e-4, 0.25)


class TestRunFoldPassage:
    def test_reference_point(self, record_c12):
        # Omega0 (1 - 1.2^4/16)^{2/3} (1e-4)^{2/3} = 4.59e-3
        want = OMEGA0 * (1.0 - 1.2**4 / 16.0) ** (2 / 3) * 1e-4 ** (2 / 3)
        assert record_c12.theta_fold == pytest.approx(want, rel=0.05)
        assert record_c12.theta_exit > 0.0

    def test_raw_reading_at_smaller_eps(self):
        # the uncorrected section reading sits within 5% once eps <= 1e-5
        rec = run_fold_passage(1.2, 1e-5, 0.25)
        want = OMEGA0 * (1.0 - 1.2**4 / 16.0) ** (2 / 3) * 1e-5 ** (2 / 3)
        assert rec.theta_exit == pytest.approx(want, rel=0.05)

    def test_delta_insensitivity(self, record_c12):
        vals = [record_c12.theta_fold]
        for d in (0.1, 0.4):
            vals.append(run_fold_passage(1.2, 1e-4, d).theta_fold)
        spread = (max(vals) - min(vals)) / min(vals)
        assert spread < 0.05

    def test_known_section_offset(self, record_c12):
        # exact local law: the z = -delta crossing undershoots the fold
        # delay by (1 - c^4/16) eps / delta
        a3 = 1.0 - 1.2**4 / 16.0
        for d in (0.1, 0.4):
            rec = run_fold_passage(1.2, 1e-4, d)
            gap = record_c12.theta_exit + a3 * 1e-4 / 0.25 - (rec.theta_exit + a3 * 1e-4 / d)
            assert abs(gap) < 0.02 * record_c12.theta_fold

    def test_monotone_delay(self):
        eps = np.geomspace(2e-5, 1e-3, 5)
        theta = [run_fold_passage(1.2, e, 0.25).theta_exit for e in eps]
        assert np.all(np.diff(theta) > 0.0)

    def test_attraction_insensitivity(self, record_c12):
        # the same field started 0.05 off the slow manifold is attracted to
        # it and reads the same section crossing
        eps, mu_c = 1e-4, 1.2 * 1.2 / 4.0
        g = lambda theta: 1.0 - (theta + mu_c) ** 2
        z0 = 0.5 + eps * g(-0.25)
        section = lambda t, y: y[0] + 0.25
        section.terminal = True
        section.direction = -1
        for off in (0.05, -0.05):
            res = integrate_ode(
                lambda t, y: np.array([-y[0] * y[0] - y[1], eps * g(y[1])]),
                [z0 + off, -0.25],
                (0.0, 20.0 / eps),
                rtol=1e-10,
                atol=1e-13,
                events=[section],
                stiff=True,
            )
            assert res.status == "event"
            assert res.events[0].y[1] == pytest.approx(record_c12.theta_exit, abs=1e-8)

    @pytest.mark.parametrize("c", [1.2, 1.6])
    @pytest.mark.parametrize("eps", [1e-5, 1e-4, 1e-3])
    def test_against_tight_explicit_reference(self, c, eps):
        # the passage runs on LSODA; an explicit DOP853 run at rtol 1e-13,
        # from the same start, must read the same section crossing
        mu_c = c * c / 4.0
        g = lambda theta: 1.0 - (theta + mu_c) ** 2
        z0 = 0.5 + eps * g(-0.25)
        section = lambda t, y: y[0] + 0.25
        section.terminal = True
        section.direction = -1
        ref = solve_ivp(
            lambda t, y: [-y[0] * y[0] - y[1], eps * g(y[1])],
            (0.0, 20.0 / eps),
            [z0, -0.25],
            method="DOP853",
            rtol=1e-13,
            atol=1e-16,
            events=[section],
        )
        theta_ref = ref.y_events[0][0][1]
        rec = run_fold_passage(c, eps, 0.25)
        assert rec.theta_exit == pytest.approx(theta_ref, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_fold_passage(0.0, 1e-4)
        with pytest.raises(ValueError):
            run_fold_passage(1.2, 0.1)
        with pytest.raises(ValueError):
            run_fold_passage(1.2, 1e-4, 0.8)


class TestNormalForm:
    def test_transformed_run_maps_back(self, record_c12):
        # integrate the normal form dx/dtau = x^2 - y,
        # dy/dtau = eps (-1 - c^2 y / (2a) + a y^2), reached by z = -a x,
        # theta = -a^2 y, zeta = tau / a with a = (1 - c^4/16)^{1/3}, and
        # undo the scaling; the change of variables is exact, so the two
        # section readings agree
        c, eps, delta = 1.2, 1e-4, 0.25
        a = (1.0 - c**4 / 16.0) ** (1.0 / 3.0)

        def field(t, y):
            x, yy = y
            return np.array([x * x - yy, eps * (-1.0 - c**2 / (2.0 * a) * yy + a * yy * yy)])

        mu_c = c * c / 4.0
        theta0 = -0.25
        z0 = math.sqrt(-theta0) + eps * (1.0 - (theta0 + mu_c) ** 2) / (4.0 * (-theta0))
        y0 = [-z0 / a, -theta0 / (a * a)]
        ev = lambda t, y: y[0] - delta / a
        ev.terminal = True
        ev.direction = 1
        res = integrate_ode(field, y0, (0.0, 30.0 / eps), rtol=1e-10, atol=1e-13, events=[ev])
        assert res.status == "event"
        theta_exit = -(a * a) * res.events[0].y[1]
        assert theta_exit == pytest.approx(record_c12.theta_exit, rel=0.01)


class TestFit:
    def _synthetic(self, prefactor=3.0, c=1.2):
        # theta_exit is set so that theta_fold, which the fit reads, is the
        # exact power law prefactor eps^{2/3}
        eps = np.geomspace(1e-5, 1e-3, 6)
        offset = 1.0 - c**4 / 16.0
        return [
            FoldDelayRecord(c, e, prefactor * e ** (2.0 / 3.0) - offset * e / 0.25, 0.25, False)
            for e in eps
        ]

    def test_synthetic_exact(self):
        fit = fit_delay_scaling(self._synthetic())
        assert fit.exponent == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-10)

    def test_reference_prefactor_value(self):
        fit = fit_delay_scaling(self._synthetic())
        assert fit.reference_prefactor == pytest.approx(2.1315, abs=2e-4)

    @pytest.mark.parametrize("c", [0.4, 1.2, 1.6])
    def test_reference_prefactor_is_the_front_law(self, c):
        # the fit and the front BVP's delay law share one prefactor
        fit = fit_delay_scaling(self._synthetic(c=c))
        assert fit.reference_prefactor == delay_prefactor(c)

    def test_small_real_sweep(self):
        eps = np.geomspace(5e-5, 1.6e-3, 5)
        recs = [run_fold_passage(1.2, e, 0.25) for e in eps]
        fit = fit_delay_scaling(recs)
        assert fit.exponent == pytest.approx(2.0 / 3.0, abs=0.03)
        assert fit.prefactor == pytest.approx(fit.reference_prefactor, rel=0.06)

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            fit_delay_scaling(self._synthetic()[:4])

    def test_mixed_speeds(self):
        recs = self._synthetic()
        recs[0] = FoldDelayRecord(0.8, recs[0].epsilon, recs[0].theta_exit, 0.25, False)
        with pytest.raises(ValueError):
            fit_delay_scaling(recs)

    def test_insufficient_spread(self):
        eps = np.geomspace(1e-4, 5e-4, 6)
        recs = [FoldDelayRecord(1.2, e, 3.0 * e ** (2 / 3), 0.25, False) for e in eps]
        with pytest.raises(ValueError):
            fit_delay_scaling(recs)
