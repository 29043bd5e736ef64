"""Tests for the slow-passage fold-delay measurements and the scaling fit."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quenchfront.folddelay import (
    DelayFit,
    FoldDelayRecord,
    fit_delay_scaling,
    normal_form_transform,
    run_fold_passage,
)
from quenchfront.solvercore import integrate_ode

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
        theta = [run_fold_passage(1.2, e, 0.25, rtol=1e-9).theta_exit for e in eps]
        assert np.all(np.diff(theta) > 0.0)

    def test_chart_consistency(self, record_c12):
        compact = run_fold_passage(1.2, 1e-4, 0.25, chart="arctan")
        assert compact.compact_chart_used
        assert not record_c12.compact_chart_used
        assert abs(compact.theta_exit - record_c12.theta_exit) <= 1e-6

    def test_attraction_insensitivity(self, record_c12):
        for off in (0.05, -0.05):
            rec = run_fold_passage(1.2, 1e-4, 0.25, z0_offset=off)
            assert abs(rec.theta_exit - record_c12.theta_exit) < 1e-8

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
        with pytest.raises(ValueError):
            run_fold_passage(1.2, 1e-4, chart="polar")


class TestNormalForm:
    def test_unit_factors_at_zero_speed(self):
        nf = normal_form_transform(0.0)
        assert nf.space_factor == 1.0
        assert nf.delay_factor == 1.0
        assert nf.time_factor == 1.0

    def test_cube_root_factor(self):
        # (1 - 1.2^4/16)^{1/3} = 0.8704^{1/3}
        nf = normal_form_transform(1.2)
        assert nf.space_factor == pytest.approx(0.9547866, abs=1e-6)
        assert nf.delay_factor == pytest.approx(0.9116174, abs=1e-6)
        assert nf.time_factor == pytest.approx(1.0 / 0.9547866, abs=1e-6)

    def test_transformed_run_maps_back(self, record_c12):
        # integrate the normal form and undo the scaling; the change of
        # variables is exact, so the two section readings agree
        c, eps, delta = 1.2, 1e-4, 0.25
        nf = normal_form_transform(c)
        a = nf.space_factor
        mu_c = c * c / 4.0
        theta0 = -0.25
        z0 = math.sqrt(-theta0) + eps * (1.0 - (theta0 + mu_c) ** 2) / (4.0 * (-theta0))
        y0 = [-z0 / a, -theta0 / (a * a)]
        ev = lambda t, y: y[0] - delta / a
        ev.terminal = True
        ev.direction = 1
        res = integrate_ode(nf.field(eps), y0, (0.0, 30.0 / eps), rtol=1e-10, atol=1e-13, events=[ev])
        assert res.status == "event"
        theta_exit = -(a * a) * res.events[0].y[1]
        assert theta_exit == pytest.approx(record_c12.theta_exit, rel=0.01)


class TestFit:
    def _synthetic(self, prefactor=3.0, c=1.2):
        eps = np.geomspace(1e-5, 1e-3, 6)
        return [
            FoldDelayRecord(c, e, prefactor * e ** (2.0 / 3.0), 0.25, False) for e in eps
        ]

    def test_synthetic_exact(self):
        fit = fit_delay_scaling(self._synthetic(), remove_section_offset=False)
        assert fit.exponent == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-10)

    def test_reference_prefactor_value(self):
        fit = fit_delay_scaling(self._synthetic(), remove_section_offset=False)
        assert fit.reference_prefactor == pytest.approx(2.1315, abs=2e-4)

    def test_small_real_sweep(self):
        eps = np.geomspace(5e-5, 1.6e-3, 5)
        recs = [run_fold_passage(1.2, e, 0.25, rtol=1e-9) for e in eps]
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
