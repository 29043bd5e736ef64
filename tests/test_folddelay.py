"""Tests for the slow-passage fold-delay measurements and the scaling fit."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quenchfront import folddelay
from quenchfront.folddelay import (
    DelayFit,
    FoldDelayRecord,
    check_passage,
    fit_delay_scaling,
    run_fold_passage,
)
from quenchfront.solvercore import OdeResult, integrate_ode
from quenchfront.travelingwave import delay_prefactor

OMEGA0 = 2.3381074104597670


@pytest.fixture(scope="module")
def record_c12():
    return run_fold_passage(1.2, 1e-4, 0.25)


def lsoda_stepper(field, y0, t_span, rtol, atol, stiff):
    """A leg on scipy's LSODA stepper, driven step by step by solve_ivp."""
    assert stiff
    sol = solve_ivp(field, t_span, y0, method="LSODA", rtol=rtol, atol=atol)
    assert sol.success
    return OdeResult(sol.t, sol.y.T, "completed", len(sol.t) - 1)


def passage_with_steps(monkeypatch, *args, kernel=integrate_ode):
    """Run a fold passage with its legs on ``kernel`` and count their
    accepted ODE steps."""
    steps = []

    def counted(*a, **kw):
        res = kernel(*a, **kw)
        steps.append(res.steps)
        return res

    with monkeypatch.context() as m:
        m.setattr(folddelay, "integrate_ode", counted)
        rec = run_fold_passage(*args)
    return rec, sum(steps)


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
            res = solve_ivp(
                lambda t, y: [-y[0] * y[0] - y[1], eps * g(y[1])],
                (0.0, 20.0 / eps),
                [z0 + off, -0.25],
                method="LSODA",
                rtol=1e-10,
                atol=1e-13,
                events=[section],
            )
            assert res.status == 1
            assert res.y_events[0][0][1] == pytest.approx(record_c12.theta_exit, abs=1e-8)

    @pytest.mark.parametrize("c", [1.2, 1.6])
    @pytest.mark.parametrize("eps", [1e-5, 1e-4, 1e-3])
    def test_against_tight_explicit_reference(self, c, eps):
        # the passage runs on LSODA from the blow-up scale; an explicit
        # DOP853 run at rtol 1e-13, started at theta0 = -1/4, must read the
        # same section crossing
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

    @pytest.mark.parametrize("delta", [0.01, 0.5])
    @pytest.mark.parametrize("eps", [1e-8, 1e-2])
    @pytest.mark.parametrize("c", [0.05, 1.99])
    def test_corners_against_time_parametrized_reference(self, monkeypatch, c, eps, delta):
        # the passage integrates along z; the trajectory started at
        # theta0 = -1/4 and integrated in time by LSODA at rtol 1e-13 with
        # an event at the section must read the same crossing at the
        # corners of the accepted (c, eps, delta)
        mu_c = c * c / 4.0
        g = lambda theta: 1.0 - (theta + mu_c) ** 2
        z0 = 0.5 + eps * g(-0.25)
        section = lambda t, y: y[0] + delta
        section.terminal = True
        section.direction = -1
        ref = solve_ivp(
            lambda t, y: [-y[0] * y[0] - y[1], eps * g(y[1])],
            (0.0, 20.0 / eps),
            [z0, -0.25],
            method="LSODA",
            rtol=1e-13,
            atol=1e-22,
            events=[section],
        )
        theta_ref = ref.y_events[0][0][1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec, steps = passage_with_steps(monkeypatch, c, eps, delta)
        assert rec.theta_exit == pytest.approx(theta_ref, rel=5e-9)
        assert 0 < steps < 2000

    @pytest.mark.parametrize("delta", [0.01, 0.25, 0.5])
    @pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-5, 1e-2])
    @pytest.mark.parametrize("c", [0.05, 1.2, 1.99])
    def test_legs_match_lsoda_stepper(self, monkeypatch, c, eps, delta):
        # each leg is one compiled LSODA call (odeint); scipy's LSODA
        # stepper on the same fields, ranges and tolerances must read the
        # same section after the same number of accepted steps
        rec, steps = passage_with_steps(monkeypatch, c, eps, delta)
        ref, ref_steps = passage_with_steps(monkeypatch, c, eps, delta, kernel=lsoda_stepper)
        assert rec.theta_exit == pytest.approx(ref.theta_exit, rel=1e-14)
        assert steps == ref_steps

    @pytest.mark.parametrize("delta", [0.01, 0.5])
    @pytest.mark.parametrize("eps", [1e-14, 1e-16])
    @pytest.mark.parametrize("c", [1.9999, 1.99999])
    def test_corners_near_two_against_explicit_reference(self, monkeypatch, c, eps, delta):
        # within 1e-4 of c = 2 at the smallest eps: DOP853 at rtol 1e-12 on
        # the same two z-legs, started further out (K = 4), must read the
        # same crossing
        mu_c = c * c / 4.0
        g = lambda theta: 1.0 - (theta + mu_c) ** 2
        root = 4.0 * (eps * (1.0 - c**4 / 16.0)) ** (1 / 3) + 2.0 * 4.0**3 * eps
        dz = eps * g(-root * root) / (4.0 * root * root)
        kw = dict(method="DOP853", rtol=1e-12, atol=1e-30)
        near = lambda z, y: [(2.0 * z - g(eps * y[0] - z * z) / y[0]) / eps]
        s_leg = solve_ivp(near, (root + dz, 0.0), [dz * (2.0 * root + dz) / eps], **kw)
        past = lambda z, y: [eps * g(y[0]) / (-z * z - y[0])]
        theta_leg = solve_ivp(past, (0.0, -delta), [eps * s_leg.y[0, -1]], **kw)
        assert s_leg.success and theta_leg.success
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec, steps = passage_with_steps(monkeypatch, c, eps, delta)
        assert rec.theta_exit == pytest.approx(theta_leg.y[0, -1], rel=5e-9)
        assert 0 < steps < 2000

    @pytest.mark.parametrize("eps", [1e-310, 5e-324])
    @pytest.mark.parametrize("c", [0.05, 1.99999])
    def test_subnormal_eps(self, c, eps):
        # eps g(theta) would round on the subnormal grid; the passage forms
        # g(theta) (eps / (-z^2 - theta)) instead and still reads the law
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = run_fold_passage(c, eps, 0.25)
        assert rec.theta_fold / (delay_prefactor(c) * eps ** (2 / 3)) == pytest.approx(1.0, abs=1e-9)

    def test_step_count_pinned(self, monkeypatch):
        # 250 accepted steps over both legs; the count must repeat exactly
        _, steps = passage_with_steps(monkeypatch, 1.2, 1e-4, 0.25)
        assert steps <= 300
        assert passage_with_steps(monkeypatch, 1.2, 1e-4, 0.25)[1] == steps

    def test_step_count_independent_of_eps(self, monkeypatch):
        # started at the blow-up scale, a passage integrates through a
        # bounded attraction, so its cost does not grow as eps falls: on
        # the fold benchmark's grid the steps vary by 1.10x (a start at
        # theta0 = -1/4 varies 2.46x)
        steps = [
            passage_with_steps(monkeypatch, c, float(eps), 0.25)[1]
            for c in (1.2, 1.6)
            for eps in np.geomspace(1e-5, 1e-3, 7)
        ]
        assert max(steps) <= 1.2 * min(steps)

    @pytest.mark.parametrize("eps", [1e-12, 1e-11, 1e-10])
    @pytest.mark.parametrize("c", [1.99, 1.995, 1.999, 1.9999, 1.99999])
    def test_corner_near_two_passes_or_is_refused(self, c, eps):
        # near c = 2 every small-eps corner is accepted and completes
        check_passage(c, eps, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = run_fold_passage(c, eps, 0.25)
        assert math.isfinite(rec.theta_exit) and rec.theta_exit > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_fold_passage(0.0, 1e-4)
        with pytest.raises(ValueError):
            run_fold_passage(1.2, 0.1)
        with pytest.raises(ValueError):
            run_fold_passage(1.2, 0.0)
        with pytest.raises(ValueError):
            run_fold_passage(1.2, 1e-4, 0.8)
        # the law's delay at or past theta = 1 - c^2/4, where g = 0
        with pytest.raises(ValueError, match="mu_fr = 1.0000.* >= 1"):
            run_fold_passage(1.99999, 1e-2)


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
        theta_exit = -(a * a) * res.y[-1, 1]
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
