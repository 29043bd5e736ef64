"""Tests for the method-of-lines simulator, front tracking, and the
characteristic front-path prediction."""

import math

import numpy as np
import pytest

from quenchfront.pdesim import (
    FrontTrack,
    QuenchComparison,
    SimConfig,
    SimResult,
    SimulationAbort,
    compare_homogeneous_quench,
    envelope_velocity,
    predicted_front_path,
    simulate,
)


class TestConfig:
    def test_dt_bound_enforced(self):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(domain=(0.0, 100.0), n=1001, dt=0.1)

    def test_default_dt(self):
        cfg = SimConfig(domain=(0.0, 100.0), n=1001)
        assert cfg.dt == pytest.approx(0.4 * cfg.h**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(frame="rotating")
        with pytest.raises(ValueError):
            SimConfig(ic="plateau")
        with pytest.raises(ValueError):
            SimConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            SimConfig(domain=(1.0, 0.0))


class TestInvasion:
    def test_frozen_unstable_speed_two(self):
        cfg = SimConfig(
            frame="lab", frozen_mu=1.0, domain=(0.0, 200.0), n=2001, t_end=60.0,
            ic="small-bump", ic_center=0.0, ic_width=5.0, ic_amplitude=0.05,
        )
        res = simulate(cfg)
        tt, xx = res.track.times, res.track.x_fr_num
        sel = (tt >= 30.0) & np.isfinite(xx)
        speed = np.polyfit(tt[sel], xx[sel], 1)[0]
        assert speed == pytest.approx(2.0, abs=0.05)
        assert not res.track.multiple_crossings

    def test_frozen_stable_decay(self):
        cfg = SimConfig(
            frame="lab", frozen_mu=-1.0, domain=(0.0, 100.0), n=1001, t_end=20.0,
            ic="small-bump", ic_amplitude=0.05,
        )
        res = simulate(cfg)
        assert float(np.max(np.abs(res.snapshots[-1]))) < 1e-6

    def test_two_sided_bump_flags_multiple_crossings(self):
        cfg = SimConfig(
            frame="lab", frozen_mu=1.0, domain=(-100.0, 100.0), n=2001, t_end=30.0,
            ic="small-bump", ic_center=0.0, ic_width=5.0, ic_amplitude=0.05,
        )
        res = simulate(cfg)
        assert res.track.multiple_crossings

    def test_abort_carries_state(self):
        cfg = SimConfig(
            frame="lab", frozen_mu=1.0, domain=(0.0, 50.0), n=501, t_end=10.0,
            ic="small-bump", ic_amplitude=1e8, ic_width=2.0, ic_center=25.0,
        )
        with pytest.raises(SimulationAbort) as err:
            simulate(cfg)
        assert np.all(np.isfinite(err.value.u))

    def test_comparison_principle(self):
        base = dict(
            frame="lab", frozen_mu=0.5, domain=(0.0, 60.0), n=601, t_end=10.0,
            ic="small-bump", ic_width=4.0, snapshot_dt=2.0,
        )
        lo = simulate(SimConfig(ic_amplitude=0.02, **base))
        hi = simulate(SimConfig(ic_amplitude=0.05, **base))
        for a, b in zip(lo.snapshots, hi.snapshots):
            assert np.all(a <= b + 1e-12)

    def test_invariant_region(self):
        cfg = SimConfig(
            frame="lab", frozen_mu=1.0, domain=(0.0, 60.0), n=601, t_end=15.0,
            ic="small-bump", ic_amplitude=1.5, ic_width=4.0, ic_center=30.0,
            snapshot_dt=1.0,
        )
        res = simulate(cfg)
        assert float(np.max(np.abs(res.snapshots))) <= 1.5 + 1e-6


def _dense_reference(cfg, u):
    """Unfactored, unfused copy of the stepper: u <- M^{-1}(u + dt(mu u - u^3))
    with M = I - dt(D2 - c D1) assembled densely from mirror-ghost Neumann
    rows; returns the states from u onwards (row k is t = k dt)."""
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    h, dt, n = cfg.h, cfg.dt, cfg.n
    c = cfg.c if cfg.frame == "comoving" else 0.0
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = -2.0 / h**2
        if i > 0:
            a[i, i - 1] = 1.0 / h**2 + c / (2.0 * h)
        if i < n - 1:
            a[i, i + 1] = 1.0 / h**2 - c / (2.0 * h)
    a[0, 1] = 2.0 / h**2  # ghost u_{-1} = u_1: D2 doubles, D1 vanishes
    a[-1, -2] = 2.0 / h**2
    m = np.eye(n) - dt * a
    steps = int(math.ceil(cfg.t_end / dt))
    states = [u]
    for k in range(steps):
        t = k * dt
        if cfg.frozen_mu is not None:
            mu = cfg.frozen_mu
        elif cfg.frame == "comoving":
            mu = np.tanh(cfg.epsilon * x)
        else:
            mu = -np.tanh(cfg.epsilon * (cfg.alpha * x - t))
        u = np.linalg.solve(m, u + dt * (mu * u - u**3))
        states.append(u)
    return np.array(states)


class TestDifferential:
    @pytest.mark.parametrize(
        "mode",
        [
            dict(frame="lab", frozen_mu=1.0),
            dict(frame="lab", alpha=0.0),
            dict(frame="lab", alpha=0.5),
            dict(frame="comoving", c=1.2, ic="front-seed"),
        ],
        ids=["frozen", "lab-alpha0", "lab-alpha0.5", "comoving"],
    )
    def test_matches_dense_reference(self, mode):
        cfg = SimConfig(
            epsilon=0.05, domain=(-10.0, 20.0), n=61, t_end=30.0, ic_center=5.0,
            ic_amplitude=0.3, snapshot_dt=3.0, **mode,
        )
        res = simulate(cfg)
        ref = _dense_reference(cfg, res.snapshots[0])
        assert len(ref) == 301
        steps = np.rint(res.times / cfg.dt).astype(int)
        assert np.max(np.abs(res.snapshots - ref[steps])) <= 1e-12


class TestErrorState:
    def test_restored_after_return_and_abort(self):
        before = np.geterr()
        simulate(SimConfig(frozen_mu=1.0, domain=(0.0, 20.0), n=101, t_end=1.0))
        assert np.geterr() == before
        cfg = SimConfig(
            frame="lab", frozen_mu=1.0, domain=(0.0, 50.0), n=501, t_end=10.0,
            ic="small-bump", ic_amplitude=1e8, ic_width=2.0, ic_center=25.0,
        )
        with pytest.raises(SimulationAbort):
            simulate(cfg)
        assert np.geterr() == before


class TestPrediction:
    def test_linear_ramp_closed_form(self):
        got = predicted_front_path(0.005, "linear", 0.0, [10.0])[0]
        assert got == pytest.approx((4.0 / 3.0) * math.sqrt(0.005) * 10.0**1.5, rel=1e-9)

    def test_zero_time(self):
        assert predicted_front_path(0.005, "tanh", 3.0, [0.0])[0] == 3.0

    def test_tanh_quadrature_self_convergence(self):
        # brute-force fine Simpson in the tau = sqrt(t) variable
        eps, t = 0.005, 100.0
        tau = np.linspace(0.0, math.sqrt(t), 20001)
        f = 4.0 * tau * np.sqrt(np.tanh(eps * tau**2))
        h = tau[1] - tau[0]
        brute = h / 3.0 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum())
        got = predicted_front_path(eps, "tanh", 0.0, [t])[0]
        assert got == pytest.approx(brute, abs=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            predicted_front_path(0.005, "tanh", 0.0, [-1.0])

    def test_unknown_ramp(self):
        with pytest.raises(ValueError):
            predicted_front_path(0.005, "sigmoid", 0.0, [1.0])


class TestEnvelopeVelocity:
    def test_reference_values(self):
        assert envelope_velocity(-1.0, 1.0) == pytest.approx(2.0)
        assert envelope_velocity(-0.5, 0.25) == pytest.approx(1.0)

    def test_minimizer_at_sqrt_mu(self):
        mu = 0.36
        nus = np.linspace(-3.0, -0.05, 1501)
        vals = [envelope_velocity(nu, mu) for nu in nus]
        i = int(np.argmin(vals))
        assert nus[i] == pytest.approx(-0.6, abs=5e-3)
        assert vals[i] == pytest.approx(1.2, abs=1e-3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            envelope_velocity(0.0, 1.0)


class TestHomogeneousQuench:
    def _cfg(self, eps=0.005, t_end=120.0):
        return SimConfig(
            frame="lab", alpha=0.0, epsilon=eps, domain=(0.0, 220.0), n=2201,
            t_end=t_end, ic="small-bump", ic_amplitude=0.05, ic_width=5.0,
        )

    def test_lead_positive_and_growing(self):
        comp = compare_homogeneous_quench(self._cfg())
        assert comp.nonnegative_after_transient
        assert comp.growing
        assert comp.difference[-1] > 0.0

    def test_halved_ramp_rate(self):
        fast = compare_homogeneous_quench(self._cfg(eps=0.005))
        slow = compare_homogeneous_quench(self._cfg(eps=0.0025, t_end=170.0))
        assert slow.t_transient > fast.t_transient
        assert slow.difference[-1] > 0.0

    def test_prediction_vs_itself_is_zero(self):
        # feed the characteristic path back in as the measured track
        cfg = self._cfg()
        tt = np.linspace(0.0, 120.0, 241)
        xx = predicted_front_path(cfg.epsilon, "tanh", 2.0, tt)
        fake = SimResult(
            x=np.linspace(0, 220, 2201),
            times=np.array([0.0]),
            snapshots=np.zeros((1, 2201)),
            track=FrontTrack(tt, xx, 0.2),
            track_threshold=None,
            config=cfg,
        )
        comp = compare_homogeneous_quench(cfg, result=fake)
        assert np.max(np.abs(comp.difference)) < 1e-9

    def test_config_guards(self):
        with pytest.raises(ValueError):
            compare_homogeneous_quench(SimConfig(frame="comoving", c=1.0, domain=(0, 100), n=1001))
        with pytest.raises(ValueError):
            compare_homogeneous_quench(SimConfig(alpha=0.5, domain=(0, 100), n=1001))
        with pytest.raises(ValueError):
            compare_homogeneous_quench(SimConfig(frozen_mu=1.0, domain=(0, 100), n=1001))

    def test_space_time_self_convergence(self):
        # halving h (and with it dt) moves the tracked front at t_end by
        # less than 2e-2
        ends = []
        for n in (1501, 3001):
            cfg = SimConfig(
                frame="lab", alpha=0.0, epsilon=0.005, domain=(0.0, 150.0), n=n,
                t_end=80.0, ic="small-bump", ic_amplitude=0.05, ic_width=5.0,
            )
            res = simulate(cfg)
            ends.append(res.track.x_fr_num[-1])
        assert abs(ends[1] - ends[0]) < 2e-2
