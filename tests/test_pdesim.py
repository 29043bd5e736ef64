"""Tests for the method-of-lines simulator, front tracking, and the
characteristic front-path prediction."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lapack

from quenchfront.pdesim import (
    FrontTrack,
    QuenchComparison,
    RelaxationError,
    SimConfig,
    SimResult,
    SimulationAbort,
    compare_homogeneous_quench,
    predicted_front_path,
    relax,
    simulate,
)


class TestConfig:
    def test_dt_bound_enforced(self):
        SimConfig(domain=(0.0, 100.0), n=1001, dt=0.02)  # the bound 0.2 h itself
        with pytest.raises(ValueError, match="dt"):
            SimConfig(domain=(0.0, 100.0), n=1001, dt=0.0201)

    def test_default_dt(self):
        cfg = SimConfig(domain=(0.0, 100.0), n=1001)
        assert cfg.dt == pytest.approx(0.2 * cfg.h)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(frame="rotating")
        with pytest.raises(ValueError):
            SimConfig(ic="plateau")
        with pytest.raises(ValueError):
            SimConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            SimConfig(domain=(1.0, 0.0))
        for bad in (
            dict(ic_width=0.0), dict(ic_width=-5.0), dict(ic_width=math.inf),
            dict(ic_width=math.nan), dict(ic_amplitude=math.nan),
            dict(ic_amplitude=-math.inf), dict(snapshot_dt=0.0),
            dict(snapshot_dt=-1.0), dict(dt=0.0), dict(dt=-0.01), dict(dt=math.nan),
            dict(alpha=math.nan), dict(c=math.nan), dict(epsilon=math.nan),
            dict(frozen_mu=math.nan), dict(frozen_mu=math.inf),
            dict(domain=(math.nan, 300.0)), dict(domain=(0.0, math.inf)),
            dict(t_end=math.nan), dict(t_end=math.inf), dict(track_level=math.nan),
            dict(track_level=0.0), dict(track_level=1.0), dict(track_level=5.0),
            dict(epsilon=0.0), dict(epsilon=-0.005),
        ):
            with pytest.raises(ValueError):
                SimConfig(**bad)


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


def _dense_operator(cfg):
    """A = D2 - c D1 assembled densely from mirror-ghost Neumann rows."""
    h, n = cfg.h, cfg.n
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
    return a


def _dense_reference(cfg, u):
    """Unfactored, unfused copy of the stepper: with A dense and
    e_k = u_k + dt(mu(t_k) u_k - u_k^3), one IMEX Euler step
    (I - dt A) u_1 = e_0, then SBDF2 (3I - 2dt A) u_{k+1} = 4e_k - 2e_{k-1} + u_{k-1};
    returns the states from u onwards (row k is t = k dt)."""
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    dt, n = cfg.dt, cfg.n
    a = _dense_operator(cfg)
    steps = int(math.ceil(cfg.t_end / dt))
    states, es = [u], []
    for k in range(steps):
        t = k * dt
        if cfg.frozen_mu is not None:
            mu = cfg.frozen_mu
        elif cfg.frame == "comoving":
            mu = np.tanh(cfg.epsilon * x)
        else:
            mu = -np.tanh(cfg.epsilon * (cfg.alpha * x - t))
        es.append(states[k] + dt * (mu * states[k] - states[k] ** 3))
        if k == 0:
            u = np.linalg.solve(np.eye(n) - dt * a, es[0])
        else:
            u = np.linalg.solve(3.0 * np.eye(n) - 2.0 * dt * a, 4.0 * es[k] - 2.0 * es[k - 1] + states[k - 1])
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


# criterion 8(b): frozen mu = 1 invasion from a small bump, h = 0.1
_INVASION = dict(
    frame="lab", frozen_mu=1.0, domain=(0.0, 200.0), n=2001, t_end=60.0,
    ic="small-bump", ic_width=5.0, ic_amplitude=0.05,
)


def _last_crossing(x, u, level):
    du = u - level
    i = np.nonzero(du[:-1] * du[1:] < 0.0)[0][-1]
    return x[i] + (x[i + 1] - x[i]) * du[i] / (du[i] - du[i + 1])


def _banded_euler_front(cfg, dt):
    """x_fr(t_end) of the first-order IMEX Euler march (I - dt D2) u_{k+1} =
    u_k + dt(mu u_k - u_k^3) with frozen mu, solved by LAPACK ``dgtsv``."""
    n, lam = cfg.n, dt / cfg.h**2
    x = np.linspace(cfg.domain[0], cfg.domain[1], n)
    sub, sup = np.full(n - 1, -lam), np.full(n - 1, -lam)
    sup[0] = sub[-1] = -2.0 * lam  # mirror ghosts
    main = np.full(n, 1.0 + 2.0 * lam)
    u = cfg.ic_amplitude * np.exp(-((x - cfg.ic_center) / cfg.ic_width) ** 2)
    for _ in range(math.ceil(cfg.t_end / dt)):
        u = lapack.dgtsv(sub, main, sup, u + dt * (cfg.frozen_mu * u - u**3))[3]
    return _last_crossing(x, u, cfg.track_level)


@pytest.fixture(scope="module")
def invasion_fronts():
    """x_fr(t_end) of :func:`simulate` at the default dt, dt/2 and dt/4."""
    dt = SimConfig(**_INVASION).dt
    return dt, [
        simulate(SimConfig(dt=dt / m, **_INVASION)).track.x_fr_num[-1] for m in (1, 2, 4)
    ]


class TestTimeAccuracy:
    def test_second_order_in_dt(self, invasion_fronts):
        # e(dt) = C dt^2: successive differences shrink by 4 per halving
        _, (q1, q2, q4) = invasion_fronts
        assert 3.5 <= (q1 - q2) / (q2 - q4) <= 4.5

    def test_default_dt_beats_euler_at_old_bound(self, invasion_fronts):
        # time error against the Richardson (dt -> 0) value at the same h
        _, (q1, q2, q4) = invasion_fronts
        exact = (4.0 * q4 - q2) / 3.0
        cfg = SimConfig(**_INVASION)
        euler = _banded_euler_front(cfg, 0.4 * cfg.h**2)
        assert abs(q1 - exact) <= abs(euler - exact)


class TestRelax:
    def _comoving(self, **kw):
        return SimConfig(
            frame="comoving", c=1.2, epsilon=0.05, domain=(-20.0, 60.0), n=201,
            ic="front-seed", **kw,
        )

    @pytest.mark.parametrize(
        "mode",
        [
            dict(frame="comoving", c=1.2, epsilon=0.05, ic="front-seed"),
            dict(frame="lab", frozen_mu=0.5, ic="small-bump", ic_center=40.0),
        ],
        ids=["comoving", "frozen"],
    )
    def test_steady_residual_below_tol(self, mode):
        cfg = SimConfig(domain=(-20.0, 60.0), n=201, **mode)
        res = relax(cfg, tol=1e-8)
        if cfg.frozen_mu is not None:
            mu = cfg.frozen_mu
        else:
            mu = np.tanh(cfg.epsilon * res.x)
        r = _dense_operator(cfg) @ res.u + mu * res.u - res.u**3
        assert np.max(np.abs(r)) <= 1e-8
        assert res.residual == pytest.approx(np.max(np.abs(r)), rel=1e-3)
        assert res.steps > 1 and res.wall_s > 0.0

    def test_agrees_with_long_simulation(self):
        steady = relax(self._comoving())
        res = simulate(self._comoving(t_end=1500.0, snapshot_dt=1500.0))
        assert np.max(np.abs(res.snapshots[-1] - steady.u)) <= 1e-6

    def test_step_budget_raises(self):
        with pytest.raises(RelaxationError):
            relax(self._comoving(), max_steps=10)

    def test_time_dependent_mu_rejected(self):
        with pytest.raises(ValueError, match="time-independent"):
            relax(SimConfig(frame="lab", alpha=0.5, domain=(0.0, 50.0), n=101))


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
    def test_zero_time(self):
        assert predicted_front_path(0.005, [0.0])[0] == 0.0

    def test_tanh_quadrature_self_convergence(self):
        # brute-force fine Simpson in the tau = sqrt(t) variable
        eps, t = 0.005, 100.0
        tau = np.linspace(0.0, math.sqrt(t), 20001)
        f = 4.0 * tau * np.sqrt(np.tanh(eps * tau**2))
        h = tau[1] - tau[0]
        brute = h / 3.0 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum())
        got = predicted_front_path(eps, [t])[0]
        assert got == pytest.approx(brute, abs=1e-8)

    @pytest.mark.parametrize("eps", [1e-4, 2.5e-3, 5e-3, 0.05, 1.0])
    def test_closed_form_against_quadrature(self, eps):
        # oracle: adaptive quadrature in tau = sqrt(s) of the deficit
        # 2 - 2 sqrt(tanh(eps s)), with x(t) = 2t - deficit.  The check
        # compares x(t) - 2t with -deficit, so the oracle is not rounded to
        # the scale of x (one ulp of x ~ 1e6 is 1.2e-10 at eps = 1e-4,
        # eps t = 50)
        t = np.concatenate([[0.0], np.geomspace(1e-6, 50.0, 40)]) / eps
        got = predicted_front_path(eps, t)
        for tk, xk in zip(t, got):
            deficit = quad(
                lambda tau: 4.0 * tau * (1.0 - math.sqrt(math.tanh(eps * tau * tau))),
                0.0, math.sqrt(tk), epsabs=1e-13, epsrel=1e-13, limit=200,
            )[0]
            assert abs((xk - 2.0 * tk) + deficit) < 1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            predicted_front_path(0.005, [-1.0])


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
        xx = 2.0 + predicted_front_path(cfg.epsilon, tt)
        fake = SimResult(
            x=np.linspace(0, 220, 2201),
            times=np.array([0.0]),
            snapshots=np.zeros((1, 2201)),
            track=FrontTrack(tt, xx, 0.2),
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
