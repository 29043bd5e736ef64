"""Tests for the method-of-lines simulator, front tracking, and the
characteristic front-path prediction."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lapack

from quenchfront import cli, pdesim
from quenchfront.solvercore import Mesh, NewtonReport, SolveError, solve_bvp
from quenchfront.travelingwave import FrontSolution, QuenchParams, front_location, solve_front
from quenchfront.pdesim import (
    FrontTrack,
    QuenchComparison,
    SimConfig,
    SimResult,
    SimulationAbort,
    compare_homogeneous_quench,
    predicted_front_path,
    simulate,
    steady_state,
)


class TestConfig:
    def test_dt_bound_enforced(self):
        SimConfig(domain=(0.0, 100.0), n=1001, dt=0.05)  # the bound DT_PER_H h itself
        with pytest.raises(ValueError, match="dt"):
            SimConfig(domain=(0.0, 100.0), n=1001, dt=0.0501)
        SimConfig(domain=(0.0, 100.0), n=101, dt=pdesim.DT_CAP)  # the cap binds at h = 1
        with pytest.raises(ValueError, match=r"min\(0.5 h, 0.2\)"):
            SimConfig(domain=(0.0, 100.0), n=101, dt=1.001 * pdesim.DT_CAP)

    def test_default_dt(self):
        cfg = SimConfig(domain=(0.0, 100.0), n=1001)
        assert cfg.dt == pytest.approx(pdesim.DT_PER_H * cfg.h)
        assert SimConfig(domain=(0.0, 100.0), n=101).dt == pdesim.DT_CAP

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
            dict(epsilon=0.0), dict(epsilon=-0.005), dict(ic_center=math.nan),
            dict(ic_center=math.inf),
        ):
            with pytest.raises(ValueError):
                SimConfig(**bad)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_nonfinite_ic_center_refused(self, center):
        # a NaN centre used to run and abort at t = 0, and an infinite one
        # ran the zero state in place of the bump
        with pytest.raises(ValueError, match="ic_center must be finite"):
            SimConfig(frozen_mu=1.0, domain=(0.0, 20.0), n=101, ic_center=center)
        with pytest.raises(ValueError, match="ic_center must be finite"):
            SimConfig(frame="comoving", c=1.2, epsilon=0.05, domain=(-20.0, 60.0), n=201,
                      ic_center=center)

    def test_positivity_floor(self):
        # SBDF3's 11 B - 6 dt A4 binds: dt >= 11 h^2/72 at c = 0, 0.006111 at h = 0.2
        h = 0.2
        floor = 11.0 * h * h / 72.0
        SimConfig(domain=(0.0, 20.0), n=101, dt=floor)
        with pytest.raises(ValueError, match="positivity floor 0.006111 of h = 0.2"):
            SimConfig(domain=(0.0, 20.0), n=101, dt=0.999 * floor)
        # advection lowers it: (1 + x)/(1 + x + x^2/3) with x = c h/2 = 0.12
        x = 0.12
        floor_c = floor * (1.0 + x) / (1.0 + x + x * x / 3.0)
        SimConfig(frame="comoving", c=1.2, domain=(0.0, 20.0), n=101, dt=floor_c)
        with pytest.raises(ValueError, match="positivity floor"):
            SimConfig(frame="comoving", c=1.2, domain=(0.0, 20.0), n=101, dt=0.999 * floor_c)
        # at the floor every off-diagonal of the three implicit matrices is <= 0
        for c, dt in ((0.0, floor), (1.2, floor_c), (-1.2, floor_c)):
            for dt_m, s in ((18.0 * dt, 18.0), (18.0 * dt, 27.0), (6.0 * dt, 11.0)):
                a4, b = _dense_operators(SimConfig(
                    frame="comoving" if c else "lab", c=c, domain=(0.0, 2.0), n=11, dt=dt
                ))
                m = s * b - dt_m * a4
                assert np.max(m - np.diag(np.diag(m))) <= 1e-12 * s

    @pytest.mark.parametrize("h", [1.25, 2.5, 5.0])
    def test_grid_coarser_than_every_admissible_step_refused(self, h):
        # the floor 11 h^2/72 passes the cap 0.2 at h = 1.144; below the
        # floor, a frozen-mu run at dt = 0.2 reaches u = -0.0025 on h = 2.5
        # and -1.007 on h = 5
        with pytest.raises(ValueError, match="the grid must be finer"):
            SimConfig(frozen_mu=1.0, domain=(0.0, 100.0), n=int(round(100.0 / h)) + 1)


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

    def test_abort_carries_a_copy_of_the_state_at_t(self):
        # dt = 2^-5 makes t/dt exact, so the run stopped at t ends on that state
        base = dict(frozen_mu=1.0, domain=(0.0, 50.0), n=501, ic_amplitude=1e8, ic_width=2.0,
                    ic_center=25.0, dt=2.0**-5)
        with pytest.raises(SimulationAbort) as err:
            simulate(SimConfig(t_end=10.0, **base))
        t, u = err.value.t, err.value.u
        assert t > 0.0
        assert u.base is None  # owns its data: not a view of the stepper's history
        res = simulate(SimConfig(t_end=t, snapshot_dt=t, **base))
        assert res.steps == round(t / base["dt"])
        assert np.array_equal(res.snapshots[-1], u)

    @pytest.mark.parametrize(
        "value,aborts",
        [(math.nan, True), (math.inf, True), (-math.inf, True), (sys.float_info.max, False)],
        ids=["nan", "inf", "-inf", "max-double"],
    )
    def test_abort_check_on_the_step_a_value_appears(self, monkeypatch, value, aborts):
        # the solve of step j returns `value` at one node: a non-finite one
        # aborts on that step, in the Euler start (j = 1), the SBDF2 step
        # (j = 2) and the last, SBDF3 step; a finite one on the last step
        # stays.  Without advection, and at c = 1.2, where every step runs
        # the symmetrized solve (max|ln D| about c L/4 = 6)
        real, real_symmetrizer = pdesim._implicit_solver, pdesim._symmetrizer
        scales = []

        def recording_symmetrizer(sub, sup):
            scales.append(real_symmetrizer(sub, sup))
            return scales[-1]

        monkeypatch.setattr(pdesim, "_symmetrizer", recording_symmetrizer)
        for cfg in (
            SimConfig(frozen_mu=1.0, domain=(0.0, 20.0), n=101, t_end=1.0),
            SimConfig(frame="comoving", c=1.2, domain=(-10.0, 10.0), n=101, t_end=1.0),
        ):
            steps = math.ceil(cfg.t_end / cfg.dt)
            for j in (1, 2, steps) if aborts else (steps,):
                calls = []
                scales.clear()

                def injecting_solver(*args):
                    solve = real(*args)

                    def wrapped(b, out):
                        out = solve(b, out)
                        calls.append(None)
                        if len(calls) == j:
                            out[50] = value
                        return out

                    return wrapped

                monkeypatch.setattr(pdesim, "_implicit_solver", injecting_solver)
                if aborts:
                    with pytest.raises(SimulationAbort) as err:
                        simulate(cfg)
                    assert err.value.t == (j - 1) * cfg.dt
                    assert np.all(np.isfinite(err.value.u))
                else:
                    res = simulate(cfg)
                    assert res.snapshots[-1][50] == value
                assert len(calls) == j
                # one symmetrizer per advective matrix, and each one exists
                assert len(scales) == (3 if cfg.c else 0)
                assert all(d is not None for d in scales)

    def test_comparison_principle(self):
        base = dict(
            frame="lab", frozen_mu=0.5, domain=(0.0, 60.0), n=601, t_end=10.0,
            ic="small-bump", ic_width=4.0, snapshot_dt=2.0,
        )
        lo = simulate(SimConfig(ic_amplitude=0.02, **base))
        hi = simulate(SimConfig(ic_amplitude=0.05, **base))
        for a, b in zip(lo.snapshots, hi.snapshots):
            assert np.all(a <= b + 1e-12)

    @pytest.mark.parametrize("h", [0.5, 1.0, 1.1])
    def test_coarse_grid_at_the_dt_cap_stays_in_invariant_region(self, h):
        # every step, not only the snapshots; max |u| is 1 to within 6.7e-16
        # (coarser grids are refused, test_grid_coarser_than_every_admissible_step_refused)
        cfg = SimConfig(frozen_mu=1.0, domain=(0.0, 100.0), n=int(round(100.0 / h)) + 1,
                        t_end=40.0, snapshot_dt=pdesim.DT_CAP)
        assert cfg.dt == pdesim.DT_CAP
        res = simulate(cfg)
        assert len(res.times) == math.ceil(cfg.t_end / cfg.dt) + 1
        assert np.max(np.abs(res.snapshots)) <= 1.0 + 1e-15

    def test_invariant_region(self):
        cfg = SimConfig(
            frame="lab", frozen_mu=1.0, domain=(0.0, 60.0), n=601, t_end=15.0,
            ic="small-bump", ic_amplitude=1.5, ic_width=4.0, ic_center=30.0,
            snapshot_dt=1.0,
        )
        res = simulate(cfg)
        assert float(np.max(np.abs(res.snapshots))) <= 1.5 + 1e-6


def _dense_operators(cfg):
    """A4 = (1 + c^2 h^2/12) D2 - c D1 and B = I + (h^2/12)(D2 - c D1),
    assembled densely from mirror-ghost Neumann rows."""
    h, n = cfg.h, cfg.n
    c = cfg.c if cfg.frame == "comoving" else 0.0
    d2, d1 = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        d2[i, i] = -2.0 / h**2
        if i > 0:
            d2[i, i - 1] = 1.0 / h**2
            d1[i, i - 1] = -1.0 / (2.0 * h)
        if i < n - 1:
            d2[i, i + 1] = 1.0 / h**2
            d1[i, i + 1] = 1.0 / (2.0 * h)
    d2[0, 1] = d2[-1, -2] = 2.0 / h**2  # ghost u_{-1} = u_1: D2 doubles, D1 vanishes
    d1[0, 1] = d1[-1, -2] = 0.0
    a4 = (1.0 + c * c * h * h / 12.0) * d2 - c * d1
    b = np.eye(n) + (h * h / 12.0) * (d2 - c * d1)
    return a4, b


def _dense_reference(cfg, u):
    """Unfactored, unfused copy of the stepper: with A4, B dense and
    F_k = mu(t_k) u_k - u_k^3, one IMEX Euler step (B - dt A4) u_1 =
    B(u_0 + dt F_0), one SBDF2 step (3B - 2dt A4) u_2 = B(4u_1 - u_0 +
    2dt(2F_1 - F_0)), then SBDF3 (11B - 6dt A4) u_{k+1} = B(18u_k - 9u_{k-1}
    + 2u_{k-2} + 6dt(3F_k - 3F_{k-1} + F_{k-2})); returns the states from u
    onwards (row k is t = k dt)."""
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    dt = cfg.dt
    a, b = _dense_operators(cfg)
    steps = int(math.ceil(cfg.t_end / dt))
    us, fs = [u], []
    for k in range(steps):
        t = k * dt
        if cfg.frozen_mu is not None:
            mu = cfg.frozen_mu
        elif cfg.frame == "comoving":
            mu = np.tanh(cfg.epsilon * x)
        else:
            mu = -np.tanh(cfg.epsilon * (cfg.alpha * x - t))
        fs.append(mu * us[k] - us[k] ** 3)
        if k == 0:
            u = np.linalg.solve(b - dt * a, b @ (us[0] + dt * fs[0]))
        elif k == 1:
            rhs = 4.0 * us[1] - us[0] + 2.0 * dt * (2.0 * fs[1] - fs[0])
            u = np.linalg.solve(3.0 * b - 2.0 * dt * a, b @ rhs)
        else:
            rhs = 18.0 * us[k] - 9.0 * us[k - 1] + 2.0 * us[k - 2] + 6.0 * dt * (
                3.0 * fs[k] - 3.0 * fs[k - 1] + fs[k - 2]
            )
            u = np.linalg.solve(11.0 * b - 6.0 * dt * a, b @ rhs)
        us.append(u)
    return np.array(us)


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
        assert len(ref) == 151
        steps = np.rint(res.times / cfg.dt).astype(int)
        assert np.max(np.abs(res.snapshots - ref[steps])) <= 1e-12


# the (dt_m, s) of the Euler start, the SBDF2 step and SBDF3 at step dt
_STEP_MATRICES = ((18.0, 18.0), (18.0, 27.0), (6.0, 11.0))


class TestImplicitSolver:
    """``_implicit_solver`` against a dense solve of M u = 12 B b with
    M = 12 (s B - dt_m A4); the advective matrices go through the
    symmetrizer and ``dpttrs`` unless ``dgttrf``/``dgttrs`` fall back."""

    @staticmethod
    def _solve_both(monkeypatch, cfg, dt_m, s):
        """The solver's and the dense solution for a b >= 0 that is zero on
        the left third (so u has a decaying tail), and whether ``dgttrf`` ran."""
        factored = []
        real = lapack.dgttrf
        monkeypatch.setattr(lapack, "dgttrf", lambda *a: factored.append(1) or real(*a))
        a4, b_op = _dense_operators(cfg)
        b = np.random.default_rng(cfg.n).random(cfg.n)
        b[: cfg.n // 3] = 0.0
        ref = np.linalg.solve(s * b_op - dt_m * a4, b_op @ b)
        u = pdesim._implicit_solver(cfg.n, cfg.h, dt_m, cfg.c, s)(b.copy(), np.empty(cfg.n))
        return u, ref, bool(factored)

    @pytest.mark.parametrize("h", [0.1, 0.2, 0.4])
    @pytest.mark.parametrize("c", [-1.2, 0.0, 0.6, 1.2, 1.99])
    def test_matches_dense_solve(self, monkeypatch, c, h):
        # measured: at most 1.2e-15 of max|u| here and in test_symmetrizer_bound
        # (1.9e-15 with dgttrs on every advective matrix); the fallback runs
        # only for SBDF3's matrix at the floor, whose larger off-diagonal is
        # 0 up to rounding there
        floor = pdesim._min_step(h, c, 11.0) / 6.0
        for dt in (floor, min(pdesim.DT_PER_H * h, pdesim.DT_CAP)):
            cfg = SimConfig(frame="comoving" if c else "lab", c=c, domain=(0.0, 20.0),
                            n=int(round(20.0 / h)) + 1, dt=dt)
            for m, s in _STEP_MATRICES:
                u, ref, fallback = self._solve_both(monkeypatch, cfg, m * dt, s)
                assert np.max(np.abs(u - ref)) <= 1e-14 * np.max(np.abs(ref))
                assert np.all(u >= 0.0)
                assert fallback == (c != 0.0 and dt == floor and s == 11.0)

    @pytest.mark.parametrize("length,fallback", [(600.0, False), (720.0, True)])
    def test_symmetrizer_bound(self, monkeypatch, length, fallback):
        # c = 1.99 on h = 0.4: the symmetrizer spans about e^{+-c L/4}, e^{+-297}
        # on L = 600 and e^{+-356} on L = 720, past _MAX_LOG_SCALE = 350
        cfg = SimConfig(frame="comoving", c=1.99, domain=(0.0, length),
                        n=int(round(length / 0.4)) + 1)
        for m, s in _STEP_MATRICES:
            u, ref, ran = self._solve_both(monkeypatch, cfg, m * cfg.dt, s)
            assert np.max(np.abs(u - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.all(u >= 0.0)
            assert ran == fallback


# criterion 8(b): frozen mu = 1 invasion from a small bump, h = 0.1
_INVASION = dict(
    frame="lab", frozen_mu=1.0, domain=(0.0, 200.0), n=2001, t_end=60.0,
    ic="small-bump", ic_width=5.0, ic_amplitude=0.05,
)


def _rightmost_crossing_reference(x, u, level):
    """The tracker as it was before it counted u == level as below: sign
    products of u - level, with exact hits counted and taken as crossings."""
    du = u - level
    with np.errstate(over="ignore"):
        sign_change = du[:-1] * du[1:] < 0.0
    idx = np.nonzero(sign_change)[0]
    count = idx.size
    exact = np.nonzero(du == 0.0)[0]
    if exact.size:
        count += exact.size
        best_exact = x[exact[-1]]
    if count == 0:
        return math.nan, 0
    if idx.size:
        i = idx[-1]
        xi = x[i] + (x[i + 1] - x[i]) * du[i] / (du[i] - du[i + 1])
        if exact.size and exact[-1] > i + 1:
            xi = best_exact
    else:
        xi = best_exact
    return float(xi), int(count)


def _track_row(x, u, level):
    """``_rightmost_crossings`` on a block of one row."""
    xi, count = pdesim._rightmost_crossings(x, np.asarray(u, dtype=float)[None], level)
    return float(xi[0]), int(count[0])


def _same_crossing(got, want):
    assert got[1] == want[1]
    assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))


class TestTracker:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_on_strict_crossings(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        x = np.sort(rng.uniform(-50.0, 250.0, n))
        level = float(rng.uniform(0.01, 0.99))
        # smooth random profiles with a few crossings, and rough ones with many
        u = np.cumsum(rng.normal(0.0, 0.1 if seed % 2 else 0.5, n)) + level
        assert not np.any(u == level)
        _same_crossing(_track_row(x, u, level), _rightmost_crossing_reference(x, u, level))

    @staticmethod
    def _edge_block(case):
        """Edge inputs on 11 nodes at level 0.5: crossings in a row's first
        and last cells, a block whose last row alone crosses, and a block of
        one row."""
        x = np.linspace(0.0, 10.0, 11)
        lo, hi = np.full(11, 0.2), np.full(11, 0.8)

        def row(base, other, at):
            r = base.copy()
            r[at] = other[at]
            return r

        if case == "first-and-last-cell":
            u = [row(lo, hi, [0]), row(lo, hi, [-1]), row(lo, hi, [0, -1]),
                 row(hi, lo, [0]), row(hi, lo, [-1]), hi, row(hi, lo, [0, -1])]
        elif case == "only-last-row":
            u = [lo, hi, lo, hi, row(lo, hi, slice(6, None))]
        else:  # one-row: three crossings, the rightmost in the last cell
            u = [row(lo, hi, [2, 3, 10])]
        return x, np.array(u), 0.5

    @pytest.mark.parametrize("case", [*range(10), "first-and-last-cell", "only-last-row", "one-row"])
    def test_blocks_match_reference_row_by_row(self, case):
        if isinstance(case, int):
            # blocks of 1 to 69 random rows, a quarter of them lifted wholly
            # above or pushed wholly below the level (no crossing: NaN, count 0)
            rng = np.random.default_rng(100 + case)
            n, rows = int(rng.integers(2, 400)), int(rng.integers(1, 70))
            x = np.sort(rng.uniform(-50.0, 250.0, n))
            level = float(rng.uniform(0.01, 0.99))
            u = np.cumsum(rng.normal(0.0, rng.choice([0.1, 0.5], (rows, 1)), (rows, n)), axis=1)
            u += level
            u[rng.random(rows) < 0.125] += 1e3
            u[rng.random(rows) < 0.125] -= 1e3
            u[0] += 1e3  # at least one row never crosses
        else:
            x, u, level = self._edge_block(case)
            rows = len(u)
        assert not np.any(u == level)
        xi, count = pdesim._rightmost_crossings(x, u, level)
        assert xi.shape == count.shape == (rows,)
        if isinstance(case, int):
            assert math.isnan(xi[0]) and count[0] == 0
        for row, got in zip(u, zip(xi.tolist(), count.tolist())):
            _same_crossing(got, _rightmost_crossing_reference(x, row, level))

    def test_block_without_crossings_is_nan(self):
        # no row crosses: every entry NaN, with no RuntimeWarning (pytest
        # turns one into an error)
        x = np.linspace(0.0, 1.0, 5)
        xi, count = pdesim._rightmost_crossings(x, np.full((3, 5), 0.2), 0.2)
        assert np.all(np.isnan(xi)) and np.array_equal(count, [0, 0, 0])

    _EXACT = [
        ([0.1, 0.2, 0.1], (math.nan, 0)),  # touches from below: no crossing
        ([0.5, 0.2, 0.5], (1.0, 2)),  # touches from above: two crossings
        ([0.5, 0.2, 0.1], (1.0, 1)),  # passes through the level at a node
        ([0.1, 0.2, 0.5], (1.0, 1)),
        ([0.2, 0.2, 0.2], (math.nan, 0)),
    ]

    @pytest.mark.parametrize(
        "u,expected", _EXACT,
        ids=["touch-below", "touch-above", "down-through-node", "up-through-node", "flat"],
    )
    def test_exact_level_counts_as_below(self, u, expected):
        _same_crossing(_track_row(np.array([0.0, 1.0, 2.0]), u, 0.2), expected)

    def test_exact_level_cases_as_one_block(self):
        u = np.array([row for row, _ in self._EXACT])
        xi, count = pdesim._rightmost_crossings(np.array([0.0, 1.0, 2.0]), u, 0.2)
        for got, (_, want) in zip(zip(xi.tolist(), count.tolist()), self._EXACT):
            _same_crossing(got, want)


class TestBlockedTrack:
    """``simulate`` locates the front on blocks of tracked states; with
    ``snapshot_dt = dt`` every state is kept, and the track must equal the
    reference tracker on those states, bit for bit."""

    @staticmethod
    def _track_against_reference(cfg, stride):
        res = simulate(cfg)
        steps = res.steps
        assert max(1, steps // 2000) == stride
        assert len(res.times) == steps + 1  # every state is a snapshot
        tracked = list(range(0, steps + 1, stride)) + ([steps] if steps % stride else [])
        ref = [_rightmost_crossing_reference(res.x, res.snapshots[j], cfg.track_level)
               for j in tracked]
        assert np.array_equal(res.track.times, res.times[tracked])
        assert np.array_equal(res.track.x_fr_num, [xi for xi, _ in ref], equal_nan=True)
        counts = np.array([count for _, count in ref])
        # the initial state's crossings do not count
        assert res.track.multiple_crossings == bool(np.any(counts[1:] > 1))
        return counts

    def test_two_crossings_first_in_the_last_partial_block(self):
        # a bump in the middle of a frozen mu = 1 run crosses 0.2 on both
        # sides from state 34 on; 38 steps track 39 states, so the last
        # block is partial and only it holds states with two crossings
        cfg = SimConfig(frozen_mu=1.0, domain=(0.0, 20.0), n=81, t_end=4.75, ic_center=10.0,
                        ic_width=2.0, ic_amplitude=0.007, snapshot_dt=0.125)
        block = pdesim._TRACK_BLOCK
        counts = self._track_against_reference(cfg, stride=1)
        assert len(counts) % block != 0
        first = int(np.argmax(counts > 1))
        assert counts[first] == 2 and first >= len(counts) - len(counts) % block

    def test_every_other_state_in_a_long_run(self):
        # 4001 steps track every second state and the last: 2002 states,
        # not a multiple of the block; the comoving front crosses in each
        cfg = SimConfig(frame="comoving", c=1.2, epsilon=0.05, domain=(-10.0, 20.0), n=61,
                        t_end=800.1, ic="front-seed", snapshot_dt=0.2)
        counts = self._track_against_reference(cfg, stride=2)
        assert len(counts) == 2002 and np.all(counts >= 1)

    def test_crossings_of_the_initial_state_do_not_count(self):
        # the bump crosses 0.2 twice at t = 0 and has decayed below it one
        # step later
        cfg = SimConfig(frozen_mu=-1.0, domain=(0.0, 20.0), n=81, t_end=1.0, ic_center=10.0,
                        ic_width=2.0, ic_amplitude=0.21, snapshot_dt=0.125)
        counts = self._track_against_reference(cfg, stride=1)
        assert counts[0] == 2 and not np.any(counts[1:])


def _last_crossing(x, u, level):
    du = u - level
    i = np.nonzero(du[:-1] * du[1:] < 0.0)[0][-1]
    return x[i] + (x[i + 1] - x[i]) * du[i] / (du[i] - du[i + 1])


def _compact_banded(cfg, s, dt_m):
    """12 (s B - dt_m A4) at c = 0 as LAPACK ``dgtsv`` diagonals (mirror
    ghosts), and u -> 12 B u."""
    n, lam = cfg.n, dt_m / cfg.h**2
    sub, sup = np.full(n - 1, s - 12.0 * lam), np.full(n - 1, s - 12.0 * lam)
    sup[0] = sub[-1] = 2.0 * (s - 12.0 * lam)
    main = np.full(n, 10.0 * s + 24.0 * lam)

    def b12(u):
        out = 10.0 * u
        out[1:] += u[:-1]
        out[:-1] += u[1:]
        out[0] += u[1]  # mirror ghosts: 2 u_1 and 2 u_{n-2}
        out[-1] += u[-2]
        return out

    return sub, main, sup, b12


def _banded_euler_front(cfg, dt):
    """x_fr(t_end) of the first-order IMEX Euler march (B - dt A4) u_{k+1} =
    B(u_k + dt(mu u_k - u_k^3)) with frozen mu, solved by LAPACK ``dgtsv``."""
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    sub, main, sup, b12 = _compact_banded(cfg, 1.0, dt)
    u = cfg.ic_amplitude * np.exp(-((x - cfg.ic_center) / cfg.ic_width) ** 2)
    for _ in range(math.ceil(cfg.t_end / dt)):
        u = lapack.dgtsv(sub, main, sup, b12(u + dt * (cfg.frozen_mu * u - u**3)))[3]
    return _last_crossing(x, u, cfg.track_level)


def _banded_sbdf2_front(cfg, dt):
    """x_fr(t_end) of SBDF2 with frozen mu, the stepper this package used
    before SBDF3, on the same compact space: one IMEX Euler step, then
    (3B - 2dt A4) u_{k+1} = B(4u_k - u_{k-1} + 2dt(2F_k - F_{k-1})), each step
    solved by LAPACK ``dgtsv``."""
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    u = cfg.ic_amplitude * np.exp(-((x - cfg.ic_center) / cfg.ic_width) ** 2)
    f = lambda v: cfg.frozen_mu * v - v**3
    sub, main, sup, b12 = _compact_banded(cfg, 1.0, dt)
    prev, u = u, lapack.dgtsv(sub, main, sup, b12(u + dt * f(u)))[3]
    sub2, main2, sup2, _ = _compact_banded(cfg, 3.0, 2.0 * dt)
    for _ in range(math.ceil(cfg.t_end / dt) - 1):
        rhs = 4.0 * u - prev + 2.0 * dt * (2.0 * f(u) - f(prev))
        prev, u = u, lapack.dgtsv(sub2, main2, sup2, b12(rhs))[3]
    return _last_crossing(x, u, cfg.track_level)


@pytest.fixture(scope="module")
def invasion_fronts():
    """x_fr(t_end) of :func:`simulate` at the default dt, dt/2 and dt/4."""
    dt = SimConfig(**_INVASION).dt
    return dt, [
        simulate(SimConfig(dt=dt / m, **_INVASION)).track.x_fr_num[-1] for m in (1, 2, 4)
    ]


class TestTimeAccuracy:
    def test_third_order_in_dt(self, invasion_fronts):
        # e(dt) = C dt^3: successive differences shrink by 8 per halving.
        # Measured 7.29 at the default dt: the one IMEX Euler start step's
        # O(dt^2) local error still pulls the ratio below 8
        _, (q1, q2, q4) = invasion_fronts
        assert 7.0 <= (q1 - q2) / (q2 - q4) <= 8.5

    def test_default_dt_beats_euler_at_old_bound(self, invasion_fronts):
        # time error against the order-3 Richardson (dt -> 0) value at the
        # same h and on the same compact space, against IMEX Euler at 0.4 h^2
        # and SBDF2 at 0.2 h (measured 2.26e-2 against 4.36e-2 and 3.25e-2)
        _, (q1, q2, q4) = invasion_fronts
        exact = (8.0 * q4 - q2) / 7.0
        cfg = SimConfig(**_INVASION)
        euler = _banded_euler_front(cfg, 0.4 * cfg.h**2)
        sbdf2 = _banded_sbdf2_front(cfg, 0.2 * cfg.h)
        assert abs(q1 - exact) <= abs(euler - exact)
        assert abs(q1 - exact) <= abs(sbdf2 - exact)


class TestSpaceAccuracy:
    def test_fourth_order_in_space(self):
        # the comoving steady state at c = 1.2, eps = 2.5e-3 on h = 0.4, 0.2
        # and 0.1 (nested nodes): e(h) = C h^4, so successive differences
        # shrink by 16 per halving; measured 16.11 (second order gives 4)
        lo, length = -60.0, 428.0
        states = [
            steady_state(SimConfig(
                frame="comoving", c=1.2, epsilon=2.5e-3, domain=(lo, lo + length),
                n=int(round(length / h)) + 1,
            )).u[::m]
            for h, m in ((0.4, 1), (0.2, 2), (0.1, 4))
        ]
        d1 = np.max(np.abs(states[0] - states[1]))
        d2 = np.max(np.abs(states[1] - states[2]))
        assert 15.0 <= d1 / d2 <= 17.5


class TestDefaultGrid:
    # references: this scheme at n = 6001, dt = 0.0125 on the same domain;
    # the bounds are the errors of the second-order scheme at its old
    # defaults (n = 3001, dt = 0.05), which read 1.98378 and 262.213
    SPEED, FRONT = 1.98342, 262.180

    def _defaults(self, *flags):
        args = cli.build_parser().parse_args(["pde", *flags])
        h = (args.domain[1] - args.domain[0]) / (args.n - 1)
        dt = h / 10.0 if args.dt is None else args.dt  # pde's default step h/10
        return dict(domain=tuple(args.domain), n=args.n, dt=dt, t_end=args.t_end)

    def test_invasion_speed_near_fine_reference(self):
        # measured 1.98314
        res = simulate(SimConfig(frozen_mu=1.0, **self._defaults("--t-end", "60")))
        tt, xx = res.track.times, res.track.x_fr_num
        sel = np.isfinite(xx) & (tt >= 30.0)
        assert abs(np.polyfit(tt[sel], xx[sel], 1)[0] - self.SPEED) <= 3.6e-4

    def test_quench_front_near_fine_reference(self):
        # measured 262.1806
        res = simulate(SimConfig(alpha=0.0, epsilon=0.005, **self._defaults()))
        assert abs(res.track.x_fr_num[-1] - self.FRONT) <= 0.033


class TestSpreadingSpeed:
    @pytest.mark.parametrize(
        "h,semi_discrete",
        [(0.1, 2.0), (0.2, 1.999993), (0.4, 1.999894), (0.5, 1.999742), (1.0, 1.995908)],
    )
    def test_semi_discrete_limit(self, h, semi_discrete):
        # dt -> 0: the local minimum near lam = 1 of (S + 1)/lam with the
        # compact symbol S = s/(1 + h^2 s/12), s = 2 (cosh(lam h) - 1)/h^2;
        # values from a 6e5-point lam grid on [0.01, 60]
        assert round(pdesim.spreading_speed(h, 1e-9, 1.0), 6) == semi_discrete

    @pytest.mark.parametrize("h,dt,mu", [(0.1, 0.05, 1.0), (1.0, 0.2, 1.0), (1.1, 0.2, 1.0),
                                         (1.5, 0.1, 1.0), (0.5, 0.2, 0.3), (0.2, 0.1, 4.0)])
    def test_matches_largest_root(self, h, dt, mu):
        # oracle: the largest real root of the amplification cubic, with the
        # compact symbol S = s/(1 + h^2 s/12), by numpy.roots on a fine lam
        # grid, at its first local minimum (the saddle) refined by a parabola.
        # S saturates at 12/h^2, so on steep modes the speed falls again: at
        # h = 1.5 the semi-discrete (S + 1)/lam is 1.55 at lam = 4, and the
        # smallest value over the march's sigma grid reads 0.50, not 1.976
        lam = np.linspace(0.05, 4.0, 4000) * math.sqrt(mu)
        s = 2.0 * (np.cosh(lam * h) - 1.0) / h**2
        s = s / (1.0 + h * h * s / 12.0)
        lam, s = lam[6.0 * dt * s < 11.0], s[6.0 * dt * s < 11.0]
        speeds = []
        for lk, sk in zip(lam, s):
            roots = np.roots([11.0 - 6.0 * dt * sk, -18.0 * (1.0 + dt * mu),
                              9.0 + 18.0 * dt * mu, -(2.0 + 6.0 * dt * mu)])
            speeds.append(math.log(max(roots.real[np.abs(roots.imag) < 1e-9])) / (dt * lk))
        speeds = np.array(speeds)
        i = int(np.flatnonzero(speeds[1:] > speeds[:-1])[0])
        p2, p1, p0 = np.polyfit(lam[i - 3:i + 4], speeds[i - 3:i + 4], 2)
        oracle = p0 - p1 * p1 / (4.0 * p2)  # the parabola's vertex
        assert pdesim.spreading_speed(h, dt, mu) == pytest.approx(oracle, rel=1e-8)

    def test_check_refuses_a_coarse_grid(self):
        fine = SimConfig(frozen_mu=1.0, domain=(0.0, 100.0), n=1001)
        assert pdesim.check_spreading_speed(fine) == pdesim.spreading_speed(0.1, 0.05, 1.0)
        # at mu = 1 the positivity floor refuses every grid coarse enough to
        # miss 2 by 2.5 %; at mu = 4, h = 0.5 and dt = 0.2 spread at 3.662
        with pytest.raises(ValueError, match="grid too coarse for a front"):
            pdesim.check_spreading_speed(SimConfig(frozen_mu=4.0, domain=(0.0, 100.0), n=201))
        # mu <= 0: no front to carry
        assert pdesim.check_spreading_speed(SimConfig(frozen_mu=-1.0)) is None
        # the ramp's largest value mu = 1 stands in where mu is not frozen
        ramp = SimConfig(domain=(0.0, 100.0), n=201)
        assert pdesim.check_spreading_speed(ramp) == pdesim.spreading_speed(0.5, 0.2, 1.0)

    @pytest.mark.parametrize("bad", [(0.0, 0.1, 1.0), (0.1, 0.0, 1.0), (0.1, 0.1, 0.0)])
    def test_nonpositive_input_refused(self, bad):
        with pytest.raises(ValueError):
            pdesim.spreading_speed(*bad)


class TestSteadyState:
    def _comoving(self, **kw):
        return SimConfig(
            frame="comoving", c=1.2, epsilon=0.05, domain=(-20.0, 60.0), n=201,
            ic="front-seed", **kw,
        )

    @pytest.mark.parametrize("c", [0.0, 1.2])
    def test_dense_residual_at_rounding_level(self, c):
        # max|A4 u + B f(u)| from dense operators; measured 4.2e-15 at c = 0
        # and 1.3e-13 at c = 1.2
        cfg = SimConfig(frame="comoving", c=c, epsilon=0.05, domain=(-20.0, 60.0), n=201)
        res = steady_state(cfg)
        a4, b = _dense_operators(cfg)
        r = a4 @ res.u + b @ (np.tanh(cfg.epsilon * res.x) * res.u - res.u**3)
        assert np.max(np.abs(r)) <= 1e-12 and res.residual <= 1e-12
        assert res.report.converged and np.all(res.u > 0.0) and res.wall_s > 0.0

    def test_agrees_with_long_simulation(self):
        # SBDF3's fixed points solve A4 u + B f(u) = 0 too; measured 3.1e-13
        steady = steady_state(self._comoving())
        res = simulate(self._comoving(t_end=1500.0, snapshot_dt=1500.0))
        assert np.max(np.abs(res.snapshots[-1] - steady.u)) <= 1e-11

    def test_unconverged_newton_raises_with_its_report(self, monkeypatch):
        report = NewtonReport(iterations=80, final_residual_norm=1.0, converged=False)
        monkeypatch.setattr(pdesim, "solve_bvp", lambda res, jac, guess, *a, **k: (guess, report))
        with pytest.raises(SolveError, match="no steady state") as err:
            steady_state(self._comoving())
        assert err.value.report is report

    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(frame="lab", alpha=0.5, domain=(0.0, 50.0), n=101),
            SimConfig(frame="lab", frozen_mu=0.5, domain=(0.0, 50.0), n=101),
            SimConfig(frame="comoving", frozen_mu=0.5, domain=(0.0, 50.0), n=101),
        ],
        ids=["lab", "lab-frozen", "comoving-frozen"],
    )
    def test_outside_the_comoving_ramp_refused(self, cfg):
        with pytest.raises(ValueError, match="frame='comoving' and no frozen_mu"):
            steady_state(cfg)

    @pytest.mark.parametrize("h", [0.2, 0.4])
    def test_domain_short_of_the_instability_point_refused(self, monkeypatch, h):
        # atanh(0.81)/0.01 = 112.7 lies past x = 60: no front fits, and
        # Newton ran on to 80 non-finite iterations (h = 0.2) or met a
        # singular Jacobian at the seed (h = 0.4)
        monkeypatch.setattr(pdesim, "solve_bvp", None)
        cfg = SimConfig(frame="comoving", c=1.8, epsilon=0.01, domain=(-20.0, 60.0),
                        n=int(round(80.0 / h)) + 1)
        with pytest.raises(ValueError, match=r"atanh\(c\^2/4\)/eps = 112.703; it ends at 60"):
            steady_state(cfg)

    def test_converges_at_small_eps_near_two(self):
        # (1.8, 1e-5) on h = 0.4: from the projective tail 22 iterations
        # (measured); the affine seed did not converge in 80.  The delay
        # mu_fr - c^2/4 lies 18.2 % above the BVP's (measured), the O(h^4)
        # error that falls to 1.1 % at h = 0.2
        params = QuenchParams(1.8, 1e-5)
        front = solve_front(params, 5.0 / params.epsilon)
        lo, hi = -60.0, front.zeta_fr + 200.0
        cfg = SimConfig(frame="comoving", c=1.8, epsilon=1e-5, domain=(lo, hi),
                        n=int(round((hi - lo) / 0.4)) + 1)
        res = steady_state(cfg)
        assert res.report.converged and res.report.iterations <= 30
        pde = FrontSolution(Mesh(res.x), res.u, None, params.mu_of_zeta(res.x), params, res.report)
        bvp = front.mu_fr - 0.81
        assert 0.0 < (front_location(pde)[0] - front.mu_fr) / bvp <= 0.2

    @staticmethod
    def _counted_solve(monkeypatch, cfg):
        """Run ``steady_state(cfg)`` counting pdesim's ``np.exp`` calls and
        the residual evaluations of its Newton solve; returns the result,
        the two counts, and the solve's (residual, jacobian, seed)."""
        exps, evals, seen = [], [], []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x):
                exps.append(1)
                return np.exp(x)

        def spy(residual, jacobian, guess, tol, max_iter):
            def counted(w):
                evals.append(1)
                return residual(w)

            seen.append((residual, jacobian, np.array(guess)))
            return solve_bvp(counted, jacobian, guess, tol, max_iter)

        monkeypatch.setattr(pdesim, "np", CountingNumpy())
        monkeypatch.setattr(pdesim, "solve_bvp", spy)
        return steady_state(cfg), exps, evals, seen[0]

    def test_one_evaluation_per_iterate(self, monkeypatch):
        # each residual evaluation takes three exponentials (e^{2w}, e^{+-dw})
        # and the jacobian none: it reuses them at the iterate residual saw
        # last, as does the returned residual; u = e^w is the one more.
        # Measured 6 iterations and 7 evaluations here
        res, exps, evals, _ = self._counted_solve(monkeypatch, self._comoving())
        halvings = sum(round(-math.log2(lam)) for lam in res.report.damping_history)
        assert len(evals) == res.report.iterations + halvings + 1
        assert len(exps) == 3 * len(evals) + 1
        assert res.report.converged and res.residual <= 1e-12

    def test_jacobian_at_an_earlier_trial_recomputes(self, monkeypatch):
        # the line search accepting an earlier trial than the one last evaluated
        _, exps, _, (residual, jacobian, w1) = self._counted_solve(monkeypatch, self._comoving())
        w2 = w1 + 1e-3 * np.sin(np.arange(w1.size))
        r1 = residual(w1).copy()
        reused = jacobian(w1)
        residual(w2)
        del exps[:]
        recomputed = jacobian(w1)
        assert len(exps) == 3  # residual evaluated afresh at w1
        assert np.array_equal(recomputed, reused) and np.array_equal(residual(w1), r1)

    @pytest.mark.parametrize("c", [-0.5, 2.0, 2.5])
    def test_speed_outside_zero_two_refused(self, c):
        # the seed's instability point atanh(c^2/4) does not exist at c >= 2,
        # and its tail slope (1 + c)/2 is built for c >= 0
        cfg = SimConfig(frame="comoving", c=c, epsilon=0.05, domain=(-20.0, 60.0), n=201)
        with pytest.raises(ValueError, match=r"c in \[0, 2\)"):
            steady_state(cfg)


@pytest.mark.parametrize(
    "c,eps,order4",
    [(0.6, 1e-3, False), (0.6, 1e-4, False), (1.2, 1e-3, False),
     (1.2, 1e-4, True), (1.8, 1e-3, True), (1.8, 1e-4, True)],
)
def test_steady_state_delay_matches_bvp(c, eps, order4):
    # the delay mu_fr - c^2/4 of the PDE's discrete steady state on h = 0.4
    # and 0.2 against the BVP front on 16001 nodes, both by front_location.
    # Measured relative gaps (PDE - BVP)/BVP at h = 0.2, in the order of the
    # cases: -2.3e-6, 1.8e-6, 2.5e-5, 1.2e-4, 5.3e-4, 2.4e-3; the last three
    # fall 16.1-16.3x from h = 0.4, and the order-4 Richardson value
    # (16 g(0.2) - g(0.4))/15 is at most 4.3e-5, the BVP mesh's own level
    params = QuenchParams(c, eps)
    front = solve_front(params, max(2000.0, 6.0 / eps), 16001)
    bvp = front.mu_fr - c * c / 4.0
    lo, hi = -60.0, front.zeta_fr + 200.0
    gap = {}
    for h in (0.4, 0.2):
        cfg = SimConfig(frame="comoving", c=c, epsilon=eps, domain=(lo, hi),
                        n=int(round((hi - lo) / h)) + 1)
        res = steady_state(cfg)
        pde = FrontSolution(Mesh(res.x), res.u, None, params.mu_of_zeta(res.x), params, res.report)
        gap[h] = (front_location(pde)[0] - front.mu_fr) / bvp
    assert abs(gap[0.2]) <= 3e-3
    assert abs((16.0 * gap[0.2] - gap[0.4]) / 15.0) <= 1e-4
    if order4:  # well above the BVP's own mesh error: the gap is the PDE's O(h^4)
        assert 15.0 <= gap[0.4] / gap[0.2] <= 17.5


@pytest.mark.parametrize(
    "c,t_end,bound", [(0.6, 1000.0, 5e-3), (1.2, 900.0, 0.06)], ids=["c0.6", "c1.2"]
)
def test_moving_ramp_locks_at_the_bvp_interface(c, t_end, bound):
    # the lab-frame ramp mu = -tanh(eps (alpha x - t)) moves at c = 1/alpha
    # with slope eps alpha = 1e-2; from a small bump at x = 0 the front
    # (tracked at the BVP's threshold c/4, h = 0.4, dt = 0.2) locks at
    # x_fr = c t - zeta_fr.  Measured gaps x_fr - c t + zeta_fr at t_end for
    # dt = 0.2, 0.1, 0.05: 1.78e-3, 1.91e-3, 1.93e-3 at c = 0.6 and -0.0515,
    # -0.0062, 1e-4 at c = 1.2.  The pair (0.2, 0.1) falls 7.3x at c = 1.2,
    # third order, so dt = 0.2's time error is 8/7 of its difference: 1.5e-4
    # and 0.052; the bound adds the dt -> 0 gap (1.9e-3 and 1e-4) and a margin
    slope = 1e-2
    zeta_fr = front_location(solve_front(QuenchParams(c, slope), 5.0 / slope, 4001))[1]
    lo, hi = -100.0, c * t_end + 100.0
    cfg = SimConfig(alpha=1.0 / c, epsilon=slope * c, domain=(lo, hi),
                    n=int(round((hi - lo) / 0.4)) + 1, t_end=t_end, track_level=c / 4.0)
    assert cfg.dt == 0.2
    res = simulate(cfg)
    assert res.track.times[-1] == pytest.approx(t_end)
    gap = res.track.x_fr_num[-1] - c * res.track.times[-1] + zeta_fr
    assert abs(gap) <= bound


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
