"""Method-of-lines simulation of the quenched Allen-Cahn equation.

Three operating modes share one semi-implicit stepper (diffusion and
advection implicit, cubic reaction explicit, Neumann boundaries; LAPACK
``dgttrf`` factors the constant tridiagonal implicit operator once per run
and ``dgttrs`` solves with its factors on each step):

* ``frame="comoving"``: u_t = u_zz - c u_z + mu(z) u - u^3 with the static
  ramp mu = tanh(eps z); long-time states are the traveling fronts computed
  by the BVP solver.
* ``frame="lab"``: u_t = u_xx + mu(alpha x - t) u - u^3 with the moving (or,
  at alpha = 0, spatially homogeneous) quench mu(s) = -tanh(eps s).
* ``frozen_mu``: constant-coefficient runs for invasion-speed checks.

The tracked front is the level crossing u = 0.2 (rightmost crossing,
linearly interpolated); the homogeneous-quench comparison measures it
against the characteristic prediction x0 + int_0^t 2 sqrt(mu(s)) ds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "SimConfig",
    "FrontTrack",
    "SimResult",
    "QuenchComparison",
    "QuenchComparisonError",
    "SimulationAbort",
    "simulate",
    "predicted_front_path",
    "envelope_velocity",
    "check_quench_comparable",
    "compare_homogeneous_quench",
]


class QuenchComparisonError(RuntimeError):
    """The tracked front never reached the level or never left the transient."""


class SimulationAbort(RuntimeError):
    """Non-finite state encountered; carries the last healthy snapshot."""

    def __init__(self, t: float, u: np.ndarray):
        super().__init__(f"simulation aborted at t = {t:.6g} (non-finite state)")
        self.t = t
        self.u = u


@dataclass
class SimConfig:
    frame: str = "lab"  # "lab" | "comoving"
    alpha: float = 0.0  # lab-frame quench slope: mu(alpha x - t)
    c: float = 0.0  # comoving-frame speed
    epsilon: float = 0.005
    domain: tuple[float, float] = (0.0, 300.0)
    n: int = 3001
    t_end: float = 200.0
    dt: float | None = None  # defaults to the bound 0.4 h^2
    ic: str = "small-bump"  # "small-bump" | "front-seed" | "zero"
    ic_center: float = 0.0
    ic_width: float = 5.0
    ic_amplitude: float = 0.05
    frozen_mu: float | None = None
    track_level: float = 0.2
    snapshot_dt: float | None = None
    track_every: int | None = None

    def __post_init__(self):
        if self.frame not in ("lab", "comoving"):
            raise ValueError(f"unknown frame {self.frame!r}")
        if self.ic not in ("small-bump", "front-seed", "zero"):
            raise ValueError(f"unknown initial condition {self.ic!r}")
        if self.alpha < 0.0:
            raise ValueError("quench slope alpha must be >= 0")
        if self.n < 11:
            raise ValueError("need at least 11 grid points")
        if self.domain[1] <= self.domain[0]:
            raise ValueError("empty domain")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        h = self.h
        if self.dt is None:
            self.dt = 0.4 * h * h
        elif self.dt > 0.4 * h * h * (1.0 + 1e-12):
            raise ValueError(
                "dt must satisfy the accuracy limit dt <= 0.4 h^2 (a diffusion-CFL-style "
                "choice; the semi-implicit step is stable in diffusion for any dt)"
            )

    @property
    def h(self) -> float:
        return (self.domain[1] - self.domain[0]) / (self.n - 1)


@dataclass
class FrontTrack:
    times: np.ndarray
    x_fr_num: np.ndarray  # NaN before the level is first crossed
    level: float
    multiple_crossings: bool = False


@dataclass
class SimResult:
    x: np.ndarray
    times: np.ndarray
    snapshots: np.ndarray  # shape (len(times), n)
    track: FrontTrack
    track_threshold: FrontTrack | None  # comoving runs: crossing of c/4
    config: SimConfig


@dataclass
class QuenchComparison:
    times: np.ndarray
    x_fr_num: np.ndarray
    x_fr_pred: np.ndarray
    difference: np.ndarray
    t_transient: float
    nonnegative_after_transient: bool
    growing: bool


def _initial_condition(cfg: SimConfig, x: np.ndarray) -> np.ndarray:
    if cfg.ic == "zero":
        return np.zeros_like(x)
    if cfg.ic == "small-bump":
        return cfg.ic_amplitude * np.exp(-((x - cfg.ic_center) / cfg.ic_width) ** 2)
    # front-seed: sqrt(max(mu,0)) switched on at the predicted interface
    from .travelingwave import predicted_delay

    mu = np.tanh(cfg.epsilon * x)
    if cfg.c > 0.0:
        center = math.atanh(min(predicted_delay(cfg.c, cfg.epsilon), 0.999)) / cfg.epsilon
    else:
        center = 0.0
    return np.sqrt(np.maximum(mu, 0.0)) * 0.5 * (1.0 + np.tanh(x - center))


def _mu_profile(cfg: SimConfig, x: np.ndarray, t: float) -> float | np.ndarray:
    """Ramp coefficient at time t: a float where mu does not vary in space
    (frozen mu, lab frame at alpha = 0), an array on the grid otherwise."""
    if cfg.frozen_mu is not None:
        return float(cfg.frozen_mu)
    if cfg.frame == "comoving":
        return np.tanh(cfg.epsilon * x)
    if cfg.alpha == 0.0:
        return math.tanh(cfg.epsilon * t)
    return -np.tanh(cfg.epsilon * (cfg.alpha * x - t))


def _rightmost_crossing(x: np.ndarray, u: np.ndarray, level: float) -> tuple[float, int]:
    du = u - level
    with np.errstate(over="ignore"):  # inf products still compare correctly
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


def simulate(cfg: SimConfig) -> SimResult:
    """Run the semi-implicit stepper; returns snapshots and front tracks.

    A non-finite state aborts with :class:`SimulationAbort` carrying the
    last healthy snapshot.
    """
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    h = cfg.h
    dt = cfg.dt
    steps = int(math.ceil(cfg.t_end / dt))
    u = _initial_condition(cfg, x)

    # implicit operator M = I - dt*(D2 - c D1) with mirror-ghost Neumann
    # rows; the matrix is constant in time, so factor it once
    n = cfg.n
    lam = dt / (h * h)
    adv = (cfg.c if cfg.frame == "comoving" else 0.0) * dt / (2.0 * h)
    sup = np.full(n - 1, -lam + adv)
    sub = np.full(n - 1, -lam - adv)
    main = np.full(n, 1.0 + 2.0 * lam)
    sup[0] = -2.0 * lam  # mirror ghost at the left boundary
    sub[-1] = -2.0 * lam  # mirror ghost at the right boundary
    dl, d, du, du2, ipiv, info = lapack.dgttrf(sub, main, sup)
    if info != 0:
        raise np.linalg.LinAlgError(f"implicit operator singular (dgttrf info = {info})")

    snap_dt = cfg.snapshot_dt if cfg.snapshot_dt is not None else cfg.t_end / 10.0
    snap_stride = max(1, int(round(snap_dt / dt)))
    track_stride = cfg.track_every or max(1, steps // 2000)

    times, snaps = [0.0], [u.copy()]
    tt, tx = [0.0], [_rightmost_crossing(x, u, cfg.track_level)[0]]
    multi = False
    thr_track = None
    if cfg.frame == "comoving" and cfg.c > 0.0:
        thr_tt, thr_tx = [0.0], [_rightmost_crossing(x, u, cfg.c / 4.0)[0]]
    t = 0.0
    # mu depends on t only in the lab frame without a frozen value
    mu_varies = cfg.frozen_mu is None and cfg.frame == "lab"
    mu = _mu_profile(cfg, x, t)
    with np.errstate(over="ignore", invalid="ignore"):  # abort check below
        for k in range(1, steps + 1):
            if mu_varies:
                mu = _mu_profile(cfg, x, t)
            # u + dt*(mu u - u^3) in factored form, without a pow call
            rhs = u * (1.0 + dt * (mu - u * u))
            u_new = lapack.dgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)[0]
            if not np.isfinite(u_new).all():
                raise SimulationAbort(t, u)
            u = u_new
            t = k * dt
            if k % track_stride == 0 or k == steps:
                xi, count = _rightmost_crossing(x, u, cfg.track_level)
                multi = multi or count > 1
                tt.append(t)
                tx.append(xi)
                if cfg.frame == "comoving" and cfg.c > 0.0:
                    thr_tt.append(t)
                    thr_tx.append(_rightmost_crossing(x, u, cfg.c / 4.0)[0])
            if k % snap_stride == 0 or k == steps:
                times.append(t)
                snaps.append(u.copy())
    track = FrontTrack(np.array(tt), np.array(tx), cfg.track_level, multi)
    if cfg.frame == "comoving" and cfg.c > 0.0:
        thr_track = FrontTrack(np.array(thr_tt), np.array(thr_tx), cfg.c / 4.0)
    return SimResult(x, np.array(times), np.stack(snaps), track, thr_track, cfg)


def predicted_front_path(
    epsilon: float, ramp: str = "tanh", x0: float = 0.0, t_grid: Sequence[float] = ()
) -> np.ndarray:
    """Characteristic prediction x(t) = x0 + int_0^t 2 sqrt(mu(s)) ds for the
    homogeneous quench mu(t) = tanh(eps t) (or eps t for the linear ramp).

    The integrand's sqrt(t) corner at the origin is removed by substituting
    s = tau^2; composite Simpson in tau is then refined (halving) to 1e-10.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0):
        raise ValueError("the clock starts at mu = 0: prediction needs t >= 0")
    if ramp == "tanh":
        mu = lambda s: np.tanh(epsilon * s)
    elif ramp == "linear":
        mu = lambda s: epsilon * s
    else:
        raise ValueError(f"unknown ramp {ramp!r}")

    def integrand(tau):
        return 4.0 * tau * np.sqrt(np.maximum(mu(tau * tau), 0.0))

    def segment(a, b):
        if b <= a:
            return 0.0
        m = 8
        prev = math.inf
        for _ in range(18):
            tau = np.linspace(a, b, m + 1)
            f = integrand(tau)
            val = (b - a) / (3.0 * m) * (
                f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()
            )
            if abs(val - prev) <= 1e-10 * max(1.0, abs(val)):
                return val
            prev = val
            m *= 2
        return val

    order = np.argsort(t_grid)
    roots = np.sqrt(t_grid[order])
    out = np.empty(t_grid.size)
    acc, prev_tau = 0.0, 0.0
    for j, tau in zip(order, roots):
        acc += segment(prev_tau, tau)
        prev_tau = tau
        out[j] = x0 + acc
    return out


def envelope_velocity(nu: float, mu: float) -> float:
    """Propagation speed -(nu^2 + mu)/nu of an exponential tail e^{nu x};
    minimizing over nu < 0 gives the linear spreading speed 2 sqrt(mu)."""
    if nu == 0.0:
        raise ValueError("envelope velocity undefined at nu = 0")
    return -(nu * nu + mu) / nu


def check_quench_comparable(cfg: SimConfig) -> None:
    """Raise ``ValueError`` unless ``cfg`` is a homogeneous quench the
    characteristic prediction applies to: lab frame, alpha = 0, bump initial
    data and the tanh ramp in time (no frozen mu)."""
    if cfg.frame != "lab" or cfg.alpha != 0.0:
        raise ValueError("homogeneous-quench comparison needs frame='lab', alpha=0")
    if cfg.ic != "small-bump":
        raise ValueError("comparison is defined for bump initial data")
    if cfg.frozen_mu is not None:
        raise ValueError("comparison is defined for the tanh ramp, not a frozen mu")


def compare_homogeneous_quench(
    cfg: SimConfig, transient_advance: float = 5.0, result: SimResult | None = None
) -> QuenchComparison:
    """Run the homogeneous quench (alpha = 0, bump data) and compare the
    tracked front against the characteristic prediction.

    The prediction is anchored to the measured front at the end of the
    transient (the first time the front has advanced ``transient_advance``
    space units); past that point the measured front must run at or ahead
    of the prediction, with a growing lead.  ``result`` reuses an existing
    simulation of the same configuration.
    """
    check_quench_comparable(cfg)
    res = result if result is not None else simulate(cfg)
    tt, xx = res.track.times, res.track.x_fr_num
    have = np.isfinite(xx)
    if not np.any(have):
        raise QuenchComparisonError("front never crossed the tracking level")
    t0, x_first = tt[have][0], xx[have][0]
    moved = have & (xx >= x_first + transient_advance)
    if not np.any(moved):
        raise QuenchComparisonError("front never advanced past the transient window")
    i_tr = int(np.nonzero(moved)[0][0])
    t_tr = float(tt[i_tr])
    sel = have & (tt >= t_tr)
    t_sel = tt[sel]
    x_sel = xx[sel]
    pred = predicted_front_path(cfg.epsilon, "tanh", 0.0, t_sel)
    pred += x_sel[0] - pred[0]  # anchor at the transient end
    diff = x_sel - pred
    slope = np.polyfit(t_sel, diff, 1)[0] if t_sel.size > 2 else 0.0
    return QuenchComparison(
        times=t_sel,
        x_fr_num=x_sel,
        x_fr_pred=pred,
        difference=diff,
        t_transient=t_tr,
        nonnegative_after_transient=bool(np.min(diff) >= -1e-3),
        growing=bool(slope > 0.0),
    )
