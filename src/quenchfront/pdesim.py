"""Method-of-lines simulation of the quenched Allen-Cahn equation.

Three operating modes share one semi-implicit stepper (diffusion and
advection implicit, cubic reaction explicit, Neumann boundaries).  The
constant tridiagonal implicit operator is factored once per run: without
advection (lab frame, frozen mu) it is symmetric positive definite once its
two ghost rows are halved, and LAPACK ``dpttrf``/``dpttrs`` factor and solve
it; with advection ``dgttrf``/``dgttrs`` do.

* ``frame="comoving"``: u_t = u_zz - c u_z + mu(z) u - u^3 with the static
  ramp mu = tanh(eps z); long-time states are the traveling fronts computed
  by the BVP solver.
* ``frame="lab"``: u_t = u_xx + mu(alpha x - t) u - u^3 with the moving (or,
  at alpha = 0, spatially homogeneous) quench mu(s) = -tanh(eps s).
* ``frozen_mu``: constant-coefficient runs for invasion-speed checks.

:func:`simulate` marches with SBDF2, the second-order semi-implicit BDF of
Ascher, Ruuth and Wetton (1995): with A = D2 - c D1 and
e_k = u_k + dt f(u_k, t_k),

    (3 I - 2 dt A) u_{k+1} = 4 e_k - 2 e_{k-1} + u_{k-1},

after one first-order IMEX Euler step (I - dt A) u_1 = e_0.  The time error
is O(dt^2), so dt <= 0.2 h keeps it at or below the O(h^2) space error.
The extrapolated reaction is stable for dt |f'(u)| < 4/3, with
f'(u) = mu - 3 u^2 (on a front f' lies in [-2, 1]), so dt <= 0.5 keeps
dt |f'| <= 1; that limit binds on coarse grids, h > 5/2.  Both together,
dt <= min(0.2 h, 0.5), are the default and the bound.  :func:`relax` iterates
the first-order step at large dt to a steady state of a time-independent
mode.

The tracked front is the rightmost crossing of u through ``track_level``
(linearly interpolated), a level in (0, 1), default 0.2.  A node with
u == level counts as below it, so a profile that touches the level from
below does not cross it, and one that touches it from above crosses it
twice.  The homogeneous-quench comparison measures the front against the
characteristic prediction x0 + int_0^t 2 sqrt(mu(s)) ds, anchored at the
end of the transient.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lapack

from .solvercore import SolveError

__all__ = [
    "SimConfig",
    "FrontTrack",
    "SimResult",
    "RelaxResult",
    "QuenchComparison",
    "SimulationAbort",
    "simulate",
    "relax",
    "predicted_front_path",
    "check_quench_comparable",
    "compare_homogeneous_quench",
]


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
    dt: float | None = None  # defaults to the bound min(0.2 h, 0.5)
    ic: str = "small-bump"  # "small-bump" | "front-seed"
    ic_center: float = 0.0
    ic_width: float = 5.0
    ic_amplitude: float = 0.05
    frozen_mu: float | None = None
    track_level: float = 0.2
    snapshot_dt: float | None = None

    def __post_init__(self):
        for name, value in (
            ("alpha", self.alpha), ("c", self.c), ("epsilon", self.epsilon),
            ("frozen_mu", self.frozen_mu), ("domain start", self.domain[0]),
            ("domain end", self.domain[1]), ("t_end", self.t_end),
        ):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.frame not in ("lab", "comoving"):
            raise ValueError(f"unknown frame {self.frame!r}")
        if self.ic not in ("small-bump", "front-seed"):
            raise ValueError(f"unknown initial condition {self.ic!r}")
        if self.alpha < 0.0:
            raise ValueError("quench slope alpha must be >= 0")
        if self.c != 0.0 and self.frame != "comoving":
            raise ValueError(
                f"c = {self.c!r} is the comoving-frame speed; the lab frame needs c = 0"
            )
        if self.alpha != 0.0 and (self.frame == "comoving" or self.frozen_mu is not None):
            raise ValueError(
                f"alpha = {self.alpha!r} is the lab-frame ramp's slope; the comoving frame "
                "and frozen_mu need alpha = 0"
            )
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.n < 11:
            raise ValueError("need at least 11 grid points")
        if self.domain[1] <= self.domain[0]:
            raise ValueError("empty domain")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if not (math.isfinite(self.ic_width) and self.ic_width > 0.0):
            raise ValueError("ic_width must be positive and finite")
        if not math.isfinite(self.ic_amplitude):
            raise ValueError("ic_amplitude must be finite")
        if self.snapshot_dt is not None and not self.snapshot_dt > 0.0:
            raise ValueError("snapshot_dt must be positive")
        if not 0.0 < self.track_level < 1.0:
            raise ValueError(f"track_level must lie in (0, 1), got {self.track_level!r}")
        dt_max = min(0.2 * self.h, 0.5)
        if self.dt is None:
            self.dt = dt_max
        elif not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        elif self.dt > dt_max * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {self.dt:g} exceeds min(0.2 h, 0.5) = {dt_max:g}: the accuracy limit "
                "dt <= 0.2 h keeps the second-order time error at or below the O(h^2) "
                "space error, and the stability limit dt <= 0.5 keeps the explicit "
                "reaction's dt |f'(u)| < 4/3 for |f'| <= 2 (diffusion is implicit and "
                "stable for any dt)"
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
    config: SimConfig
    steps: int = 0
    wall_s: float = 0.0


@dataclass
class RelaxResult:
    x: np.ndarray
    u: np.ndarray
    steps: int
    residual: float  # max |A u + f(u)| of the returned state
    wall_s: float


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
    above = u > level  # u == level counts as below
    idx = np.flatnonzero(above[1:] != above[:-1])
    if idx.size == 0:
        return math.nan, 0
    i = idx[-1]
    (x0, x1), (d0, d1) = x[i:i + 2].tolist(), (u[i:i + 2] - level).tolist()
    return x0 + (x1 - x0) * d0 / (d0 - d1), int(idx.size)


def _implicit_solver(
    n: int, h: float, dt: float, c: float, s: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Factor M = s I - dt*(D2 - c D1) with mirror-ghost Neumann rows once and
    return a solve that overwrites its right-hand side.

    Without advection, halving rows 0 and n-1 makes M symmetric positive
    definite for any s > 0, with off-diagonal -dt/h^2 throughout, so
    ``dpttrf``/``dpttrs`` apply (the solve halves b[0] and b[-1] to match);
    with advection M is nonsymmetric and ``dgttrf``/``dgttrs`` are used.
    """
    lam = dt / (h * h)
    if c == 0.0:
        main = np.full(n, s + 2.0 * lam)
        main[0] = main[-1] = 0.5 * s + lam
        d, e, info = lapack.dpttrf(main, np.full(n - 1, -lam))
        if info != 0:
            raise np.linalg.LinAlgError(
                f"implicit operator not positive definite (dpttrf info = {info})"
            )

        def solve(b: np.ndarray) -> np.ndarray:
            b[0] *= 0.5
            b[-1] *= 0.5
            return lapack.dpttrs(d, e, b, overwrite_b=1)[0]

        return solve
    adv = c * dt / (2.0 * h)
    sup = np.full(n - 1, -lam + adv)
    sub = np.full(n - 1, -lam - adv)
    main = np.full(n, s + 2.0 * lam)
    sup[0] = -2.0 * lam  # mirror ghost at the left boundary
    sub[-1] = -2.0 * lam  # mirror ghost at the right boundary
    dl, d, du, du2, ipiv, info = lapack.dgttrf(sub, main, sup)
    if info != 0:
        raise np.linalg.LinAlgError(f"implicit operator singular (dgttrf info = {info})")
    return lambda b: lapack.dgttrs(dl, d, du, du2, ipiv, b, overwrite_b=1)[0]


def _reaction(u: np.ndarray, a: float | np.ndarray, b: float, out: np.ndarray) -> np.ndarray:
    """out <- u*(a + b u^2) in four in-place passes; with a = w(1 + dt mu) and
    b = -w dt this is w(u + dt(mu u - u^3))."""
    np.multiply(u, u, out=out)
    out *= b
    out += a
    out *= u
    return out


def simulate(cfg: SimConfig) -> SimResult:
    """March with SBDF2 (one IMEX Euler step first); returns snapshots and
    the front track.

    A non-finite state aborts with :class:`SimulationAbort` carrying the
    last healthy snapshot.
    """
    wall0 = time.perf_counter()
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    dt = cfg.dt
    steps = int(math.ceil(cfg.t_end / dt))
    u = _initial_condition(cfg, x)
    solve_first = _implicit_solver(cfg.n, cfg.h, dt, cfg.c, 1.0)
    solve = _implicit_solver(cfg.n, cfg.h, 2.0 * dt, cfg.c, 3.0)

    snap_dt = cfg.snapshot_dt if cfg.snapshot_dt is not None else cfg.t_end / 10.0
    snap_stride = max(1, int(round(snap_dt / dt)))
    track_stride = max(1, steps // 2000)

    times, snaps = [0.0], [u.copy()]
    tt, tx = [0.0], [_rightmost_crossing(x, u, cfg.track_level)[0]]
    multi = False
    t = 0.0
    # mu depends on t only in the lab frame without a frozen value
    mu_varies = cfg.frozen_mu is None and cfg.frame == "lab"
    b = -2.0 * dt  # the reaction is evaluated as E = 2 e = u (a + b u^2)
    # u_prev holds u_{k-2} until it is overwritten by the right-hand side;
    # e and e_prev hold E_{k-1} and E_{k-2}
    u_prev, e, e_prev = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    zeros = np.zeros_like(u)  # zeros @ u is NaN iff u has a NaN or an inf
    with np.errstate(over="ignore", invalid="ignore"):  # abort check below
        for k in range(1, steps + 1):
            if k == 1 or mu_varies:
                a = 2.0 + 2.0 * dt * _mu_profile(cfg, x, t)
            _reaction(u, a, b, e)
            if k == 1:
                np.multiply(e, 0.5, out=u_prev)
                u_new = solve_first(u_prev)
            else:
                # 4 e_{k-1} - 2 e_{k-2} + u_{k-2} = 2 E_{k-1} - E_{k-2} + u_{k-2}
                u_prev -= e_prev
                u_prev += e
                u_prev += e
                u_new = solve(u_prev)
            if not math.isfinite(zeros @ u_new):
                raise SimulationAbort(t, u)
            u_prev, u = u, u_new  # u_new is the old u_prev buffer solved in place
            e_prev, e = e, e_prev
            t = k * dt
            if k % track_stride == 0 or k == steps:
                xi, count = _rightmost_crossing(x, u, cfg.track_level)
                multi = multi or count > 1
                tt.append(t)
                tx.append(xi)
            if k % snap_stride == 0 or k == steps:
                times.append(t)
                snaps.append(u.copy())
    track = FrontTrack(np.array(tt), np.array(tx), cfg.track_level, multi)
    return SimResult(
        x, np.array(times), np.stack(snaps), track, cfg,
        steps=steps, wall_s=time.perf_counter() - wall0,
    )


def _steady_residual(u: np.ndarray, h: float, c: float, mu: float | np.ndarray) -> np.ndarray:
    """A u + f(u) with A = D2 - c D1 on mirror-ghost Neumann rows and
    f(u) = mu u - u^3."""
    res = np.empty_like(u)
    res[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (h * h) - c * (u[2:] - u[:-2]) / (2.0 * h)
    res[0] = 2.0 * (u[1] - u[0]) / (h * h)
    res[-1] = 2.0 * (u[-2] - u[-1]) / (h * h)
    return res + mu * u - u**3


def relax(
    cfg: SimConfig, dt: float = 0.5, tol: float = 1e-8, max_steps: int = 200_000
) -> RelaxResult:
    """Iterate the first-order IMEX Euler step u <- M^{-1}(u + dt f(u)),
    M = I - dt A, from the configured initial data to a steady state
    A u + f(u) = 0.

    Fixed points of the step solve the steady problem exactly for any dt,
    so ``dt`` is not held to the accuracy limit 0.2 h of :func:`simulate`;
    only the explicit reaction bounds it.  On a front
    f'(u) = mu - 3u^2 lies in [-2, 1], and the frozen-coefficient condition
    |1 + dt f'| <= 1 gives dt < 1: at dt = 1 the uniform mode of the u = 1
    plateau (f' = -2) no longer decays.  The default 0.5 damps that mode in
    one step.

    Each step is screened with max|u_{k+1} - u_k| / dt, which equals
    max|A u_{k+1} + f(u_k)| and so costs no operator product; once it is
    below ``tol`` the true residual max|A u + f(u)| is evaluated, and the
    iteration stops when that is below ``tol`` too.  The result carries the
    step count, that residual and the wall time.

    Raises ``ValueError`` when mu depends on t (lab frame without
    ``frozen_mu``), :class:`SolveError` when ``max_steps`` steps do not
    reach ``tol``, and :class:`SimulationAbort` on a non-finite state.
    """
    if cfg.frame == "lab" and cfg.frozen_mu is None:
        raise ValueError("relax needs a time-independent mu: comoving frame or frozen_mu")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    wall0 = time.perf_counter()
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    u = _initial_condition(cfg, x)
    solve = _implicit_solver(cfg.n, cfg.h, dt, cfg.c, 1.0)
    mu = _mu_profile(cfg, x, 0.0)
    a, b = 1.0 + dt * mu, -dt
    buf, diff = np.empty_like(u), np.empty_like(u)
    with np.errstate(over="ignore", invalid="ignore"):  # abort check below
        for k in range(1, max_steps + 1):
            u_new = solve(_reaction(u, a, b, buf))
            change = np.abs(np.subtract(u_new, u, out=diff), out=diff).max()
            if not math.isfinite(change):
                raise SimulationAbort((k - 1) * dt, u)
            u, buf = u_new, u
            if change < tol * dt:
                residual = float(np.max(np.abs(_steady_residual(u, cfg.h, cfg.c, mu))))
                if residual < tol:
                    return RelaxResult(x, u, k, residual, time.perf_counter() - wall0)
    raise SolveError(f"no steady state within {max_steps} steps (tol {tol:g})")


def predicted_front_path(epsilon: float, t_grid: Sequence[float]) -> np.ndarray:
    """Characteristic prediction x(t) = int_0^t 2 sqrt(mu(s)) ds for the
    homogeneous quench mu(t) = tanh(eps t), in closed form.

    Substituting y = sqrt(tanh(eps s)) turns the integrand into
    (4/eps) y^2/(1 - y^4), so x(t) = (2/eps) (artanh y - arctan y) with
    y = sqrt(tanh(eps t)).  With x = eps t,

        artanh y = x + log1p(y) + log1p(expm1(-2 x)/2)/2,

    from (1 + y)/(1 - y) = (1 + y)^2 (1 + e^{-2x})/(2 e^{-2x}).  This stays
    finite once tanh(x) rounds to 1 (x >~ 19) and is exactly 0 at t = 0.
    The (2/eps) x term is added as 2t, so the large linear part carries no
    rounding of eps t.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0):
        raise ValueError("the clock starts at mu = 0: prediction needs t >= 0")
    x = epsilon * t_grid
    y = np.sqrt(np.tanh(x))
    rest = np.log1p(y) + 0.5 * np.log1p(0.5 * np.expm1(-2.0 * x)) - np.arctan(y)
    return 2.0 * t_grid + (2.0 / epsilon) * rest


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
    cfg: SimConfig, result: SimResult | None = None
) -> QuenchComparison:
    """Run the homogeneous quench (alpha = 0, bump data) and compare the
    tracked front against the characteristic prediction.

    The prediction is anchored to the measured front at the end of the
    transient (the first time the front has advanced 5 space units); past
    that point the measured front must run at or ahead of the prediction,
    with a growing lead.  ``result`` reuses an existing simulation of the
    same configuration.
    """
    check_quench_comparable(cfg)
    res = result if result is not None else simulate(cfg)
    tt, xx = res.track.times, res.track.x_fr_num
    have = np.isfinite(xx)
    if not np.any(have):
        raise SolveError("front never crossed the tracking level")
    t0, x_first = tt[have][0], xx[have][0]
    moved = have & (xx >= x_first + 5.0)
    if not np.any(moved):
        raise SolveError("front never advanced past the transient window")
    i_tr = int(np.nonzero(moved)[0][0])
    t_tr = float(tt[i_tr])
    sel = have & (tt >= t_tr)
    t_sel = tt[sel]
    x_sel = xx[sel]
    pred = predicted_front_path(cfg.epsilon, t_sel)
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
