"""Method-of-lines simulation of the quenched Allen-Cahn equation.

Three operating modes share one semi-implicit stepper (diffusion and
advection implicit, cubic reaction explicit, Neumann boundaries):

* ``frame="comoving"``: u_t = u_zz - c u_z + mu(z) u - u^3 with the static
  ramp mu = tanh(eps z); long-time states are the traveling fronts computed
  by the BVP solver.
* ``frame="lab"``: u_t = u_xx + mu(alpha x - t) u - u^3 with the moving (or,
  at alpha = 0, spatially homogeneous) quench mu(s) = -tanh(eps s).
* ``frozen_mu``: constant-coefficient runs for invasion-speed checks.

Space is fourth order on three-point stencils, through the compact (Pade)
form of u_t = u_xx - c u_x + f(u) (Lele, J. Comput. Phys. 103, 1992):

    B u_t = A4 u + B f(u),   A4 = (1 + c^2 h^2/12) D2 - c D1,
                             B = I + (h^2/12) (D2 - c D1),

with D2 and D1 the centred second and first differences; at c = 0,
B = tridiag(1, 10, 1)/12.  Both take the mirror ghost u_{-1} = u_1 at each
end, so D2 doubles and D1 vanishes on rows 0 and n-1.  Every implicit
matrix M = s B - dt_m A4 is tridiagonal and factored once per run, on one
path: once its two ghost rows are halved, D^-1 M D is symmetric positive
definite, and LAPACK ``dpttrf``/``dpttrs`` factor and solve it.  Without
advection D = I.  With advection D is the diagonal D ~ e^{cz/2} (the weight
that makes the comoving linearization self-adjoint; centred, max|ln D| is
about c L/4 on a domain of length L): the right-hand side is divided by D
before the solve and the solution multiplied by D after it.  Where no such
D fits in doubles, ``dgttrf``/``dgttrs`` solve M as it is: at the
positivity floor, where an off-diagonal of M is 0 up to rounding, and where
max|ln D| exceeds 350 (c L > 1400).  Each step applies B to its right-hand
side in three array passes before the solve.

:func:`simulate` marches with SBDF4, the fourth-order semi-implicit BDF
of Ascher, Ruuth and Wetton (1995): with F_k = f(u_k, t_k),

    (25 B - 12 dt A4) u_{k+1} = B (48 u_k - 36 u_{k-1} + 16 u_{k-2} - 3 u_{k-3}
                                   + 12 dt (4 F_k - 6 F_{k-1} + 4 F_{k-2} - F_{k-3})),

after one first-order IMEX Euler step (B - dt A4) u_1 = B (u_0 + dt F_0),
one SBDF2 step (3 B - 2 dt A4) u_2 = B (4 u_1 - u_0 + 2 dt (2 F_1 - F_0))
and one SBDF3 step (11 B - 6 dt A4) u_3 = B (18 u_2 - 9 u_1 + 2 u_0
+ 6 dt (3 F_2 - 3 F_1 + F_0)) at the same dt.  The loop keeps u and F for
the last four levels in one (8, n) history ring, so each step's right-hand
side is one dot of a precomputed weight row with it (the Euler start, the
SBDF2 and SBDF3 steps, then SBDF4's weights in their four rotations), and
the solve writes u_{k+1} over level k-3.  Each step reads these as one
precomputed plan: its level's rows of u and F, its weight row, its
factored solve and the row it writes.  The extrapolated reaction is stable
for dt |f'(u)| < 32/45, with f'(u) = mu - 3 u^2 (on a front f' lies in
[-2, 1]).  Near that limit a parasitic root of the extrapolation is close
to -1 (-0.98 at dt |f'| = 0.7), so the approach to the plateau u = 1 rings
and overshoots it; dt <= 0.2 keeps dt |f'| <= 0.4, where the parasitic
roots are -0.37 and 0.42 +- 0.32i.  The largest step is
dt <= min(0.5 h, 0.2) (``DT_PER_H`` and ``DT_CAP``), and it is the default;
the time error is O(dt^4) against O(h^4) in space, so the accuracy-chosen
step of a run is smaller (the ``pde`` command's default is h/5, 0.08 on
h = 0.4).  BDF4 is only A(73 deg)-stable, so advection can leave its
stability region: a Fourier root scan of the full step keeps every mode's
growth factor <= 1 for |c| <= 4 on every admissible grid, but at c = 5 on
h = 1 (dt = 0.2) one grows by 1.0077 a step, and such a run leaves
|u| <= 1.

Every implicit matrix also keeps its off-diagonals <= 0, which with its
diagonal dominance makes it an M-matrix with a nonnegative inverse.  B's
off-diagonals are positive, so this needs dt_m/s >= (h^2/12) r(x), with
x = c h/2 and r(x) = (1 + |x|)/(1 + |x| + x^2/3) <= 1 (:func:`_min_step`).
Of the four matrices, SBDF4's 25 B - 12 dt A4 has the largest s/dt_m, so
it sets the positivity floor dt >= (25/12)(h^2/12) r(x), 25 h^2/144 at
c = 0.  Below it a solve can undershoot 0 and a march overshoot 1: at
dt = 0.2 a frozen-mu run reaches u = 1.207 on h = 1.25 and -0.785 on
h = 2.5, and aborts on h = 5.  A grid on which no step meets both bounds
(h > 1.0733 at c = 0) is refused.
:func:`steady_state` solves the comoving frame's discrete steady state
A4 u + B f(u) = 0 itself, by Newton in w = log u, with no time march.

A pulled front runs at its discretization's own linear spreading speed
(:func:`spreading_speed`), not at 2 sqrt(mu); :func:`check_spreading_speed`
refuses a grid whose speed misses 2 sqrt(mu) by more than ``SPEED_TOLERANCE``
of it.

The tracked front is the rightmost crossing of u through ``track_level``
(linearly interpolated), a level in (0, 1), default 0.2.  A node with
u == level counts as below it, so a profile that touches the level from
below does not cross it, and one that touches it from above crosses it
twice.  :func:`simulate` copies the tracked states into a block of rows and
locates the crossings of the whole block from one scan for the nonzeros of
its cell-change mask: per row, a ``bincount`` of them is the number of
crossings and a ``searchsorted`` finds the rightmost.  The
homogeneous-quench comparison measures a simulation's front against the
characteristic prediction x0 + int_0^t 2 sqrt(mu(s)) ds, anchored at the
end of the transient.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import blas, lapack

from .solvercore import NewtonReport, SolveError, solve_bvp

__all__ = [
    "SimConfig",
    "FrontTrack",
    "SimResult",
    "SteadyState",
    "QuenchComparison",
    "SimulationAbort",
    "DT_PER_H",
    "DT_CAP",
    "SPEED_TOLERANCE",
    "simulate",
    "steady_state",
    "spreading_speed",
    "check_spreading_speed",
    "predicted_front_path",
    "check_quench_comparable",
    "compare_homogeneous_quench",
]


# the default and largest step is min(DT_PER_H h, DT_CAP); see the module notes
DT_PER_H = 0.5
DT_CAP = 0.2
# a grid whose spreading speed misses 2 sqrt(mu) by more than this fraction of
# it is refused: criterion 8(b)'s tolerance, 0.05 on a speed of 2
SPEED_TOLERANCE = 0.025
# the largest comoving speed |c| accepted: SBDF4 is only A(73 deg)-stable, and
# a Fourier root scan of its full step (f' in {-2, -1, -0.5, 0}, 25 h x 8 dt
# per c over the admissible grids) keeps every growth factor <= 1 for
# |c| <= 4; at c = 5, h = 1, f' = 0 one mode grows by 1.0077 a step
_C_MAX = 4.0
# an advective matrix is solved through its symmetrizer D (about e^{cz/2},
# centred, so max|ln D| is about c L/4) only while max|ln D| <= this bound: a
# solve divides the right-hand side by D and multiplies back, so every
# |u| >= 2.2e-308 e^350 = 2.2e-156 stays a normal double at the end where D
# is largest, and every |u| <= 1.8e308 e^-350 = 1.8e156 stays finite at the
# other; e.g. c = 1.2 on a domain longer than 1167 is solved unscaled
_MAX_LOG_SCALE = 350.0
# simulate copies tracked states into a block of this many rows and locates
# their fronts a block at a time
_TRACK_BLOCK = 32
# simulate's steps (s, m, weights): each solves (s B - m dt A4) u_{k+1} =
# B (sum_i wu_i u_{k-i} + wf_i dt F_{k-i}) with (wu_i, wf_i) the weights of
# level k - i: 18 (u_0 + dt F_0) for the Euler start, 9 (4 u_1 - u_0 +
# 2 dt (2 F_1 - F_0)) for the SBDF2 step, the SBDF3 step, then SBDF4 (the
# module notes' sums)
_SCHEMES = (
    (18.0, 18.0, ((18.0, 18.0),)),
    (27.0, 18.0, ((36.0, 36.0), (-9.0, -18.0))),
    (11.0, 6.0, ((18.0, 18.0), (-9.0, -18.0), (2.0, 6.0))),
    (25.0, 12.0, ((48.0, 48.0), (-36.0, -72.0), (16.0, 48.0), (-3.0, -12.0))),
)


class SimulationAbort(RuntimeError):
    """Non-finite state encountered; carries a copy of the last healthy
    state, the one at ``t``."""

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
    dt: float | None = None  # defaults to the bound min(DT_PER_H h, DT_CAP)
    ic: str = "small-bump"  # "small-bump" | "front-seed"
    ic_width: float = 5.0  # small-bump: ic_amplitude exp(-(x / ic_width)^2)
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
        if abs(self.c) > _C_MAX:
            raise ValueError(
                f"comoving speed |c| = {abs(self.c):g} exceeds {_C_MAX:g}: SBDF4 is only "
                "A(73 deg)-stable, and a Fourier root scan of its step over the admissible "
                f"grids keeps every growth factor <= 1 only for |c| <= {_C_MAX:g} (at c = 5, "
                "h = 1 a mode grows by 1.0077 a step)"
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
        dt_max = min(DT_PER_H * self.h, DT_CAP)
        if self.dt is None:
            self.dt = dt_max
        elif not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        elif self.dt > dt_max * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {self.dt:g} exceeds min({DT_PER_H:g} h, {DT_CAP:g}) = {dt_max:g}: "
                f"SBDF4's largest step, dt <= {DT_PER_H:g} h, and the limit dt <= {DT_CAP:g} "
                f"that keeps the explicit reaction's dt |f'(u)| <= {2.0 * DT_CAP:g} for "
                "|f'| <= 2, well inside its stability interval (32/45) and free of overshoot "
                "past |u| = 1 (diffusion is implicit and stable for any dt)"
            )
        dt_min = _min_step(self.h, self.c, 25.0) / 12.0  # SBDF4's 25 B - 12 dt A4 binds
        if self.dt < dt_min * (1.0 - 1e-12):
            raise ValueError(
                f"dt = {self.dt:g} lies below the positivity floor {dt_min:.4g} of h = "
                f"{self.h:g}: below it SBDF4's implicit matrix 25 B - 12 dt A4 has positive "
                "off-diagonals, and a solve can undershoot u = 0"
                + (
                    f"; no step up to min({DT_PER_H:g} h, {DT_CAP:g}) = {dt_max:g} reaches "
                    "it, so the grid must be finer"
                    if dt_min > dt_max else ""
                )
            )

    @property
    def h(self) -> float:
        return (self.domain[1] - self.domain[0]) / (self.n - 1)


@dataclass
class FrontTrack:
    times: np.ndarray
    x_fr_num: np.ndarray  # NaN before ``track_level`` is first crossed
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
class SteadyState:
    x: np.ndarray
    u: np.ndarray
    report: NewtonReport
    residual: float  # max |A4 u + B f(u)| of the returned state
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
        return cfg.ic_amplitude * np.exp(-(x / cfg.ic_width) ** 2)
    # front-seed: the front solves' Newton seed, exponentiated on the grid
    from .travelingwave import _front_seed

    return np.exp(_front_seed(x, np.tanh(cfg.epsilon * x), cfg.c, cfg.epsilon))


def _rightmost_crossings(
    x: np.ndarray, u: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``u``'s rightmost crossing through ``level``, linearly
    interpolated (NaN where the row does not cross), and its number of
    crossings, in one pass over the whole block."""
    above = u > level  # u == level counts as below
    change = above[:, 1:] != above[:, :-1]
    # one scan of the row-major mask: the flat index of every cell change,
    # grouped by row in increasing order, so each row's count is a bincount
    # and its rightmost change is the last index below the next row's start
    m = change.shape[1]
    hits = np.flatnonzero(change)
    count = np.bincount(hits // m, minlength=len(u))
    rows = np.flatnonzero(count)
    i = hits[np.searchsorted(hits, (rows + 1) * m) - 1] - rows * m
    x0, x1 = x[i], x[i + 1]
    d0, d1 = u[rows, i] - level, u[rows, i + 1] - level
    xi = np.full(len(u), math.nan)
    xi[rows] = x0 + (x1 - x0) * d0 / (d0 - d1)
    return xi, count


def _min_step(h: float, c: float, s: float) -> float:
    """Smallest dt_m at which every off-diagonal of s B - dt_m A4 is <= 0.

    With x = c h/2 and lam = (12 dt_m/h^2)(1 + x^2/3), 12 times the sub-
    and superdiagonal are s (1 +- x) - lam -+ (12 dt_m/h^2) x and 12 times
    the ghost rows' 2 (s - lam); the larger off-diagonal binds and gives
    dt_m >= (s h^2/12)(1 + |x|)/(1 + |x| + x^2/3).
    """
    x = 0.5 * abs(c) * h
    return s * h * h / 12.0 * (1.0 + x) / (1.0 + x + x * x / 3.0)


def _symmetrizer(sub: np.ndarray, sup: np.ndarray) -> np.ndarray | None:
    """The diagonal D that makes D^-1 M D symmetric for a tridiagonal M with
    these sub- and superdiagonals, D_{i+1}/D_i = sqrt(sub_i/sup_i), centred
    by a power of two so that max|ln D| is about half the range of ln D;
    ``None`` when some sub_i sup_i <= 0 (no real D) or max|ln D| exceeds
    ``_MAX_LOG_SCALE``.

    D is a running product from D_0 = 1, so each computed ratio is
    sqrt(sub_i/sup_i) to one rounding, and the power of two shifts it
    exactly.  A product that overflows or underflows spans more than e^708
    and is refused by the bound.
    """
    if not np.all(sub * sup > 0.0):
        return None
    with np.errstate(over="ignore", under="ignore"):
        d = np.cumprod(np.concatenate(([1.0], np.sqrt(sub / sup))))
    lo, hi = float(d.min()), float(d.max())  # lo <= d_0 = 1 <= hi
    if not (lo > 0.0 and hi < math.inf):
        return None
    shift = -round(0.5 * (math.log2(lo) + math.log2(hi)))
    if max(math.log2(hi) + shift, -math.log2(lo) - shift) * math.log(2.0) > _MAX_LOG_SCALE:
        return None
    return np.ldexp(d, shift)


def _implicit_solver(
    n: int, h: float, dt: float, c: float, s: float
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Factor M = 12 (s B - dt A4) with mirror-ghost Neumann rows once and
    return ``solve(b, out)``, which writes the solution of M u = 12 B b into
    ``out`` and returns it (``b`` is left as it is).

    Both sides have rows 0 and n-1 halved.  With x = c h/2 that makes
    12 B = tridiag(1 + x, 10, 1 - x) (sub-, main and superdiagonal) with the
    ghost rows 5 b_0 + b_1 and b_{n-2} + 5 b_{n-1}, applied in three array
    passes (two scalar corrections when x != 0).  One ``dpttrf`` call
    factors S = D^-1 M D, with M's diagonal and the off-diagonal
    -sqrt(sub_i sup_i).  Without advection the halved M is symmetric
    (sub = sup, so that off-diagonal is M's own) and D = I.  With advection
    D is the diagonal of :func:`_symmetrizer` (the discrete e^{cz/2}), which
    makes S symmetric.  S has M's eigenvalues, real because S is symmetric
    and positive because M is diagonally dominant with a positive diagonal,
    so it is positive definite, and a solve is 12 B b, then (under
    advection) x 1/D, ``dpttrs`` and x D.  Where D does not exist (some
    sub_i sup_i = 0) or spans more than e^{+-_MAX_LOG_SCALE} (both happen
    at the positivity floor, where an off-diagonal is 0 up to rounding),
    ``dgttrf``/``dgttrs`` factor and solve M itself.
    """
    x = 0.5 * c * h
    lo, hi = 1.0 + x, 1.0 - x
    lam = 12.0 * dt * (1.0 + x * x / 3.0) / (h * h)
    adv = 6.0 * c * dt / h
    diag_b = np.full(n, 10.0)
    diag_b[0] = diag_b[-1] = 5.0

    # positional arguments throughout (daxpy's are n, a, offx, incx, offy,
    # incy): at n in the hundreds a keyword call costs about twice as much
    def apply_b(b: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(b, diag_b, out)
        blas.daxpy(b, out, n - 1, lo, 0, 1, 1, 1)  # out[1:] += lo b[:-1]
        blas.daxpy(b, out, n - 1, hi, 1, 1, 0, 1)  # out[:-1] += hi b[1:]
        if x:  # the ghost rows' off-diagonal is 1, not 1 -+ x
            out[0] += x * b[1]
            out[-1] -= x * b[-2]
        return out

    main = np.full(n, 10.0 * s + 2.0 * lam)
    main[0] = main[-1] = 5.0 * s + lam
    # off-diagonals are <= 0 from the positivity floor up, where the larger
    # one is 0; clamping its rounding (+1.2e-15 at c = -1.2, h = 0.1) keeps
    # the solve from undershooting 0 (by 1.8e-20 there)
    ghost = min(s - lam, 0.0)
    sup = np.full(n - 1, min(s * hi - lam + adv, 0.0))
    sub = np.full(n - 1, min(s * lo - lam - adv, 0.0))
    sup[0] = sub[-1] = ghost  # mirror ghosts at both ends
    scale = None
    if c:  # without advection sub = sup and D = I
        scale = _symmetrizer(sub, sup)
        if scale is None:
            dl, d, du, du2, ipiv, info = lapack.dgttrf(sub, main, sup)
            if info != 0:
                raise np.linalg.LinAlgError(f"implicit operator singular (dgttrf info = {info})")
            return lambda b, out: lapack.dgttrs(dl, d, du, du2, ipiv, apply_b(b, out), "N", 1)[0]
    off = -np.sqrt(sub * sup)  # at c = 0, -sqrt(ghost^2) = ghost exactly
    d, e, info = lapack.dpttrf(main, off)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"implicit operator not positive definite (dpttrf info = {info})"
        )
    if scale is None:
        return lambda b, out: lapack.dpttrs(d, e, apply_b(b, out), 1)[0]
    unscale = 1.0 / scale

    def solve(b: np.ndarray, out: np.ndarray) -> np.ndarray:
        apply_b(b, out)
        np.multiply(out, unscale, out)
        u = lapack.dpttrs(d, e, out, 1)[0]
        np.multiply(u, scale, u)
        return u

    return solve


def simulate(cfg: SimConfig) -> SimResult:
    """March with SBDF4 (one IMEX Euler, one SBDF2 and one SBDF3 step
    first); returns snapshots and the front track.

    A non-finite state aborts with :class:`SimulationAbort` carrying a copy
    of the last healthy state.
    """
    wall0 = time.perf_counter()
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    dt, eps = cfg.dt, cfg.epsilon
    steps = int(math.ceil(cfg.t_end / dt))
    # u_k and F_k of the last q = 4 levels, level k in rows 2 (k % q) and
    # 2 (k % q) + 1; step k solves (s B - m dt A4) u_{k+1} = B (w . ring) of
    # its row of _SCHEMES into the rows of level k - 3, with w the weights
    # of (u, dt F) on levels k, k-1, k-2, k-3
    q = len(_SCHEMES)
    ring = np.zeros((2 * q, cfg.n))
    levels = [(ring[2 * j], ring[2 * j + 1]) for j in range(q)]
    solvers = [_implicit_solver(cfg.n, cfg.h, m * dt, cfg.c, s) for s, m, _ in _SCHEMES]
    # the plans (u_k, F_k, weight row, solve, u_{k+1}'s row) of steps 0-6;
    # step k >= 7 repeats step k - 4's
    plans = []
    for k in range(2 * q - 1):
        w = np.zeros(2 * q)
        for i, (wu, wf) in enumerate(_SCHEMES[min(k, q - 1)][2]):
            j = 2 * ((k - i) % q)
            w[j], w[j + 1] = wu, wf * dt
        plans.append((*levels[k % q], w, solvers[min(k, q - 1)], levels[(k + 1) % q][0]))
    plan = itertools.chain(plans[: q - 1], itertools.cycle(plans[q - 1 :]))

    snap_dt = cfg.snapshot_dt if cfg.snapshot_dt is not None else cfg.t_end / 10.0
    snap_stride = max(1, int(round(snap_dt / dt)))
    track_stride = max(1, steps // 2000)

    u = levels[0][0]
    u[:] = _initial_condition(cfg, x)
    times, snaps = [0.0], [u.copy()]
    # tracked states are copied into a block and located a block at a time
    block = np.empty((_TRACK_BLOCK, cfg.n))
    block[0] = u
    filled, tt, tx, tcount = 1, [0.0], [], []
    # mu depends on t only in the lab frame without a frozen value: per step
    # a float at alpha = 0, else tanh(eps t - ramp) with ramp formed once
    ramp, quench = None, cfg.frozen_mu is None and cfg.frame == "lab" and cfg.alpha == 0.0
    if cfg.frozen_mu is not None:
        mu = float(cfg.frozen_mu)
    elif cfg.frame == "comoving":
        mu = np.tanh(eps * x)
    elif not quench:
        ramp, mu = eps * cfg.alpha * x, np.empty_like(u)
    rhs = np.empty_like(u)
    zeros = np.zeros_like(u)  # zeros . u is NaN iff u has a NaN or an inf
    # steps to the next tracked state and the next snapshot; the last step
    # is both
    track_left, snap_left, last = track_stride, snap_stride, steps - 1
    with np.errstate(over="ignore", invalid="ignore"):  # abort check below
        for k, (u, f, w, solve, out) in zip(range(steps), plan):
            if ramp is not None:
                np.subtract(eps * (k * dt), ramp, mu)
                np.tanh(mu, mu)
            elif quench:
                mu = math.tanh(eps * (k * dt))
            np.multiply(u, u, f)  # F_k = mu u_k - u_k^3
            np.subtract(mu, f, f)
            np.multiply(f, u, f)
            np.dot(w, ring, rhs)
            u_new = solve(rhs, out)
            if not math.isfinite(blas.ddot(zeros, u_new)):
                raise SimulationAbort(k * dt, u.copy())
            track_left -= 1
            snap_left -= 1
            if k == last:
                track_left = snap_left = 0
            if not track_left:
                track_left = track_stride
                block[filled] = u_new
                filled += 1
                tt.append((k + 1) * dt)
                if filled == _TRACK_BLOCK or k == last:
                    xi, count = _rightmost_crossings(x, block[:filled], cfg.track_level)
                    tx.append(xi)
                    tcount.append(count)
                    filled = 0
            if not snap_left:
                snap_left = snap_stride
                times.append((k + 1) * dt)
                snaps.append(u_new.copy())
    counts = np.concatenate(tcount)
    multi = bool(np.any(counts[1:] > 1))  # the initial state does not count
    track = FrontTrack(np.array(tt), np.concatenate(tx), multi)
    return SimResult(
        x, np.array(times), np.stack(snaps), track, cfg,
        steps=steps, wall_s=time.perf_counter() - wall0,
    )


def steady_state(cfg: SimConfig) -> SteadyState:
    """The comoving frame's discrete steady state A4 u + B f(u) = 0, by
    Newton in w = log u on :func:`solvercore.solve_bvp`.

    Row i divided by u_i, R_i = sum_j (A4_ij + B_ij (mu_j - u_j^2))
    e^{w_j - w_i}, holds only neighbour ratios, so a tail far below the
    smallest double (w reaches -3845 at eps = 1e-4) stays resolved and u
    stays positive.  Its Jacobian, E^-1 (A4 + B diag(f'(u))) E - diag(R)
    with E = diag(u) and f'(u) = mu - 3 u^2, is tridiagonal, the mirror
    ghosts lying inside the band.  R is the front equation
    w'' + w'^2 - c w' + mu - e^{2w} to O(h^4), so the solve keeps the front
    solve's Newton set-up: its tolerance, its 80 iterations and its seed
    ``travelingwave._front_seed`` laid on the grid.  Only the grid, c and
    eps of ``cfg`` are read; ``residual`` is max|A4 u + B f(u)| = max|u R|.

    Raises ``ValueError``, before any Newton step, outside the comoving ramp
    (lab frame or ``frozen_mu``), for c outside [0, 2), where the seed has
    no instability point, and for a domain whose right end does not pass
    that point atanh(c^2/4)/eps, so that no front fits on it; raises
    :class:`SolveError` with the report when Newton does not converge.
    """
    if cfg.frame != "comoving" or cfg.frozen_mu is not None:
        raise ValueError("steady_state needs frame='comoving' and no frozen_mu")
    if not 0.0 <= cfg.c < 2.0:
        raise ValueError(f"steady_state needs c in [0, 2), got {cfg.c!r}")
    z_c = math.atanh(cfg.c**2 / 4.0) / cfg.epsilon
    if cfg.domain[1] <= z_c:
        raise ValueError(f"steady_state needs a domain past the instability point "
                         f"atanh(c^2/4)/eps = {z_c:.6g}; it ends at {cfg.domain[1]:g}")
    from .travelingwave import _TOL, _front_seed

    wall0 = time.perf_counter()
    x = np.linspace(cfg.domain[0], cfg.domain[1], cfg.n)
    h, c = cfg.h, cfg.c
    mu = np.tanh(cfg.epsilon * x)
    # A4 and B in (1, 1) band storage, ab[1 + i - j, j] = M[i, j]; the
    # mirror ghosts double M[0, 1] and M[n-1, n-2]
    a2, ones = (1.0 + c * c * h * h / 12.0) / (h * h), np.ones(cfg.n)
    a4 = np.outer([a2 - 0.5 * c / h, -2.0 * a2, a2 + 0.5 * c / h], ones)
    b = np.outer([1.0 - 0.5 * c * h, 10.0, 1.0 + 0.5 * c * h], ones) / 12.0
    a4[0, 1] = a4[2, -2] = 2.0 * a2
    b[0, 1] = b[2, -2] = 2.0 / 12.0

    def scaled(g, up, down):
        """A4 + B diag(g) with each M[i, j] times e^{w_j - w_i}, given
        up = e^{w_{i+1} - w_i} and down = e^{w_i - w_{i+1}}."""
        ab = a4 + b * g
        ab[0, 1:] *= up
        ab[2, :-1] *= down
        return ab

    # the iterate residual saw last, its e^{2w}, up, down and R: jacobian
    # called on that same array object (unmodified since) reuses them
    held = (None,) * 5

    def residual(w):
        nonlocal held
        e2, dw = np.exp(2.0 * w), np.diff(w)
        up, down = np.exp(dw), np.exp(-dw)
        r = scaled(mu - e2, up, down)
        r[1, :-1] += r[0, 1:]
        r[1, 1:] += r[2, :-1]
        held = (w, e2, up, down, r[1])
        return r[1]

    def jacobian(w):
        if held[0] is not w:
            residual(w)
        e2, up, down, r = held[1:]
        ab = scaled(mu - 3.0 * e2, up, down)
        ab[1] -= r
        return ab

    seed = _front_seed(x, mu, c, cfg.epsilon)
    # a trial step whose exponentials overflow has a non-finite residual,
    # which the line search halves away
    with np.errstate(over="ignore", invalid="ignore"):
        w, report = solve_bvp(residual, jacobian, seed, _TOL, max_iter=80)
    if not report.converged:
        raise SolveError(
            f"no steady state at c={c}, eps={cfg.epsilon} on {cfg.n} nodes "
            f"(residual {report.final_residual_norm:.3e})",
            report,
        )
    u = np.exp(w)
    residual_u = float(np.max(np.abs(u * (held[4] if held[0] is w else residual(w)))))
    return SteadyState(x, u, report, residual_u, time.perf_counter() - wall0)


def spreading_speed(h: float, dt: float, mu: float) -> float:
    """Linear spreading speed of the SBDF4 march of u_t = u_xx + mu u on a
    grid of spacing h at step dt, for mu > 0 (van Saarloos, Phys. Rep. 386,
    2003); advection (the comoving frame's c D1) is not included.

    A mode G^k e^{-lam x} has D2 e^{-lam x} = s e^{-lam x} with
    s = 2 (cosh(lam h) - 1)/h^2, so the compact operator B^{-1} A4 acts on
    it by S = s/(1 + h^2 s/12), and it grows by the largest root G of

        (25 - 12 dt S) G^4 - 48 (1 + dt mu) G^3 + (36 + 72 dt mu) G^2
            - (16 + 48 dt mu) G + (3 + 12 dt mu) = 0,

    and the speed is the saddle of ln(G)/(dt lam): its first local minimum
    as lam grows from 0.  It is not the smallest value, because S saturates
    at 12/h^2 as lam -> inf, so on modes far steeper than the front (at
    h = 0.4, lam h > 16) ln(G)/(dt lam) falls below it again.  The relation
    is solved for S at a given growth rate sigma = ln(G)/dt: with
    g = G - 1 = expm1(sigma dt),

        12 dt G^4 S = 25 g^4 + 52 g^3 + 42 g^2 + 12 g - 12 dt mu (4 g^3 + 6 g^2 + 4 g + 1),

    which has no cancellation as dt -> 0, where S -> sigma - mu and the
    speed tends to the semi-discrete min_lam (S(lam) + mu)/lam.  Then
    s = S/(1 - h^2 S/12) (S < 12/h^2; no real lam reaches a larger S),
    lam = acosh(1 + s h^2/2)/h, and the first local minimum of sigma/lam is
    found on a geometric sigma grid (lam grows with sigma) and refined three
    times around it.  A grid too coarse to have one returns the speed at the
    steepest mode reached, far below 2 sqrt(mu).
    """
    if not (h > 0.0 and dt > 0.0 and mu > 0.0):
        raise ValueError("spreading speed needs h > 0, dt > 0 and mu > 0")

    def speed(sigma: np.ndarray) -> np.ndarray:
        g = np.expm1(sigma * dt)
        big_s = (
            g * (12.0 + g * (42.0 + g * (52.0 + 25.0 * g)))
            - 12.0 * dt * mu * (1.0 + g * (4.0 + g * (6.0 + 4.0 * g)))
        ) / (12.0 * dt * (1.0 + g) ** 4)
        r = np.clip(h * h * big_s / 12.0, 0.0, 1.0)  # 1 (no real lam) gives y = inf
        with np.errstate(divide="ignore", invalid="ignore"):
            y = 6.0 * r / (1.0 - r)  # h^2 s/2
            lam = np.log1p(y + np.sqrt(y * (y + 2.0))) / h
            # S <= 0: lam = 0 and the speed is inf; S >= 12/h^2: no mode
            return np.where(r < 1.0, sigma / lam, np.inf)

    sigma = mu * (1.0 + np.geomspace(1e-6, min(1e4, 50.0 / (dt * mu)), 201))
    for _ in range(4):
        c = speed(sigma)
        rising = np.flatnonzero(c[1:] > c[:-1])
        i = int(rising[0]) if rising.size else sigma.size - 1
        sigma = np.linspace(sigma[max(i - 1, 0)], sigma[min(i + 1, sigma.size - 1)], 101)
    return float(c[i])


def check_spreading_speed(cfg: SimConfig) -> float | None:
    """The spreading speed of ``cfg``'s grid and step at mu = ``frozen_mu``
    (else 1, the ramp's largest value); ``None`` when that mu is <= 0.

    Raises ``ValueError`` when the speed misses 2 sqrt(mu) by more than
    ``SPEED_TOLERANCE`` of it: such a grid cannot carry the front it is
    run to measure.
    """
    mu = cfg.frozen_mu if cfg.frozen_mu is not None else 1.0
    if mu <= 0.0:
        return None
    speed, target = spreading_speed(cfg.h, cfg.dt, mu), 2.0 * math.sqrt(mu)
    if abs(speed - target) > SPEED_TOLERANCE * target:
        raise ValueError(
            f"grid too coarse for a front: h = {cfg.h:g}, dt = {cfg.dt:g} spread at "
            f"{speed:.4f}, more than {SPEED_TOLERANCE:g} x 2 sqrt(mu) away from "
            f"2 sqrt(mu) = {target:.4f}"
        )
    return speed


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


def compare_homogeneous_quench(cfg: SimConfig, result: SimResult) -> QuenchComparison:
    """Compare the tracked front of ``result``, a simulation of the
    homogeneous quench ``cfg`` (alpha = 0, bump data), against the
    characteristic prediction.

    The prediction is anchored to the measured front at the end of the
    transient (the first time the front has advanced 5 space units); past
    that point the measured front must run at or ahead of the prediction,
    with a growing lead.
    """
    check_quench_comparable(cfg)
    tt, xx = result.track.times, result.track.x_fr_num
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
