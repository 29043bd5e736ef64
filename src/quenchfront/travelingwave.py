"""Traveling-wave fronts behind a slowly varying quench.

The quenched Allen-Cahn front u(x - ct) solves, in the reversed comoving
variable zeta = -(x - ct),

    u'' - c u' + mu(zeta) u - u^3 = 0,
    u(-inf) = 0,   u(+inf) = 1,

with the ramp mu(zeta) = tanh(eps * zeta): the paper's mu = -tanh(eps (x - ct))
in the solve variable, and the only ramp solved.  The delay law's prefactor
is built from its slope 1 - mu_c^2 at mu_c = c^2/4.  The stationary quench
c = 0 is the mirror image of the same problem, so a single discretization
covers both; xi-based diagnostics for c = 0 use xi = -zeta.

The truncated problem closes with projection boundary conditions: at the
left end (u, u') must lie in the unstable eigendirection of the
linearization about u = 0, at the right end (u - sqrt(mu), u') in the
stable eigendirection about the nontrivial state; ``projection_rates``
gives both rates.  ``delay_prefactor`` and ``predicted_delay`` are the
closed-form delay law that the solvers, the mesh grading and the fold fits
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solvercore import (
    ContinuationBranch,
    ContinuationError,
    Mesh,
    NewtonReport,
    ParameterizedBVP,
    continue_branch,
    solve_bvp,
)
from .specfun import omega0

__all__ = [
    "QuenchParams",
    "FrontSolution",
    "FrontBranch",
    "FrontSolveError",
    "NoInterfaceError",
    "solve_front",
    "front_location",
    "delay_prefactor",
    "predicted_delay",
    "projection_rates",
    "front_branch",
    "stationary_amplitude_at_pitchfork",
    "rescaled_inner_profile",
    "compare_with_rescaled_profile",
]


# residual sup-norm tolerance of every Newton solve on the front system
_TOL = 1e-10
# every eps-branch starts from the tanh seed at eps = _EPS_START, on a mesh
# of finest spacing _H_MIN
_EPS_START = 0.05
_H_MIN = 0.05


class FrontSolveError(RuntimeError):
    """Newton failed on the front BVP; carries the report."""

    def __init__(self, message: str, report: NewtonReport | None = None):
        super().__init__(message)
        self.report = report


class NoInterfaceError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuenchParams:
    """Quench speed/steepness pair of the tanh ramp.

    In the original frame xi = x - ct the ramp is mu(xi) = -tanh(eps*xi); in
    the solve variable zeta = -xi it is tanh(eps*zeta).
    """

    c: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 <= self.c < 2.0):
            raise ValueError("quench speed must lie in [0, 2)")
        if not (0.0 < self.epsilon <= 0.1):
            raise ValueError("ramp rate must lie in (0, 0.1]")

    def mu_of_zeta(self, zeta):
        return np.tanh(self.epsilon * np.asarray(zeta, dtype=float))

    def zeta_of_mu(self, mu: float) -> float:
        return math.atanh(mu) / self.epsilon


@dataclass
class FrontSolution:
    """Discrete heteroclinic front on a zeta-mesh with interface diagnostics.

    mu is the closed-form ramp evaluated on the mesh (a coefficient, not an
    unknown); v = u_zeta is reconstructed from the solved profile.  For
    c = 0 the interface threshold degenerates, so mu_fr/zeta_fr are None and
    u_at_origin (the amplitude at xi = 0) is reported instead.
    """

    mesh: Mesh
    u: np.ndarray
    v: np.ndarray
    mu: np.ndarray
    params: QuenchParams
    report: NewtonReport
    mu_fr: float | None = None
    zeta_fr: float | None = None
    u_at_origin: float | None = None

    @property
    def zeta(self) -> np.ndarray:
        return self.mesh.nodes

    @property
    def xi(self) -> np.ndarray:
        """Original-frame coordinate xi = -zeta (same node order)."""
        return -self.mesh.nodes


@dataclass
class FrontBranch:
    """Continuation results over a list of ramp rates at fixed speed.

    ``branch`` holds the raw log-variable continuation entries; ``system``
    is the discretization they satisfy (used to re-verify residuals).
    """

    fronts: list[FrontSolution]
    branch: ContinuationBranch
    mesh: Mesh
    system: object = None


def delay_prefactor(c: float) -> float:
    """Prefactor Omega0 (1 - c^4/16)^{2/3} of the eps^{2/3} delay law."""
    return omega0().value * (1.0 - c**4 / 16.0) ** (2.0 / 3.0)


def predicted_delay(c: float, epsilon: float) -> float:
    """Interface location law mu_fr = c^2/4 + Omega0 (1 - c^4/16)^{2/3} eps^{2/3}."""
    if not (0.0 <= c < 2.0):
        raise ValueError("speed must lie in [0, 2)")
    return c * c / 4.0 + delay_prefactor(c) * epsilon ** (2.0 / 3.0)


def projection_rates(c: float, mu_left: float, mu_right: float) -> tuple[float, float]:
    """Fast spatial rates of the projection closures: nu_u = c/2 +
    sqrt(c^2/4 - mu_left), unstable at u = 0, and nu_s = c/2 - sqrt(c^2/4 +
    2 mu_right), stable at u = sqrt(mu_right)."""
    nu_u = 0.5 * (c + math.sqrt(c**2 - 4.0 * mu_left))
    nu_s = 0.5 * (c - math.sqrt(c**2 + 8.0 * mu_right))
    return nu_u, nu_s


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

class _LogFrontSystem:
    """The front BVP posed for w = log(u), discretized by second-order
    nonuniform finite differences.

    Fronts are strictly positive and monotone, and the plateau behind the
    instability point passes exponentially close to u = 0 (far below the
    additive rounding floor of a linear solve in u).  In w the tail is an
    affine profile, every error is relative to the local amplitude, and the
    continuation stays quadratically convergent down to the smallest ramp
    rates.  The equation becomes

        w'' + (w')^2 - c w' + mu - e^{2w} = 0,

    with projection closures w'(-L) = nu_u and w'(L) = nu_s (1 - u_+ e^{-w}).

    ``phase_fn(eps)`` optionally shifts the ramp argument: the ramp becomes
    tanh(eps*z + phase) on the stored mesh, i.e. the mesh lives in a frame
    translated by phase/eps.  Continuation uses the predicted interface
    position as the phase so the front stays pinned near z = 0 while eps
    varies; the unshifted problem has phase 0.
    """

    def __init__(self, mesh: Mesh, c: float, phase_fn=None):
        self.mesh = mesh
        self.c = c
        self.phase_fn = phase_fn
        z = mesh.nodes
        h = np.diff(z)
        hm, hp = h[:-1], h[1:]
        self.d2m = 2.0 / (hm * (hm + hp))
        self.d2c = -2.0 / (hm * hp)
        self.d2p = 2.0 / (hp * (hm + hp))
        self.d1m = -hp / (hm * (hm + hp))
        self.d1c = (hp - hm) / (hm * hp)
        self.d1p = hm / (hp * (hm + hp))
        # one-sided second-order first-derivative stencils at the two ends
        h0, h1 = h[0], h[1]
        self.left_stencil = (
            -(2.0 * h0 + h1) / (h0 * (h0 + h1)),
            (h0 + h1) / (h0 * h1),
            -h0 / (h1 * (h0 + h1)),
        )
        g0, g1 = h[-1], h[-2]
        self.right_stencil = (
            g0 / (g1 * (g0 + g1)),
            -(g0 + g1) / (g0 * g1),
            (2.0 * g0 + g1) / (g0 * (g0 + g1)),
        )
        # the Jacobian entries J[0, 2] and J[n-1, n-3] outside the tridiagonal
        self.corners = (self.left_stencil[2], self.right_stencil[0])

    def phase(self, epsilon: float) -> float:
        return self.phase_fn(epsilon) if self.phase_fn is not None else 0.0

    def mu_values(self, epsilon: float, z: np.ndarray | None = None) -> np.ndarray:
        """The ramp at the mesh nodes, or at the stored-frame points ``z``."""
        return np.tanh(epsilon * (self.mesh.nodes if z is None else z) + self.phase(epsilon))

    def true_zeta(self, epsilon: float) -> np.ndarray:
        return self.mesh.nodes + self.phase(epsilon) / epsilon

    def closures(self, epsilon: float) -> tuple[float, float, float]:
        """(nu_u, nu_s, u_plus) of the projection closures, from the ramp at
        the two end nodes only."""
        mu_left, mu_right = self.mu_values(epsilon, self.mesh.nodes[[0, -1]])
        nu_u, nu_s = projection_rates(self.c, mu_left, mu_right)
        return nu_u, nu_s, math.sqrt(mu_right)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        v = np.empty_like(u)
        v[1:-1] = self.d1m * u[:-2] + self.d1c * u[1:-1] + self.d1p * u[2:]
        a0, b0, c0 = self.left_stencil
        v[0] = a0 * u[0] + b0 * u[1] + c0 * u[2]
        a1, b1, c1 = self.right_stencil
        v[-1] = a1 * u[-3] + b1 * u[-2] + c1 * u[-1]
        return v

    def residual(self, w: np.ndarray, epsilon: float) -> np.ndarray:
        mu = self.mu_values(epsilon)
        nu_u, nu_s, u_plus = self.closures(epsilon)
        c = self.c
        r = np.empty_like(w)
        wm, wc, wp = w[:-2], w[1:-1], w[2:]
        d1 = self.d1m * wm + self.d1c * wc + self.d1p * wp
        r[1:-1] = (
            self.d2m * wm + self.d2c * wc + self.d2p * wp + d1 * d1 - c * d1 + mu[1:-1]
            - np.exp(2.0 * wc)
        )
        a0, b0, c0 = self.left_stencil
        r[0] = a0 * w[0] + b0 * w[1] + c0 * w[2] - nu_u
        a1, b1, c1 = self.right_stencil
        r[-1] = a1 * w[-3] + b1 * w[-2] + c1 * w[-1] - nu_s * (1.0 - u_plus * np.exp(-w[-1]))
        return r

    def jacobian(self, w: np.ndarray, epsilon: float) -> np.ndarray:
        """Tridiagonal part of the Jacobian in (1, 1) band storage; the two
        corners outside it are the constants ``self.corners``."""
        _, nu_s, u_plus = self.closures(epsilon)
        n = w.size
        wm, wc, wp = w[:-2], w[1:-1], w[2:]
        g = 2.0 * (self.d1m * wm + self.d1c * wc + self.d1p * wp) - self.c
        ab = np.empty((3, n))
        ab[0, 2:] = self.d2p + g * self.d1p
        ab[1, 1:-1] = self.d2c + g * self.d1c - 2.0 * np.exp(2.0 * wc)
        ab[2, :-2] = self.d2m + g * self.d1m
        a0, b0, _ = self.left_stencil
        ab[0, 0], ab[0, 1], ab[1, 0] = 0.0, b0, a0
        _, b1, c1 = self.right_stencil
        ab[2, -2], ab[2, -1] = b1, 0.0
        ab[1, -1] = c1 - nu_s * u_plus * np.exp(-w[-1])
        return ab

    def seed(self, eps: float) -> np.ndarray:
        """Start profile in w = log(u): affine tail of slope (1 + c)/2 up to
        the instability point z_c, where it reaches log(c/4) (log(1/4) at
        c = 0), then the plateau log(sqrt(mu)) floored at that level."""
        mu = self.mu_values(eps)
        c = self.c
        if c > 0.0:
            arg_c = math.atanh(c * c / 4.0)
            level = math.log(c / 4.0)
        else:
            arg_c = 0.0
            level = math.log(0.25)
        z_c = (arg_c - self.phase(eps)) / eps
        z = self.mesh.nodes
        slope = 0.5 + 0.5 * c
        return np.where(
            z < z_c,
            level + slope * (z - z_c),
            0.5 * np.log(np.maximum(mu, math.exp(2.0 * level))),
        )

    def front_solution(self, w: np.ndarray, params: QuenchParams, report) -> FrontSolution:
        u = np.exp(w)
        v = u * self.derivative(w)  # u_zeta = u w_zeta
        nodes = self.true_zeta(params.epsilon)
        mesh = self.mesh if self.phase_fn is None else Mesh(nodes)
        sol = FrontSolution(
            mesh=mesh,
            u=u,
            v=v,
            mu=np.asarray(params.mu_of_zeta(mesh.nodes)),
            params=params,
            report=report,
        )
        if params.c > 0.0:
            try:
                sol.mu_fr, sol.zeta_fr = front_location(sol)
            except NoInterfaceError:
                pass
        else:
            sol.u_at_origin = float(np.interp(0.0, mesh.nodes, u))
        return sol


def _default_mesh(params: QuenchParams, domain_halflength: float, n: int) -> Mesh:
    """Grade the mesh toward the interface region; roughly n nodes."""
    c, eps = params.c, params.epsilon
    scale = eps ** (-1.0 / 3.0)
    if c > 0.0:
        zeta_c = params.zeta_of_mu(c * c / 4.0)
        delay = delay_prefactor(c) * scale / (1.0 - c**4 / 16.0)
        lo = zeta_c - max(30.0, 2.0 * scale)
        hi = zeta_c + 3.0 * delay + max(30.0, 2.0 * scale)
    else:
        lo, hi = -4.0 * scale - 20.0, 4.0 * scale + 20.0
    lo = max(lo, -0.5 * domain_halflength)
    hi = min(hi, 0.5 * domain_halflength)
    h_min = (hi - lo) / (0.75 * n)
    h_max = max(domain_halflength / (0.12 * n), 4.0 * h_min)
    return Mesh.graded(
        -domain_halflength, domain_halflength, lo, hi, h_min=h_min, factor=1.05, h_max=h_max
    )


def solve_front(params: QuenchParams, domain_halflength: float, n: int = 4001) -> FrontSolution:
    """Solve the truncated front BVP with projection boundary conditions.

    The domain must satisfy L >= 5/eps so that the ramp sits within 1e-4 of
    its limits at the truncation points.  The solve starts from
    ``_LogFrontSystem.seed``: in w = log(u), an affine tail of slope
    (1 + c)/2 up to the instability point zeta_c where mu = c^2/4, then the
    plateau log(sqrt(mu)), floored at the tail's level.  The discrete
    system is posed in the log-amplitude w = log(u) (the front's plateau
    passes exponentially close to u = 0, which an additive solve cannot
    resolve); the residual tolerance applies to that system.
    """
    if domain_halflength < 5.0 / params.epsilon - 1e-9:
        raise ValueError("domain too short: need halflength >= 5/epsilon")
    if n < 2001:
        raise ValueError("front discretization needs n >= 2001")
    mesh = _default_mesh(params, domain_halflength, n)
    # a halflength past ~1e154 overflows the difference weights of the end
    # cells to zero; the Newton step then raises JacobianSingularError
    with np.errstate(over="ignore"):
        system = _LogFrontSystem(mesh, params.c)
    w, report = solve_bvp(
        residual=lambda w: system.residual(w, params.epsilon),
        jacobian=lambda w: system.jacobian(w, params.epsilon),
        initial_guess=system.seed(params.epsilon),
        tol=_TOL,
        corners=system.corners,
        max_iter=80,
    )
    if not report.converged:
        raise FrontSolveError(
            f"front solve failed at c={params.c}, eps={params.epsilon} "
            f"(residual {report.final_residual_norm:.3e})",
            report,
        )
    return system.front_solution(w, params, report)


def front_location(sol: FrontSolution) -> tuple[float, float]:
    """Interface diagnostics (mu_fr, zeta_fr) for a moving front.

    mu_fr is the first crossing of u through sqrt(mu_c)/2 = c/4 (linear
    interpolation in mu between the bracketing nodes; a node exactly on the
    threshold is taken as the crossing), and zeta_fr = ramp^{-1}(mu_fr).
    """
    c = sol.params.c
    if c <= 0.0:
        raise ValueError("interface threshold degenerates at c = 0; use u_at_origin")
    if not sol.report.converged:
        raise ValueError("front_location requires a converged solution")
    thr = c / 4.0
    above = np.nonzero(sol.u >= thr)[0]
    if above.size == 0:
        raise NoInterfaceError(f"profile never crosses the threshold {thr}")
    j = int(above[0])
    if sol.u[j] == thr or j == 0:
        mu_fr = float(sol.mu[j])
    else:
        t = (thr - sol.u[j - 1]) / (sol.u[j] - sol.u[j - 1])
        mu_fr = float(sol.mu[j - 1] + t * (sol.mu[j] - sol.mu[j - 1]))
    return mu_fr, sol.params.zeta_of_mu(mu_fr)


# ---------------------------------------------------------------------------
# Continuation in the ramp rate
# ---------------------------------------------------------------------------

def front_branch(
    c: float,
    eps_targets: Sequence[float],
    strict: bool = True,
) -> FrontBranch:
    """Continue the tanh-ramp front family from its seed
    (``_LogFrontSystem.seed``) at eps = 0.05 down through each target.

    One continuation in log(eps) on a single mesh takes every target as a
    stop and lands on it exactly.  Two changes of variables keep the
    correctors quadratic all the way down: the frame is shifted by the
    predicted interface position (so the jump stays pinned near the mesh
    origin while the physical interface travels O(1/eps)), and the unknown
    is the log-amplitude w = log(u) (so the exponentially small plateau is
    resolved relatively, not additively).  Each front is returned in the
    unshifted u-variables with its target as ``params.epsilon``.  The shift
    is atanh(predicted_delay(c, eps)), so a start where that prediction
    reaches 1 (c near 2) raises ``ValueError``.
    """
    targets = sorted(set(float(e) for e in eps_targets), reverse=True)
    if not targets or targets[-1] <= 0.0 or targets[0] > _EPS_START:
        raise ValueError(f"need at least one target, all in (0, {_EPS_START}]")
    if c > 0.0:
        mu_start = predicted_delay(c, _EPS_START)
        if mu_start >= 1.0:
            raise ValueError(
                f"predicted interface mu_fr = {mu_start:.4f} >= 1 at c={c}, "
                f"eps_start={_EPS_START}: the atanh phase of the shifted frame is "
                "undefined there"
            )
        phase_fn = lambda e: math.atanh(predicted_delay(c, e))
    else:
        phase_fn = None
    mesh = _branch_mesh(c, targets[-1])
    system = _LogFrontSystem(mesh, c, phase_fn)
    problem = ParameterizedBVP(
        residual=lambda w, s: system.residual(w, math.exp(s)),
        jacobian=lambda w, s: system.jacobian(w, math.exp(s)),
        corners=system.corners,
        tol=_TOL,
        max_iter=80,
    )
    stops = [math.log(e) for e in [_EPS_START, *targets]]
    try:
        branch = continue_branch(problem, system.seed(_EPS_START), stops, 0.4)
    except ContinuationError as exc:
        raise FrontSolveError(f"branch seed failed at eps={_EPS_START}", exc.report) from None
    landed = {e.param: e for e in branch.entries}
    fronts = [
        system.front_solution(landed[s].solution, QuenchParams(c, eps), landed[s].report)
        for eps, s in zip(targets, stops[1:])
        if s in landed
    ]
    if branch.status != "completed" and strict:
        raise FrontSolveError(
            f"continuation stalled before eps={targets[len(fronts)]}; "
            f"{len(fronts)} of {len(targets)} targets reached"
        )
    return FrontBranch(fronts=fronts, branch=branch, mesh=mesh, system=system)


def _branch_mesh(c: float, eps_min: float) -> Mesh:
    """One mesh serving the whole eps-continuation, in the shifted frame
    where the interface sits near the origin.  Fine spacing covers the
    take-off zone between the instability point and the interface; the ends
    keep the ramp within 1e-4 of its limits for every eps in range."""
    scale = eps_min ** (-1.0 / 3.0)
    if c > 0.0:
        p_min = QuenchParams(c, eps_min)
        zfp = p_min.zeta_of_mu(predicted_delay(c, eps_min))
        span = zfp - p_min.zeta_of_mu(c * c / 4.0)
        lo = -span - max(40.0, 2.0 * scale)
        hi = max(40.0, 2.0 * scale)
        left = 5.0 / eps_min + zfp + 10.0
        right = 5.0 / eps_min + 10.0
    else:
        lo, hi = -4.0 * scale - 20.0, 4.0 * scale + 20.0
        left = right = 5.0 / eps_min + 10.0
    h_max = max((left + right) / 1000.0, 4.0 * _H_MIN)
    return Mesh.graded(-left, right, lo, hi, h_min=_H_MIN, factor=1.05, h_max=h_max)


def stationary_amplitude_at_pitchfork(fronts: Sequence[FrontSolution]) -> float:
    """Log-log least-squares exponent of u(xi = 0) against eps for a c = 0
    branch.  Requires at least six entries, of which at least four are
    usable (converged, with u(0) > 0); the usable entries must span a
    decade in eps."""
    usable = [
        f
        for f in fronts
        if f.report.converged and f.u_at_origin is not None and f.u_at_origin > 0.0
    ]
    if len(fronts) < 6:
        raise ValueError("need at least six branch entries")
    eps = np.array([f.params.epsilon for f in usable])
    if len(usable) < 4:
        raise ValueError("fewer than four usable (converged) entries")
    if eps.max() / eps.min() < 10.0 * (1.0 - 1e-9):
        raise ValueError("entries must span at least a decade in eps")
    amp = np.array([f.u_at_origin for f in usable])
    slope = np.polyfit(np.log(eps), np.log(amp), 1)[0]
    return float(slope)


def rescaled_inner_profile(sol: FrontSolution, eta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The rescaled connection profile sqrt(2) eps^{1/3} w(eps^{1/3} xi) at
    each node of the c = 0 front ``sol``; NaN outside |xi| <= eps^{-1/3}."""
    scale = sol.params.epsilon ** (1.0 / 3.0)
    return np.where(
        np.abs(sol.xi) <= 1.0 / scale,
        math.sqrt(2.0) * scale * np.interp(scale * sol.xi, eta, w),
        math.nan,
    )


def compare_with_rescaled_profile(
    sol: FrontSolution, eta: np.ndarray, w: np.ndarray
) -> tuple[float, float]:
    """Sup-norm deviation of a c = 0 front from ``rescaled_inner_profile``
    over its window |xi| <= eps^{-1/3}.

    Returns (sup_deviation, eps^{2/3}) so callers can form the bounded
    ratio deviation / eps^{2/3}.
    """
    inner = rescaled_inner_profile(sol, eta, w)
    window = ~np.isnan(inner)
    dev = float(np.max(np.abs(sol.u[window] - inner[window])))
    return dev, sol.params.epsilon ** (2.0 / 3.0)
