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
share.  A :class:`FrontSolution` stores the solved w = log(u); the ramp mu
and the slope v = u_zeta are derived when read.  Every front, direct or on
an eps-branch, is solved on one mesh rule with core cells at most
``CORE_SPACING``, over ``default_halflength`` unless a caller gives L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solvercore import (
    ContinuationBranch,
    Mesh,
    NewtonReport,
    SolveError,
    continue_branch,
    solve_bvp,
)
from .specfun import omega0

__all__ = [
    "QuenchParams",
    "FrontSolution",
    "FrontBranch",
    "solve_front",
    "front_location",
    "delay_prefactor",
    "predicted_delay",
    "projection_rates",
    "front_branch",
    "default_halflength",
    "CORE_SPACING",
    "stationary_amplitude_at_pitchfork",
    "rescaled_inner_profile",
    "compare_with_rescaled_profile",
]


# residual sup-norm tolerance of every Newton solve on the front system
_TOL = 1e-10
# widest core cell of a front mesh: cells of 3.7-6.4 stall Newton at eps =
# 1e-9, and the widest on README's grid (eps >= 1e-7) is 1.386
CORE_SPACING = 1.5


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

    ``w`` = log(u) is the solved unknown; mu, the closed-form ramp on the
    mesh, and v = u_zeta = u w_zeta (``np.gradient``'s second-order
    stencils) are derived on read.  For c = 0 the interface threshold
    degenerates, so mu_fr/zeta_fr are None and u_at_origin (the amplitude
    at xi = 0) is reported instead.
    """

    mesh: Mesh
    u: np.ndarray
    w: np.ndarray | None
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

    @property
    def mu(self) -> np.ndarray:
        return self.params.mu_of_zeta(self.zeta)

    @property
    def v(self) -> np.ndarray:
        return self.u * np.gradient(self.w, self.zeta, edge_order=2)


@dataclass
class FrontBranch:
    """Continuation results over a list of ramp rates at fixed speed.

    ``branch`` holds the raw log-variable continuation entries.
    """

    fronts: list[FrontSolution]
    branch: ContinuationBranch
    mesh: Mesh


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


def _interface_mu(c: float, epsilon: float) -> float:
    """Where a front at speed c > 0 is expected to jump: ``predicted_delay``,
    clipped to (1 + c^2/4)/2, halfway from mu_c to the ramp's end mu = 1,
    which the law passes near c = 2 and at large eps."""
    return min(predicted_delay(c, epsilon), 0.5 * (1.0 + c * c / 4.0))


def _seed_mu(c: float, epsilon: float) -> float:
    """Where ``_front_seed`` anchors a front at speed c > 0.  For
    gamma = c/eps^{1/3} >= 1 that is ``_interface_mu``.  Below, the delay
    law's eps^{2/3} Omega0 overshoots: the front jumps before mu_c, on the
    decaying tail of the inner Hastings-McLeod profile, whose amplitude
    eps^{1/3} e^{-(2/3)|eta|^{3/2}}, up to its prefactor, reaches the
    threshold c/4 = eps^{1/3} gamma/4 at |eta| = ((3/2) ln(1/gamma))^{2/3};
    so the anchor is mu = c^2/4 - ((3/2) ln(1/gamma))^{2/3} eps^{2/3}
    (below the ramp's least mesh value, ``_front_seed`` anchors at the first
    node)."""
    gamma = c / epsilon ** (1.0 / 3.0)
    if gamma >= 1.0:
        return _interface_mu(c, epsilon)
    return 0.25 * c * c - (1.5 * math.log(1.0 / gamma)) ** (2.0 / 3.0) * epsilon ** (2.0 / 3.0)


def _front_seed(nodes: np.ndarray, mu: np.ndarray, c: float, epsilon: float) -> np.ndarray:
    """Newton's start in w = log(u) on ``nodes``, where the ramp reads the
    increasing ``mu``.  In the linear tail q = w' solves q' = -q^2 + c q - mu,
    the fold's z' = -z^2 - theta in q = c/2 + z; the seed's tail is the
    trapezoid integral of its unstable root c/2 + sqrt(max(c^2/4 - mu, 0))
    (1/2 at c = 0), anchored at w = log(c/4) (log(1/4)) where mu, linearly
    interpolated, reaches ``_seed_mu`` (0 at c = 0).  The seed is the
    smaller of that tail and the plateau log(sqrt(mu)) floored at the anchor
    level: the increasing tail runs below the floor up to the anchor, and
    past it keeps its own slope, c/2 beyond the fold, until it meets the
    plateau, so the seed has no jump.  At c = 0 with eps <= 0.1 the tail
    lies above the plateau from the anchor on, so there the seed is the
    floored plateau.

    Below gamma = c/eps^{1/3} = 1 the anchor can lie before mu = c^2/16,
    where the plateau leaves that floor: the seed would run flat past the
    anchor and then climb the plateau faster than the tail.  There the
    plateau is floored instead at the first node where it reaches the tail,
    so the seed is the tail up to that node.  If the tail nowhere meets the
    plateau (at large eps it passes u = 1 before mu = 0), the anchor moves
    to mu = c^2/16.
    """
    if c > 0.0:
        level, m = math.log(c / 4.0), _seed_mu(c, epsilon)
        q = 0.5 * c + np.sqrt(np.maximum(0.25 * c * c - mu, 0.0))
    else:
        level, m = math.log(0.25), 0.0
        q = np.full_like(mu, 0.5)
    z_m = float(np.interp(m, mu, nodes))
    tail = np.concatenate(([0.0], np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(nodes))))
    tail += level - np.interp(z_m, nodes, tail)
    floor = math.exp(2.0 * level)
    if c > 0.0 and m < floor:
        with np.errstate(divide="ignore", invalid="ignore"):
            meets = 0.5 * np.log(mu) >= tail
        if meets.any():
            floor = float(mu[np.argmax(meets)])
        else:
            tail += level - np.interp(float(np.interp(floor, mu, nodes)), nodes, tail)
    return np.minimum(tail, 0.5 * np.log(np.maximum(mu, floor)))


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

class _LogFrontSystem:
    """The discrete front equation on ``mesh`` at speed c, for ramp values
    mu given at the mesh nodes: the front BVP posed for w = log(u),
    discretized by second-order nonuniform finite differences.

    Fronts are strictly positive and monotone, and the plateau behind the
    instability point passes exponentially close to u = 0 (far below the
    additive rounding floor of a linear solve in u).  In w the tail is an
    affine profile, every error is relative to the local amplitude, and the
    continuation stays quadratically convergent down to the smallest ramp
    rates.  The equation becomes

        w'' + (w')^2 - c w' + mu - e^{2w} = 0,

    with projection closures w'(-L) = nu_u and w'(L) = nu_s (1 - u_+ e^{-w}),
    each closed through the equation's own w'' so that every Newton
    Jacobian is tridiagonal (see :meth:`equations`).  The system does not
    know the ramp or its frame: ``solve_front`` passes tanh(eps*zeta) on
    its mesh, ``front_branch`` the ramp of its shifted frame.
    """

    def __init__(self, mesh: Mesh, c: float):
        self.mesh = mesh
        self.c = c
        h = np.diff(mesh.nodes)
        hm, hp = h[:-1], h[1:]
        # the three-point weights of w'' and w' at the interior nodes; the
        # centre weights are minus the sum of the outer two, so with the
        # forward and backward differences D+ and D- of w,
        # w'' = d2p D+ - d2m D- and w' = d1p D+ - d1m D-
        self.d2m = 2.0 / (hm * (hm + hp))
        self.d2p = 2.0 / (hp * (hm + hp))
        self.d1m = -hp / (hm * (hm + hp))
        self.d1p = hm / (hp * (hm + hp))
        self.h0, self.h1 = h[0], h[-1]  # the end cells of the boundary rows

    def differences(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first differences w_{i+1} - w_i and, from them, the central
        first difference w' = d1p D+ - d1m D- at the interior nodes."""
        dw = np.subtract(w[1:], w[:-1])
        dc = np.multiply(self.d1p, dw[1:])
        dc -= np.multiply(self.d1m, dw[:-1])
        return dw, dc

    def equations(self, mu: np.ndarray):
        """(residual, jacobian) for the ramp values ``mu`` at the mesh nodes,
        with the projection closures evaluated once for both.  Each closure row
        is w' at the end node, written as the two-point difference plus
        (h/2) w'' with w'' taken from the equation at the closure's slope:
        w'(-L) = (w_1 - w_0)/h_0 - (h_0/2)(-nu_u^2 + c nu_u - mu + e^{2w_0})
        at the left end, where the bracket's first three terms cancel to
        rounding, and (w_{n-1} - w_{n-2})/h + (h/2)(-q^2 + c q - mu +
        e^{2w}) with q = nu_s (1 - u_+ e^{-w}) at the right.  So the
        Jacobian is tridiagonal, returned in (1, 1) band storage.

        An interior row is d2p D+ - d2m D- + w'(w' - c) + mu - e^{2w}, with
        D+ and D- the forward and backward differences, both read from the
        one first-difference array of ``differences``, which also forms w';
        its Jacobian row is d2m + g d1m, -(sum of those two) - 2 e^{2w} and
        d2p + g d1p, g = 2w' - c.  The interior rows and bands are written
        into the returned arrays in place.

        One evaluation per Newton iterate serves both: ``residual`` keeps
        w' and e^{2w} of the array it was given, and ``jacobian`` called on
        that same array object (unmodified since) reuses them; on any other
        array, such as an earlier line-search trial, it computes them
        afresh."""
        mu_in = mu[1:-1]
        c, h0, h1 = self.c, self.h0, self.h1
        d2m, d2p, d1m, d1p = self.d2m, self.d2p, self.d1m, self.d1p
        nu_u, nu_s = projection_rates(c, mu[0], mu[-1])
        g0 = -nu_u * nu_u + c * nu_u - mu[0]
        u_plus = math.sqrt(mu[-1])
        held = (None, None, None)  # the iterate residual saw last, its w' and e^{2w}

        def residual(w: np.ndarray) -> np.ndarray:
            nonlocal held
            dw, dc = self.differences(w)
            e2 = np.multiply(w, 2.0)
            np.exp(e2, out=e2)
            held = (w, dc, e2)
            r = np.empty_like(w)
            ri, back = r[1:-1], dw[:-1]  # dw's backward half is scratch from here
            np.multiply(d2p, dw[1:], out=ri)
            ri -= np.multiply(d2m, back, out=back)
            np.subtract(dc, c, out=back)
            back *= dc
            ri += back
            ri += mu_in
            ri -= e2[1:-1]
            r[0] = (w[1] - w[0]) / h0 - 0.5 * h0 * (g0 + e2[0]) - nu_u
            q = nu_s * (1.0 - u_plus * np.exp(-w[-1]))
            d2 = c * q - q * q - mu[-1] + e2[-1]  # w'' at slope q
            r[-1] = (w[-1] - w[-2]) / h1 + 0.5 * h1 * d2 - q
            return r

        def jacobian(w: np.ndarray) -> np.ndarray:
            dc, e2 = held[1:] if held[0] is w else (self.differences(w)[1], np.exp(2.0 * w))
            ab = np.empty((3, w.size))
            up, di, lo = ab[0, 2:], ab[1, 1:-1], ab[2, :-2]
            g = np.multiply(dc, 2.0, out=di)  # g = 2w' - c, held in the diagonal
            g -= c
            np.multiply(g, d1p, out=up)
            up += d2p
            np.multiply(g, d1m, out=lo)
            lo += d2m
            np.multiply(e2[1:-1], -2.0, out=di)
            di -= up
            di -= lo
            ab[0, 0], ab[0, 1] = 0.0, 1.0 / h0
            ab[1, 0] = -1.0 / h0 - h0 * e2[0]
            dq = nu_s * u_plus * np.exp(-w[-1])  # dq/dw at the right end
            q = nu_s - dq  # nu_s (1 - u_+ e^{-w})
            ab[2, -2], ab[2, -1] = -1.0 / h1, 0.0
            ab[1, -1] = 1.0 / h1 + 0.5 * h1 * ((c - 2.0 * q) * dq + 2.0 * e2[-1]) - dq
            return ab

        return residual, jacobian

    def solve(self, guess: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, NewtonReport]:
        """Newton for the ramp values ``mu`` from ``guess``, to ``_TOL`` or
        ``solve_bvp``'s step stop in at most 80 iterations: the front
        layer's one Newton set-up.  The result may be unconverged
        (``report.converged``).  A trial step whose
        e^{2w} overflows has an infinite residual, which the line search
        halves away, so the overflow is not reported."""
        residual, jacobian = self.equations(mu)
        with np.errstate(over="ignore"):
            return solve_bvp(residual, jacobian, guess, _TOL, max_iter=80)


def _front_solution(
    mesh: Mesh, w: np.ndarray, params: QuenchParams, report: NewtonReport
) -> FrontSolution:
    """The front w on ``mesh``, the nodes of its own frame zeta, with its
    interface diagnostics."""
    u = np.exp(w)
    sol = FrontSolution(mesh=mesh, u=u, w=w, params=params, report=report)
    if params.c > 0.0:
        try:
            sol.mu_fr, sol.zeta_fr = front_location(sol)
        except SolveError:  # no crossing: mu_fr stays None
            pass
    else:
        sol.u_at_origin = float(np.interp(0.0, mesh.nodes, u))
    return sol


def default_halflength(params: QuenchParams) -> float:
    """The default domain halflength L = max(5/eps, 2 zeta_c + 1/eps): the
    ramp within 1e-4 of its limits at +-L, and L/2 past the instability point
    zeta_c = atanh(c^2/4)/eps by 1/(2 eps), so no accepted c is refused."""
    eps = params.epsilon
    return max(5.0 / eps, 2.0 * params.zeta_of_mu(params.c**2 / 4.0) + 1.0 / eps)


def _front_mesh(params: QuenchParams, domain_halflength: float, n: int) -> Mesh:
    """The mesh of every front solve: uniform over the take-off zone (within
    +-L/2) at the spacing of 0.75 n nodes there, at most ``CORE_SPACING``,
    graded toward +-L; about n nodes, more where the cap binds."""
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
    h_min = min((hi - lo) / (0.75 * n), CORE_SPACING)
    h_max = max(domain_halflength / (0.12 * n), 4.0 * h_min)
    return Mesh.graded(-domain_halflength, domain_halflength, lo, hi, h_min=h_min, h_max=h_max)


def solve_front(params: QuenchParams, domain_halflength: float, n: int = 4001) -> FrontSolution:
    """Solve the truncated front BVP with projection boundary conditions.

    The domain must satisfy L >= 5/eps so that the ramp sits within 1e-4 of
    its limits at the truncation points, and L/2 must pass the instability
    point zeta_c where mu = c^2/4, as ``default_halflength``'s max(5/eps,
    2 zeta_c + 1/eps) does.  ``_front_mesh`` puts about n nodes on it with
    core cells at most 1.5 (``CORE_SPACING``), more where that binds (eps
    below about 1e-7).  The ramp tanh(eps*zeta), evaluated once on the mesh,
    serves both the seed and Newton.  The solve is one Newton run from ``_front_seed``: in w = log(u), the tail integrates the
    unstable root of the linear tail's Riccati equation through w =
    log(c/4) at the interface ``_seed_mu`` expects, and on at its own slope
    until it meets the plateau log(sqrt(mu)), so the seed has no jump.  The
    discrete system is posed in the log-amplitude w = log(u) (the front's
    plateau passes exponentially close to u = 0, which an additive solve
    cannot resolve); the Newton stop (``_TOL`` on the residual, or a step below
    1e-10 (1 + |w|)) applies to that system.  A solve that does not
    converge raises :class:`SolveError` with its report.
    """
    if domain_halflength < 5.0 / params.epsilon - 1e-9:
        raise ValueError("domain too short: need halflength >= 5/epsilon")
    if n < 2001:
        raise ValueError("front discretization needs n >= 2001")
    zeta_c = params.zeta_of_mu(params.c**2 / 4.0)
    if zeta_c >= 0.5 * domain_halflength:
        # the mesh is graded toward [zeta_c, interface], clipped to +-L/2
        raise ValueError(
            f"instability point zeta_c = {zeta_c:.1f} at c={params.c}, eps={params.epsilon} "
            f"lies beyond L/2 = {0.5 * domain_halflength:.1f}; --L must exceed "
            f"2 zeta_c = {2.0 * zeta_c:.1f}"
        )
    mesh = _front_mesh(params, domain_halflength, n)
    # a halflength past ~1e154 overflows the difference weights of the end
    # cells to zero; the Newton step then raises JacobianSingularError
    with np.errstate(over="ignore"):
        system = _LogFrontSystem(mesh, params.c)
    mu = params.mu_of_zeta(mesh.nodes)
    seed = _front_seed(mesh.nodes, mu, params.c, params.epsilon)
    w, report = system.solve(seed, mu)
    if not report.converged:
        raise SolveError(
            f"front solve failed at c={params.c}, eps={params.epsilon} "
            f"(residual {report.final_residual_norm:.3e})",
            report,
        )
    return _front_solution(mesh, w, params, report)


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
        raise SolveError(f"profile never crosses the threshold {thr}")
    j = int(above[0])
    mu = sol.params.mu_of_zeta(sol.zeta[max(j - 1, 0) : j + 1])  # the bracketing nodes
    if sol.u[j] == thr or j == 0:
        mu_fr = float(mu[-1])
    else:
        t = (thr - sol.u[j - 1]) / (sol.u[j] - sol.u[j - 1])
        mu_fr = float(mu[0] + t * (mu[1] - mu[0]))
    return mu_fr, sol.params.zeta_of_mu(mu_fr)


# ---------------------------------------------------------------------------
# Continuation in the ramp rate
# ---------------------------------------------------------------------------

def front_branch(c: float, eps_targets: Sequence[float]) -> FrontBranch:
    """Continue the tanh-ramp front family from ``_front_seed`` at its
    largest target down through each smaller one.

    One continuation in log(eps) on a single mesh starts with one Newton
    solve at the largest target (a single target is just that solve), takes
    every smaller target as a stop and lands on it exactly, each corrector
    being ``_LogFrontSystem.solve``, the Newton set-up of ``solve_front``.
    Two changes of variables keep the correctors quadratic all the way
    down: the frame is shifted by the expected interface position
    phase(eps)/eps, phase = atanh(``_interface_mu``) (0 at c = 0), so the
    jump stays pinned near the mesh origin while the physical interface
    travels O(1/eps), and the unknown is the log-amplitude w = log(u), so
    the exponentially small plateau is resolved relatively, not additively.
    The mesh is ``solve_front``'s at the smallest target on its default L
    and n = 4001, shifted by phase(eps)/eps, so a single target is the
    direct solve's discrete problem.  The branch owns that frame: it hands the system the ramp
    tanh(eps z + phase(eps)) on its mesh nodes z, and returns each front on
    the nodes z + phase(eps)/eps of zeta, in u, with its target as
    ``params.epsilon``.  An empty target list or a (c, target) pair that
    ``QuenchParams`` refuses raises ``ValueError``; a start that does not
    converge, or a continuation that stalls before the last target, raises
    :class:`SolveError`, whose message names c, the eps range and the
    stalled log eps.
    """
    targets = sorted({QuenchParams(c, float(e)).epsilon for e in eps_targets}, reverse=True)
    if not targets:
        raise ValueError("need at least one target")
    phase = lambda e: math.atanh(_interface_mu(c, e)) if c > 0.0 else 0.0
    smallest = QuenchParams(c, targets[-1])
    direct = _front_mesh(smallest, default_halflength(smallest), 4001)
    mesh = Mesh(direct.nodes - phase(smallest.epsilon) / smallest.epsilon)
    nodes = mesh.nodes
    system = _LogFrontSystem(mesh, c)
    ramp = lambda e: np.tanh(e * nodes + phase(e))
    stops = [math.log(e) for e in targets]
    correct = lambda w, s: system.solve(w, ramp(math.exp(s)))
    seed = _front_seed(nodes, ramp(targets[0]), c, targets[0])
    try:
        branch = continue_branch(correct, seed, stops, 0.4)
    except SolveError as exc:
        raise SolveError(
            f"front branch at c={c} failed over eps from {targets[0]} down to {targets[-1]} "
            f"(continuation parameter log eps): {exc}",
            exc.report,
        ) from None
    landed = {e.param: e for e in branch.entries}
    fronts = []
    for eps, s in zip(targets, stops):
        zeta = Mesh(nodes + phase(eps) / eps)  # the front's own frame
        entry = landed[s]
        fronts.append(_front_solution(zeta, entry.solution, QuenchParams(c, eps), entry.report))
    return FrontBranch(fronts=fronts, branch=branch, mesh=mesh)


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
