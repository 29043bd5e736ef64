"""Generic numerics shared by the solver modules: 1-D meshes, damped Newton
iteration on banded discrete systems, natural-parameter continuation with a
secant predictor, ODE integration by scipy's ``DOP853`` or (stiff) ``LSODA``
stepper with sign-change events located by ``brentq`` on the dense output,
and symmetric tridiagonal eigenvalues and eigenvectors by LAPACK bisection
via ``scipy.linalg.eigh_tridiagonal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, solve_banded
from scipy.linalg.lapack import dgbtrf
from scipy.optimize import brentq

__all__ = [
    "Mesh",
    "NewtonReport",
    "BranchEntry",
    "ContinuationBranch",
    "ParameterizedBVP",
    "OdeResult",
    "EventRecord",
    "Spectrum",
    "JacobianSingularError",
    "OdeBlowUpError",
    "ContinuationError",
    "solve_bvp",
    "continue_branch",
    "integrate_ode",
    "eig_tridiag_symmetric",
    "tridiag_eigenvector",
]


class JacobianSingularError(RuntimeError):
    """Banded factorization broke down; carries the offending pivot index."""

    def __init__(self, pivot_index: int):
        super().__init__(f"jacobian singular (pivot index {pivot_index})")
        self.pivot_index = pivot_index


class OdeBlowUpError(RuntimeError):
    """Step size underflow (stiffness or finite-time blow-up); carries the
    last healthy state."""

    def __init__(self, t: float, y: np.ndarray):
        super().__init__(f"stiff/blow-up: step underflow at t={t!r}")
        self.t = t
        self.y = np.asarray(y).copy()


class ContinuationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    """Strictly increasing 1-D grid with a bounded grading ratio.

    Adjacent spacings may differ by at most a factor of 4 so that the
    second-order finite-difference stencils keep their design order.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 11:
            raise ValueError("mesh needs at least 11 nodes")
        h = np.diff(nodes)
        if np.any(h <= 0.0):
            raise ValueError("mesh nodes must be strictly increasing")
        ratio = h[1:] / h[:-1]
        if ratio.size and (ratio.max() > 4.0 + 1e-12 or ratio.min() < 0.25 - 1e-12):
            raise ValueError("adjacent mesh spacings must differ by at most 4x")

    @property
    def count(self) -> int:
        return self.nodes.size

    @property
    def spacing(self) -> np.ndarray:
        return np.diff(self.nodes)

    @staticmethod
    def uniform(a: float, b: float, n: int) -> "Mesh":
        return Mesh(np.linspace(a, b, n))

    @staticmethod
    def graded(
        a: float,
        b: float,
        focus_lo: float,
        focus_hi: float,
        h_min: float,
        factor: float = 1.05,
        h_max: float = math.inf,
    ) -> "Mesh":
        """Uniform spacing ``h_min`` on [focus_lo, focus_hi], geometrically
        coarsened by ``factor`` toward both domain ends, capped at ``h_max``."""
        if not (a <= focus_lo < focus_hi <= b):
            raise ValueError("focus interval must lie inside the domain")
        if not (1.0 < factor <= 4.0):
            raise ValueError("grading factor must lie in (1, 4]")
        core = np.arange(focus_lo, focus_hi + 0.5 * h_min, h_min)

        def ramp(start: float, limit: float, direction: float) -> np.ndarray:
            dist = (limit - start) * direction
            if dist <= 1e-12 * max(1.0, abs(limit)):
                return np.empty(0)
            hs: list[float] = []
            h, total = h_min, 0.0
            while total < dist * (1.0 - 1e-14):
                h = min(h * factor, h_max, dist - total)
                hs.append(h)
                total += h
            if len(hs) >= 2 and hs[-1] < 0.3 * hs[-2]:
                # split the merged tail evenly so the grading bound holds
                half = 0.5 * (hs[-1] + hs[-2])
                hs[-2:] = [half, half]
            nodes = start + direction * np.cumsum(hs)
            nodes[-1] = limit
            return nodes

        left = ramp(core[0], a, -1.0)[::-1]
        right = ramp(core[-1], b, +1.0)
        return Mesh(np.concatenate([left, core, right]))


# ---------------------------------------------------------------------------
# Damped Newton on banded systems
# ---------------------------------------------------------------------------

@dataclass
class NewtonReport:
    iterations: int
    final_residual_norm: float
    converged: bool
    damping_history: list[float] = field(default_factory=list)


def _banded_solve(ab: np.ndarray, kl: int, ku: int, rhs: np.ndarray) -> np.ndarray:
    try:
        return solve_banded((kl, ku), ab, rhs)
    except LinAlgError as exc:
        # dgbtrf takes kl extra rows for fill-in; its info is the 1-based
        # index of the first exactly zero pivot
        info = dgbtrf(np.vstack([np.zeros((kl, ab.shape[1])), ab]), kl, ku)[2]
        raise JacobianSingularError(info - 1) from exc


def solve_bvp(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    initial_guess: np.ndarray,
    tol: float,
    bandwidth: tuple[int, int] = (1, 1),
    max_iter: int = 50,
) -> tuple[np.ndarray, NewtonReport]:
    """Damped Newton iteration for a discrete two-point BVP.

    ``jacobian`` must return the matrix in LAPACK band storage,
    ``ab[ku + i - j, j] = J[i, j]`` with bandwidths ``(kl, ku)``.  The line
    search halves the step until the residual sup-norm decreases, down to a
    minimum fraction 2^-10; if no decrease is found the minimal step is
    taken anyway and the iteration runs until ``max_iter``.
    """
    kl, ku = bandwidth
    x = np.asarray(initial_guess, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess must be finite")
    report = NewtonReport(iterations=0, final_residual_norm=math.inf, converged=False)
    r = residual(x)
    norm = float(np.max(np.abs(r)))
    for it in range(1, max_iter + 1):
        if norm <= tol:
            report.converged = True
            break
        ab = jacobian(x)
        step = _banded_solve(ab, kl, ku, -r)
        lam = 1.0
        best = None
        while lam >= 2.0**-10:
            x_try = x + lam * step
            r_try = residual(x_try)
            n_try = float(np.max(np.abs(r_try))) if np.all(np.isfinite(r_try)) else math.inf
            if n_try < norm:
                best = (x_try, r_try, n_try, lam)
                break
            if best is None or n_try < best[2]:
                best = (x_try, r_try, n_try, lam)
            lam *= 0.5
        x, r, norm, lam_used = best
        report.damping_history.append(lam_used)
        report.iterations = it
    report.final_residual_norm = norm
    if norm <= tol:
        report.converged = True
    return x, report


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------

@dataclass
class ParameterizedBVP:
    """A discrete system depending on one scalar parameter.

    ``max_iter`` raises the per-corrector Newton budget for problems whose
    convergence degrades to a linear rate (near-singular branches).
    """

    residual: Callable[[np.ndarray, float], np.ndarray]
    jacobian: Callable[[np.ndarray, float], np.ndarray]
    bandwidth: tuple[int, int] = (1, 1)
    tol: float = 1e-10
    diagnostics: Callable[[np.ndarray, float], dict] | None = None
    max_iter: int = 50


@dataclass
class BranchEntry:
    param: float
    solution: np.ndarray
    report: NewtonReport
    extras: dict = field(default_factory=dict)


@dataclass
class ContinuationBranch:
    entries: list[BranchEntry]
    direction: int
    step_history: list[float]
    status: str  # "completed" | "stalled"

    @property
    def params(self) -> np.ndarray:
        return np.array([e.param for e in self.entries])


def continue_branch(
    problem: ParameterizedBVP,
    start: np.ndarray,
    param_range: tuple[float, float],
    step0: float,
    min_step: float = 1e-10,
    grow: float = 1.3,
) -> ContinuationBranch:
    """Natural-parameter continuation with a secant predictor and Newton
    corrector.  The step halves on corrector failure and grows by ``grow``
    after three consecutive successes; stepping stops at the range end or
    when the step drops below ``min_step`` (branch flagged "stalled").
    """
    p0, p1 = float(param_range[0]), float(param_range[1])
    direction = 1 if p1 >= p0 else -1
    x0, rep0 = solve_bvp(
        lambda x: problem.residual(x, p0),
        lambda x: problem.jacobian(x, p0),
        start,
        problem.tol,
        problem.bandwidth,
        problem.max_iter,
    )
    if not rep0.converged:
        raise ContinuationError(f"start solution does not converge at parameter {p0}")
    entries = [BranchEntry(p0, x0, rep0, _extras(problem, x0, p0))]
    steps: list[float] = []
    step = abs(step0)
    successes = 0
    p_prev, x_prev = p0, x0
    p_prev2, x_prev2 = None, None
    while (p1 - p_prev) * direction > 1e-14 * max(1.0, abs(p1)):
        step = min(step, abs(p1 - p_prev))
        p_new = p_prev + direction * step
        if p_prev2 is None or abs(p_prev - p_prev2) == 0.0:
            guess = x_prev
        else:
            frac = (p_new - p_prev) / (p_prev - p_prev2)
            guess = x_prev + frac * (x_prev - x_prev2)
        x_new, rep = solve_bvp(
            lambda x: problem.residual(x, p_new),
            lambda x: problem.jacobian(x, p_new),
            guess,
            problem.tol,
            problem.bandwidth,
            problem.max_iter,
        )
        if rep.converged:
            entries.append(BranchEntry(p_new, x_new, rep, _extras(problem, x_new, p_new)))
            steps.append(direction * step)
            p_prev2, x_prev2 = p_prev, x_prev
            p_prev, x_prev = p_new, x_new
            successes += 1
            if successes >= 3:
                step *= grow
                successes = 0
        else:
            successes = 0
            step *= 0.5
            if step < min_step:
                return ContinuationBranch(entries, direction, steps, "stalled")
    return ContinuationBranch(entries, direction, steps, "completed")


def _extras(problem: ParameterizedBVP, x: np.ndarray, p: float) -> dict:
    return problem.diagnostics(x, p) if problem.diagnostics else {}


# ---------------------------------------------------------------------------
# ODE integration with event location (scipy's DOP853 and LSODA steppers)
# ---------------------------------------------------------------------------

@dataclass
class EventRecord:
    index: int
    t: float
    y: np.ndarray


@dataclass
class OdeResult:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), dim)
    events: list[EventRecord]
    status: str  # "completed" | "event"


def integrate_ode(
    field: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float = 1e-8,
    atol: float = 1e-10,
    events: Sequence[Callable[[float, np.ndarray], float]] = (),
    stiff: bool = False,
) -> OdeResult:
    """Adaptive integration with scipy's ``DOP853`` (explicit Runge-Kutta
    of order 8) or, with ``stiff``, ``LSODA`` (Adams/BDF with automatic
    stiffness switching).

    ``stiff`` exists because the callers need different steppers.  Slow-fast
    systems, whose explicit steps are limited by stability rather than
    accuracy, take an order of magnitude fewer steps under LSODA.  LSODA's
    error control is too loose for solutions that must shadow an unstable
    orbit over a long range, so that case stays on DOP853.

    The result holds every accepted step.  Events are scalar functions of
    (t, y).  A sign change over an accepted step, in the direction given by
    an optional ``direction`` attribute (+1 rising, -1 falling, 0 both), is
    located by ``brentq`` on the step's dense output to 1e-12 in time.  An
    event function with a truthy ``terminal`` attribute stops integration
    at its earliest crossing.  :class:`OdeBlowUpError`, carrying the last
    accepted state, is raised when the stepper fails, when the state turns
    non-finite, or when a step short of the range end advances by less than
    1e-14 max(1, |t|) (stiffness or finite-time blow-up).
    """
    # imported here, not at module level: scipy.integrate adds ~0.1 s to the
    # package import, which every command pays, and few of them integrate
    from scipy.integrate import DOP853, LSODA

    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float).copy()
    if not np.all(np.isfinite(np.asarray(field(t0, y), dtype=float))):
        raise ValueError("vector field not finite at the initial state")
    solver = (LSODA if stiff else DOP853)(field, t0, y, t1, rtol=rtol, atol=atol)
    ts, ys = [t0], [y]
    records: list[EventRecord] = []
    g_prev = [ev(t0, y) for ev in events]
    while solver.status == "running":
        t, y = solver.t, ys[-1]
        solver.step()
        t_new, y_new = solver.t, solver.y.copy()
        if (
            solver.status == "failed"
            or not np.all(np.isfinite(y_new))
            or (solver.status == "running" and abs(t_new - t) < 1e-14 * max(1.0, abs(t)))
        ):
            raise OdeBlowUpError(t, y)
        hits = []
        for i, ev in enumerate(events):
            g_old, g_new = g_prev[i], ev(t_new, y_new)
            g_prev[i] = g_new
            ev_dir = getattr(ev, "direction", 0)
            if (g_old < 0.0 <= g_new and ev_dir >= 0) or (g_old > 0.0 >= g_new and ev_dir <= 0):
                dense = solver.dense_output()
                t_e = _locate_event(ev, dense, t, g_old, t_new, g_new)
                hits.append((t_e, i, y_new if t_e == t_new else dense(t_e)))
        for t_e, i, y_e in sorted(hits, key=lambda hit: abs(hit[0] - t)):
            records.append(EventRecord(i, t_e, y_e))
            if getattr(events[i], "terminal", False):
                return OdeResult(np.array(ts + [t_e]), np.stack(ys + [y_e]), records, "event")
        ts.append(t_new)
        ys.append(y_new)
    return OdeResult(np.array(ts), np.stack(ys), records, "completed")


def _locate_event(ev, dense, t_a, g_a, t_b, g_b) -> float:
    """Root of ``ev`` along the dense output of one step, to 1e-12 in time.
    The bracket ends use the accepted states' values, so brentq sees the
    same signs that detected the crossing."""
    def g(s):
        return g_a if s == t_a else g_b if s == t_b else ev(s, dense(s))

    return brentq(g, min(t_a, t_b), max(t_a, t_b), xtol=1e-12)


# ---------------------------------------------------------------------------
# Symmetric tridiagonal eigenproblems (LAPACK bisection)
# ---------------------------------------------------------------------------

@dataclass
class Spectrum:
    """Descending eigenvalue list of a discretized self-adjoint operator."""

    eigenvalues: np.ndarray
    operator_tag: str = "generic"


def eig_tridiag_symmetric(
    diag: Sequence[float],
    offdiag: Sequence[float],
    k_largest: int,
    operator_tag: str = "generic",
) -> Spectrum:
    """The ``k_largest`` largest eigenvalues of the symmetric tridiagonal
    matrix (diag, offdiag), in descending order, by LAPACK bisection via
    ``scipy.linalg.eigh_tridiagonal``."""
    a = np.asarray(diag, dtype=float)
    b = np.asarray(offdiag, dtype=float)
    n = a.size
    if b.size != n - 1:
        raise ValueError("offdiag length must be diag length - 1")
    if not (1 <= k_largest <= n):
        raise ValueError("k_largest must lie in [1, matrix size]")
    vals = eigh_tridiagonal(
        a, b, eigvals_only=True, select="i", select_range=(n - k_largest, n - 1)
    )
    return Spectrum(vals[::-1].copy(), operator_tag)


def tridiag_eigenvector(
    diag: np.ndarray, offdiag: np.ndarray, eigenvalue: float
) -> np.ndarray:
    """Unit eigenvector of the eigenvalue nearest ``eigenvalue``, searched
    within 1e-8 times the entry scale of it (LAPACK bisection and inverse
    iteration via ``scipy.linalg.eigh_tridiagonal``)."""
    a = np.asarray(diag, dtype=float)
    b = np.asarray(offdiag, dtype=float)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b), initial=0.0), 1e-30)
    width = 1e-8 * scale
    vals, vecs = eigh_tridiagonal(
        a, b, select="v", select_range=(eigenvalue - width, eigenvalue + width)
    )
    if vals.size == 0:
        raise ValueError(f"no eigenvalue within {width:.3g} of {eigenvalue!r}")
    return vecs[:, int(np.argmin(np.abs(vals - eigenvalue)))]
