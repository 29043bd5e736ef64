"""Generic numerics shared by the solver modules: 1-D meshes, damped Newton
iteration on banded discrete systems, natural-parameter continuation with a
secant predictor, an embedded Dormand-Prince 4(5) integrator with
sign-change/bisection event location, and symmetric tridiagonal
eigenvalues and eigenvectors by LAPACK bisection via
``scipy.linalg.eigh_tridiagonal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, solve_banded
from scipy.linalg.lapack import dgbtrf

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
# Embedded RK4(5) with event location
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


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


def _rk_step(field, t, y, h):
    """One Dormand-Prince step; returns (y5, error_estimate)."""
    k = [np.asarray(field(t, y), dtype=float)]
    for i in range(1, 7):
        yi = y + h * (_DP_A[i] @ np.stack(k[: len(_DP_A[i])])) if len(_DP_A[i]) else y
        k.append(np.asarray(field(t + _DP_C[i] * h, yi), dtype=float))
    ks = np.stack(k)
    y5 = y + h * (_DP_B5 @ ks)
    err = h * ((_DP_B5 - _DP_B4) @ ks)
    return y5, err


def integrate_ode(
    field: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float = 1e-8,
    atol: float = 1e-10,
    events: Sequence[Callable[[float, np.ndarray], float]] = (),
    max_step: float = math.inf,
) -> OdeResult:
    """Adaptive Dormand-Prince 4(5) integration.

    Events are scalar functions of (t, y); a sign change over an accepted
    step is located by bisection to 1e-12 in time (state along the bisection
    evaluated with single uncontrolled RK steps from the step start).  An
    event function with a truthy ``terminal`` attribute stops integration.
    Step underflow below 1e-14 (stiffness/blow-up) raises
    :class:`OdeBlowUpError` carrying the last healthy state.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float).copy()
    f0 = np.asarray(field(t0, y), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise ValueError("vector field not finite at the initial state")
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    h = direction * min(max(1e-6 * span, 1e-10), 1e-2 * span if span else 1e-3, max_step)
    if h == 0.0:
        return OdeResult(np.array([t0]), y[None, :].copy(), [], "completed")

    ts = [t0]
    ys = [y.copy()]
    ev_records: list[EventRecord] = []
    g_prev = [ev(t0, y) for ev in events]
    t = t0
    status = "completed"
    while (t1 - t) * direction > 0.0:
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            if abs(t1 - t) <= 1e-12 * max(1.0, abs(t)):
                break  # range end reached to rounding accuracy
            raise OdeBlowUpError(t, y)
        if abs(h) > abs(t1 - t):
            h = t1 - t
        try:
            y_new, err = _rk_step(field, t, y, h)
        except (FloatingPointError, OverflowError):
            h *= 0.25
            continue
        if not np.all(np.isfinite(y_new)):
            h *= 0.25
            continue
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.max(np.abs(err) / scale))
        if err_norm <= 1.0:
            t_new = t + h
            hit = None
            for i, ev in enumerate(events):
                g_new = ev(t_new, y_new)
                g_old = g_prev[i]
                ev_dir = getattr(ev, "direction", 0)
                crossed = (g_old < 0.0 <= g_new and ev_dir >= 0) or (
                    g_old > 0.0 >= g_new and ev_dir <= 0
                )
                if crossed:
                    t_e, y_e = _bisect_event(field, ev, t, y, t_new, y_new)
                    ev_records.append(EventRecord(i, t_e, y_e))
                    if getattr(ev, "terminal", False):
                        hit = (t_e, y_e)
                g_prev[i] = g_new
            if hit is not None:
                ts.append(hit[0])
                ys.append(hit[1])
                status = "event"
                break
            t, y = t_new, y_new
            ts.append(t)
            ys.append(y.copy())
            h *= min(5.0, max(0.2, 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0))
            h = direction * min(abs(h), max_step)
        else:
            h *= max(0.2, 0.9 * err_norm**-0.2)
    return OdeResult(np.array(ts), np.stack(ys), ev_records, status)


def _bisect_event(field, ev, t_lo, y_lo, t_hi, y_hi):
    """Bisect a bracketed event crossing to 1e-12 in time.  Trial states are
    produced by one uncontrolled RK step from the left bracket."""
    g_lo = ev(t_lo, y_lo)
    for _ in range(200):
        if abs(t_hi - t_lo) <= 1e-12:
            break
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid == t_lo or t_mid == t_hi:
            break
        y_mid, _ = _rk_step(field, t_lo, y_lo, t_mid - t_lo)
        g_mid = ev(t_mid, y_mid)
        if g_lo * g_mid <= 0.0:
            t_hi, y_hi = t_mid, y_mid
        else:
            t_lo, y_lo, g_lo = t_mid, y_mid, g_mid
    return t_hi, y_hi


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
