"""Generic numerics shared by the solver modules.

1-D meshes, graded at the one ratio 1.05 toward the domain ends.  Damped
Newton iteration on discrete two-point BVPs, each step one tridiagonal
LAPACK ``dgtsv`` solve.  Natural-parameter continuation with a secant
predictor from a start through an ordered list of stops, each landed on
exactly (a start alone is one corrector call); it returns only a completed
branch, and a failed start or a stall raises.  ODE integration by one
``scipy.integrate.solve_ivp`` call on ``DOP853``, where a terminal event
ends the run at its crossing (a non-terminal one is refused), or (stiff, no
events) by one compiled LSODA call, ``scipy.integrate.odeint``.  The largest
eigenvalues of a symmetric tridiagonal matrix by LAPACK bisection via
``scipy.linalg.eigh_tridiagonal``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

__all__ = [
    "Mesh",
    "NewtonReport",
    "BranchEntry",
    "ContinuationBranch",
    "OdeResult",
    "Spectrum",
    "SolveError",
    "JacobianSingularError",
    "OdeBlowUpError",
    "solve_bvp",
    "continue_branch",
    "integrate_ode",
    "eig_tridiag_symmetric",
]


class SolveError(RuntimeError):
    """A solver could not return its result; carries its Newton report
    where it has one."""

    def __init__(self, message: str, report: "NewtonReport | None" = None):
        super().__init__(message)
        self.report = report


class JacobianSingularError(RuntimeError):
    """The tridiagonal Newton step on ``dgtsv`` broke down; carries the
    0-based row of the exactly zero pivot.  Not a :class:`SolveError`: the
    posed system itself is degenerate, so no caller falls back to another
    solver on it."""

    def __init__(self, pivot_index: int):
        super().__init__(f"jacobian singular (pivot index {pivot_index})")
        self.pivot_index = pivot_index


class OdeBlowUpError(SolveError):
    """Step size underflow or a failed step (stiffness or finite-time
    blow-up); carries the last state the integration reached."""

    def __init__(self, t: float, y: np.ndarray):
        super().__init__(f"stiff/blow-up: step underflow at t={t!r}")
        self.t = t
        self.y = np.asarray(y).copy()


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

# ratio of adjacent spacings in the coarsening ramps of ``Mesh.graded``
_GRADING = 1.05


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

    @staticmethod
    def graded(
        a: float,
        b: float,
        focus_lo: float,
        focus_hi: float,
        h_min: float,
        h_max: float,
    ) -> "Mesh":
        """Uniform spacing ``h_min`` on [focus_lo, focus_hi], geometrically
        coarsened by ``_GRADING`` = 1.05 toward both domain ends, capped at
        ``h_max``.  Both ends must be finite and both spacings positive.

        Toward each end the k-th spacing is min(h_min 1.05^k, h_max), the
        power taken as a running product, until the running total of the
        spacings reaches the end; a step that would pass it is cut to the
        distance left."""
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"mesh ends must be finite, got [{a!r}, {b!r}]")
        if not (a <= focus_lo < focus_hi <= b):
            raise ValueError("focus interval must lie inside the domain")
        if not (h_min > 0.0 and h_max > 0.0):
            raise ValueError("mesh spacings h_min and h_max must be positive")
        core = np.arange(focus_lo, focus_hi + 0.5 * h_min, h_min)

        def ramp(start: float, limit: float, direction: float) -> np.ndarray:
            dist = (limit - start) * direction
            if dist <= 1e-12 * max(1.0, abs(limit)):
                return np.empty(0)
            # h_min 1.05^k passes min(h_max, dist) by k = grow, and each step
            # is at least min(h_min, h_max): n steps reach dist.  Past k = grow
            # the power stops growing (so never overflows): the steps there
            # are h_max, or lie beyond the end
            grow = int(math.log(max(min(h_max, dist) / h_min, 1.0)) / math.log(_GRADING)) + 2
            n = int(min(dist / min(h_min, h_max), grow + dist / h_max)) + 2
            powers = np.ones(n + 1)
            powers[0], powers[1 : grow + 1] = h_min, _GRADING
            steps = np.minimum(np.cumprod(powers)[1:], h_max)
            totals = np.cumsum(steps)
            room = dist - np.concatenate(([0.0], totals[:-1]))
            k = int(np.argmax((room < steps) | (totals >= dist * (1.0 - 1e-14))))
            hs = steps[: k + 1]
            hs[-1] = min(hs[-1], room[k])
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
# Damped Newton: each step one tridiagonal dgtsv solve
# ---------------------------------------------------------------------------

@dataclass
class NewtonReport:
    iterations: int
    final_residual_norm: float
    converged: bool
    damping_history: list[float] = field(default_factory=list)
    stop: str | None = None  # the test that ended a converged solve: "residual" or "step"


def _tridiag_solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve J x = rhs for J tridiagonal in (1, 1) band storage ``ab`` by
    LAPACK ``dgtsv``, which overwrites the rows of one contiguous copy of
    ``ab`` and a copy of ``rhs``, so both are left as they are."""
    n = ab.shape[1]
    band = np.array(ab, dtype=float, order="C")
    du, d, dl = band[0, 1:], band[1], band[2, :-1]
    b = np.array(rhs, dtype=float)
    if n == 1:
        du = dl = np.zeros(1)  # dgtsv wants length-1 off-diagonals at n = 1
    x, info = dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)[3:]
    if info > 0:
        raise JacobianSingularError(info - 1)
    return x


# solve_bvp stops on a Newton step with max |step| / (1 + |x|) at most this
_STEP_TOL = 1e-10


def solve_bvp(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    initial_guess: np.ndarray,
    tol: float,
    max_iter: int = 50,
) -> tuple[np.ndarray, NewtonReport]:
    """Damped Newton iteration for a discrete two-point BVP.

    ``jacobian`` must return the tridiagonal matrix in (1, 1) LAPACK band
    storage, the 3 x n array ``ab[1 + i - j, j] = J[i, j]``; a derivative
    boundary condition keeps its row in the band by closing it through the
    equation (two-point difference plus the ODE's second-derivative term).
    Each step is one LAPACK ``dgtsv`` solve of J step = -r, on copies of
    the band and of -r (the returned Jacobian is not overwritten); an
    exactly zero pivot raises :class:`JacobianSingularError` with its row.
    The line search halves the step until the residual sup-norm decreases,
    down to a minimum fraction 2^-10.  If no decrease is found, the trial
    with the smallest residual is taken anyway and the iteration runs on
    until ``max_iter``; if every trial's residual is non-finite, the solve
    stops unconverged at the last iterate.

    The solve converges when the residual sup-norm is at most ``tol``,
    tested before each step, or when a Newton step moves no unknown by more
    than 1e-10 (1 + |x_i|); that step is taken in full and the iteration
    stops.  The report's ``stop`` names which of the two ended the solve, so
    a step stop with a residual above ``tol`` is not mistaken for a residual
    stop.  The step test is reachable on every mesh, where the residual
    test is not: the rounding floor of a discrete second derivative grows
    like |x| / h^2.
    """
    x = np.asarray(initial_guess, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess must be finite")
    report = NewtonReport(iterations=0, final_residual_norm=math.inf, converged=False)
    r = residual(x)
    norm = float(np.max(np.abs(r)))
    for it in range(1, max_iter + 1):
        if norm <= tol:
            break
        step = _tridiag_solve(jacobian(x), -r)
        if np.max(np.abs(step) / (1.0 + np.abs(x))) <= _STEP_TOL:
            x = x + step
            norm = float(np.max(np.abs(residual(x))))
            report.converged, report.stop = True, "step"
            report.damping_history.append(1.0)
            report.iterations = it
            break
        lam = 1.0
        best = None
        while lam >= 2.0**-10:
            x_try = x + lam * step
            r_try = residual(x_try)
            n_try = float(np.max(np.abs(r_try)))
            if not math.isfinite(n_try):  # an overflowed or NaN trial
                n_try = math.inf
            if n_try < norm:
                best = (x_try, r_try, n_try, lam)
                break
            if best is None or n_try < best[2]:
                best = (x_try, r_try, n_try, lam)
            lam *= 0.5
        report.iterations = it
        if best[2] == math.inf:  # no halving has a finite residual: stop here
            break
        x, r, norm, lam_used = best
        report.damping_history.append(lam_used)
    report.final_residual_norm = norm
    if norm <= tol and report.stop is None:
        report.converged, report.stop = True, "residual"
    return x, report


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------

@dataclass
class BranchEntry:
    param: float
    solution: np.ndarray
    report: NewtonReport


@dataclass
class ContinuationBranch:
    entries: list[BranchEntry]
    step_history: list[float]


def continue_branch(
    correct: Callable[[np.ndarray, float], tuple[np.ndarray, NewtonReport]],
    start: np.ndarray,
    param_range: Sequence[float],
    step0: float,
) -> ContinuationBranch:
    """Natural-parameter continuation with a secant predictor and the
    corrector ``correct(guess, param) -> (solution, NewtonReport)``, from
    ``param_range[0]`` through each later entry in turn.

    The branch starts with one corrector call at ``param_range[0]`` from
    ``start``; a one-entry range is just that call.  The entries must run in
    one direction; every one after the first is a stop that the branch lands
    on exactly (the step to it is shortened to reach it), and the step
    length, its growth count and the secant history carry across stops.
    The step halves on corrector failure and grows by 1.3 after three
    consecutive successes.  The returned branch always reaches the last
    stop: a start that does not converge, or a step that drops below 1e-10
    (a stall), raises :class:`SolveError` carrying the failed corrector's
    report.
    """
    stops = [float(p) for p in param_range]
    direction = 1 if not stops or stops[-1] >= stops[0] else -1
    if not stops or any((b - a) * direction < 0.0 for a, b in zip(stops, stops[1:])):
        raise ValueError("param_range needs a start and stops ordered in one direction")

    p_prev = stops[0]
    x_prev, rep0 = correct(start, p_prev)
    if not rep0.converged:
        raise SolveError(f"start solution does not converge at parameter {p_prev}", rep0)
    entries = [BranchEntry(p_prev, x_prev, rep0)]
    steps: list[float] = []
    step = abs(step0)
    successes = 0
    p_prev2, x_prev2 = None, None
    for reached, stop in enumerate(stops[1:]):
        while p_prev != stop:
            h = min(step, abs(stop - p_prev))
            p_new = stop if h == abs(stop - p_prev) else p_prev + direction * h
            if p_prev2 is None or abs(p_prev - p_prev2) == 0.0:
                guess = x_prev
            else:
                frac = (p_new - p_prev) / (p_prev - p_prev2)
                guess = x_prev + frac * (x_prev - x_prev2)
            x_new, rep = correct(guess, p_new)
            if rep.converged:
                entries.append(BranchEntry(p_new, x_new, rep))
                steps.append(direction * h)
                p_prev2, x_prev2 = p_prev, x_prev
                p_prev, x_prev = p_new, x_new
                successes += 1
                if successes >= 3:
                    step *= 1.3
                    successes = 0
            else:
                successes = 0
                step = 0.5 * h
                if step < 1e-10:
                    raise SolveError(
                        f"continuation stalled at parameter {p_prev} before stop {stop}; "
                        f"{reached} of {len(stops) - 1} stops reached",
                        rep,
                    )
    return ContinuationBranch(entries, steps)


# ---------------------------------------------------------------------------
# ODE integration: one solve_ivp call on DOP853, ended by a terminal event,
# or one compiled LSODA call (odeint) when stiff
# ---------------------------------------------------------------------------

@dataclass
class OdeResult:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), dim)
    status: str  # "completed" | "event"
    steps: int  # accepted steps


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
    of order 8) through one ``scipy.integrate.solve_ivp`` call or, with
    ``stiff``, LSODA (Adams/BDF with automatic stiffness switching) through
    one ``scipy.integrate.odeint`` call.

    ``stiff`` exists because the callers need different steppers.  Slow-fast
    systems, whose explicit steps are limited by stability rather than
    accuracy, take an order of magnitude fewer steps under LSODA.  LSODA's
    error control is too loose for solutions that must shadow an unstable
    orbit over a long range, so that case stays on DOP853.  The stiff path
    runs LSODA to the range end without stepping past it (``tcrit``), so it
    takes the same steps as scipy's ``LSODA`` stepper; it returns the two
    endpoints only and takes no events (``ValueError``).

    On DOP853 the result holds every accepted step.  Events are scalar
    functions of (t, y) with a true ``terminal`` attribute, handed to
    ``solve_ivp``, which reads their optional ``direction`` (+1 rising,
    -1 falling, 0 both) and locates the sign change on the step's dense
    output; the run ends at the first crossing, which is its last point
    ``t[-1]``, ``y[-1]``, with ``status`` "event".  A non-terminal event is
    refused (``ValueError``): the result keeps no record of crossings that
    do not end the run.  ``steps`` counts the accepted steps on either path.
    :class:`OdeBlowUpError`, carrying the last state reached, is raised when
    the stepper fails (on DOP853, a step below ten spacings of the floats
    at t: stiffness or finite-time blow-up), when the end state is not
    finite, or, on LSODA, when the run ends more than 1e-14 max(1, |t1|)
    short of t1.
    """
    # imported here, not at module level: on top of the package import,
    # scipy.integrate (which loads scipy.optimize) costs 0.21-0.24 s and
    # ~19 MB peak RSS (scipy 1.17.1, 2-core Xeon), and only the fold
    # passage and the Airy-tail classifier integrate
    from scipy.integrate import solve_ivp

    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float).copy()
    if events and (stiff or not all(getattr(ev, "terminal", False) for ev in events)):
        raise ValueError("events must be terminal, and stiff integration takes no events")
    if not np.all(np.isfinite(np.asarray(field(t0, y), dtype=float))):
        raise ValueError("vector field not finite at the initial state")
    if stiff:
        return _odeint_leg(field, y, t0, t1, rtol, atol)
    sol = solve_ivp(
        field, (t0, t1), y, method="DOP853", rtol=rtol, atol=atol, events=events or None
    )
    if sol.status == -1 or not all(map(math.isfinite, sol.y[:, -1].tolist())):
        raise OdeBlowUpError(sol.t[-1], sol.y[:, -1])
    status = "event" if sol.status == 1 else "completed"
    return OdeResult(sol.t, sol.y.T, status, sol.t.size - 1)


# odeint's step cap for one stiff call.  LSODA does not stop at a finite-time
# blow-up: its step shrinks until t + h == t and the state grows on until it
# overflows (after about 9 000 steps for y' = y^2 at rtol 1e-8), so the cap
# ends such a run first; a fold-passage leg has taken at most 413.
_STIFF_MAX_STEPS = 5000


def _odeint_leg(field, y, t0, t1, rtol, atol) -> OdeResult:
    """The stiff path of :func:`integrate_ode`: one LSODA call to t1."""
    from scipy.integrate import ODEintWarning, odeint

    if t1 == t0:  # odeint would leave its counters unset
        return OdeResult(np.array([t0, t1]), np.stack([y, y]), "completed", 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ODEintWarning)
        ys, info = odeint(
            field,
            y,
            [t0, t1],
            rtol=rtol,
            atol=atol,
            tcrit=[t1],
            mxstep=_STIFF_MAX_STEPS,
            full_output=True,
            tfirst=True,
        )
    failed = False
    for w in caught:  # odeint reports a failure as an ODEintWarning
        if issubclass(w.category, ODEintWarning):
            failed = True
        else:
            warnings.warn(w.message, stacklevel=3)
    t_end = float(info["tcur"][0])
    if (
        failed
        or abs(t_end - t1) > 1e-14 * max(1.0, abs(t1))
        or not all(map(math.isfinite, ys[-1].tolist()))
    ):
        raise OdeBlowUpError(t_end, ys[-1])
    return OdeResult(np.array([t0, t1]), ys, "completed", int(info["nst"][0]))


# ---------------------------------------------------------------------------
# Symmetric tridiagonal eigenproblems (LAPACK bisection)
# ---------------------------------------------------------------------------

@dataclass
class Spectrum:
    """Descending eigenvalue list of a discretized self-adjoint operator."""

    eigenvalues: np.ndarray


def eig_tridiag_symmetric(
    diag: Sequence[float],
    offdiag: Sequence[float],
    k_largest: int,
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
    return Spectrum(vals[::-1].copy())
