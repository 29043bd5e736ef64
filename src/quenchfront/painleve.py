"""The Hastings-McLeod connection problem for w'' = eta w + 2 w^3.

The target solution is the unique positive monotone solution decaying like
Ai(eta) as eta -> +inf and growing like sqrt(-eta/2) as eta -> -inf.  It is
a separatrix (unstable to shooting from either side), so the primary method
is a global Newton solve of the truncated BVP with asymptotic closures:

* right end: Airy-decay Robin condition  w'/w = Ai'(L+)/Ai(L+),
* left end:  two terms of the large-negative expansion
  w = sqrt(L/2) (1 - 1/(8 L^3) - 73/(128 L^6)).

Shooting is used only to classify the k Ai(eta)-tail family (oscillatory
decay vs finite-time pole on either side of the separatrix) and to
cross-validate the BVP solution.

The module also certifies, with first-order Lipschitz cell margins, the
positivity of the linearization potential V = eta + 6 w^2, the lower bound
w > sqrt(-eta/6) on eta <= 0, and the negativity of the ground state of
d^2/d eta^2 - V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solvercore import (
    Mesh,
    NewtonReport,
    SolveError,
    Spectrum,
    eig_tridiag_symmetric,
    integrate_ode,
    solve_bvp,
)
from .specfun import airy
from .stability import resampled_operator

__all__ = [
    "HMSolution",
    "PotentialCertificate",
    "TailClassification",
    "CertificateError",
    "solve_hastings_mcleod",
    "classify_airy_tail",
    "certify_potential_positive",
    "certify_lower_bound",
    "linearization_ground_state",
    "left_boundary_value",
]


class CertificateError(RuntimeError):
    def __init__(self, message: str, location: float | None = None):
        super().__init__(message)
        self.location = location


@dataclass
class HMSolution:
    """Discrete connection profile with its derivative and BC residuals."""

    mesh: Mesh
    w: np.ndarray
    wprime: np.ndarray
    report: NewtonReport
    boundary_residuals: tuple[float, float]

    @property
    def eta(self) -> np.ndarray:
        return self.mesh.nodes


@dataclass(frozen=True)
class PotentialCertificate:
    """Nodewise minimum of V = eta + 6 w^2 with a Lipschitz cell margin."""

    min_value: float
    argmin: float
    margin_bound: float


@dataclass(frozen=True)
class TailClassification:
    kind: str  # "oscillatory-decay" | "pole" | "separatrix"
    pole_position: float | None = None


def left_boundary_value(l_minus: float) -> float:
    """Two-term tail expansion sqrt(L/2)(1 - 1/(8L^3) - 73/(128L^6))."""
    return math.sqrt(l_minus / 2.0) * (
        1.0 - 1.0 / (8.0 * l_minus**3) - 73.0 / (128.0 * l_minus**6)
    )


def _connection_seed(eta: np.ndarray) -> np.ndarray:
    """max(sqrt(max(-eta/2, 0)), Ai(eta)), the two ends of the connection.

    Ai is at most 0.5357 (near eta = -1.019) and sqrt(-eta/2) is at least
    that for eta <= -0.574, so Ai is evaluated only on eta > -1: on an
    8001-node window it is most of the solve's cost, and on the oscillatory
    side it never wins the max.
    """
    ai = np.zeros_like(eta)
    right = eta > -1.0
    ai[right] = airy(eta[right]).value
    return np.maximum(np.sqrt(np.maximum(-eta / 2.0, 0.0)), ai)


def solve_hastings_mcleod(l_minus: float = 12.0, l_plus: float = 8.0, n: int = 8001) -> HMSolution:
    """Global Newton solve of the truncated connection problem.

    Requires a finite window with l_minus >= 8 (the dropped tail term is
    ~73/(128 L^6)) and l_plus >= 6 with Ai(l_plus) nonzero (scipy's Ai
    underflows to 0 between 103 and 103.5), and n >= 4001.
    """
    if not (math.isfinite(l_minus) and math.isfinite(l_plus)):
        raise ValueError(f"window ends must be finite, got ({l_minus}, {l_plus})")
    if l_minus < 8.0:
        raise ValueError("left window must reach at least eta = -8")
    if l_plus < 6.0:
        raise ValueError("right window must reach at least eta = +6")
    if n < 4001:
        raise ValueError("need n >= 4001")
    ai = airy(l_plus)
    if ai.value == 0.0:  # the Robin ratio Ai'/Ai would divide by zero
        raise ValueError(
            f"window ({l_minus:g}, {l_plus:g}) ends where Ai underflows: Ai({l_plus:g}) = 0"
        )
    eta = np.linspace(-l_minus, l_plus, n)
    h = eta[1] - eta[0]
    robin = ai.derivative / ai.value  # w'/w at the right end
    w_left = left_boundary_value(l_minus)
    pole_guard = 10.0 * math.sqrt(l_minus / 2.0)

    def residual(w):
        r = np.empty_like(w)
        r[0] = w[0] - w_left
        r[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2 - eta[1:-1] * w[1:-1] - 2.0 * w[1:-1] ** 3
        # w'(l_plus) as the two-point difference plus (h/2) w'' from the equation
        r[-1] = (w[-1] - w[-2]) / h + 0.5 * h * (eta[-1] * w[-1] + 2.0 * w[-1] ** 3) - robin * w[-1]
        return r

    lap = 1.0 / h**2
    diag = -2.0 * lap - eta[1:-1]

    def jacobian(w):
        ab = np.empty((3, n))
        ab[0, 2:] = ab[2, :-2] = lap
        ab[0, :2] = 0.0
        ab[1, 0] = 1.0
        ab[1, 1:-1] = diag - 6.0 * w[1:-1] ** 2
        ab[1, -1] = 1.0 / h + 0.5 * h * (eta[-1] + 6.0 * w[-1] ** 2) - robin
        ab[2, -2:] = -1.0 / h, 0.0
        return ab

    seed = _connection_seed(eta)
    # 1e-8 matches the truncation level of the two-term left closure; the
    # raw residual carries a 1/h^2 row scale, so much tighter targets sit
    # below the rounding floor at n ~ 10^4
    w, report = solve_bvp(residual, jacobian, seed, tol=1e-8)
    if np.max(np.abs(w)) > pole_guard:
        # the iterates ran off toward the pole side of the separatrix
        raise SolveError("left separatrix missed (iterate exceeded the pole guard)", report)
    if not report.converged:
        raise SolveError(
            f"connection solve failed (residual {report.final_residual_norm:.3e})", report
        )
    r = residual(w)
    return HMSolution(
        mesh=Mesh(eta),
        w=w,
        wprime=np.gradient(w, h, edge_order=2),
        report=report,
        boundary_residuals=(abs(float(r[0])), abs(float(r[-1]))),
    )


def classify_airy_tail(k: float) -> TailClassification:
    """Backward integration of the k*Ai(eta) tail family from eta = 8 to
    eta = -8.

    Solutions with a finite-time blow-up (|w| through 10^3) are classified
    as "pole" with the event position; bounded solutions tracking
    sign(k) sqrt(-eta/2) are the separatrix; the rest decay in oscillatory
    fashion.  The two non-separatrix classes sit on opposite sides of
    |k| = 1; k = 1 itself is the connection solution handled by
    :func:`solve_hastings_mcleod`.  The range is fixed: from further right
    the start k Ai(eta) falls below the absolute tolerance and the
    classes blur.  Raises ``ValueError`` for a non-finite k, and for one
    whose start |k Ai(8)| is already at or past the pole event.
    """
    if not math.isfinite(k):
        raise ValueError("tail multiplier must be finite")
    if k == 0.0:
        return TailClassification("oscillatory-decay")  # w identically zero
    ai = airy(8.0)
    y0 = np.array([k * ai.value, k * ai.derivative])
    if abs(y0[0]) >= 1e3:
        raise ValueError(
            f"tail multiplier k = {k:g} starts at |k Ai(8)| = {abs(y0[0]):.3g}, "
            "at or past the pole event |w| = 1e3"
        )

    def field(t, y):
        return np.array([y[1], t * y[0] + 2.0 * y[0] ** 3])

    blow = lambda t, y: y[0] ** 2 - 1e6
    blow.terminal = True
    res = integrate_ode(field, y0, (8.0, -8.0), rtol=1e-10, atol=1e-16, events=[blow])
    if res.status == "event":
        return TailClassification("pole", pole_position=float(res.events[0].t))
    eta = res.t
    w = res.y[:, 0]
    tail = eta <= -4.0
    if np.any(tail):
        ref = np.sign(k) * np.sqrt(-eta[tail] / 2.0)
        if np.max(np.abs(w[tail] - ref) / np.abs(ref)) < 0.2:
            return TailClassification("separatrix")
    return TailClassification("oscillatory-decay")


def _certified_cell_margins(sol: HMSolution, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell lower bounds for V = eta + 6 w^2 on the cells selected by
    ``mask`` (over left nodes), using |V'| <= 1 + 12 max|w| max|w'|."""
    eta, w, wp = sol.eta, sol.w, sol.wprime
    v = eta + 6.0 * w * w
    h = np.diff(eta)
    wmax = np.maximum(np.abs(w[:-1]), np.abs(w[1:]))
    wpmax = np.maximum(np.abs(wp[:-1]), np.abs(wp[1:]))
    lip = 1.0 + 12.0 * wmax * wpmax
    margins = np.minimum(v[:-1], v[1:]) - 0.5 * lip * h
    return margins[mask], v


def certify_potential_positive(sol: HMSolution) -> PotentialCertificate:
    """Nodewise positivity of V = eta + 6 w^2 with a Lipschitz margin on
    every cell; fails (with the minimizing location) if the margin cannot
    establish strict positivity."""
    _require_converged(sol)
    margins, v = _certified_cell_margins(sol, np.ones(sol.eta.size - 1, dtype=bool))
    i_min = int(np.argmin(v))
    cert = PotentialCertificate(
        min_value=float(v[i_min]),
        argmin=float(sol.eta[i_min]),
        margin_bound=float(np.min(margins)),
    )
    if cert.min_value <= 0.0 or cert.margin_bound <= 0.0:
        raise CertificateError(
            f"potential positivity not certified (min {cert.min_value:.3e}, "
            f"margin {cert.margin_bound:.3e} at eta = {cert.argmin:.4f})",
            location=cert.argmin,
        )
    return cert


def certify_lower_bound(sol: HMSolution) -> bool:
    """Nodewise check w > sqrt(-eta/6) on eta <= 0 (equivalently
    6 w^2 + eta > 0 there), with the same cell-margin treatment."""
    _require_converged(sol)
    left = sol.eta <= 0.0
    bound = np.sqrt(-sol.eta[left] / 6.0)
    if np.any(sol.w[left] <= bound):
        j = int(np.nonzero(sol.w[left] <= bound)[0][0])
        loc = float(sol.eta[left][j])
        raise CertificateError(f"lower bound w > sqrt(-eta/6) fails at eta = {loc:.4f}", loc)
    cell_mask = left[:-1] & left[1:]
    margins, _ = _certified_cell_margins(sol, cell_mask)
    if margins.size and float(np.min(margins)) <= 0.0:
        j = int(np.argmin(margins))
        loc = float(sol.eta[:-1][cell_mask][j])
        raise CertificateError(f"lower-bound cell margin fails near eta = {loc:.4f}", loc)
    return True


def linearization_ground_state(sol: HMSolution, n_sub: int | None = None) -> Spectrum:
    """The five largest eigenvalues of d^2/d eta^2 - (eta + 6 w^2) with
    Dirichlet truncation on a uniform sub-mesh of ``n_sub`` nodes (default
    min(n, 4001)), assembled by ``stability.resampled_operator`` (cubic
    resampling of w); the ground state must be negative."""
    _require_converged(sol)
    if n_sub is None:
        n_sub = min(sol.eta.size, 4001)
    op = resampled_operator(sol.eta, sol.w, n_sub, lambda grid, w: -(grid + 6.0 * w**2))
    spec = eig_tridiag_symmetric(op.diag, op.offdiag, 5)
    if spec.eigenvalues[0] >= 0.0:
        raise CertificateError(
            f"ground state is not negative (lambda0 = {spec.eigenvalues[0]:.3e})"
        )
    return spec


def _require_converged(sol: HMSolution):
    if not sol.report.converged:
        raise ValueError("certificates require a converged connection solution")
