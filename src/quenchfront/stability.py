"""Spectral stability of the computed fronts.

The linearization about a front u* in the comoving frame,

    L0 u = u'' - c u' + (mu - 3 u*^2) u,

is conjugate to the self-adjoint operator

    Lc u = e^{-c zeta/2} L0 e^{c zeta/2} u = u'' + (mu - c^2/4 - 3 u*^2) u,

which is the computational object here: a symmetric tridiagonal
discretization on a uniform resampling of the front domain with Dirichlet
truncation.  Negativity of its leading eigenvalues (there is no translation
zero mode, the ramp pins the front) gives exponential attractivity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .solvercore import Spectrum, eig_tridiag_symmetric
from .travelingwave import FrontSolution

__all__ = [
    "LcOperator",
    "build_Lc",
    "operator_from_potential",
    "leading_eigenvalues",
    "essential_spectrum_edges",
]

log = logging.getLogger(__name__)


@dataclass
class LcOperator:
    """Symmetric tridiagonal discretization of Lc (interior nodes only)."""

    grid: np.ndarray  # interior nodes of the uniform resampling
    h: float
    diag: np.ndarray
    offdiag: np.ndarray
    q: np.ndarray  # potential mu - c^2/4 - 3 u*^2 at interior nodes
    c: float
    window_length: float
    operator_tag: str = "Lc"

    @property
    def n(self) -> int:
        return self.diag.size


def operator_from_potential(grid: np.ndarray, q: np.ndarray, c: float = 0.0) -> LcOperator:
    """Dirichlet discretization of u'' + q u on a uniform grid (the grid
    carries the interior nodes; spacing from the first two)."""
    grid = np.asarray(grid, dtype=float)
    h = float(grid[1] - grid[0])
    diag = -2.0 / h**2 + np.asarray(q, dtype=float)
    off = np.full(grid.size - 1, 1.0 / h**2)
    return LcOperator(
        grid=grid,
        h=h,
        diag=diag,
        offdiag=off,
        q=np.asarray(q, dtype=float),
        c=c,
        window_length=float(grid[-1] - grid[0]) + 2.0 * h,
    )


def build_Lc(front: FrontSolution, h: float = 0.25) -> LcOperator:
    """Resample the front onto a uniform grid (cubic interpolation of u*,
    closed-form ramp) and assemble the symmetric tridiagonal Lc with
    Dirichlet truncation at the front domain's ends."""
    if not front.report.converged:
        raise ValueError("spectral assembly requires a converged front")
    zeta = front.mesh.nodes
    n = max(int(round((zeta[-1] - zeta[0]) / h)) + 1, 16)
    grid = np.linspace(zeta[0], zeta[-1], n)
    u_star = CubicSpline(zeta, front.u)(grid)
    mu = front.params.mu_of_zeta(grid)
    c = front.params.c
    q = mu - c * c / 4.0 - 3.0 * u_star**2
    inner = slice(1, -1)
    op = operator_from_potential(grid[inner], q[inner], c=c)
    op.window_length = float(zeta[-1] - zeta[0])
    log.info(
        "Lc assembled: window length %.1f, %d interior nodes, h = %.3g",
        op.window_length,
        op.n,
        op.h,
    )
    return op


def leading_eigenvalues(op: LcOperator, k: int) -> Spectrum:
    """The k largest eigenvalues of the discretized operator (descending),
    by LAPACK bisection via ``scipy.linalg.eigh_tridiagonal``."""
    if k < 1:
        raise ValueError("need at least one eigenvalue")
    return eig_tridiag_symmetric(op.diag, op.offdiag, k, operator_tag=op.operator_tag)


def essential_spectrum_edges(c: float) -> tuple[float, float]:
    """Real-part suprema of the frozen-coefficient symbols at the two ends
    of the front: the wake edge (mu -> 1, u* -> 1) gives
    sup_k(-k^2 + 1 - 3) = -2; the leading edge in the symmetrized frame
    (mu -> -1, u* -> 0) gives -1 - c^2/4.  Both stay negative for c in
    [0, 2)."""
    return -2.0, -1.0 - c * c / 4.0
