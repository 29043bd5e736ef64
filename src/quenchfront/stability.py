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

from dataclasses import dataclass

import numpy as np

from .solvercore import Spectrum, eig_tridiag_symmetric
from .travelingwave import FrontSolution

__all__ = [
    "LcOperator",
    "build_Lc",
    "operator_from_potential",
    "leading_eigenvalues",
]


@dataclass
class LcOperator:
    """Symmetric tridiagonal discretization of Lc (interior nodes only)."""

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size


def operator_from_potential(grid: np.ndarray, q: np.ndarray) -> LcOperator:
    """Dirichlet discretization of u'' + q u on a uniform grid (the grid
    carries the interior nodes; spacing from the first two)."""
    grid = np.asarray(grid, dtype=float)
    h = float(grid[1] - grid[0])
    diag = -2.0 / h**2 + np.asarray(q, dtype=float)
    off = np.full(grid.size - 1, 1.0 / h**2)
    return LcOperator(diag=diag, offdiag=off)


def build_Lc(front: FrontSolution, h: float = 0.25) -> LcOperator:
    """Resample the front onto a uniform grid (cubic interpolation of u*,
    closed-form ramp) and assemble the symmetric tridiagonal Lc with
    Dirichlet truncation at the front domain's ends."""
    # imported here, not at module level: the front and pde commands never
    # resample, and scipy.interpolate adds ~0.24 s to their import
    from scipy.interpolate import CubicSpline

    if not front.report.converged:
        raise ValueError("spectral assembly requires a converged front")
    zeta = front.mesh.nodes
    n = max(int(round((zeta[-1] - zeta[0]) / h)) + 1, 16)
    grid = np.linspace(zeta[0], zeta[-1], n)
    u_star = CubicSpline(zeta, front.u)(grid)
    mu = front.params.mu_of_zeta(grid)
    c = front.params.c
    q = mu - c * c / 4.0 - 3.0 * u_star**2
    return operator_from_potential(grid[1:-1], q[1:-1])


def leading_eigenvalues(op: LcOperator, k: int) -> Spectrum:
    """The k largest eigenvalues of the discretized operator (descending),
    by LAPACK bisection via ``scipy.linalg.eigh_tridiagonal``."""
    if k < 1:
        raise ValueError("need at least one eigenvalue")
    return eig_tridiag_symmetric(op.diag, op.offdiag, k)

