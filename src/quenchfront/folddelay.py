"""Slow passage through the fold of the projectivized front dynamics.

On the invariant plane u = 0 the front's linear-subspace dynamics reduce to

    z' = -z^2 - theta,
    theta' = eps (1 - (theta + c^2/4)^2),

whose critical manifold z = +-sqrt(-theta) folds at theta = 0.  A trajectory
started on the attracting branch tracks it past the fold and departs only
after a delay: it crosses the section z = -delta at

    theta_a(eps) = Omega0 (1 - c^4/16)^{2/3} eps^{2/3} + R(eps),

with Omega0 the first zero of Ai(-z); ``fit_delay_scaling`` takes this
prefactor from ``travelingwave.delay_prefactor``, the front law's own.  The
remainder R is quoted as the bound O(eps log eps).  Near the departure the
trajectory follows the logarithmic derivative of an Airy function, so the
section at finite delta samples the blow-up early by (1 - c^4/16) eps / delta
exactly to leading order; ``theta_fold`` removes that known offset and is
the right estimator when fitting the delay law (the raw section reading is
biased by tens of percent at eps ~ 1e-3).  What remains is small: at
eps = 1e-6 and delta = 0.25, (theta_fold - law)/eps measures 0.001, -0.011
and -0.023 for c = 0.6, 1.2 and 1.8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solvercore import integrate_ode
from .travelingwave import delay_prefactor

__all__ = [
    "FoldDelayRecord",
    "DelayFit",
    "run_fold_passage",
    "check_passage",
    "check_fit_sweep",
    "fit_delay_scaling",
]


@dataclass(frozen=True)
class FoldDelayRecord:
    """One fold passage: the raw section reading and its context."""

    c: float
    epsilon: float
    theta_exit: float
    delta: float
    # never set by the passage; kept so five-field positional records build
    compact_chart_used: bool = False

    @property
    def theta_fold(self) -> float:
        """Section reading with the finite-delta sampling offset removed."""
        return self.theta_exit + (1.0 - self.c**4 / 16.0) * self.epsilon / self.delta


@dataclass(frozen=True)
class DelayFit:
    exponent: float
    prefactor: float
    reference_prefactor: float


def check_passage(c: float, epsilon: float, delta: float) -> None:
    """Raise ``ValueError`` unless (c, epsilon, delta) lie in the ranges
    :func:`run_fold_passage` accepts."""
    if not (0.0 < c < 2.0):
        raise ValueError("speed must lie in (0, 2)")
    # below about 1e-13 the passage's first step underflows at the start
    if not (1e-12 <= epsilon <= 1e-2):
        raise ValueError(f"ramp rate must lie in [1e-12, 1e-2], got {epsilon:g}")
    # near c = 2 the first leg's first step fails too: LSODA's corrector does
    # not converge at z0 and no step is taken.  Measured boundary in
    # eps (1 - c^4/16): 3.9e-15 at 1 - c^4/16 = 3e-3, falling to 2e-17 at
    # 1e-6; 1e-14 refuses every failing start with a 2.5x margin
    if epsilon * (1.0 - c**4 / 16.0) < 1e-14:
        raise ValueError(
            f"eps (1 - c^4/16) must be >= 1e-14, got {epsilon * (1.0 - c**4 / 16.0):.3g} "
            f"at c = {c!r}, eps = {epsilon:g}: the passage cannot start that close to c = 2"
        )
    if not (0.0 < delta <= 0.5):
        raise ValueError("section offset must lie in (0, 0.5]")


def run_fold_passage(c: float, epsilon: float, delta: float = 0.25) -> FoldDelayRecord:
    """Follow the trajectory from the attracting slow manifold at
    theta0 = -1/4 to the section z = -delta and record theta there.

    The initial z carries the first-order slow-manifold correction
    eps*g(theta0)/(4|theta0|) so the measurement starts transient-free.  z
    decreases monotonically, so the passage is integrated along z and the
    section is the end of the range, in two legs, each one compiled LSODA
    call (stiff: in z the slow manifold attracts at rate 4z^2/(eps g)).
    From z0 down to 0 the unknown is s = (z^2 + theta)/eps, with
    ds/dz = (2z - g(eps s - z^2)/s)/eps, since theta(z) has a pole at
    theta = -z^2, only about eps (1 - c^4/16)/(2z) from the branch.  From 0
    down to -delta it is theta, from eps s(0), with
    dtheta/dz = eps g(theta)/(-z^2 - theta); z^2 + theta stays positive
    while g > 0, so z always reaches -delta.  Both legs use rtol 1e-10 and
    atol 1e-10 of the delay law's theta.  The only failure is an ODE
    failure raised as ``OdeBlowUpError``; in the ranges :func:`check_passage`
    accepts it has been seen only within 2e-4 of c = 2 near eps = 3e-10,
    where LSODA stays on its nonstiff method and runs out of steps.
    """
    check_passage(c, epsilon, delta)
    mu_c = c * c / 4.0

    def g(theta):
        return 1.0 - (theta + mu_c) ** 2

    def near(z, y):  # y = [s]
        return np.array([(2.0 * z - g(epsilon * y[0] - z * z) / y[0]) / epsilon])

    def past(z, y):  # y = [theta]
        return np.array([epsilon * g(y[0]) / (-z * z - y[0])])

    theta0 = -0.25
    root, dz = math.sqrt(-theta0), epsilon * g(theta0) / (4.0 * (-theta0))
    z0 = root + dz
    s0 = dz * (2.0 * root + dz) / epsilon  # (z0^2 + theta0)/eps, no cancellation
    atol = 1e-10 * delay_prefactor(c) * epsilon ** (2.0 / 3.0)
    s_leg = integrate_ode(near, [s0], (z0, 0.0), rtol=1e-10, atol=atol / epsilon, stiff=True)
    theta1 = epsilon * s_leg.y[-1, 0]
    theta_leg = integrate_ode(past, [theta1], (0.0, -delta), rtol=1e-10, atol=atol, stiff=True)
    return FoldDelayRecord(c, epsilon, float(theta_leg.y[-1, 0]), delta)


def check_fit_sweep(eps: Sequence[float]) -> None:
    """Raise ``ValueError`` unless the eps values can carry a delay fit: at
    least five of them, spanning >= 1.5 decades."""
    eps = np.asarray(eps, dtype=float)
    if eps.size < 5:
        raise ValueError("need at least five eps values")
    if eps.max() / eps.min() < 10.0**1.5 * (1.0 - 1e-12):
        raise ValueError("eps values must span at least 1.5 decades")


def fit_delay_scaling(records: Sequence[FoldDelayRecord]) -> DelayFit:
    """Least-squares fit of log(theta_fold) against log(eps).

    The fit uses ``theta_fold`` (section offset removed): the raw section
    readings are biased low by (1-c^4/16) eps/delta, which drags the fitted
    prefactor well outside the delay law at moderate eps.  Requires at least
    five records at a common speed spanning >= 1.5 decades.
    """
    eps = np.array([r.epsilon for r in records])
    check_fit_sweep(eps)
    if len({r.c for r in records}) != 1:
        raise ValueError("records must share a common speed")
    theta = np.array([r.theta_fold for r in records])
    slope, intercept = np.polyfit(np.log(eps), np.log(theta), 1)
    return DelayFit(
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
        reference_prefactor=delay_prefactor(records[0].c),
    )
