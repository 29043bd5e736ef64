"""Slow passage through the fold of the projectivized front dynamics.

On the invariant plane u = 0 the front's linear-subspace dynamics reduce to

    z' = -z^2 - theta,
    theta' = eps (1 - (theta + c^2/4)^2),

whose critical manifold z = +-sqrt(-theta) folds at theta = 0.  A trajectory
started on the attracting branch tracks it past the fold and departs only
after a delay: it crosses the section z = -delta at

    theta_a(eps) = Omega0 (1 - c^4/16)^{2/3} eps^{2/3} + O(eps log eps),

with Omega0 the first zero of Ai(-z); ``fit_delay_scaling`` takes this
prefactor from ``travelingwave.delay_prefactor``, the front law's own.  Near the departure the trajectory
follows the logarithmic derivative of an Airy function, so the section at
finite delta samples the blow-up early by (1 - c^4/16) eps / delta exactly
to leading order; ``theta_fold`` removes that known offset and is the right
estimator when fitting the delay law (the raw section reading is biased by
tens of percent at eps ~ 1e-3).
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
    "FoldPassageError",
    "run_fold_passage",
    "check_passage",
    "check_fit_sweep",
    "fit_delay_scaling",
]


class FoldPassageError(RuntimeError):
    pass


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
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError(f"ramp rate must lie in (0, 1e-2], got {epsilon:g}")
    if not (0.0 < delta <= 0.5):
        raise ValueError("section offset must lie in (0, 0.5]")


def run_fold_passage(c: float, epsilon: float, delta: float = 0.25) -> FoldDelayRecord:
    """Integrate the slow-passage system from the attracting slow manifold
    at theta0 = -1/4 and record theta at the section z = -delta.

    The initial z carries the first-order slow-manifold correction
    eps*g(theta0)/(4|theta0|) so the measurement starts transient-free.  The
    integration runs in z itself: with delta <= 1/2 the section is reached
    before the fast fall would need compactifying.
    """
    check_passage(c, epsilon, delta)
    mu_c = c * c / 4.0
    theta_cap = 1.0 - mu_c

    def g(theta):
        return 1.0 - (theta + mu_c) ** 2

    theta0 = -0.25
    z0 = math.sqrt(-theta0) + epsilon * g(theta0) / (4.0 * (-theta0))

    def field(t, y):
        z, theta = y
        return np.array([-z * z - theta, epsilon * g(theta)])

    section = lambda t, y: y[0] + delta
    section.terminal = True
    section.direction = -1
    # stiff: near the fold the fast rate 2 sqrt(-theta) stays O(1) while theta
    # drifts at rate eps, so explicit steps are bounded by stability, not
    # accuracy (LSODA: 715 steps at eps = 1e-5, explicit RK4(5): 11 485)
    res = integrate_ode(
        field,
        [z0, theta0],
        (0.0, 20.0 / epsilon),
        rtol=1e-10,
        atol=1e-13,
        events=[section],
        stiff=True,
    )
    if res.status != "event":
        theta_last = res.y[-1, 1]
        raise FoldPassageError(
            f"section z = -{delta} not reached before theta = {theta_last:.4f} "
            f"(cap {theta_cap:.4f})"
        )
    return FoldDelayRecord(
        c=c, epsilon=epsilon, theta_exit=float(res.events[0].y[1]), delta=delta
    )


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
