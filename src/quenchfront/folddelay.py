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
from .travelingwave import delay_prefactor, predicted_delay

__all__ = [
    "FoldDelayRecord",
    "DelayFit",
    "run_fold_passage",
    "check_passage",
    "check_fit_sweep",
    "fit_delay_scaling",
]


_START_SCALE = 3.0  # K, the passage's start in units of (eps g0)^{1/3}


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
    """Raise ``ValueError`` unless 0 < c < 2, 0 < eps <= 1e-2, 0 < delta <= 0.5
    and the law's interface mu_fr = c^2/4 + theta lies below 1: the slow flow
    stops where g = 0, at theta = 1 - c^2/4, so a law delay past it is never
    reached."""
    if not (0.0 < c < 2.0):
        raise ValueError("speed must lie in (0, 2)")
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError(f"ramp rate must lie in (0, 1e-2], got {epsilon:g}")
    mu_fr = predicted_delay(c, epsilon)
    if mu_fr >= 1.0:
        raise ValueError(
            f"predicted interface mu_fr = {mu_fr:.8f} >= 1 at c = {c!r}, eps = {epsilon:g}: "
            "the slow flow stops at theta = 1 - c^2/4, short of the law's delay"
        )
    if not (0.0 < delta <= 0.5):
        raise ValueError("section offset must lie in (0, 0.5]")


def run_fold_passage(c: float, epsilon: float, delta: float = 0.25) -> FoldDelayRecord:
    """Follow the trajectory from the attracting slow manifold to the
    section z = -delta and record theta there.

    It starts at the fold's blow-up scale, z1 = min(1/2, K (eps g0)^{1/3} +
    2 K^3 eps), g0 = 1 - c^4/16, K = ``_START_SCALE`` = 3, on the first-order
    slow manifold z0 = z1 + eps g(theta0)/(4|theta0|), theta0 = -z1^2.  K is
    derived: a start error across the manifold is damped by e^{-A},
    A = int_0^{z1} 4z^2/(eps g(-z^2)) dz >= (4/3) z1^3/(eps (g0 + 2 z1^2)),
    as g(-z^2) = g0 + (c^2/2) z^2 - z^4 <= g0 + 2 z1^2 on [0, z1]; z1 obeys
    z1^3 >= K^3 eps (g0 + 2 z1^2), so A >= (4/3) K^3 = 36 and the start is
    exact to e^{-36} ~ 2e-16.  The attraction is bounded, so the step count
    does not grow as eps falls.  z decreases, so the passage runs along z
    in two legs, one compiled (stiff) LSODA call each: to z = 0 on
    s = (z^2 + theta)/eps, ds/dz = (2z - g(eps s - z^2)/s)/eps, as theta(z)
    has a pole at theta = -z^2, about eps g0/(2z) from the branch; then to
    -delta on theta, from eps s(0), dtheta/dz = eps g(theta)/(-z^2 - theta);
    dz and this field are grouped so that no product rounds on the
    subnormal grid at tiny eps.  z^2 + theta stays positive while g > 0, so
    z always reaches -delta.  Both legs use rtol 1e-10 and atol 1e-10 of the
    law's theta.  The only failure is an ``OdeBlowUpError``, unseen in the
    accepted ranges.
    """
    check_passage(c, epsilon, delta)
    mu_c = c * c / 4.0

    def g(theta):
        return 1.0 - (theta + mu_c) ** 2

    # both fields read y's one entry as a Python float and return a list:
    # LSODA calls them once per step, where numpy scalar arithmetic and an
    # array per call cost more than the field itself
    def near(z, y):  # y = [s]
        s = y.item()
        return [(2.0 * z - g(epsilon * s - z * z) / s) / epsilon]

    def past(z, y):  # y = [theta]
        theta = y.item()
        return [g(theta) * (epsilon / (-z * z - theta))]

    k, g0 = _START_SCALE, 1.0 - c**4 / 16.0
    root = min(0.5, k * epsilon ** (1 / 3) * g0 ** (1 / 3) + 2.0 * k**3 * epsilon)
    dz = epsilon * (g(-root * root) / (4.0 * root * root))
    s0 = dz * (2.0 * root + dz) / epsilon  # (z0^2 + theta0)/eps, no cancellation
    atol = 1e-10 * delay_prefactor(c) * epsilon ** (2.0 / 3.0)
    s_leg = integrate_ode(near, [s0], (root + dz, 0.0), rtol=1e-10, atol=atol / epsilon, stiff=True)
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
