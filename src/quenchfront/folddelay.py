"""Slow passage through the fold of the projectivized front dynamics.

On the invariant plane u = 0 the front's linear-subspace dynamics reduce to

    z' = -z^2 - theta,
    theta' = eps (1 - (theta + c^2/4)^2),

whose critical manifold z = +-sqrt(-theta) folds at theta = 0.  A trajectory
started on the attracting branch tracks it past the fold and departs only
after a delay: it crosses the section z = -delta at

    theta_a(eps) = Omega0 (1 - c^4/16)^{2/3} eps^{2/3} + O(eps log eps),

with Omega0 the first zero of Ai(-z).  Near the departure the trajectory
follows the logarithmic derivative of an Airy function, so the section at
finite delta samples the blow-up early by (1 - c^4/16) eps / delta exactly
to leading order; ``theta_fold`` removes that known offset and is the right
estimator when fitting the delay law (the raw section reading is biased by
tens of percent at eps ~ 1e-3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .solvercore import integrate_ode
from .specfun import omega0

__all__ = [
    "FoldDelayRecord",
    "NormalFormScaling",
    "DelayFit",
    "FoldPassageError",
    "run_fold_passage",
    "normal_form_transform",
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
    compact_chart_used: bool

    @property
    def theta_fold(self) -> float:
        """Section reading with the finite-delta sampling offset removed."""
        return self.theta_exit + (1.0 - self.c**4 / 16.0) * self.epsilon / self.delta


@dataclass(frozen=True)
class NormalFormScaling:
    """Factors of the rescaling z = -a x, theta = -a^2 y, zeta = tau / a with
    a = (1 - c^4/16)^{1/3}, plus the transformed slow-fast field."""

    space_factor: float  # a
    delay_factor: float  # a^2
    time_factor: float  # 1/a
    c: float

    def field(self, epsilon: float) -> Callable[[float, np.ndarray], np.ndarray]:
        a = self.space_factor
        c2_2a = self.c**2 / (2.0 * a)

        def rhs(t, y):
            x, yy = y
            return np.array([x * x - yy, epsilon * (-1.0 - c2_2a * yy + a * yy * yy)])

        return rhs


@dataclass(frozen=True)
class DelayFit:
    exponent: float
    prefactor: float
    reference_prefactor: float


def _validate(c: float, epsilon: float, delta: float):
    if not (0.0 < c < 2.0):
        raise ValueError("speed must lie in (0, 2)")
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError("ramp rate must lie in (0, 1e-2]")
    if not (0.0 < delta <= 0.5):
        raise ValueError("section offset must lie in (0, 0.5]")


def run_fold_passage(
    c: float,
    epsilon: float,
    delta: float = 0.25,
    chart: str = "plain",
    rtol: float = 1e-10,
    atol: float = 1e-13,
    z0_offset: float = 0.0,
) -> FoldDelayRecord:
    """Integrate the slow-passage system from the attracting slow manifold
    at theta0 = -1/4 and record theta at the section z = -delta.

    The initial z carries the first-order slow-manifold correction
    eps*g(theta0)/(4|theta0|) so the measurement starts transient-free
    (``z0_offset`` perturbs it for attraction tests).  ``chart`` selects the
    integration variable: "plain" uses z directly (with delta <= 1/2
    the section is reached before the fast fall would need compactifying),
    "arctan" runs fully in s = arctan(z).
    """
    _validate(c, epsilon, delta)
    if chart not in ("plain", "arctan"):
        raise ValueError(f"unknown chart {chart!r}")
    mu_c = c * c / 4.0
    theta_cap = 1.0 - mu_c

    def g(theta):
        return 1.0 - (theta + mu_c) ** 2

    theta0 = -0.25
    z0 = math.sqrt(-theta0) + epsilon * g(theta0) / (4.0 * (-theta0)) + z0_offset
    t_end = 20.0 / epsilon
    if chart == "arctan":

        def field(t, y):
            s, theta = y
            sin, cos = math.sin(s), math.cos(s)
            return np.array([-sin * sin - theta * cos * cos, epsilon * g(theta)])

        section = lambda t, y: y[0] - math.atan(-delta)
        section.terminal = True
        section.direction = -1
        y0 = [math.atan(z0), theta0]
    else:

        def field(t, y):
            z, theta = y
            return np.array([-z * z - theta, epsilon * g(theta)])

        section = lambda t, y: y[0] + delta
        section.terminal = True
        section.direction = -1
        y0 = [z0, theta0]

    # stiff: near the fold the fast rate 2 sqrt(-theta) stays O(1) while theta
    # drifts at rate eps, so explicit steps are bounded by stability, not
    # accuracy (LSODA: 715 steps at eps = 1e-5, explicit RK4(5): 11 485)
    res = integrate_ode(
        field, y0, (0.0, t_end), rtol=rtol, atol=atol, events=[section], stiff=True
    )
    if res.status != "event":
        theta_last = res.y[-1, 1]
        raise FoldPassageError(
            f"section z = -{delta} not reached before theta = {theta_last:.4f} "
            f"(cap {theta_cap:.4f})"
        )
    theta_exit = float(res.events[0].y[1])
    return FoldDelayRecord(
        c=c,
        epsilon=epsilon,
        theta_exit=theta_exit,
        delta=delta,
        compact_chart_used=(chart == "arctan"),
    )


def normal_form_transform(c: float) -> NormalFormScaling:
    """Scaling that brings the slow-passage system to dx/dtau = x^2 - y,
    dy/dtau = eps (-1 - c^2 y /(2a) + a y^2)."""
    if not (0.0 <= c < 2.0):
        raise ValueError("speed must lie in [0, 2)")
    a = (1.0 - c**4 / 16.0) ** (1.0 / 3.0)
    return NormalFormScaling(space_factor=a, delay_factor=a * a, time_factor=1.0 / a, c=c)


def fit_delay_scaling(
    records: Sequence[FoldDelayRecord], remove_section_offset: bool = True
) -> DelayFit:
    """Least-squares fit of log(theta) against log(eps).

    By default the fit uses ``theta_fold`` (section-offset removed); the raw
    section readings are biased low by (1-c^4/16) eps/delta, which drags the
    fitted prefactor well outside the delay law at moderate eps.  Requires
    at least five records at a common speed spanning >= 1.5 decades.
    """
    if len(records) < 5:
        raise ValueError("need at least five records")
    cs = {r.c for r in records}
    if len(cs) != 1:
        raise ValueError("records must share a common speed")
    eps = np.array([r.epsilon for r in records])
    if eps.max() / eps.min() < 10.0**1.5 * (1.0 - 1e-12):
        raise ValueError("records must span at least 1.5 decades in eps")
    theta = np.array(
        [r.theta_fold if remove_section_offset else r.theta_exit for r in records]
    )
    slope, intercept = np.polyfit(np.log(eps), np.log(theta), 1)
    c = records[0].c
    return DelayFit(
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
        reference_prefactor=omega0().value * (1.0 - c**4 / 16.0) ** (2.0 / 3.0),
    )
