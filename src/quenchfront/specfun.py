"""Airy data behind the two delay laws: the pair (Ai, Ai') from
``scipy.special.airy``, and the delay constant Omega0, the smallest positive
zero of J_{-1/3}(2z^{3/2}/3) + J_{1/3}(2z^{3/2}/3) (the first zero of
Ai(-z)).  Omega0 is stored as the double that ``brentq`` on
``scipy.special.jv`` returns in [2, 3] at ``xtol=1e-15``, so no root finder
is loaded to use it; ``tests/test_specfun.py`` re-derives it that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special

__all__ = ["AiryPair", "Omega0", "airy", "omega0"]

# brentq(_bessel_combination, 2.0, 3.0, xtol=1e-15), bit for bit;
# scipy.special.ai_zeros(1) is 3.6e-15 away (2.3381074104597674), enough to
# move a front solve that stops near its Newton tolerance
_OMEGA0 = 2.338107410459764


@dataclass(frozen=True)
class AiryPair:
    """Ai and Ai' at one point (floats) or at an array of points (arrays)."""

    value: float | np.ndarray
    derivative: float | np.ndarray


@dataclass(frozen=True)
class Omega0:
    """Smallest positive zero of J_{-1/3}(2z^{3/2}/3) + J_{1/3}(2z^{3/2}/3).

    ``residual`` is the absolute value of that Bessel combination at the
    stored root.
    """

    value: float
    residual: float


def airy(x: float | np.ndarray) -> AiryPair:
    """Airy function of the first kind, (Ai(x), Ai'(x)), elementwise."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("airy: argument must be finite")
    ai, aip, _, _ = scipy.special.airy(x)
    if x.ndim == 0:
        return AiryPair(float(ai), float(aip))
    return AiryPair(ai, aip)


def _bessel_combination(z: float) -> float:
    """J_{-1/3}(2 z^{3/2}/3) + J_{1/3}(2 z^{3/2}/3); equals 3 Ai(-z)/sqrt(z)."""
    t = (2.0 / 3.0) * z**1.5
    return float(scipy.special.jv(-1.0 / 3.0, t) + scipy.special.jv(1.0 / 3.0, t))


@lru_cache(maxsize=1)
def omega0() -> Omega0:
    """The stored root of the J_{+-1/3} combination, 2.338107...; the first
    zero of Ai(-z).  ``residual`` is the combination evaluated there."""
    return Omega0(value=_OMEGA0, residual=abs(_bessel_combination(_OMEGA0)))
