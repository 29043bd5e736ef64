"""Tests for the Airy pair and the Omega0 constant.

Expected values are frozen from independent oracles: exact-rational
Maclaurin sums (fractions), the classical reflection identity
Gamma(1/3)Gamma(2/3) = 2 pi / sqrt(3), the ascending Bessel series
evaluated with math.gamma, and 30-digit mpmath values of Ai and Ai'.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from quenchfront import specfun

GAMMA_23_IDENTITY = 1.3541179394264005

# (x, Ai(x), Ai'(x)) from mpmath 1.3.0 airyai at 30 digits, rounded to 17.
MPMATH_AIRY = [
    (-18.0, 2.7120454080441422e-1, -1.5903891520496802e-1),
    (-9.5, 3.191032477191282e-1, -1.0809531881187124e-1),
    (-6.0, -3.2914517362982311e-1, 3.4593548728134289e-1),
    (-2.0, 2.2740742820168558e-1, 6.1825902074169104e-1),
    (0.3, 2.7880648195500492e-1, -2.451463642190548e-1),
    (2.0, 3.4924130423274379e-2, -5.3090384433653632e-2),
    (4.2, 6.2749586830916337e-4, -1.3210006638876866e-3),
    (5.5, 3.3685311908599814e-5, -8.0463391305565143e-5),
    (7.0, 7.4921288639971671e-7, -2.008150894738792e-6),
    (10.0, 1.1047532552898686e-10, -3.5206336767389236e-10),
    (16.0, 4.1568888289170244e-20, -1.669188676838181e-19),
    (20.0, 1.6916728686705403e-27, -7.586391625748355e-27),
]


def maclaurin_fg_rational(x_num, x_den, terms=30):
    """Exact-rational Maclaurin sums of the two Airy series solutions
    f = 1 + x^3/6 + ... and g = x + x^4/12 + ... at x = x_num/x_den."""
    x = Fraction(x_num, x_den)
    x3 = x**3
    f, tf = Fraction(1), Fraction(1)
    g, tg = x, x
    for k in range(terms):
        tf *= x3 / ((3 * k + 2) * (3 * k + 3))
        tg *= x3 / ((3 * k + 3) * (3 * k + 4))
        f += tf
        g += tg
    return f, g


def bessel_series_oracle(nu, x, terms=60):
    """Ascending series sum_k (-1)^k (x/2)^{2k+nu} / (k! Gamma(k+1+nu))."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * (0.5 * x) ** (2 * k + nu) / (
            math.factorial(k) * math.gamma(k + 1 + nu)
        )
    return total


class TestAiry:
    def test_value_at_zero(self):
        # 1/(3^{2/3} Gamma(2/3)) = 0.355028...
        exact = 1.0 / (3.0 ** (2.0 / 3.0) * GAMMA_23_IDENTITY)
        pair = specfun.airy(0.0)
        assert pair.value == pytest.approx(0.3550280538, abs=1e-9)
        assert abs(pair.value - exact) < 1e-12

    def test_derivative_at_zero(self):
        # -3^{-1/3} / Gamma(1/3), with Gamma(1/3) = 2 pi 3^{-1/2} / Gamma(2/3).
        gamma_13 = 2.0 * math.pi / (math.sqrt(3.0) * GAMMA_23_IDENTITY)
        exact = -1.0 / (3.0 ** (1.0 / 3.0) * gamma_13)
        pair = specfun.airy(0.0)
        assert pair.derivative == pytest.approx(-0.2588194038, abs=1e-9)
        assert abs(pair.derivative - exact) < 1e-12

    def test_value_at_one_rational_series(self):
        f1, g1 = maclaurin_fg_rational(1, 1)
        expected = 0.35502805388781724 * float(f1) - 0.25881940379280680 * float(g1)
        assert expected == pytest.approx(0.1352924163, abs=1e-9)
        assert specfun.airy(1.0).value == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("x, ai_ref, aip_ref", MPMATH_AIRY, ids=[str(r[0]) for r in MPMATH_AIRY])
    def test_against_scipy(self, x, ai_ref, aip_ref):
        # specfun.airy hands scipy's (Ai, Ai') through unchanged, and both
        # meet the frozen 30-digit mpmath values.
        ai, aip, _, _ = scipy.special.airy(x)
        pair = specfun.airy(x)
        assert pair.value == ai and pair.derivative == aip
        env = 1.0 / (math.sqrt(math.pi) * abs(x) ** 0.25) if x < 0 else 0.0
        envp = abs(x) ** 0.25 / math.sqrt(math.pi) if x < 0 else 0.0
        assert abs(pair.value - ai_ref) <= 1e-13 * max(abs(ai_ref), env)
        assert abs(pair.derivative - aip_ref) <= 1e-13 * max(abs(aip_ref), envp)

    def test_array_matches_scalar_calls(self):
        xs = np.linspace(-20.0, 20.0, 257)
        pair = specfun.airy(xs)
        assert pair.value.shape == pair.derivative.shape == xs.shape
        for x, ai, aip in zip(xs, pair.value, pair.derivative):
            scalar = specfun.airy(x)
            assert isinstance(scalar.value, float)
            assert scalar.value == ai and scalar.derivative == aip

    def test_monotone_decay_nonnegative_axis(self):
        xs = np.linspace(0.0, 20.0, 401)
        vals = np.array([specfun.airy(x).value for x in xs])
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] > 0.0

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_wronskian(self, x):
        # Ai Bi' - Ai' Bi = 1/pi, with Bi from scipy.special in the test.
        a = specfun.airy(x)
        _, _, bi, bip = scipy.special.airy(x)
        w = a.value * bip - a.derivative * bi
        assert abs(w - 1.0 / math.pi) < 1e-9

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            specfun.airy(float("nan"))
        with pytest.raises(ValueError):
            specfun.airy(np.array([0.0, float("inf")]))


class TestBesselThird:
    def test_series_oracle_values(self):
        # Frozen from the ascending-series oracle; the Bessel combination
        # that omega0 roots must reproduce their sum at t = 2 z^{3/2}/3 = 1.
        assert bessel_series_oracle(-1.0 / 3.0, 1.0) == pytest.approx(0.6068875050, abs=1e-9)
        assert bessel_series_oracle(+1.0 / 3.0, 1.0) == pytest.approx(0.7308764022, abs=1e-9)
        z = 1.5 ** (2.0 / 3.0)
        assert specfun._bessel_combination(z) == pytest.approx(
            0.6068875050465293 + 0.7308764021694480, rel=1e-11
        )

    def test_root_relation_at_omega0(self):
        # At the root, J_{+1/3} = -J_{-1/3} by definition of the combination.
        t = (2.0 / 3.0) * specfun.omega0().value ** 1.5
        assert scipy.special.jv(1.0 / 3.0, t) == pytest.approx(
            -scipy.special.jv(-1.0 / 3.0, t), abs=1e-9
        )


class TestOmega0:
    def test_value(self):
        o = specfun.omega0()
        assert o.value == pytest.approx(2.338107, abs=5e-7)
        assert 2.3 < o.value < 2.4
        assert o.residual < 1e-10

    def test_airy_zero_consistency(self):
        # Ai(-z) = (sqrt(z)/3) [J_{1/3} + J_{-1/3}](2 z^{3/2} / 3), so the
        # combination root is the first zero of Ai on the negative axis.
        o = specfun.omega0()
        assert abs(specfun.airy(-o.value).value) < 1e-8

    def test_sign_change_bracket(self):
        o = specfun.omega0()

        def combination(z):
            t = (2.0 / 3.0) * z**1.5
            return scipy.special.jv(-1.0 / 3.0, t) + scipy.special.jv(1.0 / 3.0, t)

        assert combination(o.value - 1e-6) * combination(o.value + 1e-6) < 0.0

    def test_stored_root_is_the_brentq_root(self):
        # the stored double is exactly what the root finder returns, and
        # within rounding of scipy's Airy zero (3.6e-15 away, not equal)
        o = specfun.omega0()
        assert o.value == brentq(specfun._bessel_combination, 2.0, 3.0, xtol=1e-15)
        assert abs(o.value - -scipy.special.ai_zeros(1)[0][0]) < 1e-14
        assert o.residual == abs(specfun._bessel_combination(o.value))
