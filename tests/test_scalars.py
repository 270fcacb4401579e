"""Exact scalar ring: arithmetic closure, named constants, float bridge."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gkf.scalars import (
    PiScalar,
    alpha,
    float_of,
    float_times_exp,
    gamma_half,
    log_omega,
    omega,
)

from oracles import generalized_binomial, omega_float

PI = PiScalar.pi_power(2)
SQRT_PI = PiScalar.pi_power(1)


def random_scalar(rng: random.Random) -> PiScalar:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        m = rng.randint(-4, 4)
        r = rng.choice([1, 1, 2, 3, 5, 6])
        terms[(m, r)] = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return PiScalar(terms)


class TestRingArithmetic:
    def test_sqrt_pi_squared_is_pi(self):
        assert SQRT_PI * SQRT_PI == PI

    def test_additive_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            x = random_scalar(rng)
            assert x + PiScalar.zero() == x

    def test_like_term_collection(self):
        assert 2 * PI - PI == PI

    def test_hash_agrees_with_equality(self):
        assert len({PiScalar.one(), 1}) == 1
        assert len({PiScalar.from_rational(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert len({PiScalar.zero(), 0}) == 1
        assert len({PI, PiScalar({(2, 1): Fraction(1)}), 1}) == 2

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240817)
        for _ in range(200):
            a, b, c = (random_scalar(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_integer_powers(self):
        x = 3 * SQRT_PI * PiScalar.sqrt_int(2)
        assert x**0 == PiScalar.one()
        assert x**1 == x
        assert x**3 == x * x * x
        assert x**-1 * x == 1
        assert x**-2 == (x * x).reciprocal()
        with pytest.raises(ValueError, match="multi-term"):
            (PI + 1) ** -1

    def test_radical_normalization(self):
        # sqrt(8) = 2 sqrt(2); sqrt(2)*sqrt(6) = 2 sqrt(3); sqrt(9) = 3
        assert PiScalar.sqrt_int(8) == 2 * PiScalar.sqrt_int(2)
        assert PiScalar.sqrt_int(2) * PiScalar.sqrt_int(6) == 2 * PiScalar.sqrt_int(3)
        assert PiScalar.sqrt_int(9) == PiScalar.from_rational(3)
        assert PiScalar.sqrt_int(5) * PiScalar.sqrt_int(5) == 5

    def test_reciprocal(self):
        x = PiScalar({(3, 2): Fraction(3, 4)})
        assert x * x.reciprocal() == PiScalar.one()
        with pytest.raises(ValueError):
            (PI + 1).reciprocal()

    def test_no_zero_terms_stored(self):
        x = PI - PI
        assert x.is_zero()
        assert x.terms == ()


class TestConstants:
    def test_gamma_half_values(self):
        assert gamma_half(2) == 1  # Gamma(1)
        assert gamma_half(1) == SQRT_PI  # Gamma(1/2)
        assert gamma_half(3) == Fraction(1, 2) * SQRT_PI  # Gamma(3/2)
        assert gamma_half(5) == Fraction(3, 4) * SQRT_PI  # Gamma(5/2)
        assert gamma_half(8) == 6  # Gamma(4)

    @pytest.mark.parametrize("n", range(0, 25))
    def test_omega_against_gamma_definition(self, n):
        # omega(n) * Gamma(n/2 + 1) == pi^(n/2)
        assert omega(n) * gamma_half(n + 2) == PiScalar.pi_power(n)

    def test_omega_small_values(self):
        assert omega(0) == 1
        assert omega(1) == 2
        assert omega(2) == PI
        assert omega(3) == Fraction(4, 3) * PI
        assert omega(4) == Fraction(1, 2) * PI * PI

    @pytest.mark.parametrize("n", range(0, 30))
    def test_alpha_identity(self, n):
        assert alpha(n) == (n + 1) * omega(n + 1)

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_omega_ratio_asymptotic(self, n):
        ratio = math.exp(log_omega(n) - log_omega(n - 1))
        assert ratio * math.sqrt(n / (2 * math.pi)) == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("k", [50, 75, 120, 400])
    def test_stirling_sanity(self, k):
        val = math.exp(math.lgamma(k + 1) + k * (1 - math.log(k))) / math.sqrt(
            2 * math.pi * k
        )
        assert 0.99 <= val <= 1.01

    def test_omega_float_matches_exact(self):
        for n in range(12):
            assert omega_float(n) == pytest.approx(float_of(omega(n)), rel=1e-13)


class TestGeneralizedBinomial:
    def test_values(self):
        assert generalized_binomial(Fraction(1, 2), 0) == 1
        assert generalized_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert generalized_binomial(3, 2) == 3
        assert generalized_binomial(Fraction(-1, 2), 1) == Fraction(-1, 2)

    def test_ordinary_binomials(self):
        for n in range(8):
            for j in range(10):
                expected = math.comb(n, j) if j <= n else 0
                assert generalized_binomial(n, j) == expected

    def test_pascal_recurrence_half_integers(self):
        for two_top in range(-7, 8):
            top = Fraction(two_top, 2)
            for j in range(1, 8):
                lhs = generalized_binomial(top, j)
                rhs = generalized_binomial(top - 1, j) + generalized_binomial(
                    top - 1, j - 1
                )
                assert lhs == rhs

    def test_rejects_third_integers(self):
        with pytest.raises(ValueError):
            generalized_binomial(Fraction(1, 3), 1)


class TestFloatBridge:
    def test_pi_digits(self):
        assert float_of(PI) == pytest.approx(math.pi, abs=1e-15)

    def test_omega3(self):
        assert float_of(omega(3)) == pytest.approx(4.1887902047863905, abs=1e-12)

    def test_zero(self):
        assert float_of(PiScalar.zero()) == 0.0

    def test_deterministic(self):
        x = PiScalar({(1, 2): Fraction(3, 7), (-2, 3): Fraction(-1, 9)})
        assert float_of(x) == float_of(x)
        assert float(x) == float_of(x)

    def test_negative_exponents(self):
        inv = PiScalar.pi_power(-2)
        assert float_of(inv) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_radical_value(self):
        x = PiScalar.sqrt_int(2)
        assert float_of(x) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_times_exp_rounds_like_the_float_product(self):
        x = PiScalar({(1, 2): Fraction(3, 7)})
        for y in (0.0, -0.125, -2.0, 3.5):
            assert float_times_exp(x, y) == pytest.approx(
                float_of(x) * math.exp(y), rel=1e-15
            )
        assert float_times_exp(Fraction(-5, 3), 0.0) == float_of(Fraction(-5, 3))

    def test_times_exp_past_the_float_range(self):
        # neither factor fits a float, the product does
        big = PiScalar.sqrt_int(2) * 10**400
        assert float_times_exp(big, -400 * math.log(10)) == pytest.approx(
            math.sqrt(2), rel=1e-13
        )
        assert float_times_exp(Fraction(1, 10**400), -1000.0) == 0.0
        with pytest.raises(ValueError, match="float range"):
            float_times_exp(big, 0.0)

    def test_floats_pass_through(self):
        for x in [0.1, -3.5, float("inf"), np.float64(0.7)]:
            assert float_of(x) is x
        assert float_of(np.float32(0.25)) == 0.25
        assert float_of(3) == 3.0 and float_of(Fraction(1, 4)) == 0.25
