"""Special functions and adaptive quadrature.

Oracles: mpmath's arbitrary-precision implementations for E1 / Beta / 2F1,
and closed-form antiderivatives for the quadrature.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsched.errors import ConvergenceError, DomainError
from cdfsched.specfun import (
    EULER_GAMMA,
    QuadratureConfig,
    adaptive_quad,
    adaptive_quad_halfline,
    beta_fn,
    exp_e1,
    exp_integral_e1,
    hyp2f1_unit_params,
)


class TestExpIntegral:
    def test_against_mpmath_oracle(self):
        for x in np.geomspace(1e-3, 80.0, 40):
            expected = float(mp.e1(x))
            assert exp_integral_e1(float(x)) == pytest.approx(expected,
                                                             rel=1e-13)

    def test_asymptotic_identity_at_50(self):
        # x * e^x * E1(x) -> 1 as x -> inf
        x = 50.0
        assert abs(x * exp_e1(x) - 1.0) < 0.02

    def test_exp_e1_stable_for_huge_argument(self):
        # e^x underflow region for E1 alone; product must stay finite
        x = 5000.0
        val = exp_e1(x)
        expected = float(mp.exp(x) * mp.e1(x))
        assert val == pytest.approx(expected, rel=1e-13)

    def test_series_continued_fraction_seam(self):
        below = exp_integral_e1(1.0 - 1e-9)
        above = exp_integral_e1(1.0 + 1e-9)
        assert below == pytest.approx(above, rel=1e-7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exp_e1(0.0)
        with pytest.raises(DomainError):
            exp_integral_e1(-1.0)

    def test_euler_gamma_value(self):
        assert EULER_GAMMA == pytest.approx(float(mp.euler), abs=1e-15)


class TestBeta:
    def test_integer_factorial_path(self):
        assert beta_fn(3, 4) == pytest.approx(1.0 / 60.0, rel=1e-15)
        assert beta_fn(1, 1) == 1.0
        assert beta_fn(1, 7) == pytest.approx(1.0 / 7.0, rel=1e-15)

    def test_against_mpmath(self):
        for x, y in ((0.5, 0.5), (2.5, 7.0), (40.0, 3.0)):
            assert beta_fn(x, y) == pytest.approx(float(mp.beta(x, y)),
                                                  rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)


class TestHyp2F1:
    @pytest.mark.parametrize("c", [2, 3, 10, 40])
    @pytest.mark.parametrize("z", [-10.0, -2.0, -0.6, -0.3, 0.0, 0.3, 0.7,
                                   0.95])
    def test_against_mpmath(self, c, z):
        expected = float(mp.hyp2f1(1, 1, c, z))
        assert hyp2f1_unit_params(c, z) == pytest.approx(expected, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyp2f1_unit_params(1, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_unit_params(3, 1.0)


class TestAdaptiveQuad:
    def test_polynomial_exact(self):
        # Gauss-Kronrod 15 integrates degree-13 polynomials exactly
        val, err = adaptive_quad(lambda x: x**13 - 3 * x**5 + 2, -1.0, 2.0)
        exact = (2.0**14 - 1.0) / 14 - 3 * (2.0**6 - 1.0) / 6 + 2 * 3.0
        assert val == pytest.approx(exact, rel=1e-14)

    def test_degree_13_exact_on_the_starting_panels(self):
        # G7 is exact to degree 13 as well, so |K15 - G7| vanishes and one
        # integrand call settles it, whatever the subdivision budget
        calls = []

        def f(x):
            calls.append(len(x))
            return x**13 - 3 * x**5 + 2

        val, _ = adaptive_quad(f, -1.0, 2.0,
                               QuadratureConfig(max_subdivisions=1),
                               vectorized=True)
        exact = (2.0**14 - 1.0) / 14 - 3 * (2.0**6 - 1.0) / 6 + 2 * 3.0
        assert val == pytest.approx(exact, rel=1e-14)
        assert len(calls) == 1

    def test_subdivision_budget_exhausted(self):
        # the sqrt cusp at 0.3 needs many rounds; six subdivisions are two
        with pytest.raises(ConvergenceError) as info:
            adaptive_quad(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
                          QuadratureConfig(max_subdivisions=6),
                          vectorized=True)
        assert math.isfinite(info.value.achieved_error)
        assert info.value.achieved_error > 0.0

    def test_oscillatory(self):
        val, _ = adaptive_quad(lambda x: np.sin(x), 0.0, 20.0,
                               vectorized=True)
        assert val == pytest.approx(1.0 - math.cos(20.0), rel=1e-12)

    def test_halfline_exponential(self):
        assert adaptive_quad_halfline(
            lambda xs: np.exp(-xs), vectorized=True
        ) == pytest.approx(1.0, rel=1e-12)

    def test_halfline_gamma_moment(self):
        # int x^3 e^-x = 6
        assert adaptive_quad_halfline(
            lambda xs: xs**3 * np.exp(-xs), vectorized=True
        ) == pytest.approx(6.0, rel=1e-11)

    def test_scalar_callable_wrapped(self):
        val, _ = adaptive_quad(lambda x: x * x, 0.0, 3.0)
        assert val == pytest.approx(9.0, rel=1e-13)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_subdivisions=0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=6),
           st.floats(0.1, 4.0))
    def test_polynomial_antiderivative_property(self, coeffs, width):
        # quadrature of any low-degree polynomial matches its antiderivative
        def f(x):
            return sum(c * x**k for k, c in enumerate(coeffs))

        val, _ = adaptive_quad(f, -width, width)
        exact = sum(
            c * (width ** (k + 1) - (-width) ** (k + 1)) / (k + 1)
            for k, c in enumerate(coeffs)
        )
        assert val == pytest.approx(exact, rel=1e-10, abs=1e-10)
