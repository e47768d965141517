"""Adaptive quadrature.

Oracles: closed-form antiderivatives for the quadrature, and the panel
rule's nodes and weights derived afresh in mpmath.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsched.errors import ConvergenceError, DomainError
from cdfsched.specfun import (
    _K15_WEIGHTS,
    _NODES,
    _P31_WEIGHTS,
    QuadratureConfig,
    _nodes,
    _p31,
    adaptive_quad_halfline,
)


def _pulled_back(p):
    """p(x / (1 + x)) / (1 + x)^2, whose integral over [0, inf) is that of p
    over [0, 1]: the half-line map x = t / (1 - t) turns it back into p."""
    return lambda xs: p(xs / (1.0 + xs)) / (1.0 + xs) ** 2


def _deg13(t):
    return t**13 - 3 * t**5 + 2


#: int_0^1 of _deg13
DEG13 = 1 / 14 - 3 / 6 + 2


def _shifted_moment(c, m):
    """int_{-1}^{1} t^m sum_k c_k t^k."""
    return mp.fsum(ck * mp.mpf(2) / (k + m + 1) for k, ck in enumerate(c)
                   if (k + m) % 2 == 0)


def _times(a, b):
    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _orthogonal(w, n):
    """Coefficients, lowest first, of the monic degree-n polynomial
    orthogonal to every lower degree under the weight w on [-1, 1]."""
    a = mp.lu_solve(
        mp.matrix([[_shifted_moment(w, j + k) for j in range(n)]
                   for k in range(n)]),
        mp.matrix([-_shifted_moment(w, n + k) for k in range(n)]))
    return list(a) + [mp.mpf(1)]


def _zeros(c):
    return sorted(mp.re(z) for z in mp.polyroots(c[::-1], maxsteps=200,
                                                 extraprec=200))


def _interpolatory(nodes):
    """The weights that integrate every degree below len(nodes) exactly."""
    n = len(nodes)
    return list(mp.lu_solve(
        mp.matrix([[x**k for x in nodes] for k in range(n)]),
        mp.matrix([_shifted_moment([1], k) for k in range(n)])))


@pytest.fixture(scope="module")
def rule_mp():
    """Kronrod 15 and Patterson 31 in 80-digit mpmath: the Kronrod nodes
    are the zeros of the Legendre P7 and of the Stieltjes E8, orthogonal
    under P7; Patterson's 16 more are those of the degree-16 polynomial
    orthogonal under P7 * E8."""
    with mp.workdps(80):
        p7 = _orthogonal([mp.mpf(1)], 7)
        e8 = _orthogonal(p7, 8)
        kronrod = sorted(_zeros(p7) + _zeros(e8))
        patterson = sorted(kronrod + _zeros(_orthogonal(_times(p7, e8), 16)))
        yield (kronrod, _interpolatory(kronrod), patterson,
               _interpolatory(patterson))


def _ulps(consts, exact):
    exact = np.array([float(x) for x in exact])
    return np.abs(consts - exact) / np.spacing(np.abs(exact))


class TestPanelRule:
    def test_derivation_is_exact_to_degree_47(self, rule_mp):
        _, _, nodes, weights = rule_mp
        with mp.workdps(80):
            for deg in (0, 23, 46, 47):
                err = mp.fsum(w * x**deg for w, x in zip(weights, nodes)) \
                    - _shifted_moment([1], deg)
                assert abs(err) < mp.mpf(10) ** -70

    def test_constants_within_two_ulp(self, rule_mp):
        kronrod, k_weights, patterson, p_weights = rule_mp
        assert len(_NODES) == 31 and len(_K15_WEIGHTS) == 15
        assert _ulps(_NODES, patterson).max() <= 2
        assert _ulps(_P31_WEIGHTS, p_weights).max() <= 2
        assert _ulps(_K15_WEIGHTS, k_weights).max() <= 2

    def test_every_weight_is_positive(self):
        assert (_P31_WEIGHTS > 0).all() and (_K15_WEIGHTS > 0).all()
        assert _P31_WEIGHTS.min() == pytest.approx(0.0036349311950498839,
                                                   rel=1e-15)

    def test_degree_47_exact_on_one_panel(self):
        # P31 is exact to degree 47 on [0, 1], where K15 is off by 1.6e-8,
        # the panel's error estimate
        lo, hi = np.array([0.0]), np.array([1.0])
        ts = _nodes(lo, hi)
        val, err = _p31((ts**47 - 5 * ts**30 + 3 * ts**7 + 1)[None, :],
                        lo, hi)
        assert val[0, 0] == pytest.approx(1 / 48 - 5 / 31 + 3 / 8 + 1,
                                          rel=1e-14)
        assert err[0, 0] > 1e-9

    def test_kronrod_nodes_at_the_odd_indices(self, rule_mp):
        # bit for bit the correctly rounded Kronrod 15 nodes, as the
        # Gauss-Kronrod 15 rule's own nodes were
        kronrod = rule_mp[0]
        assert np.array_equal(_NODES[1::2], [float(x) for x in kronrod])


class TestAdaptiveQuad:
    def test_polynomial_exact(self):
        # P31 integrates degree-13 polynomials exactly
        val = adaptive_quad_halfline(_pulled_back(_deg13), vectorized=True)
        assert val == pytest.approx(DEG13, rel=1e-14)

    def test_degree_13_exact_on_the_starting_panels(self):
        # K15 is exact to degree 13 as well, so |P31 - K15| vanishes and one
        # integrand call settles it, whatever the subdivision budget
        calls = []
        f = _pulled_back(_deg13)

        def counted(xs):
            calls.append(len(xs))
            return f(xs)

        val = adaptive_quad_halfline(counted,
                                     QuadratureConfig(max_subdivisions=1),
                                     vectorized=True)
        assert val == pytest.approx(DEG13, rel=1e-14)
        assert len(calls) == 1

    def test_degree_23_exact_on_the_starting_panels(self):
        # the highest degree K15 integrates exactly: one call settles it
        calls = []
        f = _pulled_back(lambda t: t**23 - 2 * t**11 + 1)

        def counted(xs):
            calls.append(len(xs))
            return f(xs)

        val = adaptive_quad_halfline(counted,
                                     QuadratureConfig(max_subdivisions=1),
                                     vectorized=True)
        assert val == pytest.approx(1 / 24 - 2 / 12 + 1, rel=1e-14)
        assert len(calls) == 1

    def test_subdivision_budget_exhausted(self):
        # the sqrt cusp at 0.3 needs many rounds; six subdivisions are two
        with pytest.raises(ConvergenceError) as info:
            adaptive_quad_halfline(
                lambda xs: np.sqrt(np.abs(xs - 0.3)) * np.exp(-xs),
                QuadratureConfig(max_subdivisions=6), vectorized=True)
        assert math.isfinite(info.value.achieved_error)
        assert info.value.achieved_error > 0.0

    def test_nodes_at_t_one_count_as_zero(self):
        # an exponential on the scale 1e13 draws the refinement to nodes
        # that round to t = 1, x = inf: f sees only finite abscissae, up to
        # the map's last one, 2^53 - 1, and the stall reports a finite error
        seen = []

        def f(xs):
            seen.append(xs)
            return np.exp(-xs / 1e13) / 1e13

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as info:
                adaptive_quad_halfline(
                    f, QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10,
                                        max_subdivisions=6000),
                    vectorized=True)
        assert math.isfinite(info.value.achieved_error)
        assert np.concatenate(seen).max() == 2.0**53 - 1

    @pytest.mark.parametrize("scale", [1e10, 1e13, 1e15, 1e16, 1e17, 1e20,
                                       1e28, 1e30])
    def test_mass_beyond_the_last_node_raises(self, scale):
        # an exponential on a scale near or past x = 2^53, the map's last
        # finite node: the panels either stall, or see none of its mass and
        # would return a near-zero integral but for the look at that node;
        # far past it, x f(x) is below every tolerance there, but has not
        # fallen since x = 2^52
        with pytest.raises(ConvergenceError) as info:
            adaptive_quad_halfline(lambda xs: np.exp(-xs / scale) / scale,
                                   vectorized=True)
        assert math.isfinite(info.value.achieved_error)
        assert info.value.achieved_error > 0.0

    @pytest.mark.parametrize("power", [1.75, 2.0, 3.0])
    def test_algebraic_tail_past_the_last_node(self, power):
        # x f(x) of (1 + x)^-power falls from x = 2^52 to 2^53 and carries
        # less than a tolerance beyond: the look at those nodes passes it
        val = adaptive_quad_halfline(lambda xs: (1.0 + xs) ** -power,
                                     vectorized=True)
        assert val == pytest.approx(1.0 / (power - 1.0), rel=1e-10)

    def test_oscillatory(self):
        # int_0^inf e^(-x/5) sin x = 1 / (1 + 1/25)
        val = adaptive_quad_halfline(lambda xs: np.exp(-xs / 5) * np.sin(xs),
                                     QuadratureConfig(rel_tol=1e-13),
                                     vectorized=True)
        assert val == pytest.approx(1.0 / (1.0 + 1 / 25), rel=1e-12)

    def test_halfline_exponential(self):
        assert adaptive_quad_halfline(
            lambda xs: np.exp(-xs), vectorized=True
        ) == pytest.approx(1.0, rel=1e-12)

    def test_halfline_gamma_moment(self):
        # int x^3 e^-x = 6
        assert adaptive_quad_halfline(
            lambda xs: xs**3 * np.exp(-xs), vectorized=True
        ) == pytest.approx(6.0, rel=1e-11)

    def test_halfline_scalar_callable(self):
        # without vectorized=True, f is called one float abscissa at a time
        assert adaptive_quad_halfline(
            lambda x: x * math.exp(-x)
        ) == pytest.approx(1.0, rel=1e-11)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_subdivisions=0)
        for bad in (math.inf, math.nan, True, "1e-10"):
            with pytest.raises(DomainError, match="rel_tol"):
                QuadratureConfig(rel_tol=bad)
        for bad in (2.5, True, "10"):
            with pytest.raises(DomainError, match="max_subdivisions"):
                QuadratureConfig(max_subdivisions=bad)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=6),
           st.floats(0.1, 4.0))
    def test_polynomial_antiderivative_property(self, coeffs, width):
        # quadrature of any low-degree polynomial in t = x / (1 + x) over
        # [0, width] matches its antiderivative
        def p(t):
            return sum(c * (width * t)**k for k, c in enumerate(coeffs))

        val = adaptive_quad_halfline(_pulled_back(p), vectorized=True)
        exact = sum(c * width**k / (k + 1) for k, c in enumerate(coeffs))
        assert val == pytest.approx(exact, rel=1e-10, abs=1e-10)


class TestAdaptiveQuadColumns:
    def test_columns_on_one_mesh(self):
        # int x^k e^-x = k!, and int e^(-x/30) = 30 needs a wider mesh
        vals = adaptive_quad_halfline(lambda xs: np.stack(
            [np.exp(-xs), xs**3 * np.exp(-xs), np.exp(-xs / 30)]),
            QuadratureConfig(), vectorized=True)
        np.testing.assert_allclose(vals, [1.0, 6.0, 30.0], rtol=1e-11)

    @pytest.mark.parametrize("columns,rounds", [
        # each settles on the starting mesh, in one call
        ([lambda xs: np.exp(-xs), lambda xs: xs**3 * np.exp(-xs),
          lambda xs: np.exp(-xs / 30), lambda xs: 1.0 / (1.0 + xs) ** 3], 0),
        # one kinked integrand at scales 2^k: every column cuts the panels
        # the others cut, round by round
        ([lambda xs, k=k: 2.0**k * np.sqrt(np.abs(xs - 1 / 3)) * np.exp(-xs)
          for k in (-40, 0, 3, 60)], 5),
    ], ids=["one_call", "rounds"])
    def test_columns_are_their_one_column_runs(self, columns, rounds):
        # a (C, n) integrand takes the integrand calls, at the abscissae,
        # and gives the values of its C columns integrated one at a time
        def run(f):
            calls = []

            def counted(xs):
                calls.append(xs.copy())
                return f(xs)
            return adaptive_quad_halfline(
                counted, QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10),
                vectorized=True), calls

        vals, calls = run(lambda xs: np.stack([g(xs) for g in columns]))
        assert vals.shape == (len(columns),)
        assert (len(calls) > rounds) if rounds else len(calls) == 1
        for g, val in zip(columns, vals.tolist()):
            one, one_calls = run(g)
            assert val == pytest.approx(one, rel=4 * 2.0**-52, abs=0)
            assert len(one_calls) == len(calls)
            assert all(np.array_equal(a, b) for a, b in zip(one_calls, calls))

    def test_one_column_returns_an_array(self):
        # a (1, n) integrand gives its one value as an array, as any (C, n)
        vals = adaptive_quad_halfline(lambda xs: np.exp(-xs)[None, :],
                                      vectorized=True)
        assert vals.shape == (1,)
        assert vals[0] == adaptive_quad_halfline(lambda xs: np.exp(-xs),
                                                 vectorized=True)

    def test_each_column_meets_its_own_tolerance(self):
        # a column 1e-20 times smaller is held to its own relative tolerance
        vals = adaptive_quad_halfline(
            lambda xs: np.stack([np.exp(-xs), 1e-20 * xs * np.exp(-xs)]),
            QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10), vectorized=True)
        np.testing.assert_allclose(vals, [1.0, 1e-20], rtol=1e-10)

    def test_budget_exhaustion_reports_worst_column(self):
        # the kink at x = 1/3 stalls the second column only
        with pytest.raises(ConvergenceError) as info:
            adaptive_quad_halfline(
                lambda xs: np.stack([
                    np.exp(-xs), np.sqrt(np.abs(xs - 1 / 3)) * np.exp(-xs)]),
                QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15,
                                 max_subdivisions=30), vectorized=True)
        assert math.isfinite(info.value.achieved_error)
        assert info.value.achieved_error > 1e-15
