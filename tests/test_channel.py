"""SINR distributions, association, and scenario plumbing.

Oracles: 50-digit mpmath evaluation and root finding on the product-form
SINR survival, quadrature of the stated SINR density, numerical
differentiation of its CDF, and hand-computed path-loss / noise-budget
values.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfsched import channel, exact_rate
from cdfsched.channel import (
    Cell,
    LinkProfile,
    Scenario,
    build_link_profile,
    path_loss_db,
    sinr_cdf,
    sinr_cdf_inv,
    sinr_pdf,
    sinr_sf,
)
from cdfsched.errors import ConvergenceError, DomainError, ScenarioError
from cdfsched.specfun import QuadratureConfig, adaptive_quad_halfline
from mp_reference import log_sf_mp, pdf_mp, sf_mp

PROFILES = [
    LinkProfile.noise_limited(2.0),
    LinkProfile.interference_limited(4.0, 1.0),
    LinkProfile.general(5.0, (1.0,)),
    LinkProfile.general(5.0, (1.0, 0.3)),
    LinkProfile.general(3.0, (2.0, 0.7, 0.2)),
]

# golden-scenario scales, where a partial-fraction expansion of the tail
# cancels to about 4e-4 relative at x = 3e6
J4 = LinkProfile.general(9e4, (3e4, 2e3, 500.0, 90.0))
TIED = LinkProfile.general(5.0, (1.0, 1.0))
# high SNR, weak interferers: near x = 0 the computed log S moves only
# through its noise term, so a quantile that stops on step size stalls
HIGH_SNR = LinkProfile.general(1200101.4748638747, (46.667026793307265,
                                                    11.91840134989674,
                                                    1.83367465110823))


class TestProductFormLaw:
    """The survival and density against 50-digit mpmath, and the quantile
    against a 50-digit root of the product-form survival."""

    @pytest.mark.parametrize("p,xs", [
        *[(p, tuple(p.rho0 * t for t in (1e-3, 0.1, 1.0, 10.0, 50.0)))
          for p in PROFILES],
        (J4, (1e4, 1e5, 1e6, 3e6)),
    ], ids=["NL", "IL", "G1", "G2", "G3", "J4"])
    def test_against_mpmath(self, p, xs):
        for x in xs:
            with mp.workdps(50):
                sf, pdf = float(sf_mp(p, x)), float(pdf_mp(p, x))
            assert sinr_sf(p, x) == pytest.approx(sf, rel=1e-13, abs=0)
            assert sinr_pdf(p, x) == pytest.approx(pdf, rel=1e-13, abs=0)

    @pytest.mark.parametrize("p", PROFILES + [J4, TIED, HIGH_SNR],
                             ids=["NL", "IL", "G1", "G2", "G3", "J4", "tied",
                                  "high_snr"])
    @pytest.mark.parametrize("q,rel", [(0.5, 1e-12), (1 - 1e-12, 1e-12),
                                       (1e-6, 1e-9)])
    def test_quantile_is_the_mpmath_root(self, p, q, rel):
        # q = 1e-6 is held to 1e-13 below, on these and random profiles
        x = sinr_cdf_inv(p, q)
        with mp.workdps(50):
            target = mp.log(1 - mp.mpf(q))
            root = mp.findroot(lambda z: mp.log(sf_mp(p, z)) - target,
                               mp.mpf(x))
        assert x == pytest.approx(float(root), rel=rel, abs=0)

    def test_small_quantile_has_full_relative_accuracy(self):
        # at q = 1e-6 the interferer product is 1 + O(q); carried as its
        # excess over 1, the quantile keeps every digit of the float
        rng = np.random.default_rng(7)
        profiles = [*PROFILES, J4, TIED, HIGH_SNR, *[
            LinkProfile.general(10 ** rng.uniform(-2, 5),
                                10 ** rng.uniform(-3, 4, 5))
            for _ in range(20)]]
        for p in profiles:
            x = sinr_cdf_inv(p, 1e-6)
            with mp.workdps(50):
                target = mp.log(1 - mp.mpf(1e-6))
                root = mp.findroot(lambda z: mp.log(sf_mp(p, z)) - target,
                                   mp.mpf(x))
            assert x == pytest.approx(float(root), rel=1e-13, abs=0)

    def test_subnormal_quantile_converges(self):
        # below the smallest normal float, log S carries absolute rounding
        p = LinkProfile.general(1e-8, (1e-9,))
        x = sinr_cdf_inv(p, 1e-310)
        assert x == pytest.approx(1e-310 / (1e8 + 0.1), rel=1e-4)
        assert 0.0 <= sinr_cdf_inv(p, 5e-324) < 1e-320

    def test_tied_scales_are_a_valid_law(self):
        total = adaptive_quad_halfline(lambda xs: sinr_pdf(TIED, xs),
                                       QuadratureConfig(rel_tol=1e-11),
                                       vectorized=True)
        assert total == pytest.approx(1.0, rel=1e-9)


#: the one-pass law's grid: rho0 over 16 decades, J = 0, 1, 2, 4, 5
#: interferers (the first above rho0, so that t passes x), the
#: interference-limited kind, and interferers tied to a relative 1e-9
LAW_GRID = [
    *[LinkProfile.noise_limited(r0) if J == 0 else
      LinkProfile.general(r0, tuple(2.0 * r0 * 0.6**b for b in range(J)))
      for r0 in (1e-8, 1.0, 1e8) for J in (0, 1, 2, 4, 5)],
    *[LinkProfile.interference_limited(r0, 0.3 * r0)
      for r0 in (1e-8, 1.0, 1e8)],
    *[LinkProfile.general(r0, tuple(0.5 * r0 * (1.0 - 1e-9 * b)
                                    for b in range(3)))
      for r0 in (1e-8, 1e8)],
]
LAW_X = [5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-8, 1e-3,
         0.5, 1.0, 10.0, 1e3, 1e8, 1e16, 1e100, 1e200, 1e300, 1e308]
U = 2.0**-53


class TestOnePassLaw:
    """log S and the hazard from one loop over the interferers: the CDF,
    survival and density against 50-digit mpmath from the smallest
    subnormal to the largest float and the quadrature's last node, with
    no warning, and a stack's zero-padded rows with their own bits."""

    @staticmethod
    def _xs(p):
        scale = exact_rate._map_scale(channel.stacked(p))[0, 0]
        return np.array(LAW_X + [2.0**53 * scale])

    @pytest.mark.parametrize("p", LAW_GRID, ids=lambda p: (
        f"{p.kind[0]}{p.num_interferers}-{p.rho0:g}"))
    def test_against_mpmath(self, p):
        xs = self._xs(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf, pdf = channel._cdf_and_pdf(p, xs)
            sf = sinr_sf(p, xs)
        # the docstring's bound on log S, u (5J + 2) |log S|, and a few
        # subnormal spacings; the hazard is a sum of J + 1 positive terms
        steps = 5 * p.num_interferers + 2
        for x, F, f, S in zip(xs.tolist(), cdf.tolist(), pdf.tolist(),
                              sf.tolist()):
            with mp.workdps(50):
                log_sf = log_sf_mp(p, x)
                hazard = pdf_mp(p, x) / sf_mp(p, x)
                cdf_ref, log_ref = float(-mp.expm1(log_sf)), float(-log_sf)
                sf_ref = float(mp.exp(log_sf))
                pdf_ref, hazard = float(mp.exp(log_sf) * hazard), float(hazard)
            d_log = U * steps * log_ref + steps * 5e-324
            # an error d_log in log S moves the CDF by S d_log
            assert abs(F - cdf_ref) <= (1.01 * d_log * sf_ref if sf_ref
                                        else 0.0) + 2 * U * cdf_ref, (p, x)
            if sf_ref > 1e-290:
                assert abs(S - sf_ref) <= (1.01 * d_log + 2 * U) * sf_ref, \
                    (p, x)
                assert abs(f - pdf_ref) <= (
                    1.01 * d_log + U * (steps + 3)) * pdf_ref, (p, x)
            else:  # an interferer's t, or the product, may overflow here
                assert 0.0 <= S <= 1e-289, (p, x)
                assert 0.0 <= f <= 2e-289 * hazard, (p, x)

    def test_a_stack_keeps_every_rows_bits(self):
        # zero scales trail a row's own, where they change no bit; the
        # cell's stack, and any slice of it, gives each row's own law
        rows = channel.stacked(LAW_GRID)
        xs = np.array(LAW_X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cell = channel._cdf_and_pdf(rows, xs)
            part = channel._cdf_and_pdf(rows[3:7], xs)
            own = [channel._cdf_and_pdf(p, xs) for p in LAW_GRID]
        assert len(rows[3:7].rho_int) == 5 and len(rows[:3].rho_int) == 2
        for k, (F, f) in enumerate(own):
            assert np.array_equal(cell[0][k], F)
            assert np.array_equal(cell[1][k], f)
            if 3 <= k < 7:
                assert np.array_equal(part[0][k - 3], F)
                assert np.array_equal(part[1][k - 3], f)


# every kind, one to four interferers, a three-way tie and rho0 over 16
# decades, besides the profiles above
SCALES = (1e-8, 1.0, 1e8)
POOL = [
    *[LinkProfile.noise_limited(r0) for r0 in SCALES],
    *[LinkProfile.interference_limited(r0, 0.3 * r0) for r0 in SCALES],
    *[LinkProfile.general(r0, tuple(r0 * 0.7 ** b for b in range(1, J + 1)))
      for r0 in SCALES for J in (1, 2, 3, 4)],
    *[LinkProfile.general(r0, (0.5 * r0,) * 3) for r0 in SCALES],
    *PROFILES, J4, TIED, HIGH_SNR,
]
LEVELS = np.concatenate([np.geomspace(1e-12, 0.5, 9),
                         1.0 - np.geomspace(1e-12, 0.5, 9)])


class TestArrayQuantile:
    """A cell's quantiles in one call: every profile at every level."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=st.lists(st.integers(0, len(POOL) - 1), min_size=1,
                         max_size=8),
           levels=st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=1,
                           max_size=6))
    def test_batch_invariance(self, rows, levels):
        # any subset, order or repeat of the grid: each point's quantile
        # is the float a one-point call gives
        cell = [POOL[k] for k in rows]
        table = sinr_cdf_inv(cell, np.array(levels))
        assert table.shape == (len(rows), len(levels))
        for p, got in zip(cell, table.tolist()):
            alone = [sinr_cdf_inv(p, q).hex() for q in levels]
            assert [v.hex() for v in got] == alone
            row = sinr_cdf_inv(p, np.array(levels)).tolist()
            assert [v.hex() for v in row] == alone

    def test_round_trip_within_the_rounding_bound(self):
        # the docstring's bound on the computed log S, u (5J + 2) |log S|,
        # also bounds the exact log S at the returned quantile
        table = sinr_cdf_inv(POOL, LEVELS)
        for p, row in zip(POOL, table.tolist()):
            for x, q in zip(row, LEVELS.tolist()):
                with mp.workdps(50):
                    target = mp.log1p(-mp.mpf(q))
                    err = abs(mp.log(sf_mp(p, x)) - target)
                bound = 1.1e-16 * (5 * p.num_interferers + 2) * abs(target)
                assert err <= bound, (p, q)

    def test_shapes(self):
        assert type(sinr_cdf_inv(TIED, 0.3)) is float
        assert type(sinr_cdf_inv(TIED, np.float64(0.3))) is float
        assert type(sinr_cdf_inv(TIED, np.array(0.3))) is float
        assert sinr_cdf_inv(TIED, np.full((2, 3), 0.3)).shape == (2, 3)
        assert sinr_cdf_inv(PROFILES, 0.3).shape == (5, 1)
        assert sinr_cdf_inv(PROFILES, np.full((5, 2), 0.3)).shape == (5, 2)
        assert sinr_cdf_inv([], np.array([0.3, 0.4])).shape == (0, 2)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_array_domain_names_the_first_bad_level(self, bad):
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            sinr_cdf_inv(PROFILES, np.array([0.5, bad, 2.0]))
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            sinr_cdf_inv(TIED, bad)

    @pytest.mark.parametrize("rho0", SCALES)
    def test_simplified_kinds_match_their_closed_forms(self, rho0):
        # the noise- and interference-limited quantiles come from the one
        # Newton; the docstring's bound on log S, u (5J + 2) |log(1 - q)|,
        # carried to x by the hazard h, plus a few subnormal spacings
        levels = [5e-324, 1e-300, 1e-12, 1e-6, 0.5, 1 - 1e-12, 1 - 2**-53]
        cases = [(LinkProfile.noise_limited(rho0),
                  lambda q: -rho0 * math.log1p(-q))]
        for rho1 in (0.3 * rho0, 1e-8):
            cases.append((LinkProfile.interference_limited(rho0, rho1),
                          lambda q, rho1=rho1: rho0 / rho1 * q / (1 - q)))
        for p, closed in cases:
            for q, x in zip(levels, sinr_cdf_inv(p, np.array(levels))):
                want = closed(q)
                h = p.noise / rho0 + sum(r / (rho0 + r * want)
                                         for r in p.rho_int)
                bound = 1.1e-16 * (5 * p.num_interferers + 2) \
                    * abs(math.log1p(-q)) / h + 4 * 5e-324
                assert abs(x - want) <= bound, (p, q)

    def test_unconverged_points_report_the_gap_left(self, monkeypatch):
        # a hazard of 1e300 makes every Newton step negligible; the
        # noise-limited row's three points iterate too
        law = channel._law
        monkeypatch.setattr(channel, "_law",
                            lambda p, x: (law(p, x)[0], 1e300))
        with pytest.raises(ConvergenceError, match="at 9 point") as err:
            sinr_cdf_inv([TIED, PROFILES[0], J4], np.array([0.1, 0.5, 0.9]))
        assert err.value.achieved_error == pytest.approx(-math.log1p(-0.9))
        with pytest.raises(ConvergenceError, match="at 1 point") as err:
            sinr_cdf_inv(TIED, 0.5)
        assert err.value.achieved_error == pytest.approx(math.log(2.0))


class TestLinkProfile:
    def test_kind_constraints(self):
        with pytest.raises(DomainError):
            LinkProfile(rho0=1.0, rho_int=(1.0,), kind="noise_limited")
        with pytest.raises(DomainError):
            LinkProfile(rho0=1.0, rho_int=(), kind="general")
        with pytest.raises(DomainError):
            LinkProfile(rho0=-1.0)

    def test_sorted_descending_required(self):
        with pytest.raises(DomainError):
            LinkProfile(rho0=1.0, rho_int=(0.5, 1.0), kind="general")

    def test_hashable_for_caching(self):
        p = LinkProfile.general(5.0, (1.0, 0.3))
        assert hash(p) == hash(LinkProfile.general(5.0, (1.0, 0.3)))

    @pytest.mark.parametrize("make", [
        lambda: LinkProfile.noise_limited(float("nan")),
        lambda: LinkProfile.noise_limited(float("inf")),
        lambda: LinkProfile.general(5.0, (float("inf"), 1.0)),
    ], ids=["nan_rho0", "inf_rho0", "inf_interferer"])
    def test_non_finite_scales_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: LinkProfile.interference_limited(30.0, (1.5,)),
        lambda: LinkProfile.general(5.0, 3.0),
        lambda: LinkProfile.general(5.0, [1.0, "2"]),
        lambda: LinkProfile.noise_limited("2"),
        lambda: LinkProfile.noise_limited(True),
        lambda: LinkProfile.general(5.0, (1.0, True)),
        lambda: LinkProfile(rho0=1.0, kind="foo"),
        lambda: LinkProfile(rho0=1.0, rho_int=[1.0], kind="general"),
    ], ids=["tuple_interferer", "scalar_interferers", "string_interferer",
            "string_rho0", "bool_rho0", "bool_interferer", "unknown_kind",
            "list_interferers"])
    def test_malformed_scales_rejected(self, make):
        # a stray TypeError would escape the CLI's exit-2 mapping
        with pytest.raises(DomainError):
            make()


class TestSinrDistribution:
    @pytest.mark.parametrize("p", PROFILES)
    def test_pdf_normalizes(self, p):
        total = adaptive_quad_halfline(lambda xs: sinr_pdf(p, xs),
                                       QuadratureConfig(rel_tol=1e-11),
                                       vectorized=True)
        assert total == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("p", PROFILES)
    def test_pdf_is_cdf_derivative(self, p):
        for x in (0.1, 0.7, 2.0, 8.0):
            h = 1e-6 * max(1.0, x)
            numeric = (sinr_cdf(p, x + h) - sinr_cdf(p, x - h)) / (2 * h)
            assert sinr_pdf(p, x) == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize("p", PROFILES)
    def test_cdf_bounds_and_monotone(self, p):
        xs = np.geomspace(1e-3, 1e3, 50)
        F = sinr_cdf(p, xs)
        assert np.all(np.diff(F) >= 0)
        assert np.all((F >= 0) & (F <= 1))
        assert sinr_cdf(p, 0.0) == 0.0
        assert sinr_cdf(p, -1.0) == 0.0

    def test_noise_limited_closed_form(self):
        p = LinkProfile.noise_limited(2.0)
        assert sinr_cdf(p, 2.0) == pytest.approx(1 - math.exp(-1.0))

    def test_interference_limited_closed_form(self):
        p = LinkProfile.interference_limited(4.0, 1.0)
        assert sinr_cdf(p, 4.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("p", PROFILES)
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.999])
    def test_quantile_roundtrip(self, p, q):
        x = sinr_cdf_inv(p, q)
        assert sinr_cdf(p, x) == pytest.approx(q, rel=1e-10)

    @pytest.mark.parametrize("p", PROFILES)
    def test_survival_function_is_cdf_complement(self, p):
        for x in (0.0, 0.3, 2.0, 10.0):
            assert sinr_sf(p, x) == pytest.approx(1.0 - sinr_cdf(p, x),
                                                  rel=1e-12, abs=1e-15)
        # deep in an exponential tail 1 - sinr_cdf cancels to zero; the
        # survival function does not
        x = 50.0 * p.rho0
        if p.kind != "interference_limited":
            assert sinr_cdf(p, x) == 1.0
        assert sinr_sf(p, x) > 0.0

    def test_infinity_on_every_kind(self):
        # nu * x is 0 * inf without noise, and so is a zero-padded scale
        # in a stack; an interference-limited CQI is inf when the
        # simulator draws an interferer power of 0
        for p in [*PROFILES, channel.stacked(PROFILES)]:
            assert np.all(sinr_cdf(p, math.inf) == 1.0)
            assert np.all(sinr_sf(p, math.inf) == 0.0)
            assert np.all(sinr_pdf(p, math.inf) == 0.0)

    @pytest.mark.parametrize("p", [
        LinkProfile.general(5.0, (1.0, 0.3)),
        LinkProfile.general(1e-8, (1e8, 1e8)),
        LinkProfile.noise_limited(1e-8)])
    def test_largest_float_warns_of_nothing(self, p):
        # at x = 1e308 the interferer product, the noise term or rho_b x
        # pass the largest float: their inf is the law's limit, not a
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sinr_cdf(p, 1e308) == 1.0
            assert sinr_sf(p, 1e308) == 0.0
            assert sinr_pdf(p, 1e308) == 0.0

    def test_nan_on_every_kind(self):
        # a NaN x gives NaN, not a silent 0.0, in the density as in the
        # CDF and the survival; the points beside it keep their bits
        x = np.array([math.nan, -1.0, 0.0, 0.5, math.inf])
        for p in [*PROFILES, channel.stacked(PROFILES)]:
            for law in (sinr_cdf, sinr_sf, sinr_pdf):
                assert np.all(np.isnan(law(p, math.nan)))
                values = law(p, x)
                assert np.all(np.isnan(values[..., 0]))
                assert np.array_equal(values[..., 1:], law(p, x[1:]))

    @pytest.mark.parametrize("p", [
        *PROFILES, J4, TIED, LinkProfile.general(1e-8, (1e8, 1e8)),
        LinkProfile.interference_limited(1e-8, 1.0),
        LinkProfile.noise_limited(1e8),
        channel.stacked([*PROFILES, J4, LinkProfile.noise_limited(1e-8)])],
        ids=lambda p: getattr(p, "kind", "stacked"))
    def test_one_pass_law_keeps_both_laws_bits(self, p):
        # the CDF and density of one _law pass are sinr_cdf's bits and
        # the bits of a density from a pass of its own, on every edge: 0,
        # the smallest subnormal, 2^53 times the quadrature's map scale
        # (its last node), a product that overflows to inf, inf itself
        # and x < 0; a stack's zero-padded rows broadcast against x
        scale = exact_rate._map_scale(
            channel.stacked([p]) if isinstance(p, LinkProfile) else p)
        edges = [0.0, 5e-324, 1e-300, 1.0, 1e308, math.inf, -1.0, -0.0]
        x = np.concatenate([np.broadcast_to(edges, (len(scale), 8)),
                            2.0**53 * scale], axis=1)
        outside = (x < 0) | (x == math.inf)
        xc = np.where(outside, 0.0, x)

        def bits(a):
            return np.asarray(a).view(np.int64).tolist()

        with np.errstate(over="ignore"):
            log_sf, hazard = channel._law(p, xc)
            # the hazard changes no bit of the pass's log S
            assert bits(log_sf) == bits(channel._log_sf(p, xc))
            own = np.where(outside, 0.0, np.exp(log_sf) * hazard)
        cdf, pdf = channel._cdf_and_pdf(p, x)
        assert bits(cdf) == bits(sinr_cdf(p, x))
        assert bits(pdf) == bits(own) == bits(sinr_pdf(p, x))

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            sinr_cdf_inv(PROFILES[0], 0.0)
        with pytest.raises(DomainError):
            sinr_cdf_inv(PROFILES[0], 1.0)


class TestPathLoss:
    def test_macro_reference_value(self):
        assert path_loss_db("macro", 500.0) == pytest.approx(
            15.3 + 37.6 * math.log10(500.0))

    def test_pico_reference_value(self):
        assert path_loss_db("pico", 100.0) == pytest.approx(
            30.6 + 36.7 * math.log10(100.0))

    def test_below_one_meter_rejected(self):
        with pytest.raises(DomainError):
            path_loss_db("macro", 0.5)

    def test_unknown_tier(self):
        with pytest.raises(DomainError):
            path_loss_db("femto", 10.0)


def _scenario(cells, users, **kw):
    return Scenario(cells=tuple(cells), users=tuple(users), **kw)


class TestScenario:
    def test_defaults(self):
        s = _scenario([Cell("macro", (0, 0), 43.0)], [(10.0, 0.0)])
        assert s.bandwidth_hz == 5e6
        assert s.noise_psd_dbm_hz == -170.0
        assert s.num_rb == 16
        assert s.shadowing_sigma_db == 8.0

    def test_noise_power_per_rb(self):
        s = _scenario([Cell("macro", (0, 0), 43.0)], [(10.0, 0.0)])
        expected = -170.0 + 10 * math.log10(5e6 / 16)
        assert s.noise_power_rb_dbm == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ScenarioError):
            _scenario([], [(0.0, 1.0)])
        with pytest.raises(ScenarioError, match="at least one user"):
            _scenario([Cell("macro", (0, 0), 43.0)], [])
        with pytest.raises(ScenarioError):
            _scenario([Cell("macro", (0, 0), 43.0)], [(1.0, 1.0)], num_rb=0)
        with pytest.raises(ScenarioError):
            Cell("femto", (0, 0), 43.0)
        # every number is a real number, not a bool, and finite: a stray
        # TypeError would escape the CLI's exit-2 mapping
        for bad in ("43", True, math.inf, 10**400):
            with pytest.raises(ScenarioError, match="tx_power_dbm"):
                Cell("macro", (0, 0), bad)
            with pytest.raises(ScenarioError, match=r"position\[1\]"):
                Cell("macro", (0, bad), 43.0)
            with pytest.raises(ScenarioError, match=r"users\[0\]\[0\]"):
                _scenario([Cell("macro", (0, 0), 43.0)], [(bad, 1.0)])
            for field in ("noise_psd_dbm_hz", "bandwidth_hz",
                          "shadowing_sigma_db", "interferer_keep_threshold"):
                with pytest.raises(ScenarioError, match=field):
                    _scenario([Cell("macro", (0, 0), 43.0)], [(1.0, 1.0)],
                              **{field: bad})
        for bad in ("16", True, 16.0):
            with pytest.raises(ScenarioError, match="num_rb"):
                _scenario([Cell("macro", (0, 0), 43.0)], [(1.0, 1.0)],
                          num_rb=bad)


class TestAssociation:
    def test_strongest_cell_wins(self):
        cells = [Cell("macro", (0.0, 0.0), 43.0),
                 Cell("macro", (1000.0, 0.0), 43.0)]
        s = _scenario(cells, [(100.0, 0.0)], shadowing_sigma_db=0.0)
        p = build_link_profile(s, 0, np.zeros(2))
        # serving SNR comes from the near cell; far cell interferes
        d_near, d_far = 100.0, 900.0
        noise = 10 ** (s.noise_power_rb_dbm / 10)
        rx_near = 10 ** ((43.0 - path_loss_db("macro", d_near)) / 10)
        rx_far = 10 ** ((43.0 - path_loss_db("macro", d_far)) / 10)
        assert p.rho0 == pytest.approx(rx_near / noise, rel=1e-12)
        assert p.rho_int[0] == pytest.approx(rx_far / noise, rel=1e-12)

    def test_tie_breaks_to_lower_index(self):
        cells = [Cell("macro", (-100.0, 0.0), 43.0),
                 Cell("macro", (100.0, 0.0), 43.0)]
        s = _scenario(cells, [(0.0, 0.0)], shadowing_sigma_db=0.0)
        p = build_link_profile(s, 0, np.zeros(2))
        # equidistant: association must pick cell 0, and cell 1 is the one
        # interferer, at the serving power
        assert p.num_interferers == 1
        assert p.rho_int[0] == p.rho0

    def test_tied_interferers_are_kept(self, caplog):
        # two interferers at exactly equal power: the tie stays as it is
        cells = [Cell("macro", (0.0, 50.0), 43.0),
                 Cell("macro", (-500.0, 0.0), 43.0),
                 Cell("macro", (500.0, 0.0), 43.0)]
        s = _scenario(cells, [(0.0, 0.0)], shadowing_sigma_db=0.0)
        with caplog.at_level("DEBUG"):
            p = build_link_profile(s, 0, np.zeros(3))
        assert p.num_interferers == 2
        assert p.rho_int[0] == p.rho_int[1]
        assert not caplog.records

    def test_weak_interferers_folded_into_noise(self):
        cells = [Cell("macro", (0.0, 0.0), 43.0),
                 Cell("macro", (500.0, 0.0), 43.0),
                 Cell("pico", (5000.0, 0.0), 30.0)]
        s = _scenario(cells, [(50.0, 0.0)], shadowing_sigma_db=0.0)
        p = build_link_profile(s, 0, np.zeros(3))
        # the remote pico is >20 dB below the macro interferer: folded away
        assert p.num_interferers == 1

    def test_no_interferers_gives_noise_limited(self):
        s = _scenario([Cell("macro", (0.0, 0.0), 43.0)], [(50.0, 0.0)],
                      shadowing_sigma_db=0.0)
        p = build_link_profile(s, 0, np.zeros(1))
        assert p.kind == "noise_limited"

    def test_shadowing_draw_shape_checked(self):
        s = _scenario([Cell("macro", (0.0, 0.0), 43.0)], [(50.0, 0.0)])
        with pytest.raises(DomainError):
            build_link_profile(s, 0, np.zeros(3))
