"""Frozen collapsed-quadrature rates: `float.hex` of every rate and sum.

The expected values were recorded from the integrand that evaluated the
SINR law twice per node, once for the CDF and once for the density, and
built fresh arrays for the best-M mix and its products.  Any change to
the law's arithmetic, the best-M term table, the mix, the weight, the
order of their products or the quadrature's mesh shows here as a changed
bit.  The cases are a jittered 50-user golden cell at every M (several
quadratures of capped width) and at M = 4 (one quadrature), the golden
scenario's five-user plan, and a cell mixing an interference-limited user
at rho0 = 1e-8, near-tied interferers and a noise-limited user at 1e8.

The 800 rates of the all-M scan are frozen as the SHA-256 of their
`float.hex` strings; every other value is listed.
"""

import hashlib

import numpy as np
import pytest

from cdfsched.channel import LinkProfile
from cdfsched.exact_rate import _collapsed_rates, sum_rate_exact, \
    user_rate_exact
from cdfsched.planner import plan_feedback
from test_exact_rate import _golden_profiles, _jittered_golden

N = 16

#: an interference-limited user at rho0 / rho1 = 1e-8, interferers 1e-9
#: apart, and a noise-limited user at rho0 = 1e8
MIXED = [LinkProfile.interference_limited(1e-8, 1.0),
         LinkProfile.general(5.0, (1.0, 1.0 - 1e-9)),
         LinkProfile.noise_limited(1e8)]


def _hex(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


def _digest(values):
    return hashlib.sha256(" ".join(_hex(values)).encode()).hexdigest()


def _all_m_rows():
    return _digest(sum_rate_exact(_jittered_golden(50), N,
                                  range(1, N + 1)).per_user)


def _all_m_sums():
    return _hex(sum_rate_exact(_jittered_golden(50), N,
                               range(1, N + 1)).sum_rate)


def _one_m():
    return _hex(user_rate_exact(_jittered_golden(50), 50, N, 4))


def _plan():
    plan = plan_feedback(_golden_profiles(), N, 0.9)
    sums = sum_rate_exact(_golden_profiles(), N, range(1, N + 1)).sum_rate
    return [str(plan.m_exact), str(plan.m_asymptotic),
            float.hex(plan.ratio_at_m), *_hex(sums)]


def _mixed():
    out = sum_rate_exact(MIXED, N, (1, 8, 16))
    return _hex(out.per_user) + _hex(out.sum_rate)


CASES = {
    "golden_50_all_M_rows": _all_m_rows,
    "golden_50_all_M_sums": _all_m_sums,
    "golden_50_M4": _one_m,
    "golden_plan_5": _plan,
    "mixed_extremes": _mixed,
}

#: name -> the frozen values; the all-M rows as one digest
EXPECTED = {
    "golden_50_M4": """
        0x1.38c2295f731bcp-2 0x1.cc101f37b93b7p-4 0x1.333fa8cfa5059p-2
        0x1.e43b217edcfe4p-4 0x1.92333d0849400p-3 0x1.3943986a84ce2p-2
        0x1.d5033d1fc94dep-4 0x1.3262edb35ddb2p-2 0x1.e75dcac730c4fp-4
        0x1.91f7cba4fe72ep-3 0x1.3919ecd1983d1p-2 0x1.c9a5510090554p-4
        0x1.336bd50ebeac8p-2 0x1.e49dfb276b540p-4 0x1.9638bf5ebd1e4p-3
        0x1.38a990ad9a4fdp-2 0x1.d33c1eac5b5a0p-4 0x1.331ab4d259b93p-2
        0x1.e327fc0e542d7p-4 0x1.9202a51cefca1p-3 0x1.3a19b35728931p-2
        0x1.d0fe280a2b42dp-4 0x1.31b7e5242269ap-2 0x1.de93cbc288153p-4
        0x1.93f30c89b1247p-3 0x1.372997489ae98p-2 0x1.cd050cc4142a1p-4
        0x1.33258df0d766ap-2 0x1.e68a5c18e85afp-4 0x1.92728ab72bea9p-3
        0x1.380fff01cb64fp-2 0x1.c9eb40cc4628ap-4 0x1.33417cf4e6961p-2
        0x1.ea98d93e64c8fp-4 0x1.93bc3c26e0362p-3 0x1.38b3e0559c55ap-2
        0x1.d409d5cc1602ap-4 0x1.312cbb1e2bca5p-2 0x1.e356393808b28p-4
        0x1.9416800d297f2p-3 0x1.38bb43147aaf6p-2 0x1.cd253ab8b8229p-4
        0x1.3311e43bb0b9ep-2 0x1.ec8a5d588c1bdp-4 0x1.9190ac6b5127ap-3
        0x1.3a6415b883b96p-2 0x1.cfa4e27d22916p-4 0x1.33e6001c8d4dcp-2
        0x1.e3d2b8ccb33c0p-4 0x1.95a93966abc59p-3
    """.split(),
    "golden_50_all_M_rows": "74b0a4b642baa566c59b0090377067d6ffd3eaf1"
        "41a6fb974073583a4abe9926",
    "golden_50_all_M_sums": """
        0x1.3acb052563991p+3 0x1.49c20f75870b1p+3 0x1.4ab3b056a36bbp+3
        0x1.4acd46fa74cbfp+3 0x1.4ad0f1df44516p+3 0x1.4ad18042edaf6p+3
        0x1.4ad195307c988p+3 0x1.4ad198137b931p+3 0x1.4ad198712902cp+3
        0x1.4ad1987bdb1a9p+3 0x1.4ad1987cee411p+3 0x1.4ad1987d05e11p+3
        0x1.4ad1987d078acp+3 0x1.4ad1987d07a1bp+3 0x1.4ad1987d07a27p+3
        0x1.4ad1987d07a25p+3
    """.split(),
    "golden_plan_5": """
        6 6 0x1.d9ce4fe9b8a0fp-1
        0x1.4db2c19bc82f1p+1 0x1.1a3a54722aee8p+2 0x1.6b5131bf2826bp+2
        0x1.a3d5ec3d0e890p+2 0x1.ca833b3c52a3cp+2 0x1.e44e973ff1582p+2
        0x1.f4f2993cc4afcp+2 0x1.ff3debe1dafe1p+2 0x1.02a3e958c3cbep+3
        0x1.044b656293e96p+3 0x1.051f73e5f666ep+3 0x1.057d640e49730p+3
        0x1.05a058a7eaf26p+3 0x1.05aa5e1c13cc7p+3 0x1.05ac498ee5971p+3
        0x1.05ac7dfa48b71p+3
    """.split(),
    "mixed_extremes": """
        0x1.ee5a54728399ep-23 0x1.0fdf4d998f7adp-22 0x1.107143b4c9f78p-22
        0x1.6ef120d429a08p-3 0x1.4b81dd50e1c8dp-1 0x1.60eae8b9be8b0p-1
        0x1.a877f297c4cddp+0 0x1.fef6f82128334p+2 0x1.21aeab8a53d38p+3
        0x1.d6561a8efeaacp+0 0x1.14339a6d91dd0p+3 0x1.37bd5a9e285e1p+3
    """.split(),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rate_bits_frozen(name):
    _collapsed_rates.cache_clear()  # every value from its own quadratures
    assert CASES[name]() == EXPECTED[name]
