"""Frozen collapsed-quadrature rates: `float.hex` of every rate and sum.

The expected values were recorded with Patterson's 31-point panel rule
and its |P31 - K15| error estimate (each within 1e-11 of the values of
the Gauss-Kronrod 15 / Gauss 7 rule before it), from the integrand that
takes the SINR law in one pass and does its best-M arithmetic in place.
Any change to the panel rule, the law's arithmetic, the best-M term
table, the mix, the weight, the order of their products or the
quadrature's mesh shows here as a changed bit.  The cases are a jittered
50-user golden cell at every M (several quadratures of capped width) and
at M = 4 (one quadrature), the golden scenario's five-user plan, and a
cell mixing an interference-limited user at rho0 = 1e-8, near-tied
interferers and a noise-limited user at 1e8.

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
        0x1.38c2295f731b5p-2 0x1.cc101f37b93b9p-4 0x1.333fa8cfa5059p-2
        0x1.e43b217edcfedp-4 0x1.92333d08493fep-3 0x1.3943986a84ce2p-2
        0x1.d5033d1fc94e1p-4 0x1.3262edb35ddb6p-2 0x1.e75dcac730c4ep-4
        0x1.91f7cba4fe733p-3 0x1.3919ecd1983d2p-2 0x1.c9a5510090553p-4
        0x1.336bd50ebeac6p-2 0x1.e49dfb276b53dp-4 0x1.9638bf5ebd1e7p-3
        0x1.38a990ad9a4fcp-2 0x1.d33c1eac5b5a0p-4 0x1.331ab4d259b8ep-2
        0x1.e327fc0e542dbp-4 0x1.9202a51cefc9ep-3 0x1.3a19b3572892dp-2
        0x1.d0fe280a2b42ep-4 0x1.31b7e5242269dp-2 0x1.de93cbc288157p-4
        0x1.93f30c89b1244p-3 0x1.372997489ae9ep-2 0x1.cd050cc4142a2p-4
        0x1.33258df0d766cp-2 0x1.e68a5c18e85b5p-4 0x1.92728ab72bea6p-3
        0x1.380fff01cb650p-2 0x1.c9eb40cc4628ap-4 0x1.33417cf4e6961p-2
        0x1.ea98d93e64c93p-4 0x1.93bc3c26e0364p-3 0x1.38b3e0559c55ap-2
        0x1.d409d5cc16027p-4 0x1.312cbb1e2bca7p-2 0x1.e356393808b29p-4
        0x1.9416800d297eap-3 0x1.38bb43147aaf9p-2 0x1.cd253ab8b822bp-4
        0x1.3311e43bb0b9bp-2 0x1.ec8a5d588c1b9p-4 0x1.9190ac6b5127ep-3
        0x1.3a6415b883b96p-2 0x1.cfa4e27d22912p-4 0x1.33e6001c8d4dap-2
        0x1.e3d2b8ccb33c2p-4 0x1.95a93966abc58p-3
    """.split(),
    "golden_50_all_M_rows": "fe8b605ca38bbbb07d05053e054151b128219697"
        "9a2094c0b86e1cca0c72e6e3",
    "golden_50_all_M_sums": """
        0x1.3acb052563990p+3 0x1.49c20f75870b0p+3 0x1.4ab3b056a36b9p+3
        0x1.4acd46fa74cc1p+3 0x1.4ad0f1df44516p+3 0x1.4ad18042edaf7p+3
        0x1.4ad195307c989p+3 0x1.4ad198137b930p+3 0x1.4ad198712902dp+3
        0x1.4ad1987bdb1a9p+3 0x1.4ad1987cee411p+3 0x1.4ad1987d05e12p+3
        0x1.4ad1987d078aep+3 0x1.4ad1987d07a1dp+3 0x1.4ad1987d07a28p+3
        0x1.4ad1987d07a26p+3
    """.split(),
    "golden_plan_5": """
        6 6 0x1.d9ce4fe9b8a0dp-1
        0x1.4db2c19bc82f2p+1 0x1.1a3a54722aee8p+2 0x1.6b5131bf2826ap+2
        0x1.a3d5ec3d0e890p+2 0x1.ca833b3c52a3cp+2 0x1.e44e973ff1582p+2
        0x1.f4f2993cc4afbp+2 0x1.ff3debe1dafe2p+2 0x1.02a3e958c3cbep+3
        0x1.044b656293e96p+3 0x1.051f73e5f666ep+3 0x1.057d640e49730p+3
        0x1.05a058a7eaf27p+3 0x1.05aa5e1c13cbdp+3 0x1.05ac498ee59e2p+3
        0x1.05ac7dfa48b72p+3
    """.split(),
    "mixed_extremes": """
        0x1.ee5a54728388cp-23 0x1.0fdf4d998f726p-22 0x1.107143b4c9eefp-22
        0x1.6ef120d429a0ap-3 0x1.4b81dd50e1c8ep-1 0x1.60eae8b9be8b8p-1
        0x1.a877f297c4cddp+0 0x1.fef6f82128335p+2 0x1.21aeab8a53d37p+3
        0x1.d6561a8efeaadp+0 0x1.14339a6d91dd0p+3 0x1.37bd5a9e285e0p+3
    """.split(),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rate_bits_frozen(name):
    _collapsed_rates.cache_clear()  # every value from its own quadratures
    assert CASES[name]() == EXPECTED[name]
