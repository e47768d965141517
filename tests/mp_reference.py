"""mpmath references for the SINR law, shared by the test modules.

The survival is taken in its product form, the noise term times one
Laplace-transform factor per interferer, which has no poles where
interferer scales tie.
"""

import mpmath as mp

from cdfsched.channel import INTERFERENCE_LIMITED


def sf_mp(p, x):
    """1 - F of the SINR in mpf arithmetic at the working precision."""
    rho0 = mp.mpf(p.rho0)
    x = mp.mpf(x)
    out = mp.mpf(1) if p.kind == INTERFERENCE_LIMITED else mp.exp(-x / rho0)
    for r in p.rho_int:
        out *= rho0 / (rho0 + r * x)
    return out


def pdf_mp(p, x):
    """The SINR density: the survival times the hazard rate."""
    rho0 = mp.mpf(p.rho0)
    x = mp.mpf(x)
    hazard = mp.mpf(0) if p.kind == INTERFERENCE_LIMITED else 1 / rho0
    for r in p.rho_int:
        hazard += r / (rho0 + r * x)
    return sf_mp(p, x) * hazard
