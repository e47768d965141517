"""Frozen simulator output: `float.hex` of every `RateReport` field.

The expected values were recorded when each statistics batch first drew
its fading from its own SFC64 stream, seeded by the master seed with spawn
key (drop, batch), while each drop's shadowing stayed on its Philox
stream.  Any change to the streams, the draw order, the chunk boundaries,
the SINR arithmetic, the winner rule or the tally shows here as a changed
bit.  The cases cover every policy, drops whose statistics batches span
several chunks (and so continue one batch stream across chunks), a 7-slot
drop, full feedback, a mixed NL/IL/G cell with a near-degenerate
interference-limited user, several drops on several threads and the
scenario path, which draws each drop's shadowing from the drop's stream.
"""

from pathlib import Path

import pytest

from cdfsched import cli
from cdfsched.channel import LinkProfile
from cdfsched.simulator import SimConfig, simulate, simulate_profiles

GOLDEN = Path(__file__).resolve().parents[1] / "examples_scenarios" \
    / "hetnet_two_macro_four_pico.json"

#: noise-limited at three SNRs, interference-limited (one of them with
#: both scales at 1e-8) and general with two interferers
MIXED = [
    LinkProfile.noise_limited(2.0),
    LinkProfile.interference_limited(4.0, 1.0),
    LinkProfile.general(5.0, (1.0, 0.3)),
    LinkProfile.noise_limited(0.5),
    LinkProfile.noise_limited(20.0),
    LinkProfile.interference_limited(1e-8, 1e-8),
]


def _cfg(policy, M, drops, slots, seed, threads):
    return SimConfig(num_drops=drops, slots_per_drop=slots, policy=policy,
                     M=M, master_seed=seed, threads_hint=threads)


def _profiles(N, *cfg):
    return lambda: simulate_profiles(MIXED, N, _cfg(*cfg))


def _scenario(*cfg):
    def run():
        scenario, _ = cli.load_scenario(str(GOLDEN))
        return simulate(scenario, _cfg(*cfg))
    return run


#: name -> run; 6 users keep a chunk at 65536 // 6 = 10922 slots, so the
#: 22001- and 11001-slot batches below span three and two chunks
CASES = {
    "cdf": _profiles(16, "cdf", 4, 1, 4000, 0, 1),
    "greedy": _profiles(16, "greedy", 4, 1, 4000, 3, 2),
    "round_robin": _profiles(16, "round_robin", 4, 1, 4000, 7, 4),
    "cdf_chunks": _profiles(8, "cdf", 2, 1, 176005, 3, 2),
    "round_robin_chunks": _profiles(8, "round_robin", 2, 2, 88003, 0, 4),
    "greedy_7_slots": _profiles(16, "greedy", 4, 1, 7, 7, 2),
    "cdf_full_feedback": _profiles(8, "cdf", 8, 3, 333, 0, 3),
    "simulate_2_drops": _scenario("cdf", 4, 2, 500, 7, 2),
}

#: name -> float.hex of the fields in RateReport order, tuples flattened
EXPECTED = {
    "cdf": """
        0x1.6560739cd4ed2p-2 0x1.907975f8212ccp-1 0x1.9941edadd8ac2p-2
        0x1.522d02295e262p-3 0x1.97234a540abe1p-1 0x1.0e8aa0ab3107dp-1
        0x1.8280f489c2d22p+1 0x1.fff8a496c21d2p-1 0x1.6f020c49ba5e3p-3
        0x1.68e5552a9d010p-9 0x1.b4fae9b086ea7p-8 0x1.8d73404bd6da3p-9
        0x1.13772070e4a7cp-10 0x1.c88d3286e75cap-8 0x1.ff0ad5752ebc6p-10
        0x1.6a48bcdeea75dp-8 0x1.2d7c6fb92a6b5p-15 0x1.ba526af7a57d6p-10
    """.split(),
    "cdf_chunks": """
        0x1.66c81943afc60p-2 0x1.8d965c323a978p-1 0x1.966e7ac2a3636p-2
        0x1.470cab47d7c03p-3 0x1.8907438dd4546p-1 0x1.0b4951ad9ad41p-1
        0x1.7c915990b2512p+1 0x1.ffffea83c025cp-1 0x1.6bd9fab0e94d7p-3
        0x1.5de5cacc1001ap-11 0x1.0d8e15d879be5p-9 0x1.64180ee9cfc50p-12
        0x1.777496d94389cp-12 0x1.3a5ffb2ab24f0p-10 0x1.5e3d84bff3d23p-11
        0x1.a476fa82c7b7dp-10 0x1.056064dacdc7bp-20 0x1.0ad41a6401ad3p-12
    """.split(),
    "cdf_full_feedback": """
        0x1.9ab9875bc1273p-2 0x1.c22115f70c241p-1 0x1.ddfd9b71e79f8p-2
        0x1.8260f87202d2ep-3 0x1.dcb795af96385p-1 0x1.25e1e0266bee8p-1
        0x1.b86b96d418d8cp+1 0x1.fff52d1b58194p-1 0x0.0p+0
        0x1.afe02c4c3bbb3p-8 0x1.843894f5576b7p-6 0x1.7cf82885df143p-7
        0x1.1d45d6a3cdd09p-8 0x1.9119952f8c4ffp-6 0x1.eb56eb19772e5p-7
        0x1.3ea0ed735e2a3p-6 0x1.620baa1d62d58p-12 0x0.0p+0
    """.split(),
    "greedy": """
        0x1.ea66f93f21a77p-3 0x1.152c056bb8084p+0 0x1.3c34789d2b008p-2
        0x1.0c0ae63535510p-4 0x1.34b0039bbe10bp+0 0x1.03f06e9b2155fp-1
        0x1.b4777603c4870p+1 0x1.e79a3935a7bedp-1 0x1.6b22d0e560419p-3
        0x1.be12a741125eep-9 0x1.59ccf1819314ep-8 0x1.6fcf37f8a6b73p-9
        0x1.6e7173a0d981ep-11 0x1.be789f96a3d05p-9 0x1.ede789893841bp-9
        0x1.5c035f9cdc072p-9 0x1.4387c66f34c28p-11 0x1.d20ccedca79dbp-11
    """.split(),
    "greedy_7_slots": """
        0x1.f55cb87e7301dp-3 0x1.15f8bb2b6fbeap+0 0x1.c756c24f37b6dp-3
        0x1.0def74ce99fefp-4 0x1.34f03992dc9f7p+0 0x1.769a7baaf5269p-2
        0x1.98827d27d44f6p+1 0x1.e65369a3af8efp-1 0x1.5b6db6db6db6ep-3
        0x1.fd111d64e4d63p-5 0x1.7ef302cf5772dp-4 0x1.94f29bd599578p-5
        0x1.0cb2a51763ba8p-6 0x1.16a12eded065dp-4 0x1.96e3a57e0fc7fp-4
        0x1.35be080030c22p-3 0x1.533c926dfd8f2p-6 0x1.7024f1597796ap-6
    """.split(),
    "round_robin": """
        0x1.c156f7c97a035p-3 0x1.c960025aa570bp-2 0x1.fd09047eeb084p-3
        0x1.6205e607e0e4fp-4 0x1.3f42e46a5222fp-1 0x1.f35a66dd29c5bp-3
        0x1.de511d9102561p+0 0x1.fffffffb51744p-1 0x0.0p+0
        0x1.20fa5b08eecb8p-9 0x1.3a7237e8c0776p-9 0x1.ca5ca9e6bbadfp-10
        0x1.c7ff72ef5e54bp-12 0x1.18a00648e455cp-9 0x1.322e0338bbc1cp-9
        0x1.22dacfb345b51p-8 0x1.4f2ec413cb52ap-55 0x0.0p+0
    """.split(),
    "round_robin_chunks": """
        0x1.c71f4a2c8c095p-3 0x1.c7d78bb914ed9p-2 0x1.fc61b12098f7ep-3
        0x1.642a9fccca4e9p-4 0x1.3f9b0f649d18fp-1 0x1.ed43d9243b9efp-3
        0x1.de1eaf2b8c80ep+0 0x1.fffffffff6188p-1 0x0.0p+0
        0x1.3968ddcc307b3p-12 0x1.34678222c3442p-11 0x1.8c1f12400ea97p-12
        0x1.7ff23fa79ba53p-13 0x1.12c5fbafe473fp-11 0x1.4b84356c538abp-11
        0x1.166383ce7098ep-10 0x1.3cf8466666c42p-35 0x0.0p+0
    """.split(),
    "simulate_2_drops": """
        0x1.529672bcb04eep+0 0x1.0732f0864ed86p+0 0x1.bc3c4a83a83adp-1
        0x1.e9e98e9c52b23p-1 0x1.77706bf1ef289p+0 0x1.69132ef13af19p+2
        0x1.fff83369c83f5p-1 0x1.edb22d0e56042p-3 0x1.133b89c845c11p-3
        0x1.8de025fe0f861p-5 0x1.183de0e31a023p-3 0x1.ea8fa1cb37f3ep-4
        0x1.e968423aeaab0p-4 0x1.b2cf5a6b7f87cp-5 0x1.cdcf43f5c4fadp-14
        0x1.4a88dcdc883c7p-9
    """.split(),
}


def _hex(report):
    out = []
    for value in vars(report).values():
        values = value if isinstance(value, tuple) else (value,)
        out.extend(float.hex(v) for v in values)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bits_frozen(name):
    assert _hex(CASES[name]()) == EXPECTED[name]
