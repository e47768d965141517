"""Frozen simulator output: `float.hex` of every `RateReport` field.

The expected values were recorded from the drawing and scoring loop that
preceded per-user scoring, one (slot, user, block) array a chunk.  Any
change to the draw order, the chunk boundaries, the SINR arithmetic, the
winner rule or the tally shows here as a changed bit.  The cases cover every policy, drops
whose statistics batches span several chunks, a 7-slot drop, full
feedback, a mixed NL/IL/G cell with a near-degenerate
interference-limited user, several drops on several threads and the
scenario path, which draws each drop's shadowing from the same stream.
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
        0x1.69574d99b3c0dp-2 0x1.967a883e5599dp-1 0x1.9caa82720bfd7p-2
        0x1.4e8d680911b9dp-3 0x1.8dac97493fd34p-1 0x1.113403abcc1c1p-1
        0x1.82ffd94ee175bp+1 0x1.ffff88b341236p-1 0x1.6ae147ae147aep-3
        0x1.2df23f2def0f1p-9 0x1.ab0c78d81ec05p-8 0x1.15d731f9cf523p-9
        0x1.e918b782f504dp-12 0x1.4df484fccc930p-8 0x1.09fa8fb126da9p-8
        0x1.eddf93329eb30p-8 0x1.3dfe3d2159738p-16 0x1.d1e2abfaea064p-11
    """.split(),
    "cdf_chunks": """
        0x1.6543ee6f7f022p-2 0x1.8da3e8d7dcdf8p-1 0x1.95a0e94b513dap-2
        0x1.47b25112d6704p-3 0x1.8a859fb25181fp-1 0x1.0b92928de9823p-1
        0x1.7cc6c6ce8d67ep+1 0x1.ffffe7f0678e5p-1 0x1.6ca4e963c58eep-3
        0x1.8ac720c1bb63ep-11 0x1.9cb4f4ea554c1p-10 0x1.b836def1eae17p-11
        0x1.450b8d7a66b77p-12 0x1.5aff3b85a4965p-10 0x1.25290120ab31bp-10
        0x1.e6f681e757adcp-10 0x1.9a9733712cbcep-21 0x1.509ed83228dadp-12
    """.split(),
    "cdf_full_feedback": """
        0x1.b2a7798045883p-2 0x1.b6e707d8b082fp-1 0x1.d337283f891b7p-2
        0x1.79c17fea66f5ep-3 0x1.d1029ff9e21c6p-1 0x1.34d000cd7a0adp-1
        0x1.b786565ea36e5p+1 0x1.ffeafd33f9bb2p-1 0x0.0p+0
        0x1.182ddcf02278dp-7 0x1.c4bf301e0e5fbp-6 0x1.4456f46aa8227p-7
        0x1.0f6c41d3b12ccp-8 0x1.7623ba398abd2p-6 0x1.b8d164b836916p-7
        0x1.6940e70877654p-6 0x1.795a28848fec8p-12 0x0.0p+0
    """.split(),
    "greedy": """
        0x1.f183a7b9defa3p-3 0x1.1124603186c3dp+0 0x1.3d943b4e62c4ep-2
        0x1.08c9018a6a279p-4 0x1.35319076395f4p+0 0x1.02d4632582517p-1
        0x1.b2f11b0efe3f6p+1 0x1.e7a4056c3ffa9p-1 0x1.6ae978d4fdf3bp-3
        0x1.48efdc1dbcb03p-9 0x1.b72109963da99p-8 0x1.9d4295912de39p-10
        0x1.9db979395d05ap-11 0x1.af7a3eefe6cb5p-8 0x1.6c9f7d23aeb85p-8
        0x1.c25608cc81fd1p-8 0x1.1265554939515p-11 0x1.16efba88886d3p-10
    """.split(),
    "greedy_7_slots": """
        0x1.4709515c67882p-2 0x1.5dfe973d9068dp+0 0x1.1e8a3c1e4ca30p-2
        0x1.1be16ca050466p-4 0x1.05cf2cc7b2842p+0 0x1.fd83a8de0accep-2
        0x1.c728d432bbd7bp+1 0x1.e831c148c20bep-1 0x1.8000000000000p-3
        0x1.a0d52397f0c14p-5 0x1.996ccc5f60e00p-3 0x1.3a6dfe9f9576ap-4
        0x1.9fe057f29faf6p-7 0x1.5ee42d9020fa9p-3 0x1.086bc0c1276e7p-4
        0x1.61c93f6337715p-3 0x1.1d0ba800ea9fap-6 0x1.bee9056fb9c38p-6
    """.split(),
    "round_robin": """
        0x1.c5008ac3db38ep-3 0x1.c2cbeeb049f6dp-2 0x1.fd70ee07ef592p-3
        0x1.61e0f6d09fe96p-4 0x1.3da0cf64041edp-1 0x1.ef8ce4aa030c2p-3
        0x1.dbe13e79d83f7p+0 0x1.fffffffb51744p-1 0x0.0p+0
        0x1.5b477671bcde5p-10 0x1.ea35d20bc627cp-9 0x1.daf766a77f4cfp-10
        0x1.e86cbb5944284p-12 0x1.8369655904851p-9 0x1.fb8082dd2dc48p-10
        0x1.76480d51e1a4cp-8 0x1.4f2ec413cb52ap-55 0x0.0p+0
    """.split(),
    "round_robin_chunks": """
        0x1.c7195b03eb16dp-3 0x1.c6e5caa695a9bp-2 0x1.fc713aa9abb6ap-3
        0x1.63ba219ae7c9bp-4 0x1.3f409af778f37p-1 0x1.ec42c11cb9e6fp-3
        0x1.dd8f0d185a776p+0 0x1.fffffffff6188p-1 0x0.0p+0
        0x1.42beee997752bp-12 0x1.550a9d3a52cc5p-11 0x1.7379599664591p-12
        0x1.1a55c665256ddp-13 0x1.c6550fe5d130bp-12 0x1.09e081013f013p-11
        0x1.fd548b8505fccp-11 0x1.3cf8466666c42p-35 0x0.0p+0
    """.split(),
    "simulate_2_drops": """
        0x1.52c0dfc42ea4cp+0 0x1.0305d5e613d7fp+0 0x1.cc7d111cbf2f3p-1
        0x1.f9b6e5abaa9b1p-1 0x1.7444ddabb3e1dp+0 0x1.6b4963ae8ad0fp+2
        0x1.fffb4e703fd3cp-1 0x1.e9db22d0e5604p-3 0x1.0887bb3bc08e6p-3
        0x1.d21a880dc3a1fp-5 0x1.21b467a77b7c0p-3 0x1.02d52fb976e15p-3
        0x1.e73d358866cbdp-4 0x1.b6467d0944751p-5 0x1.58f5073e942b3p-13
        0x1.fa4d6a55b7a82p-10
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
