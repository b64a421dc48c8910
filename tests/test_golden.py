"""Golden outputs: simulate JSON, sweep CSV and generated exponents stay byte-identical.

Any change to a report byte (a counter, an error name, the simulated
clock, the responses used) changes a digest.  Each digest pins:
- GRID_SHA256: 216 simulate reports, every scheme at n = 2 and 4, both
  encode sides and three failure rates, over 2^61 - 1 and GF(257), with
  2 x 2 blocks;
- BLOCK_SHA256: 12 simulate reports at n = 4 with 16 x 16 blocks, whose
  products run the numpy kernel;
- SWEEP_SHA256: the sweep CSV of every scheme at n = 2 and 4, two trials;
- RETRY_SHA256: rook-behrend reports, some of whose decodes fail before
  one succeeds, so it pins the charge of an op that decodes more than
  once, each call solving every response received so far;
- GENERATOR_GOLDENS: behrend_exponents' search and explicit modes.
A change that moves a digest on purpose records which fields moved, and
why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from itertools import product

import pytest

from rookbench.baselines import ALL_SCHEMES, SchemeDescriptor, scheme_threshold
from rookbench.exponents import behrend_exponents
from rookbench.field import M61
from rookbench.sim import FaultModel, SimConfig, run_simulation, sweep, sweep_to_csv

GRID_SHA256 = "ff3513eb23fbee74d04d106200f8b13f4f5f49f479d1183b429cc820b3738ee9"
SWEEP_SHA256 = "4cdd8498ddbe7ad25486c0fa251eb5366f41c302536dcc915e1659afb972a1c5"
RETRY_SHA256 = "b74a869f0f163ade580b05cdf3ae217113bde06899bca9de66b6e936e80cdf18"
BLOCK_SHA256 = "39a7760819b64430282cf267fc79d6f40ff6433626feac2ae8ac5487941ed985"

SEEDS = ((11, M61), (12, M61), (13, 257))


def _grid_configs():
    for scheme, n, encode_at, fail_prob, (seed, modulus) in product(
        ALL_SCHEMES, (2, 4), ("master", "workers"), (0.0, 0.3, 0.6), SEEDS
    ):
        if scheme == "replication":
            desc = SchemeDescriptor(scheme=scheme, n=n, lam=2)
            m = 2 * n
        else:
            desc = SchemeDescriptor(scheme=scheme, n=n)
            m = scheme_threshold(desc) + 2
        yield SimConfig(
            descriptor=desc,
            m=m,
            seed=seed,
            encode_at=encode_at,
            fault=FaultModel(fail_prob=fail_prob, straggle_mean=1.5),
            modulus=modulus,
        )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_simulate_reports_match_golden():
    reports = [run_simulation(cfg).to_json() for cfg in _grid_configs()]
    assert len(reports) == 216
    assert _digest("\n".join(reports)) == GRID_SHA256


def test_block_reports_match_golden():
    # 16x16x16 blocks put every worker product (4,096 muls) and the n = 4
    # encodes (1,024) at or above field.NUMPY_MIN_MULS, where the grid's
    # 2x2x2 blocks stay below it.
    reports = []
    for scheme, (seed, modulus) in product(ALL_SCHEMES, SEEDS[:2]):
        desc = SchemeDescriptor(scheme=scheme, n=4, lam=2)
        m = desc.fixed_m or scheme_threshold(desc) + 2
        fault = FaultModel(fail_prob=0.1, straggle_mean=1.5)
        cfg = SimConfig(descriptor=desc, m=m, dims=(16, 16, 16), seed=seed, fault=fault, modulus=modulus)
        reports.append(run_simulation(cfg).to_json())
    assert _digest("\n".join(reports)) == BLOCK_SHA256


def test_sweep_csv_matches_golden():
    rows = sweep(ALL_SCHEMES, [2, 4], trials=2, seed=5, fault=FaultModel(0.2, 1.0))
    assert _digest(sweep_to_csv(rows)) == SWEEP_SHA256


def test_singular_retry_reports_match_golden():
    # rook-behrend n = 8 over GF(257) on 60 workers, then n = 4 over GF(29)
    # on all 28 nonzero points.  In the second, two seeds' first L
    # responses are singular and decode only once later responses raise
    # the rank, which pins the reports of decodes that fail before one
    # succeeds.
    fault = FaultModel(fail_prob=0.0, straggle_mean=2.0)
    reports = [
        run_simulation(
            SimConfig(descriptor=SchemeDescriptor(scheme="rook-behrend", n=n), m=m, seed=s, fault=fault, modulus=modulus)
        )
        for n, m, modulus in ((8, 60, 257), (4, 28, 29))
        for s in range(4)
    ]
    assert any(rep.responses_used > rep.threshold for rep in reports[4:])  # a decode failed first
    assert _digest("\n".join(rep.to_json() for rep in reports)) == RETRY_SHA256


# (n, digit_range, length) cases; the last two explicit ones have d^l past
# 2^63, so their shell tables hold Python ints.
GENERATOR_GOLDENS = {
    "search-n1-160": (
        [(n, None, None) for n in range(1, 161)],
        "b031b5c71b3d2fc35f58b3b39f98c2cbe6a27ee6401308477e2fce341617032d",
    ),
    "search-n200-2048": (
        [(n, None, None) for n in (200, 256, 512, 1024, 2048)],
        "f4af30e3d9e7c6cb5ac0f9cbf271bbc5757d2861ff69eb1fa77bab54e302a7e8",
    ),
    "explicit": (
        [(4, 3, 3), (20, 5, 4), (30, 20, 14), (50, 40, 12), (100, 9, 21)],
        "53eac1017e7d52bfbe3a8ec61e2ff3b71ee2919b7fdd3b18205e5a3f42bb3216",
    ),
}


@pytest.mark.parametrize("name", GENERATOR_GOLDENS)
def test_behrend_exponents_match_golden(name):
    cases, want = GENERATOR_GOLDENS[name]
    lines = []
    for n, d, length in cases:
        pair = behrend_exponents(n, digit_range=d, length=length)
        lines.append(f"{n}:" + ",".join(map(str, pair.p)))
    assert _digest("\n".join(lines)) == want
