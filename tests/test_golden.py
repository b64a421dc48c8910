"""Golden outputs: simulate JSON, sweep CSV and generated exponents stay byte-identical.

The grid and sweep digests below were recorded before the scheme protocol
was introduced; any change to a report byte (a counter, an error name, the
simulated clock, the responses used) changes a digest.  The retry digest
was recorded when the decoder began to solve over every response received.  The generator
digests were recorded from the linear digit-shell scan, before the gallop
search and the numpy shell table replaced it.
"""

from __future__ import annotations

import hashlib
from itertools import product

import pytest

from rookbench.baselines import ALL_SCHEMES, SchemeDescriptor, scheme_threshold
from rookbench.exponents import behrend_exponents
from rookbench.field import M61
from rookbench.sim import FaultModel, SimConfig, run_simulation, sweep, sweep_to_csv

GRID_SHA256 = "95abfa91975b3179a8400b0a81ba87ee4bdb070db9bbea81467571e9779c9fd3"
SWEEP_SHA256 = "61dea2b2953f1c2a4f7af584b1bffb88d90cbeecdd207397f39769e89c07d748"
RETRY_SHA256 = "a8450b0ce8420483aa1a24dabacbf0b0cb80d91dac3a6a7a72b73fed7303de50"

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


def test_sweep_csv_matches_golden():
    rows = sweep(ALL_SCHEMES, [2, 4], trials=2, seed=5, fault=FaultModel(0.2, 1.0))
    assert _digest(sweep_to_csv(rows)) == SWEEP_SHA256


def test_singular_retry_reports_match_golden():
    # rook-behrend over GF(257), where every support exponent is even, so x
    # and -x give equal rows: three seeds' first L responses are singular
    # and decode only once later responses raise the rank, which pins the
    # reports of decodes that fail before one succeeds.
    desc = SchemeDescriptor(scheme="rook-behrend", n=8)
    fault = FaultModel(fail_prob=0.0, straggle_mean=2.0)
    reports = [
        run_simulation(SimConfig(descriptor=desc, m=60, seed=s, fault=fault, modulus=257)).to_json()
        for s in range(4)
    ]
    assert _digest("\n".join(reports)) == RETRY_SHA256


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
