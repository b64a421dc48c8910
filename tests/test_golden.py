"""Golden outputs: simulate JSON and sweep CSV stay byte-identical.

The SHA-256 digests below were recorded before the scheme protocol was
introduced; any change to a report byte (a counter, an error name, the
simulated clock, the responses used) changes a digest.
"""

from __future__ import annotations

import hashlib
from itertools import product

from rookbench.baselines import ALL_SCHEMES, SchemeDescriptor, scheme_threshold
from rookbench.field import M61
from rookbench.sim import FaultModel, SimConfig, run_simulation, sweep, sweep_to_csv

GRID_SHA256 = "95abfa91975b3179a8400b0a81ba87ee4bdb070db9bbea81467571e9779c9fd3"
SWEEP_SHA256 = "61dea2b2953f1c2a4f7af584b1bffb88d90cbeecdd207397f39769e89c07d748"
RETRY_SHA256 = "6baab56aede58e0614ff92d0f216941e56c76c2cfe0c5ace54d057a6f3c07611"

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
    # rook-behrend over GF(257): three seeds end in SingularAfterRetry, one
    # decodes after failed attempts, which pins the retry loop's report.
    desc = SchemeDescriptor(scheme="rook-behrend", n=8)
    fault = FaultModel(fail_prob=0.0, straggle_mean=2.0)
    reports = [
        run_simulation(SimConfig(descriptor=desc, m=60, seed=s, fault=fault, modulus=257)).to_json()
        for s in range(4)
    ]
    assert _digest("\n".join(reports)) == RETRY_SHA256
