"""Golden outputs: simulate JSON, sweep CSV and generated exponents stay byte-identical.

Any change to a report byte (a counter, an error name, the simulated
clock, the responses used) changes a digest.  The retry digest was
recorded when every decoder's rows began to come from one power-row
kernel, which charges L - 1 products per rook decode row where rook had
charged L.  The grid, block and sweep digests were re-recorded twice, and
each time only CSA counts moved.  First CSA folded f(x) into its A-side
generator rows instead of rescaling each finished A~ by it: a CSA share's
encode_muls moved by n - rows * inner (n muls to scale the row instead of
one per entry of A~).  Then CSA's decoder folded the residues c_i, fixed
at binding, into its pole columns instead of inverting them and rescaling
each solved block on every call: a successful CSA decode from k responses
moved by k * n - n * rows * cols in decode_muls (one product per pole
entry instead of one per entry of the n blocks) and by -n in decode_invs
(the sweep's decode_time by their sum).  The generator digests were
recorded from the linear digit-shell scan, before the gallop search and
the numpy shell table replaced it.  The retry digest was re-recorded when
the simulator began to keep each op's elimination across its decode calls
(field.SolveBasis): a decode after a failed one reduces only the newly
arrived row against the pivot rows kept so far, where it had rebuilt every
row and re-solved from scratch.  Only the reports whose first decode
failed moved (seeds 0, 1 and 3), and in them only decode_muls and
decode_invs; every other field of every golden report, and every grid,
block and sweep report, is byte-identical, since a decode that succeeds
on its first call is charged as before.  The grid, block and sweep digests
were re-recorded when supports that fill the interval 0..L-1 (rook-poly,
rook-base3 at n = 2 and 4, and LCC) began to decode by interpolation
weights (field.interpolation_weights) instead of elimination.  Only
decode_muls moved (the sweep's decode_time with it), and only in the
successful reports of those three schemes, each to the interpolation
formula exactly; decode_invs stayed L, since the elimination had pivoted
once per column.  Every rook-behrend, CSA and replication report, every
report that did not decode, and the retry and generator digests are
byte-identical.  All four were re-recorded when rook codes began to bind
their pair normalized (ExponentPair.normalized: P - p_0 and Q - q_0, over
the gcd of every gap).  poly and base3 pairs already are, so only
rook-behrend reports moved.  Their encode_muls moved by the shares encoded
times the change in delta(P, Q).  Over 2^61 - 1 only counts moved:
behrend n = 4 rows cost fewer gap products, so decode_muls
fell by that per row, and behrend n = 2 became the interval {0, 1, 2}, so
its decode_muls became the interpolation formula.  Over GF(257) the
elimination's charge skips zero entries, so decode_muls moved by other
amounts there.  The old retry subject, behrend n = 8 over GF(257), had
only even exponents, so x and -x gave equal rows; normalized, all four
seeds decode at L, so responses_used and the clock moved too.  The retry
digest therefore also takes rook-behrend n = 4 over GF(29) on all 28
nonzero points, where two of four seeds still decode only after a failed
call.  The generator digests did not move.
"""

from __future__ import annotations

import hashlib
from itertools import product

import pytest

from rookbench.baselines import ALL_SCHEMES, SchemeDescriptor, scheme_threshold
from rookbench.exponents import behrend_exponents
from rookbench.field import M61
from rookbench.sim import FaultModel, SimConfig, run_simulation, sweep, sweep_to_csv

GRID_SHA256 = "f24a3c1d3658e953efe9d01e5b263890c56d91ea3bbf1dca8da39da465ed6e6b"
SWEEP_SHA256 = "2bf3e5bcd50f1236fb4455e9f21439db3dc3c001913508f9c4190dbb433ba433"
RETRY_SHA256 = "df7f929384c8e46c203b0d7af4a5f710699a3c287611ace6d16308b536215f09"
BLOCK_SHA256 = "6cce03ef49716bec785d38ba5b7cf58dad48c52b8d4a74dbc488793ca61ad752"

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
    # 2x2x2 blocks stay below it.  First recorded when every product still
    # ran the pure-Python loops, so it pins the numpy kernel to them; the
    # CSA encode fold re-recorded it with only CSA's encode_muls moved, and
    # the CSA decode fold with only its decode_muls and decode_invs moved.
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
