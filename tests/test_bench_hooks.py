"""The benchmark's trace hooks still fit the package.

perfbench/spans.py wraps module attributes by name and checks the op counts
its spans see against each SimReport.  These tests import it read-only, so
a refactor that renames a traced function or moves a count away from the
traced calls fails here rather than only under `perfbench/run.py --trace 1`.
"""

from __future__ import annotations

import sys
from itertools import product
from pathlib import Path

import pytest

from rookbench import rook
from rookbench.baselines import ALL_SCHEMES, ROOK_SCHEMES, SchemeDescriptor, rook_exponents_for, scheme_threshold
from rookbench.field import M61, NUMPY_MIN_MULS
from rookbench.sim import FaultModel, SimConfig, run_simulation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_point_resolves():
    for module, attr, name in spans.POINTS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def test_gate_delta_matches_package_delta():
    # The gate checks encode_muls against its own copy of delta(P, Q).
    templates = [
        t
        for ts in workloads.WORKLOADS.values()
        for t in ts
        if isinstance(t, workloads.SimTemplate) and t.scheme in ROOK_SCHEMES
    ]
    assert templates
    for t in templates:
        pair = rook_exponents_for(SchemeDescriptor(scheme=t.scheme, n=t.n))
        assert workloads.encode_delta(pair) == rook.encode_delta(pair), t.label


def _cross_check_each(configs):
    """Run each config under the tracer and compare its spans with its report.

    Returns the number of rook.decode calls of each run.
    """
    decode_calls = []
    tracer = spans.Tracer()
    tracer.install()
    try:
        for config in configs:
            tracer.spans.clear()
            report = run_simulation(config)
            label = (config.descriptor.scheme, config.seed)
            assert report.verified, label
            assert spans.cross_check(tracer.spans, report) == [], label
            decode_calls.append(sum(s.name == "rook.decode" for s in tracer.spans))
    finally:
        tracer.uninstall()
    return decode_calls


@pytest.mark.parametrize("modulus", [M61, 257], ids=["m61", "p257"])
def test_span_counts_match_reports(modulus):
    # 8x8x8 blocks put the worker products (512 muls) at field.NUMPY_MIN_MULS
    # and 16x16x16 the n = 2 encodes too; 2x2x2 keeps every call below it.
    configs = []
    for scheme, dims in product(ALL_SCHEMES, ((2, 2, 2), (8, 8, 8), (16, 16, 16))):
        desc = SchemeDescriptor(scheme=scheme, n=2, lam=2)
        m = desc.fixed_m or scheme_threshold(desc) + 2
        fault = FaultModel(fail_prob=0.2, straggle_mean=1.0)
        configs.append(SimConfig(descriptor=desc, m=m, dims=dims, seed=7, fault=fault, modulus=modulus))
    _cross_check_each(configs)


def test_span_counts_match_reports_over_repeated_decodes():
    # rook-behrend n = 4 over GF(29), on all 28 nonzero points: some runs'
    # first L responses are singular (seeds 0 and 4), so they decode more
    # than once before their responses determine the products, and the
    # report's decode counters sum every call.
    desc = SchemeDescriptor(scheme="rook-behrend", n=4)
    fault = FaultModel(fail_prob=0.0, straggle_mean=2.0)
    configs = [SimConfig(descriptor=desc, m=28, seed=s, fault=fault, modulus=29) for s in range(5)]
    assert _cross_check_each(configs) == [2, 1, 1, 1, 5]


@pytest.mark.parametrize("modulus", [M61, 257], ids=["m61", "p257"])
def test_span_counts_match_reports_when_workers_encode(modulus):
    # The survivors' shares are encoded in one call, which the encode span
    # wraps; failed workers are charged nothing.
    configs = []
    for scheme, dims in product(ALL_SCHEMES, ((2, 2, 2), (16, 16, 16))):
        desc = SchemeDescriptor(scheme=scheme, n=2, lam=2)
        m = desc.fixed_m or scheme_threshold(desc) + 2
        fault = FaultModel(fail_prob=0.2, straggle_mean=1.0)
        configs.append(
            SimConfig(descriptor=desc, m=m, dims=dims, seed=7, encode_at="workers", fault=fault, modulus=modulus)
        )
    _cross_check_each(configs)


def test_span_counts_match_reports_at_decode_bound_shape():
    # decode-bound's first round: two rook-base3 n=16 ops, 4x4x4 blocks,
    # about a hundred workers, so each side's generator-matrix product is
    # past NUMPY_MIN_MULS; then rook-poly n=12, 2x2x2 blocks, whose decode
    # interpolates through L = 144 points.
    ops = workloads.Plan("decode-bound", 1).round(0)
    configs = [op.config for op in ops]
    config = configs[0]
    assert (config.descriptor.scheme, config.descriptor.n, config.dims) == ("rook-base3", 16, (4, 4, 4))
    assert config.m * 16 * 4 * 4 >= NUMPY_MIN_MULS
    last = configs[-1]
    assert (last.descriptor.scheme, last.descriptor.n, last.dims) == ("rook-poly", 12, (2, 2, 2))
    _cross_check_each(configs)
    for op, config in zip(ops, configs):
        assert workloads.gate(op, run_simulation(config)), op.label


def test_span_counts_match_reports_at_block_bound_shape():
    # block-bound's first round: n = 4, 32x32x32 blocks, one op each of
    # rook-poly, rook-base3, lcc, csa and replication, the benchmark's only
    # LCC, CSA and replication ops.
    ops = workloads.Plan("block-bound", 1).round(0)
    configs = [op.config for op in ops]
    assert [c.descriptor.scheme for c in configs] == ["rook-poly", "rook-base3", "lcc", "csa", "replication"]
    assert all((c.descriptor.n, c.dims) == (4, (32, 32, 32)) for c in configs)
    _cross_check_each(configs)
    for op, config in zip(ops, configs):
        assert workloads.gate(op, run_simulation(config)), op.label
