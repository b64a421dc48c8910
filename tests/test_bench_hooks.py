"""The benchmark's trace hooks still fit the package.

perfbench/spans.py wraps module attributes by name and checks the op counts
its spans see against each SimReport.  These tests import it read-only, so
a refactor that renames a traced function or moves a count away from the
traced calls fails here rather than only under `perfbench/run.py --trace 1`.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from rookbench.baselines import ALL_SCHEMES, SchemeDescriptor, scheme_threshold
from rookbench.field import M61
from rookbench.sim import FaultModel, SimConfig, run_simulation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_every_traced_point_resolves():
    for module, attr, name in spans.POINTS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


@pytest.mark.parametrize("modulus", [M61, 257], ids=["m61", "p257"])
def test_span_counts_match_reports(modulus):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for scheme in ALL_SCHEMES:
            desc = SchemeDescriptor(scheme=scheme, n=2, lam=2)
            m = desc.fixed_m or scheme_threshold(desc) + 2
            fault = FaultModel(fail_prob=0.2, straggle_mean=1.0)
            config = SimConfig(descriptor=desc, m=m, seed=7, fault=fault, modulus=modulus)
            tracer.spans.clear()
            report = run_simulation(config)
            assert report.verified, scheme
            assert spans.cross_check(tracer.spans, report) == [], scheme
    finally:
        tracer.uninstall()
