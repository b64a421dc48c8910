"""The four rookbench workloads, the ops they run, and the per-op gate.

A workload is a fixed round of op templates. Round r of a run with
workload seed S holds the same templates every time, each simulation op
with its own seed derived from (workload, S, op index), so a seed replays
the same ops bit for bit. Generation ops take no seed: the generators are
deterministic. The benchmark runs whole rounds, one op at a
time (a closed loop with one client), so every run has the same op mix.

Ops call the package through module attributes (``sim.run_simulation``,
``exponents.behrend_exponents``, ...) so that the tracer's wrappers, set on
those attributes, see every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import comb

from rookbench import baselines, exponents, sim
from rookbench.baselines import SchemeDescriptor
from rookbench.field import M61, FieldError
from rookbench.sim import ConfigInvalid, FaultModel, SimConfig

# Outcomes an op may end in without aborting the benchmark: the package's
# typed errors. Anything else is a defect and stops the run.
TYPED_ERRORS = (FieldError, ConfigInvalid)

# Spare workers per coded op: the fewest that keep the chance of losing
# more workers than that below this, so fail-stop faults never sink an op.
SPARE_RISK = 1e-9

# |P+P| of behrend_exponents(n), recorded at the seed commit.
BEHREND_L = {64: 987, 256: 9373, 1024: 80003}

FAIL_AND_STRAGGLE = FaultModel(fail_prob=0.05, straggle_mean=2.0)
STRAGGLE_ONLY = FaultModel(fail_prob=0.0, straggle_mean=2.0)


class GateFailure(Exception):
    """An op produced a wrong or inconsistent result."""


@dataclass(frozen=True)
class SimTemplate:
    scheme: str
    n: int
    dims: tuple
    fault: FaultModel
    modulus: int = M61
    m: int | None = None  # None: threshold plus spare workers
    lam: int | None = None

    @property
    def label(self) -> str:
        return f"{self.scheme}/n={self.n}/{'x'.join(map(str, self.dims))}"


@dataclass(frozen=True)
class GenTemplate:
    n: int

    @property
    def label(self) -> str:
        return f"behrend-gen/n={self.n}"


@dataclass(frozen=True)
class Op:
    index: int
    label: str
    config: SimConfig | None = None  # a run_simulation op
    gen_n: int | None = None  # a generate-and-check op
    encode_delta: int | None = None  # delta(P, Q) for rook ops


WORKLOADS = {
    "decode-bound": (
        SimTemplate("rook-base3", 16, (4, 4, 4), FAIL_AND_STRAGGLE),
        SimTemplate("rook-base3", 16, (4, 4, 4), FAIL_AND_STRAGGLE),
        SimTemplate("rook-poly", 12, (2, 2, 2), FAIL_AND_STRAGGLE),
    ),
    "block-bound": (
        SimTemplate("rook-poly", 4, (32, 32, 32), FAIL_AND_STRAGGLE),
        SimTemplate("rook-base3", 4, (32, 32, 32), FAIL_AND_STRAGGLE),
        SimTemplate("lcc", 4, (32, 32, 32), FAIL_AND_STRAGGLE),
        SimTemplate("csa", 4, (32, 32, 32), FAIL_AND_STRAGGLE),
        # Fail-stop would lose both replicas of some pair in ~1 % of ops
        # (m is fixed at lambda * n), so replication gets stragglers only.
        SimTemplate("replication", 4, (32, 32, 32), STRAGGLE_ONLY, m=8, lam=2),
    ),
    # 256 twice, so that the median op is the middle of the n=256 ops.
    "behrend-gen": (GenTemplate(64), GenTemplate(256), GenTemplate(256), GenTemplate(1024)),
    "retry-gf257": (SimTemplate("rook-behrend", 8, (2, 2, 2), STRAGGLE_ONLY, modulus=257, m=60),),
}


def spare_workers(threshold: int, fail_prob: float) -> int:
    """Fewest s with P(Binomial(threshold + s, fail_prob) > s) < SPARE_RISK."""
    s = 0
    while True:
        m = threshold + s
        risk = sum(
            comb(m, k) * fail_prob**k * (1 - fail_prob) ** (m - k) for k in range(s + 1, m + 1)
        )
        if risk < SPARE_RISK:
            return s
        s += 1


def _pow_muls(e: int) -> int:
    # Multiplications of left-to-right square-and-multiply for x^e.
    return 0 if e == 0 else e.bit_length() - 1 + bin(e).count("1") - 1


def encode_delta(pair) -> int:
    """delta(P, Q): the multiplications of the gap powers of one share."""
    return sum(
        _pow_muls(e - prev) for seq in (pair.p, pair.q) for prev, e in zip((0,) + seq[:-1], seq)
    )


class Plan:
    """A workload's templates, resolved to configs, for one workload seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.templates = WORKLOADS[workload]
        self._resolved = [self._resolve(t) for t in self.templates]

    def _resolve(self, template):
        if isinstance(template, GenTemplate):
            return None
        desc = SchemeDescriptor(scheme=template.scheme, n=template.n, lam=template.lam)
        delta = None
        if template.scheme in baselines.ROOK_SCHEMES:
            delta = encode_delta(baselines.rook_exponents_for(desc))
        m = template.m
        if m is None:
            threshold = baselines.scheme_threshold(desc)
            m = threshold + spare_workers(threshold, template.fault.fail_prob)
        return desc, m, delta

    def op_seed(self, index: int) -> int:
        material = f"{self.workload}/{self.seed}/{index}".encode()
        return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") >> 1

    def round(self, r: int) -> list:
        """The ops of round r: one per template."""
        ops = []
        for k, (template, resolved) in enumerate(zip(self.templates, self._resolved)):
            index = r * len(self.templates) + k
            if resolved is None:
                ops.append(Op(index, template.label, gen_n=template.n))
                continue
            desc, m, delta = resolved
            config = SimConfig(
                descriptor=desc,
                m=m,
                dims=template.dims,
                seed=self.op_seed(index),
                fault=template.fault,
                modulus=template.modulus,
            )
            ops.append(Op(index, template.label, config=config, encode_delta=delta))
        return ops


def run_op(op: Op):
    """Run one op; returns a SimReport, or a (pair, support, decodable, 3ap_free) tuple."""
    if op.config is not None:
        return sim.run_simulation(op.config)
    pair = exponents.behrend_exponents(op.gen_n)
    support = exponents.sum_support(pair)
    return pair, support, exponents.is_decodable(pair), exponents.is_3ap_free(pair.p)


def gate(op: Op, out) -> bool:
    """Raise GateFailure on a wrong result; return whether the op succeeded.

    Success means a verified decode for a simulation op, and a decodable,
    3-AP-free pair of the recorded size for a generation op.
    """
    if op.config is None:
        pair, support, decodable, ap_free = out
        if not (decodable and ap_free):
            raise GateFailure(f"{op.label}: decodable={decodable} 3ap_free={ap_free}")
        if support.L != BEHREND_L[op.gen_n]:
            raise GateFailure(f"{op.label}: L={support.L}, recorded {BEHREND_L[op.gen_n]}")
        return True
    report = out
    if report.success and not report.verified:
        raise GateFailure(f"{op.label} op {op.index}: decode succeeded but does not verify")
    if op.encode_delta is not None:
        rows, inner, cols = op.config.dims
        shares = op.config.m
        expect = shares * (op.encode_delta + (rows + cols) * inner * report.n)
        if report.encode_invs != 0 or report.encode_muls != expect:
            raise GateFailure(
                f"{op.label} op {op.index}: encode muls {report.encode_muls} (expected {expect}),"
                f" invs {report.encode_invs} (expected 0)"
            )
    return report.success and report.verified


def outcome_text(out) -> str:
    """The op's result as text, for comparing a traced op with an untraced one."""
    if isinstance(out, sim.SimReport):
        return out.to_json()
    return repr(out)
