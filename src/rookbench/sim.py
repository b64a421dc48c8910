"""Deterministic master-worker simulator with fail-stop and straggler faults.

Each op draws its randomness from three PRNG streams keyed by (seed, role):
"scheme" picks the evaluation points, "inputs" draws A_0, B_0, A_1, B_1, ...
in order, and "workers" gives worker w its draws 2w (fail-stop) and 2w + 1
(straggle), both taken whatever the worker's fate, so a worker's fate
depends on neither m nor any other worker and a run is reproducible
regardless of host parallelism.  Failed workers never respond, survivors
respond at base_delay * (work size) plus an exponential straggle term, and
the master consumes responses in completion order, asking the bound scheme
to decode after each one (coded schemes wait for their threshold, then
interpolate through the first threshold responses with distinct points;
only a rook code whose support is not an interval solves the system of
every response received so far instead; replication checks coverage).
Every successful decode is verified against direct per-pair products.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import operator
import random
from dataclasses import asdict, dataclass, field as dc_field

from . import rook
from .baselines import ConfigInvalid, SchemeDescriptor, bind_scheme, integer, scheme_threshold
from .field import M61, FieldError, OpCounter, PrimeField, mat_mul, mat_random
from .rook import NotEnoughProducts


@dataclass(frozen=True)
class FaultModel:
    fail_prob: float = 0.0  # fail-stop: the worker never responds
    straggle_mean: float = 0.0  # mean of exponential extra delay
    base_delay: float = 1.0  # sim-units per unit of multiply work

    def validate(self):
        for name in ("fail_prob", "straggle_mean", "base_delay"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigInvalid(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ConfigInvalid(f"fail_prob {self.fail_prob} outside [0, 1]")
        if not all(math.isfinite(d) and d >= 0 for d in (self.straggle_mean, self.base_delay)):
            raise ConfigInvalid("delays must be finite and nonnegative")


@dataclass(frozen=True)
class SimConfig:
    descriptor: SchemeDescriptor
    m: int
    dims: tuple = (2, 2, 2)  # (rows of A, inner, cols of B)
    seed: int = 0
    encode_at: str = "master"  # master | workers
    fault: FaultModel = dc_field(default_factory=FaultModel)
    modulus: int = M61


@dataclass
class SimReport:
    scheme: str
    n: int
    m: int
    seed: int
    success: bool
    responses_received: int
    responses_used: int
    failed_workers: list
    threshold: int
    encode_muls: int
    encode_invs: int
    worker_muls: int
    decode_muls: int
    decode_invs: int
    wallclock_sim_units: float
    verified: bool
    error: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def stream(seed: int, *key) -> random.Random:
    """Independent PRNG stream keyed by (seed, *key); stable across runs."""
    material = repr((operator.index(seed),) + tuple(key)).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _integer(name: str, value) -> int:
    try:
        return integer(name, value)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None


def _validate(dims, encode_at: str, fault: FaultModel, modulus: int) -> tuple[tuple, PrimeField]:
    """Check a run's settings other than its scheme, m and seed; return its
    dims as ints and its field."""
    if not hasattr(dims, "__len__") or len(dims) != 3:
        raise ConfigInvalid("dims must be three positive integers")
    dims = tuple(_integer("dims", d) for d in dims)
    if any(d < 1 for d in dims):
        raise ConfigInvalid("dims must be three positive integers")
    if encode_at not in ("master", "workers"):
        raise ConfigInvalid(f"encode_at must be master or workers, got {encode_at!r}")
    if not isinstance(fault, FaultModel):
        raise ConfigInvalid(f"fault must be a FaultModel, got {fault!r}")
    fault.validate()
    try:
        return dims, PrimeField(_integer("modulus", modulus))
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


def _check_workers(m: int) -> None:
    if m < 1:
        raise ConfigInvalid("m must be >= 1")


def _worker_fates(seed: int, m: int, fault: FaultModel, work_units: int):
    """(arrivals, failed) of m workers from the one "workers" stream.

    Worker w fails when the stream's random() draw 2w is below fail_prob;
    otherwise it arrives at base_delay * work_units plus
    straggle_mean * -log(1 - u), u being draw 2w + 1: random.expovariate's
    formula, with the scalar math.log, so a seed replays bit for bit on any
    host.  Both draws are taken for every worker, so worker w's fate is the
    same at every m > w.  Arrivals are (time, worker) in completion order,
    ties broken by worker id.
    """
    draws = stream(seed, "workers").random
    base = fault.base_delay * work_units
    arrivals = []
    failed = []
    for w in range(m):
        fail, straggle = draws(), draws()  # draws 2w and 2w + 1
        if fail < fault.fail_prob:
            failed.append(w)
        else:
            arrivals.append((base + fault.straggle_mean * -math.log(1.0 - straggle), w))
    arrivals.sort()
    return arrivals, failed


def run_simulation(config: SimConfig) -> SimReport:
    """One full encode / fault-inject / collect / decode / verify round."""
    m = _integer("m", config.m)
    _check_workers(m)
    seed = _integer("seed", config.seed)
    (rows, inner, cols), fld = _validate(config.dims, config.encode_at, config.fault, config.modulus)
    desc = config.descriptor

    rng = stream(seed, "inputs")
    inputs = [(mat_random(fld, rows, inner, rng), mat_random(fld, inner, cols, rng)) for _ in range(desc.n)]
    oracle = [mat_mul(fld, a, b) for a, b in inputs]
    scheme = bind_scheme(desc, fld, m, stream(seed, "scheme"))
    arrivals, failed = _worker_fates(seed, m, config.fault, rows * inner * cols)
    survivors = sorted(w for _, w in arrivals)

    # Encoding cost lands on the master (all m shares) or on each surviving
    # worker, depending on where encoding is delegated; either way the
    # shares are encoded in one call.
    encode_ctr = OpCounter()
    encoded = range(m) if config.encode_at == "master" else survivors
    shares = {share.worker_id: share for share in scheme.encode(inputs, encoded, encode_ctr)}
    worker_ctr = OpCounter()
    responses = {w: rook.rook_worker(fld, shares[w], worker_ctr) for w in survivors}

    # The master takes responses in completion order and tries to decode
    # after each one, until a decode succeeds.
    decode_ctr = OpCounter()
    products = []
    decoded = None
    error = None
    clock = 0.0
    for t, w in arrivals:
        products.append(responses[w])
        clock = t
        try:
            decoded = scheme.decode(products, decode_ctr)
        except NotEnoughProducts:
            continue
        except FieldError as exc:
            error = type(exc).__name__
            continue
        break

    success = decoded is not None
    return SimReport(
        scheme=desc.scheme,
        n=desc.n,
        m=m,
        seed=seed,
        success=success,
        responses_received=len(arrivals),
        responses_used=len(products) if success else 0,
        failed_workers=failed,
        threshold=scheme.threshold,
        encode_muls=encode_ctr.mul_count,
        encode_invs=encode_ctr.inv_count,
        worker_muls=worker_ctr.mul_count,
        decode_muls=decode_ctr.mul_count,
        decode_invs=decode_ctr.inv_count,
        wallclock_sim_units=clock,
        verified=success and decoded == oracle,
        error=None if success else error or "InsufficientWorkers",
    )


SWEEP_COLUMNS = (
    "scheme",
    "n",
    "trial",
    "threshold",
    "responses_used",
    "encode_muls",
    "encode_invs",
    "worker_muls",
    "decode_time",
    "success",
    "verified",
)


def sweep(
    schemes,
    n_values,
    trials: int = 1,
    extra_workers: int = 4,
    dims: tuple = (2, 2, 2),
    seed: int = 0,
    encode_at: str = "master",
    fault: FaultModel | None = None,
    modulus: int = M61,
    lam: int = 2,
):
    """Run trials per (scheme, n); one row each plus a mean row per group.

    Worker count is threshold + extra_workers (replication uses lambda * n).
    decode_time is an op-count proxy: decode multiplications + inversions.
    """
    trials = _integer("trials", trials)
    extra_workers = _integer("extra_workers", extra_workers)
    seed = _integer("seed", seed)
    if trials < 0:
        raise ConfigInvalid("trials must be >= 0")
    fault = FaultModel() if fault is None else fault
    _validate(dims, encode_at, fault, modulus)
    out_rows = []
    for scheme_name in schemes:
        for n in n_values:
            try:
                desc = SchemeDescriptor(scheme=scheme_name, n=n, lam=lam)
            except ValueError as exc:
                raise ConfigInvalid(str(exc)) from exc
            m = desc.fixed_m or scheme_threshold(desc) + extra_workers
            _check_workers(m)
            group = []
            for trial in range(trials):
                cfg = SimConfig(
                    descriptor=desc,
                    m=m,
                    dims=dims,
                    seed=stream(seed, scheme_name, n, trial).getrandbits(63),
                    encode_at=encode_at,
                    fault=fault,
                    modulus=modulus,
                )
                rep = run_simulation(cfg)
                row = {
                    "scheme": scheme_name,
                    "n": n,
                    "trial": trial,
                    "threshold": rep.threshold,
                    "responses_used": rep.responses_used,
                    "encode_muls": rep.encode_muls,
                    "encode_invs": rep.encode_invs,
                    "worker_muls": rep.worker_muls,
                    "decode_time": rep.decode_muls + rep.decode_invs,
                    "success": int(rep.success),
                    "verified": int(rep.verified),
                }
                group.append(row)
                out_rows.append(row)
            if group:
                mean_row = {"scheme": scheme_name, "n": n, "trial": "mean"}
                for col in SWEEP_COLUMNS[3:]:
                    mean_row[col] = sum(r[col] for r in group) / len(group)
                out_rows.append(mean_row)
    return out_rows


def sweep_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
