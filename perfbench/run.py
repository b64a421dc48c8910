"""rookbench benchmark: one command, one workload, one result line.

    python3 perfbench/run.py --workload decode-bound --seed 1 --seconds 25 --trace 0

Run it from the repository root. It imports the package from ./src, runs
the workload's ops in whole rounds, one at a time, until --seconds have
passed, and gates every op's result. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones; with --trace 1 each op runs
once untraced and once traced, and the metrics are its per_layer ones.
A record of the run (with its machine stamp) and, when traced, every span
are written under perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("decode-bound", "block-bound", "behrend-gen", "retry-gf257")
SETUP_REPS = 15  # set-ups timed for setup_s in one fresh interpreter, after one warm-up
TAIL_BEYOND = 10  # op_tail_s is the slowest op with this many slower ones
FAILED_SHARE_FLOOR = 1e-6

# End-to-end times are reference seconds: wall seconds scaled by
# CAL_REF_S / (the median calibration() time measured around them). The
# shared machine's CPU speed switches by about a third within seconds, and
# the scale cancels that; calibration() is fixed code, so no change to the
# package moves it.
CAL_REF_S = 1.9e-3  # median calibration() time on the 2-vCPU Xeon reference VM
CAL_REPS = 3  # calibration() runs before every timed op or set-up
_CAL_MODULUS = (1 << 61) - 1


def calibration() -> int:
    """Fixed pure-Python GF(2^61-1) multiply-adds, like the package's inner loops."""
    acc, x = 1, 0x123456789ABCDEF
    for i in range(6000):
        acc = (acc * x + i) % _CAL_MODULUS
    return acc


def calibrate(samples: list, stamps: list | None = None) -> None:
    """Run calibration() CAL_REPS times; append each time, and its midpoint."""
    for _ in range(CAL_REPS):
        t0 = perf_counter()
        calibration()
        t1 = perf_counter()
        samples.append(t1 - t0)
        if stamps is not None:
            stamps.append((t0 + t1) / 2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import rookbench from this checkout's src/, never from elsewhere."""
    if not (SRC / "rookbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'rookbench'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rookbench
    import rookbench.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    if Path(rookbench.__file__).resolve().parent != SRC / "rookbench":
        raise SystemExit(f"error: imported rookbench from {rookbench.__file__}, not {SRC}")


def setup_probe(args) -> int:
    """Time set-ups in this fresh interpreter and print them as JSON.

    numpy, a third-party dependency whose import no change to the package
    moves, is imported first and untimed. Each set-up then drops every
    rookbench module (and workloads) from sys.modules, collects garbage,
    runs calibration(), and times the package import, rookbench.cli
    included, plus building round 0 of the op plan. The first set-up also
    imports the standard-library modules the package uses; it is a warm-up.
    """
    import gc

    import numpy  # noqa: F401

    times, cal = [], []
    for _ in range(SETUP_REPS + 1):
        for name in list(sys.modules):
            if name == "rookbench" or name.startswith("rookbench.") or name == "workloads":
                del sys.modules[name]
        gc.collect()
        calibrate(cal)
        t0 = perf_counter()
        import_package()
        import workloads

        workloads.Plan(args.workload, args.seed).round(0)
        times.append(perf_counter() - t0)
    print(json.dumps({"times": times[1:], "cal": cal}))
    return 0


def measure_setup(args) -> tuple[float, float]:
    """Median set-up time over SETUP_REPS set-ups in one fresh interpreter,
    and the median calibration() time taken there."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return statistics.median(probe["times"]), statistics.median(probe["cal"])


def tail(times):
    """(seconds, percentile, ops beyond): the slowest op with TAIL_BEYOND slower.

    With fewer than 8 * TAIL_BEYOND ops it is the op with n // 8 slower ones
    (about the 88th percentile), which is steadier than the slowest op
    alone. The tail then stays in the slowest eighth of the ops as their
    number grows, so it never falls into a faster class of a workload's ops
    when a faster machine fits one more round into the run.
    """
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 8)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def stamp(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rookbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Run:
    """The closed loop: whole rounds of ops, one at a time, until time is up."""

    def __init__(self, workloads, plan, seconds):
        self.workloads = workloads
        self.plan = plan
        self.seconds = seconds
        self.attempted = 0
        self.errored = 0  # ops that ended in a typed error
        self.unverified = 0  # ops that did not end in a verified decode

    def op(self, op):
        """Run and gate one op; returns (wall seconds, result or None)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = self.workloads.run_op(op)
        except self.workloads.TYPED_ERRORS:
            dt = perf_counter() - t0
            self.errored += 1
            self.unverified += 1
            return dt, None
        dt = perf_counter() - t0
        if not self.workloads.gate(op, out):
            self.unverified += 1
        return dt, out

    def rounds(self):
        t0 = perf_counter()
        r = 0
        while True:
            yield self.plan.round(r)
            r += 1
            if perf_counter() - t0 >= self.seconds:
                self.elapsed = perf_counter() - t0
                return


def end_to_end(run, args) -> tuple[dict, dict]:
    wall_setup_s, setup_cal = measure_setup(args)
    starts, times, cal, stamps = [], [], [], []
    for ops in run.rounds():
        for op in ops:
            calibrate(cal, stamps)
            starts.append(perf_counter())
            dt, _ = run.op(op)
            times.append(dt)
    calibrate(cal, stamps)
    # Each op is scaled by the median of the calibrations taken from one op
    # length before it starts to one op length after it ends. The CPU speed
    # switches within seconds: a short op takes the speed just around it,
    # while a 5 s op, which lives through several switches, takes an
    # average over a span as long as itself on either side.
    scaled = []
    for i, (start, dt) in enumerate(zip(starts, times)):
        near = [c for c, at in zip(cal, stamps) if start - dt <= at <= start + 2 * dt]
        near = near or cal[CAL_REPS * i : CAL_REPS * (i + 2)]  # the ones just before and after
        scaled.append(dt * CAL_REF_S / statistics.median(near))
    busy_s = run.elapsed - sum(cal[:-CAL_REPS])  # the loop's wall time, calibration excluded
    tail_s, pct, beyond = tail(scaled)
    metrics = {
        "ops_per_s": run.attempted / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        # Plus one part in a million, so a run without failures reads
        # FAILED_SHARE_FLOOR and not 0; a real failure dwarfs it.
        "failed_share": run.unverified / run.attempted + FAILED_SHARE_FLOOR,
        "setup_s": wall_setup_s * CAL_REF_S / setup_cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ops": run.attempted,
        "elapsed_s": run.elapsed,
        "unverified_ops": run.unverified,
        "raw_failed_share": run.unverified / run.attempted,
        "tail_percentile": pct,
        "tail_ops_beyond": beyond,
        "calibration_s": statistics.median(cal),
        "wall_ops_per_s": run.attempted / busy_s,
        "wall_op_p50_s": statistics.median(times),
        "wall_op_tail_s": tail(times)[0],
        "wall_setup_s": wall_setup_s,
        "setup_calibration_s": setup_cal,
    }
    return metrics, notes


def traced(run, workloads, spans) -> tuple[dict, dict, object]:
    """Each op untraced then traced (order alternating); gates both and
    checks that tracing changed no result and that span counts match."""
    tracer = spans.Tracer()
    plain, with_trace, reports = [], [], []
    for ops in run.rounds():
        for op in ops:
            results = {}
            for traced_now in (False, True) if op.index % 2 == 0 else (True, False):
                if traced_now:
                    tracer.op = op.index
                    first_span = len(tracer.spans)
                    tracer.install()
                    try:
                        dt, out = run.op(op)
                    finally:
                        tracer.uninstall()
                    with_trace.append(dt)
                else:
                    dt, out = run.op(op)
                    plain.append(dt)
                results[traced_now] = out
            if (results[False] is None) != (results[True] is None) or (
                results[False] is not None
                and workloads.outcome_text(results[False]) != workloads.outcome_text(results[True])
            ):
                raise workloads.GateFailure(f"{op.label} op {op.index}: tracing changed the result")
            report = results[True]
            if op.config is not None and report is not None:
                bad = spans.cross_check(tracer.spans[first_span:], report)
                if bad:
                    raise workloads.GateFailure(f"{op.label} op {op.index}: " + "; ".join(bad))
                reports.append(report)
    metrics = spans.layer_metrics(tracer.spans, reports, len(with_trace))
    p50_plain, p50_traced = statistics.median(plain), statistics.median(with_trace)
    metrics["trace.overhead_share"] = p50_traced / p50_plain - 1.0
    notes = {
        "op_pairs": len(with_trace),
        "untraced_op_p50_s": p50_plain,
        "traced_op_p50_s": p50_traced,
        "spans": len(tracer.spans),
        "unverified_ops": run.unverified,
    }
    return metrics, notes, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    import spans
    import workloads

    kind = "per_layer" if args.trace else "end_to_end"
    run = Run(workloads, workloads.Plan(args.workload, args.seed), args.seconds)
    try:
        if args.trace:
            values, notes, tracer = traced(run, workloads, spans)
        else:
            values, notes = end_to_end(run, args)
    except workloads.GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted, "failed": run.errored, "metrics": {}}))
        return 1

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise SystemExit(f"error: computed {sorted(values)} but BENCHMARK.json lists {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {"stamp": stamp(args), "notes": notes, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{base}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        tracer.write(OUT / f"{base}.spans.jsonl", record["stamp"])

    print(json.dumps(record["stamp"], sort_keys=True))
    print(json.dumps(notes, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:>13} {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": run.errored, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
