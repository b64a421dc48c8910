"""Command-line surface: generators, checkers, simulator, and benchmarks.

Exit codes: 0 success, 1 negative result (e.g. a pair that is not
decodable, or a failed simulation), 2 usage or input errors.  Every command
raises its input errors, an unwritable --out included, to `main`, which
prints one `error: <message>` line on stderr and returns 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .baselines import ALL_SCHEMES, SchemeDescriptor, scheme_threshold
from .exponents import (
    ExponentPair,
    ParameterSearchExhausted,
    SearchBudgetExceeded,
    base3_exponents,
    behrend_exponents,
    is_3ap_free,
    is_decodable,
    min_recovery_bruteforce,
    poly_code_exponents,
    sum_support,
)
from .field import M61, PrimeField, is_prime_u64
from .rook import encode_delta
from .sim import ConfigInvalid, FaultModel, SimConfig, run_simulation, sweep, sweep_to_csv

_GENERATORS = {
    "poly": poly_code_exponents,
    "base3": base3_exponents,
    "behrend": behrend_exponents,
}


def _seed(args) -> int:
    """--seed, else ROOKBENCH_SEED, else 0; read only by commands that take a seed."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("ROOKBENCH_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"ROOKBENCH_SEED must be an integer, got {text!r}") from None


def _write_out(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_modulus(text: str) -> int:
    value = int(text)
    if not is_prime_u64(value):
        raise argparse.ArgumentTypeError(f"modulus {value} is not prime")
    return value


def _int_list(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def cmd_gen(args) -> int:
    pair = _GENERATORS[args.scheme](args.n)
    # The support of the normalized pair a rook scheme binds; L is the same
    # as the generator's pair.  Binding needs the largest product exponent,
    # not the largest input one.
    support = sum_support(pair.normalized())
    if args.modulus is not None:
        PrimeField(args.modulus).check_exponent_bound(support.support[-1])
    _write_out(args.out, json.dumps(pair.to_json_dict()) + "\n")
    print(f"L={support.L} decodable={str(is_decodable(pair)).lower()}")
    return 0


def cmd_check(args) -> int:
    try:
        with open(args.exponents) as fh:
            pair = ExponentPair.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot parse exponent file: {exc}") from exc
    ok = is_decodable(pair)
    parts = [f"decodable={str(ok).lower()}", f"L={sum_support(pair).L}"]
    if pair.p == pair.q:
        parts.append(f"3ap_free={str(is_3ap_free(pair.p)).lower()}")
    parts.append(f"max_exponent={pair.max_exponent}")
    print(" ".join(parts))
    return 0 if ok else 1


def cmd_minsearch(args) -> int:
    l_min, witness = min_recovery_bruteforce(args.n, args.max_exponent)
    if witness is None:
        print(f"Lmin=none: no decodable pair of {args.n} exponents up to {args.max_exponent}")
        return 1
    print(f"Lmin={l_min} P={list(witness.p)} Q={list(witness.q)}")
    return 0


def cmd_bench_delta(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "delta_muls", "ratio"])
    for n in args.n_list:
        # The pair a rook-behrend share is charged for: the normalized one.
        delta = encode_delta(behrend_exponents(n).normalized())
        if n > 1:
            ratio = delta / (n * math.sqrt(math.log2(n)))
        else:
            ratio = float(delta)  # log2(1) = 0: report the raw count
        writer.writerow([n, delta, f"{ratio:.6f}"])
    text = buf.getvalue()
    _write_out(args.out, text)
    print(text, end="")
    return 0


def _fault(args) -> FaultModel:
    return FaultModel(
        fail_prob=args.fail_prob,
        straggle_mean=args.straggle_mean,
        base_delay=args.base_delay,
    )


def cmd_simulate(args) -> int:
    desc = SchemeDescriptor(scheme=args.scheme, n=args.n, lam=args.lam)
    m = args.workers if args.workers is not None else desc.fixed_m or scheme_threshold(desc) + 4
    config = SimConfig(
        descriptor=desc,
        m=m,
        dims=(args.rows, args.inner, args.cols),
        seed=_seed(args),
        encode_at=args.encode_at,
        fault=_fault(args),
        modulus=args.modulus,
    )
    report = run_simulation(config)
    text = report.to_json()
    _write_out(args.out, text + "\n")
    print(text)
    return 0 if report.success else 1


def cmd_sweep(args) -> int:
    rows = sweep(
        schemes=args.schemes,
        n_values=args.n_list,
        trials=args.trials,
        extra_workers=args.workers if args.workers is not None else 4,
        dims=(args.rows, args.inner, args.cols),
        seed=_seed(args),
        encode_at=args.encode_at,
        fault=_fault(args),
        modulus=args.modulus,
        lam=args.lam,
    )
    text = sweep_to_csv(rows)
    _write_out(args.out, text)
    print(text, end="")
    return 0


def _add_sim_flags(sp, workers_help):
    sp.add_argument("--workers", type=int, default=None, help=workers_help)
    sp.add_argument("--rows", type=int, default=2, help="rows of each A_i")
    sp.add_argument("--inner", type=int, default=2, help="shared inner dimension")
    sp.add_argument("--cols", type=int, default=2, help="cols of each B_i")
    sp.add_argument("--fail-prob", type=float, default=0.0, dest="fail_prob")
    sp.add_argument("--straggle-mean", type=float, default=0.0, dest="straggle_mean")
    sp.add_argument("--base-delay", type=float, default=1.0, dest="base_delay")
    sp.add_argument("--seed", type=int, default=None, help="default: ROOKBENCH_SEED, else 0")
    sp.add_argument("--encode-at", choices=("master", "workers"), default="master", dest="encode_at")
    sp.add_argument("--lambda", type=int, default=2, dest="lam", help="replication factor")
    sp.add_argument("--modulus", type=_parse_modulus, default=M61)
    sp.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookbench",
        description="Coded batch matrix multiplication toolkit and fault-injection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate an exponent pair")
    sp.add_argument("--scheme", required=True, choices=tuple(_GENERATORS))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--modulus", type=_parse_modulus, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("check", help="validate an exponent pair file")
    sp.add_argument("--exponents", required=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("minsearch", help="exhaustive minimal-threshold search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-exponent", type=int, required=True, dest="max_exponent")
    sp.set_defaults(func=cmd_minsearch)

    sp = sub.add_parser("simulate", help="run one fault-injection simulation")
    sp.add_argument("--scheme", required=True, choices=ALL_SCHEMES)
    sp.add_argument("--n", type=int, required=True)
    _add_sim_flags(sp, "worker count (default threshold+4, or lambda*n for replication)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="simulate a grid of schemes and sizes")
    sp.add_argument("--schemes", type=lambda s: s.split(",") if s else [], required=True)
    sp.add_argument("--n-list", type=_int_list, required=True, dest="n_list")
    sp.add_argument("--trials", type=int, default=1)
    _add_sim_flags(sp, "spare workers beyond each scheme's threshold (default 4; replication uses lambda*n)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bench-delta", help="gap-power multiplication counts for the shell construction")
    sp.add_argument("--n-list", type=_int_list, required=True, dest="n_list")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_bench_delta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    bad = [s for s in getattr(args, "schemes", ()) if s not in ALL_SCHEMES]
    if bad:
        parser.error(f"unknown schemes: {', '.join(bad)}")
    try:
        return args.func(args)
    except (ConfigInvalid, ParameterSearchExhausted, SearchBudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
