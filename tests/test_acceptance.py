"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

from __future__ import annotations

import math
import time

from conftest import gap_powers, rng, scalar
from kill_sets import production_exhaustive_kill_sets, rook_exhaustive_kill_sets
from rookbench.baselines import (
    ReplicationScheme,
    SchemeDescriptor,
    UncoveredPair,
    csa_decode,
    csa_encode,
    lcc_decode,
    lcc_encode,
    make_csa_scheme,
    make_lcc_scheme,
    scheme_threshold,
)
from rookbench.exponents import (
    base3_exponents,
    behrend_exponents,
    is_3ap_free,
    is_decodable,
    min_recovery_bruteforce,
    poly_code_exponents,
    sum_support,
)
from rookbench.field import M61, OpCounter, PrimeField, mat_random
from rookbench.rook import (
    make_rook_scheme,
    rook_decode,
    rook_encode_share,
    rook_worker,
)

GF = PrimeField(M61)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


# --- criterion 1: threshold table ------------------------------------------------


def test_criterion_1_threshold_table():
    t0 = time.time()
    sizes = (2, 4, 8, 16, 32, 64)
    ok = True
    for n in sizes:
        ok &= scheme_threshold(SchemeDescriptor(scheme="rook-poly", n=n)) == n * n
        ok &= scheme_threshold(SchemeDescriptor(scheme="rook-base3", n=n)) == 3 ** int(math.log2(n))
        ok &= scheme_threshold(SchemeDescriptor(scheme="lcc", n=n)) == 2 * n - 1
        ok &= scheme_threshold(SchemeDescriptor(scheme="csa", n=n)) == 2 * n - 1
        for lam in (2, 3):
            want = lam * n - lam + 1  # m - lambda + 1 with m = lambda * n
            ok &= scheme_threshold(SchemeDescriptor(scheme="replication", n=n, lam=lam)) == want
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(1, ok, f"threshold table n={sizes} in {elapsed:.2f}s (budget 10s)")
    assert ok


# --- criterion 2: near-linear upper bound ----------------------------------------


def test_criterion_2_behrend_family():
    t0 = time.time()
    sizes = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    ratios = []
    flags_ok = True
    for n in sizes:
        pair = behrend_exponents(n)
        flags_ok &= is_3ap_free(pair.p)
        flags_ok &= is_decodable(pair)
        ratios.append(sum_support(pair).L / n ** math.log2(3))
    elapsed = time.time() - t0
    upper = ratios[len(ratios) // 2 :]
    trend_ok = all(a > b for a, b in zip(upper, upper[1:]))
    time_ok = elapsed < 120.0
    report(
        2,
        flags_ok and trend_ok and time_ok,
        "3AP-free+decodable "
        + ("ok" if flags_ok else "VIOLATED")
        + f"; upper-half ratios {[f'{r:.4f}' for r in upper]} "
        + ("strictly decreasing" if trend_ok else "NOT strictly decreasing")
        + f"; {elapsed:.1f}s (budget 120s)",
    )
    assert flags_ok, "every generated pair must be 3-AP-free and decodable"
    assert time_ok, f"runtime {elapsed:.1f}s exceeds 120s"
    # Known-red check, kept at full strength: at these sizes the smallest
    # achievable |P+P| over the whole digit-shell parameter family rises
    # relative to n^1.585 between some doubling steps (e.g. 512 -> 1024), so
    # no honest parameter choice can make this ratio strictly decreasing.
    assert trend_ok, (
        "ratio L/n^1.585 is not strictly decreasing over the upper half: "
        f"{[round(r, 4) for r in upper]}"
    )


# --- criterion 3: lower-bound flavor ----------------------------------------------


def naive_min_recovery(n: int, max_exponent: int):
    # Independent recursive enumerator with the literal decodability triple loop.
    def tails(start, left):
        if left == 0:
            yield ()
            return
        for v in range(start, max_exponent + 1):
            for rest in tails(v + 1, left - 1):
                yield (v,) + rest

    best = None
    for tp in tails(1, n - 1):
        p = (0,) + tp
        for tq in tails(1, n - 1):
            q = (0,) + tq
            good = True
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if p[k] + q[k] == p[i] + q[j] and (i, j) != (k, k):
                            good = False
            if good:
                l = len({pi + qj for pi in p for qj in q})
                best = l if best is None else min(best, l)
    return best


def test_criterion_3_minimum_thresholds():
    t0 = time.time()
    budgets = {1: 4, 2: 4, 3: 8}
    want = {1: 1, 2: 3, 3: 6}
    ok = True
    for n, cap in budgets.items():
        l, witness = min_recovery_bruteforce(n, cap)
        ok &= l == want[n]
        ok &= naive_min_recovery(n, cap) == l
        ok &= is_decodable(witness)
    # Every decodable pair encountered anywhere obeys the sumset bound.
    encountered = [poly_code_exponents(n) for n in range(1, 65)]
    encountered += [base3_exponents(n) for n in range(1, 65)]
    encountered += [behrend_exponents(n) for n in (1, 2, 4, 8, 16, 32, 64)]
    encountered += [min_recovery_bruteforce(n, cap)[1] for n, cap in budgets.items()]
    ok &= all(sum_support(pr).L >= 2 * pr.n - 1 for pr in encountered)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(3, ok, f"L_min(1,2,3) = (1,3,6) vs naive enumerator; L >= 2n-1 on "
                  f"{len(encountered)} pairs; {elapsed:.1f}s (budget 60s)")
    assert ok


# --- criterion 4: end-to-end fault tolerance --------------------------------------


def _scalar_inputs(n, seed):
    r = rng(seed)
    return [(scalar(r.randrange(GF.modulus)), scalar(r.randrange(GF.modulus))) for _ in range(n)]


def test_criterion_4_exhaustive_kill_sets():
    t0 = time.time()
    spare = 4
    ok = True
    lines = []
    for scheme_name in ("rook-poly", "rook-base3", "rook-behrend"):
        for n in (2, 4, 8):
            desc = SchemeDescriptor(scheme=scheme_name, n=n)
            thr = scheme_threshold(desc)
            m = thr + spare
            from rookbench.baselines import rook_exponents_for

            scheme = make_rook_scheme(rook_exponents_for(desc), GF, m, rng=rng(4000 + 17 * n))
            inputs = _scalar_inputs(n, 4100 + n)
            true_vals = [a.entries[0] * b.entries[0] % M61 for a, b in inputs]
            products = [
                rook_worker(GF, rook_encode_share(scheme, inputs, [w])[0]) for w in range(m)
            ]
            cases = math.comb(m, spare)
            stride = 1 if thr <= 16 else max(1, cases // 150)
            summary = rook_exhaustive_kill_sets(
                scheme, products, true_vals, kill_size=spare, production_stride=stride
            )
            ok &= summary.ok and summary.cases == math.comb(m, spare)
            lines.append(
                f"{scheme_name} n={n}: {summary.cases} kill sets, "
                f"{summary.singular} singular, {summary.mismatches} wrong, "
                f"{summary.production_checked} production-checked"
            )
    for scheme_name, make, encode, decode in (
        ("lcc", make_lcc_scheme, lcc_encode, lcc_decode),
        ("csa", make_csa_scheme, csa_encode, csa_decode),
    ):
        for n in (2, 4, 8):
            thr = 2 * n - 1
            m = thr + spare
            scheme = make(n, GF, m, rng=rng(4200 + 13 * n))
            inputs = _scalar_inputs(n, 4300 + n)
            true_vals = [a.entries[0] * b.entries[0] % M61 for a, b in inputs]
            products = [rook_worker(GF, encode(scheme, inputs, [w])[0]) for w in range(m)]
            summary = production_exhaustive_kill_sets(
                scheme, products, true_vals, decode, kill_size=spare
            )
            ok &= summary.ok and summary.cases == math.comb(m, spare)
            lines.append(
                f"{scheme_name} n={n}: {summary.cases} kill sets, "
                f"{summary.singular} singular, {summary.mismatches} wrong"
            )
    elapsed = time.time() - t0
    time_ok = elapsed < 120.0
    report(4, ok and time_ok, f"exhaustive size-4 kill sets; {elapsed:.1f}s (budget 120s)")
    for line in lines:
        print("    " + line)
    assert ok, "\n".join(lines)
    assert time_ok, f"runtime {elapsed:.1f}s exceeds 120s"


# --- criterion 5: encoding-cost accounting -----------------------------------------


def test_criterion_5_encoding_costs():
    t0 = time.time()
    ok = True
    details = []
    # (a) per-share multiplication identity and division-freeness.
    for maker, n in (
        (poly_code_exponents, 2),
        (poly_code_exponents, 8),
        (base3_exponents, 4),
        (base3_exponents, 8),
        (behrend_exponents, 2),
        (behrend_exponents, 8),
    ):
        pair = maker(n)
        for dims in ((1, 1, 1), (2, 3, 2)):
            rows, inner, cols = dims
            scheme = make_rook_scheme(pair, GF, 5, rng=rng(5000 + n * rows))
            r = rng(5100 + n * cols)
            inputs = [
                (mat_random(GF, rows, inner, r), mat_random(GF, inner, cols, r))
                for _ in range(n)
            ]
            for w in range(5):
                ectr = OpCounter()
                share = rook_encode_share(scheme, inputs, [w], ectr)[0]
                delta = OpCounter()
                gap_powers(GF, pair.p, scheme.eval_points[w], delta)
                gap_powers(GF, pair.q, scheme.eval_points[w], delta)
                bound = delta.mul_count + (rows + cols) * inner * n
                ok &= ectr.mul_count <= bound
                ok &= ectr.mul_count == bound  # accounting identity, exact
                wctr = OpCounter()
                rook_worker(GF, share, wctr)
                ok &= ectr.inv_count == 0 and wctr.inv_count == 0
    # (b) LCC and CSA encoding must divide: >= n-1 inversions per share.
    for n in (2, 4, 8):
        lcc = make_lcc_scheme(n, GF, 3, rng=rng(5200 + n))
        csa = make_csa_scheme(n, GF, 3, rng=rng(5300 + n))
        inputs = _scalar_inputs(n, 5400 + n)
        for w in range(3):
            lctr = OpCounter()
            lcc_encode(lcc, inputs, [w], lctr)
            cctr = OpCounter()
            csa_encode(csa, inputs, [w], cctr)
            ok &= lctr.inv_count >= n - 1
            ok &= cctr.inv_count >= n - 1
    # (c) gap-power cost tracks n * sqrt(log2 n) within a bounded constant.
    ratios = []
    for n in (16, 64, 256, 1024, 4096):
        pair = behrend_exponents(n)
        ctr = OpCounter()
        gap_powers(GF, pair.p, 2, ctr)
        gap_powers(GF, pair.q, 2, ctr)
        ratios.append(ctr.mul_count / (n * math.sqrt(math.log2(n))))
    spread = max(ratios) / min(ratios)
    ok &= spread < 3.0
    details.append(f"delta ratio spread {spread:.3f} (< 3)")
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(5, ok, "; ".join(details) + f"; exact mul identity and inversion counts; "
                  f"{elapsed:.1f}s (budget 120s)")
    assert ok


# --- criterion 6: golden micro-examples --------------------------------------------


def test_criterion_6_golden_micro_examples():
    gf101 = PrimeField(101)
    inputs = [(scalar(3), scalar(2)), (scalar(5), scalar(7))]
    want = [scalar(6), scalar(35)]
    ok = True

    rook_scheme = make_rook_scheme(base3_exponents(2), gf101, 3, eval_points=(1, 2, 3))
    prods = [rook_worker(gf101, rook_encode_share(rook_scheme, inputs, [w])[0]) for w in range(3)]
    ok &= rook_decode(prods, rook_scheme) == want

    lcc = make_lcc_scheme(2, gf101, 3, z=(0, 1), eval_points=(2, 3, 4))
    prods = [rook_worker(gf101, lcc_encode(lcc, inputs, [w])[0]) for w in range(3)]
    ok &= lcc_decode(prods, lcc) == want

    csa = make_csa_scheme(2, gf101, 3, z=(1, 2), eval_points=(3, 4, 5))
    prods = [rook_worker(gf101, csa_encode(csa, inputs, [w])[0]) for w in range(3)]
    ok &= csa_decode(prods, csa) == want

    # Replication with n=2, lambda=2 fails exactly on same-pair kill sets.
    from itertools import combinations

    replication = ReplicationScheme(n=2, lam=2)
    fatal = set()
    for kill in combinations(range(4), 2):
        alive = [w for w in range(4) if w not in kill]
        try:
            out = replication.decode([rook_worker(gf101, replication.encode(inputs, [w])[0]) for w in alive])
            ok &= out == want
        except UncoveredPair:
            fatal.add(kill)
    ok &= fatal == {(0, 2), (1, 3)}

    report(6, ok, "n=2 worked example decodes to (6, 35) under rook-base3/lcc/csa; "
                  "replication fails exactly on same-pair kills")
    assert ok
