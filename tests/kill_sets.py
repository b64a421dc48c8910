"""Exhaustive fault-tolerance verification over all fixed-size kill sets.

With m = threshold + k workers, killing any k leaves exactly the threshold
many responses the decoder consumes, so exhaustive verification is one
decode per C(m, k) cases.  Dense Gaussian elimination per case is far too
slow at L = 64 (C(68, 4) = 814385 cases), so the rook path factors one
base system and uses the exact row-update identity: replacing base rows I
by tail rows J multiplies the determinant by det(W[J, I]) with W = T Binv.
Because the worker products are exact evaluations, every nonsingular
survivor system has the same unique solution, namely the true coefficient
vector (checked once against the direct products); a case can therefore
only fail by singularity, and the residual identity r = e_tail - W e_base
= 0 is asserted outright.  The production decoder is additionally run on
the base case and on a deterministic sample of kill sets (every case, for
the small schemes) and must reproduce the true products through actual
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from rookbench.field import FieldMatrix, solve_linear
from rookbench.rook import SingularAfterRetry, rook_decode


@dataclass
class KillSummary:
    cases: int = 0
    mismatches: int = 0
    singular: int = 0
    production_checked: int = 0
    production_mismatches: int = 0

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and self.singular == 0 and self.production_mismatches == 0


def _invert(field, rows):
    n = len(rows)
    ident = [FieldMatrix(1, n, [1 if j == i else 0 for j in range(n)]) for i in range(n)]
    blocks = solve_linear(field, FieldMatrix.from_rows(rows), ident)
    return [blk.entries for blk in blocks]


def _det_small(rows, p):
    k = len(rows)
    if k == 1:
        return rows[0][0] % p
    if k == 2:
        (a, b), (c, d) = rows
        return (a * d - b * c) % p
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
    raise ValueError("only k <= 3 here")


def rook_exhaustive_kill_sets(scheme, products, true_values, kill_size=4, production_stride=997):
    """Verify decode success and correctness for every kill set of size 4.

    products: one scalar WorkerProduct per worker, in worker-id order, with
    m = L + 4.  true_values: the n expected scalar products.
    """
    assert kill_size == 4, "stratified enumeration below is written for k = 4"
    field = scheme.field
    p = field.modulus
    support = scheme.support.support
    diag = scheme.support.diag_index
    L = len(support)
    m = len(products)
    assert m == L + kill_size
    xs = [pr.x for pr in products]
    e_all = [pr.e.entries[0] for pr in products]

    v_full = [[pow(x, e, p) for e in support] for x in xs]
    binv = _invert(field, v_full[:L])  # raises SingularMatrix if base degenerate

    e_base = e_all[:L]
    c0 = [sum(row[j] * e_base[j] for j in range(L)) % p for row in binv]
    base_decoded = [c0[t] for t in diag]

    summary = KillSummary()
    if base_decoded != list(true_values):
        summary.mismatches += 1
        return summary

    # W = T * Binv; exact inputs make every consistent subsystem share the
    # base solution, so the tail residuals must vanish identically.
    w_rows = []
    for a in range(kill_size):
        trow = v_full[L + a]
        w_rows.append([sum(trow[t] * binv[t][c] for t in range(L)) % p for c in range(L)])
    for a in range(kill_size):
        resid = (e_all[L + a] - sum(w_rows[a][c] * e_base[c] for c in range(L))) % p
        if resid:
            raise RuntimeError("inconsistent worker products: harness is broken")

    def production_check(kill):
        survivors = [products[w] for w in range(m) if w not in kill]
        summary.production_checked += 1
        try:
            out = rook_decode(survivors, scheme)
        except SingularAfterRetry:
            summary.singular += 1
            return
        if [blk.entries[0] for blk in out] != list(true_values):
            summary.production_mismatches += 1

    case_idx = 0

    def visit(kill, det_nonzero):
        nonlocal case_idx
        case_idx += 1
        summary.cases += 1
        if not det_nonzero:
            summary.singular += 1
            return
        if case_idx % production_stride == 0 or case_idx == 1:
            production_check(kill)

    # Stratify by how many of the four killed workers sit in the base.
    tail_ids = tuple(range(L, m))
    visit(tail_ids, True)  # kill the whole tail: survivors are the base

    for k in (1, 2, 3):
        for tail_killed in combinations(range(kill_size), kill_size - k):
            alive = [a for a in range(kill_size) if a not in tail_killed]
            rows = [w_rows[a] for a in alive]
            dead_tail = tuple(L + a for a in tail_killed)
            for base_killed in combinations(range(L), k):
                sub = [[row[i] for i in base_killed] for row in rows]
                visit(base_killed + dead_tail, _det_small(sub, p) != 0)

    # k = 4: all tail rows alive.  4x4 determinants via Laplace expansion
    # on precomputed 2x2 minors of rows (0,1) and rows (2,3) of W.
    w0, w1, w2, w3 = w_rows
    m01 = [[0] * L for _ in range(L)]
    m23 = [[0] * L for _ in range(L)]
    for a in range(L):
        w0a, w1a, w2a, w3a = w0[a], w1[a], w2[a], w3[a]
        r01, r23 = m01[a], m23[a]
        for b in range(a + 1, L):
            r01[b] = (w0a * w1[b] - w0[b] * w1a) % p
            r23[b] = (w2a * w3[b] - w2[b] * w3a) % p
    for quad in combinations(range(L), 4):
        c1, c2, c3, c4 = quad
        det = (
            m01[c1][c2] * m23[c3][c4]
            - m01[c1][c3] * m23[c2][c4]
            + m01[c1][c4] * m23[c2][c3]
            + m01[c2][c3] * m23[c1][c4]
            - m01[c2][c4] * m23[c1][c3]
            + m01[c3][c4] * m23[c1][c2]
        ) % p
        visit(quad, det != 0)

    return summary


def production_exhaustive_kill_sets(scheme, products, true_values, decode_fn, kill_size=4):
    """Run the real decoder on the survivors of every kill set."""
    m = len(products)
    summary = KillSummary()
    for kill in combinations(range(m), kill_size):
        summary.cases += 1
        kill = set(kill)
        survivors = [products[w] for w in range(m) if w not in kill]
        summary.production_checked += 1
        try:
            out = decode_fn(survivors, scheme)
        except SingularAfterRetry:
            summary.singular += 1
            continue
        if [blk.entries[0] for blk in out] != list(true_values):
            summary.mismatches += 1
    return summary
