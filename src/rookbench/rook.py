"""The rook-code pipeline: encode shares, multiply at workers, decode.

The master fixes an exponent pair (P, Q) and distinct nonzero evaluation
points x_w.  Worker w receives A~(x_w) = sum_i A_i x_w^{p_i} and
B~(x_w) = sum_j B_j x_w^{q_j}, multiplies them, and returns the product.
The product polynomial is supported on the sumset P+Q, so any L = |P+Q|
responses let the master solve a generalized Vandermonde system and read
off the diagonal coefficients A_k B_k.

Encoding is division-free: a nested Horner scheme over the exponent gaps
costs exactly the gap-power multiplications plus one scalar-matrix product
per input block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exponents import ExponentPair, SumSupport, is_decodable, sum_support
from .field import (
    DimensionMismatch,
    FieldError,
    FieldMatrix,
    OpCounter,
    PrimeField,
    SingularMatrix,
    field_pow,
    mat_add,
    mat_mul,
    mat_scale,
    solve_linear,
)


class NotEnoughProducts(FieldError):
    pass


class SingularAfterRetry(FieldError):
    pass


class DuplicateEvaluationPoint(FieldError):
    pass


@dataclass(frozen=True)
class RookScheme:
    pair: ExponentPair
    support: SumSupport
    field: PrimeField
    eval_points: tuple

    @property
    def threshold(self) -> int:
        return self.support.L

    def encode(self, inputs, worker_id: int, counter: OpCounter | None = None) -> "WorkerShare":
        return rook_encode_share(self, inputs, worker_id, counter)

    def decode(self, products, counter: OpCounter | None = None):
        """All A_k B_k; NotEnoughProducts until `threshold` responses are in."""
        _require_products(products, self.threshold)
        return rook_decode(products, self, counter)


def make_rook_scheme(
    pair: ExponentPair,
    field: PrimeField,
    m: int,
    rng=None,
    eval_points=None,
) -> RookScheme:
    """Bind an exponent pair to a field and m distinct nonzero eval points.

    Points default to uniform random nonzero elements drawn from `rng`; a
    generalized Vandermonde matrix can be singular over a finite field, so
    random points plus the decoder's retry path stand in for the dense-field
    invertibility the scheme enjoys over the rationals.
    """
    if not is_decodable(pair):
        raise ValueError("exponent pair is not decodable")
    support = sum_support(pair)
    field.check_exponent_bound(support.support[-1])
    if eval_points is None:
        if rng is None:
            raise ValueError("need rng or explicit eval_points")
        eval_points = tuple(field.distinct_nonzero(rng, m))
    else:
        eval_points = tuple(x % field.modulus for x in eval_points)
        if len(eval_points) != m:
            raise ValueError(f"expected {m} eval points, got {len(eval_points)}")
        if len(set(eval_points)) != m:
            raise ValueError("evaluation points must be pairwise distinct")
        if any(x == 0 for x in eval_points):
            raise ValueError("evaluation points must be nonzero")
    return RookScheme(pair=pair, support=support, field=field, eval_points=eval_points)


@dataclass(frozen=True)
class WorkerShare:
    worker_id: int
    x: int
    a_tilde: FieldMatrix
    b_tilde: FieldMatrix


@dataclass(frozen=True)
class WorkerProduct:
    worker_id: int
    x: int
    e: FieldMatrix

    def to_json_dict(self) -> dict:
        return {"worker": self.worker_id, "x": str(self.x), "e": self.e.to_json_dict()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "WorkerProduct":
        return cls(
            worker_id=int(d["worker"]),
            x=int(d["x"]),
            e=FieldMatrix.from_json_dict(d["e"]),
        )


def gap_powers(field: PrimeField, exponents, x: int, counter: OpCounter | None = None):
    """Powers x^{e_0 - 0}, x^{e_1 - e_0}, ... for an increasing exponent list.

    Each gap power is computed by square-and-multiply; the multiplication
    tally is the delta term of the encoding cost.
    """
    out = []
    prev = 0
    for e in exponents:
        out.append(field_pow(field, x, e - prev, counter))
        prev = e
    return out


def _horner(field, blocks, gaps, counter):
    # A~(x) = x^{p_0}(A_0 + x^{p_1-p_0}(A_1 + ...)): n scalar-matrix products.
    acc = blocks[-1]
    for k in range(len(blocks) - 1, 0, -1):
        acc = mat_add(field, blocks[k - 1], mat_scale(field, gaps[k], acc, counter), counter)
    return mat_scale(field, gaps[0], acc, counter)


def rook_encode_share(
    scheme: RookScheme,
    inputs,
    worker_id: int,
    counter: OpCounter | None = None,
) -> WorkerShare:
    """Encode (A~(x_w), B~(x_w)) for one worker via gap-power Horner.

    Total multiplications are exactly delta(P, Q) (the gap powers) plus
    (rows(A) + cols(B)) * inner * n for the scalar-matrix steps; no
    inversions ever occur on this path.
    """
    pair = scheme.pair
    n = pair.n
    if len(inputs) != n:
        raise DimensionMismatch(f"expected {n} input pairs, got {len(inputs)}")
    a0, b0 = inputs[0]
    for a, b in inputs:
        if a.rows != a0.rows or a.cols != a0.cols or b.rows != b0.rows or b.cols != b0.cols:
            raise DimensionMismatch("input matrices must have uniform dimensions")
        if a.cols != b.rows:
            raise DimensionMismatch("A.cols must equal B.rows")
    x = scheme.eval_points[worker_id]
    field = scheme.field
    cp = gap_powers(field, pair.p, x, counter)
    cq = gap_powers(field, pair.q, x, counter)
    a_tilde = _horner(field, [a for a, _ in inputs], cp, counter)
    b_tilde = _horner(field, [b for _, b in inputs], cq, counter)
    return WorkerShare(worker_id=worker_id, x=x, a_tilde=a_tilde, b_tilde=b_tilde)


def rook_worker(field: PrimeField, share: WorkerShare, counter: OpCounter | None = None) -> WorkerProduct:
    """Multiply the two coded matrices; the only work a worker does."""
    e = mat_mul(field, share.a_tilde, share.b_tilde, counter)
    return WorkerProduct(worker_id=share.worker_id, x=share.x, e=e)


def _require_products(products, needed: int) -> None:
    if len(products) < needed:
        raise NotEnoughProducts(f"need {needed} products, have {len(products)}")


def _select_products(products, needed: int) -> list:
    """The first `needed` products, which must have pairwise distinct x."""
    _require_products(products, needed)
    chosen = list(products[:needed])
    if len({pr.x for pr in chosen}) != needed:
        raise DuplicateEvaluationPoint("duplicate x among selected products")
    return chosen


def _support_row(field, x, support, counter):
    # x^{e_t} for the sorted support, sharing work through the gaps.
    row = []
    prev_e = 0
    val = 1
    for e in support:
        val = field.mul(val, field_pow(field, x, e - prev_e, counter))
        if counter is not None:
            counter.mul_count += 1
        prev_e = e
        row.append(val)
    return row


def rook_decode(
    products,
    scheme: RookScheme,
    counter: OpCounter | None = None,
):
    """Recover all A_k B_k from the first L worker products.

    Solves V C = E where V[w][t] = x_w^{support[t]}; the diagonal positions
    of the support hold the wanted products.  If the first L rows are
    singular (possible over a finite field), retries once with the next
    available product in place of the newest selected row.
    """
    support = scheme.support
    L = support.L
    selected = _select_products(products, L)
    field = scheme.field

    def attempt(chosen):
        v = FieldMatrix.from_rows(
            [_support_row(field, pr.x, support.support, counter) for pr in chosen]
        )
        rhs = [pr.e for pr in chosen]
        return solve_linear(field, v, rhs, counter)

    try:
        coeffs = attempt(selected)
    except SingularMatrix:
        if len(products) <= L:
            raise SingularAfterRetry("singular system and no spare product to retry with")
        retry = selected[:-1] + [products[L]]
        if len({pr.x for pr in retry}) != L:
            raise DuplicateEvaluationPoint("duplicate x in retry selection")
        try:
            coeffs = attempt(retry)
        except SingularMatrix as exc:
            raise SingularAfterRetry("system still singular after one retry") from exc

    return [coeffs[t] for t in support.diag_index]
