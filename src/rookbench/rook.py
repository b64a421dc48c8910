"""The rook-code pipeline: encode shares, multiply at workers, decode.

The master fixes an exponent pair (P, Q) and distinct nonzero evaluation
points x_w.  Worker w receives A~(x_w) = sum_i A_i x_w^{p_i} and
B~(x_w) = sum_j B_j x_w^{q_j}, multiplies them, and returns the product.
The product polynomial is supported on the sumset P+Q, so any L = |P+Q|
responses let the master solve a generalized Vandermonde system and read
off the diagonal coefficients A_k B_k.  The decoder solves the system of
every response received, so it succeeds as soon as those responses
determine the products, whichever they are.

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
    random points plus a decoder that uses every response stand in for the
    dense-field invertibility the scheme enjoys over the rationals.
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


def _solve_responses(field: PrimeField, rows, products, counter: OpCounter | None = None):
    """Solve the system with rows[i] for products[i], one row per response.

    The system may be tall: a repeated or otherwise dependent response is
    just a dependent row.  Raises SingularAfterRetry when the rows' rank is
    below their width, that is when the responses do not yet determine the
    unknowns.
    """
    try:
        return solve_linear(field, FieldMatrix.from_rows(rows), [pr.e for pr in products], counter)
    except SingularMatrix as exc:
        raise SingularAfterRetry(f"{len(rows)} responses have rank below {len(rows[0])}") from exc


def rook_decode(
    products,
    scheme: RookScheme,
    counter: OpCounter | None = None,
):
    """Recover all A_k B_k from every worker product received.

    Solves V C = E where V[w][t] = x_w^{support[t]}, one row per product;
    the diagonal positions of the support hold the wanted products.  Each
    row steps through the support gaps with builtin pow and is counted as
    square-and-multiply per gap plus one product per entry.  Raises
    NotEnoughProducts below L products and SingularAfterRetry while the
    products do not determine the solution.
    """
    support = scheme.support
    _require_products(products, support.L)
    p = scheme.field.modulus
    gaps = [e - prev for prev, e in zip((0,) + support.support[:-1], support.support)]
    rows = []
    for pr in products:
        row = []
        val = 1
        for g in gaps:
            val = val * pow(pr.x, g, p) % p
            row.append(val)
        rows.append(row)
    if counter is not None:
        row_muls = sum(g.bit_length() + g.bit_count() - 2 for g in gaps if g) + len(gaps)
        counter.mul_count += len(rows) * row_muls
    coeffs = _solve_responses(scheme.field, rows, products, counter)
    return [coeffs[t] for t in support.diag_index]
