"""The rook-code pipeline: encode shares, multiply at workers, decode.

The master fixes an exponent pair (P, Q) and distinct nonzero evaluation
points x_w.  Worker w receives A~(x_w) = sum_i A_i x_w^{p_i} and
B~(x_w) = sum_j B_j x_w^{q_j}, multiplies them, and returns the product.
The product polynomial is supported on the sumset P+Q, so any L = |P+Q|
responses let the master solve a generalized Vandermonde system and read
off the diagonal coefficients A_k B_k.  The decoder solves the system of
every response received, so it succeeds as soon as those responses
determine the products, whichever they are.  Given a field.SolveBasis, it
keeps that system's elimination between calls: each call builds rows only
for the responses that arrived since the last and reduces just those
against the pivot rows found so far.  A call without one starts from a
fresh basis, so it solves every response it is given.

Encoding is division-free: each share is one linear combination of the
input blocks with coefficients x^{p_i} (x^{q_j}), charged the square-and-
multiply products of the exponent gaps, delta(P, Q), plus one scalar-matrix
product per input block.  All the shares of an op are encoded together, as
one generator-matrix product per side.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .exponents import ExponentPair, SumSupport, is_decodable, sum_support
from .field import (
    FieldError,
    FieldMatrix,
    OpCounter,
    PrimeField,
    SingularMatrix,
    SolveBasis,
    mat_lincombs,
    mat_mul,
    pow_muls,
    power_table,
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
    delta: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", encode_delta(self.pair))

    @property
    def threshold(self) -> int:
        return self.support.L

    def encode(self, inputs, workers, counter: OpCounter | None = None) -> list["WorkerShare"]:
        return rook_encode_share(self, inputs, workers, counter)

    def decode(self, products, counter: OpCounter | None = None, basis: SolveBasis | None = None):
        """All A_k B_k; NotEnoughProducts until `threshold` responses are in."""
        _require_products(products, self.threshold)
        return rook_decode(products, self, counter, basis)


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
    eval_points = bind_points(field, m, rng, eval_points)
    if 0 in eval_points:
        raise ValueError("evaluation points must be nonzero")
    return RookScheme(pair=pair, support=support, field=field, eval_points=eval_points)


def bind_points(field: PrimeField, m: int, rng, points=None, exclude=()) -> tuple:
    """m distinct evaluation points: drawn nonzero and off `exclude` from
    `rng`, or given explicitly, reduced mod p and checked to be m distinct."""
    if points is None:
        if rng is None:
            raise ValueError("need rng or explicit eval_points")
        return tuple(field.distinct_nonzero(rng, m, exclude=exclude))
    points = tuple(x % field.modulus for x in points)
    if len(points) != m:
        raise ValueError(f"expected {m} eval points, got {len(points)}")
    if len(set(points)) != m:
        raise ValueError("evaluation points must be pairwise distinct")
    return points


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


def _gaps(exponents) -> list[int]:
    """e_0 - 0, e_1 - e_0, ... for non-negative, non-decreasing exponents."""
    gaps = []
    prev = 0
    for e in exponents:
        if e < prev:
            raise ValueError("exponents must be non-negative and non-decreasing")
        gaps.append(e - prev)
        prev = e
    return gaps


def encode_delta(pair: ExponentPair) -> int:
    """delta(P, Q): the square-and-multiply products of one share's gap
    powers x^{p_0}, x^{p_1 - p_0}, ... and x^{q_0}, x^{q_1 - q_0}, ...."""
    return sum(map(pow_muls, _gaps(pair.p) + _gaps(pair.q)))


def power_rows(field: PrimeField, exponents, xs, counter: OpCounter | None = None):
    """Rows [x^{e_0}, x^{e_1}, ...] for each x in xs, for non-decreasing exponents.

    The values come from one power_table, whose array is returned as it is.
    Each row is charged as the running product of the gap powers x^{e_0},
    x^{e_1 - e_0}, ...: square-and-multiply per gap (pow_muls) plus one
    product per entry after the first.  Every decoder builds its system
    rows here.
    """
    gaps = _gaps(exponents)
    rows = power_table(field.modulus, exponents, xs)
    if counter is not None and gaps:
        counter.mul_count += len(rows) * (sum(map(pow_muls, gaps)) + len(gaps) - 1)
    return rows


def generator_shares(
    field: PrimeField, workers, xs, rows_a, rows_b, inputs, counter: OpCounter | None = None
) -> list[WorkerShare]:
    """The shares of `workers` (at points xs), in order: the generator rows
    rows_a (rows_b), one per worker, times the stacked A (B) inputs, one
    mat_lincombs call per side.  Every coded encoder ends here."""
    a_tilde = mat_lincombs(field, rows_a, [a for a, _ in inputs], counter)
    b_tilde = mat_lincombs(field, rows_b, [b for _, b in inputs], counter)
    return [
        WorkerShare(worker_id=w, x=x, a_tilde=a, b_tilde=b)
        for w, x, a, b in zip(workers, xs, a_tilde, b_tilde)
    ]


def rook_encode_share(scheme: RookScheme, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
    """Encode (A~(x_w), B~(x_w)) for each worker w in `workers`, in order.

    The generator rows [x_w^{p_0}, x_w^{p_1}, ...] (and likewise for Q)
    come from one power_table per side; generator_shares makes the shares.
    Each share is charged exactly delta(P, Q) (the gap powers) plus
    (rows(A) + cols(B)) * inner * n for the scalar-matrix products; no
    inversions ever occur on this path.  mat_lincombs rejects a wrong
    number of inputs or a ragged block; the worker's mat_mul rejects
    A.cols != B.rows.
    """
    pair = scheme.pair
    p = scheme.field.modulus
    xs = [scheme.eval_points[w] for w in workers]
    rows_a, rows_b = power_table(p, pair.p, xs), power_table(p, pair.q, xs)
    shares = generator_shares(scheme.field, workers, xs, rows_a, rows_b, inputs, counter)
    if counter is not None:
        counter.mul_count += scheme.delta * len(xs)
    return shares


def rook_worker(field: PrimeField, share: WorkerShare, counter: OpCounter | None = None) -> WorkerProduct:
    """Multiply the two coded matrices; the only work a worker does."""
    e = mat_mul(field, share.a_tilde, share.b_tilde, counter)
    return WorkerProduct(worker_id=share.worker_id, x=share.x, e=e)


def _require_products(products, needed: int) -> None:
    """NotEnoughProducts below `needed` responses.

    Both the schemes' decode methods and the decoder functions check.  The
    methods check before they call the decoder, so a call below the
    threshold opens no decoder span when perfbench traces rook_decode,
    lcc_decode and csa_decode; its rook.decode_calls metric and
    tests/test_bench_hooks.py's [3, 2, 1, 2] decode calls rest on that.
    The decoders check again for direct callers, which expect
    NotEnoughProducts too, so neither check is redundant.
    """
    if len(products) < needed:
        raise NotEnoughProducts(f"need {needed} products, have {len(products)}")


def _unabsorbed(products, basis: SolveBasis | None):
    """The products whose rows the basis has not taken yet; all of them
    without a basis, as solve_linear then starts from a fresh one."""
    return products if basis is None else products[basis.absorbed :]


def _solve_responses(
    field: PrimeField, rows, products, counter: OpCounter | None = None, basis: SolveBasis | None = None
):
    """Solve the system with rows[i] for products[i], one row per response;
    rows is an array of residues.  With a basis, rows and products are the
    responses it has not absorbed, and they join those it has.

    The system may be tall: a repeated or otherwise dependent response is
    just a dependent row.  Raises SingularAfterRetry when the rows' rank is
    below their width, that is when the responses do not yet determine the
    unknowns.
    """
    try:
        return solve_linear(field, FieldMatrix(*rows.shape, rows), [pr.e for pr in products], counter, basis)
    except SingularMatrix as exc:
        raise SingularAfterRetry(f"the responses' rows have rank below {rows.shape[1]}") from exc


def rook_decode(
    products,
    scheme: RookScheme,
    counter: OpCounter | None = None,
    basis: SolveBasis | None = None,
):
    """Recover all A_k B_k from every worker product received.

    Solves V C = E where V[w][t] = x_w^{support[t]}, one power_rows row
    per product the basis has not absorbed (every product without one, the
    solve then starting from a fresh basis); the diagonal positions of the
    support hold the wanted products.
    Raises NotEnoughProducts below L products and SingularAfterRetry while
    the products do not determine the solution.
    """
    support = scheme.support
    _require_products(products, support.L)
    new = _unabsorbed(products, basis)
    rows = power_rows(scheme.field, support.support, [pr.x for pr in new], counter)
    coeffs = _solve_responses(scheme.field, rows, new, counter, basis)
    return [coeffs[t] for t in support.diag_index]
