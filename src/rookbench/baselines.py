"""Baseline batch-multiplication codes behind the rook pipeline interface.

LCC interpolates the inputs at anchor points z_i and ships evaluations of
that interpolant; CSA ships evaluations of a rational encoding with poles
at the anchors.  Both have recovery threshold 2n-1 and both must divide
while encoding, which is the cost the rook path avoids.  LCC decodes by
Lagrange interpolation of the degree-(2n-2) product polynomial through the
first 2n-1 distinct points (field.interpolation_weights), with no
elimination; CSA's system mixes pole and polynomial columns, so it is
solved by elimination (field.solve_linear).  Plain replication rounds out
the comparison.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import rook
# sum_support and solve_linear are unused here, but perfbench/spans.py
# traces baselines.sum_support and baselines.solve_linear.
from .exponents import base3_exponents, behrend_exponents, poly_code_exponents, sum_support  # noqa: F401
from .field import (  # noqa: F401
    FieldError,
    FieldMatrix,
    OpCounter,
    PrimeField,
    SolveBasis,
    interpolation_weights,
    mat_lincombs,
    mat_mul,
    solve_linear,
)
from .rook import (
    WorkerShare,
    _first_distinct,
    _require_products,
    _solve_responses,
    _unabsorbed,
    generator_shares,
    power_rows,
)


class ConfigInvalid(Exception):
    pass


class UncoveredPair(FieldError):
    pass


def _anchors_and_points(n, field, m, rng, z, eval_points):
    """Anchors (default 1..n) and eval points (default m random ones off the anchors)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = rook._distinct_residues(field, range(1, n + 1) if z is None else z, n, "anchors")
    return z, rook.bind_points(field, m, rng, eval_points, exclude=z)


# --- LCC --------------------------------------------------------------------


@dataclass(frozen=True)
class LccScheme:
    field: PrimeField
    z: tuple
    eval_points: tuple
    # Rows [1, z, ..., z^{2n-2}] per anchor, for evaluating at the anchors.
    zpows: FieldMatrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = power_rows(self.field, range(self.threshold), self.z)
        object.__setattr__(self, "zpows", FieldMatrix(self.n, self.threshold, rows))

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def threshold(self) -> int:
        return 2 * self.n - 1

    def encode(self, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
        return lcc_encode(self, inputs, workers, counter)

    def decode(self, products, counter: OpCounter | None = None, basis: SolveBasis | None = None):
        _require_products(products, self.threshold)
        return lcc_decode(products, self, counter, basis)


def make_lcc_scheme(n, field, m, rng=None, z=None, eval_points=None) -> LccScheme:
    """Anchors default to 1..n; explicit eval points may coincide with them
    (the interpolation property makes anchor evaluations trivially valid),
    though the random draw avoids them."""
    if 2 * n - 1 > field.modulus:
        raise ValueError(f"need 2n-1 <= {field.modulus} distinct points")
    z, eval_points = _anchors_and_points(n, field, m, rng, z, eval_points)
    return LccScheme(field=field, z=z, eval_points=eval_points)


def _lagrange_basis(field, z, x, counter):
    """L_i(x) = prod_{j != i} (x - z_j) / (z_i - z_j) for the n anchors z.

    Charged n(2n - 1) muls and n inversions: each L_i takes 2(n - 1)
    products for its numerator and denominator, one inversion and one
    product.  The anchors are distinct, so no denominator is zero.
    """
    p = field.modulus
    out = []
    for i, zi in enumerate(z):
        num = 1
        den = 1
        for j, zj in enumerate(z):
            if j == i:
                continue
            num = num * (x - zj) % p
            den = den * (zi - zj) % p
        out.append(num * pow(den, -1, p) % p)
    if counter is not None:
        n = len(z)
        counter.mul_count += n * (2 * n - 1)
        counter.inv_count += n
    return out


def lcc_encode(scheme: LccScheme, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
    """Evaluate the Lagrange interpolants of the inputs at x_w for each
    worker w: the generator rows on both sides are the Lagrange bases at
    the x_w, each charged n(2n - 1) muls and n inversions."""
    field = scheme.field
    xs = [scheme.eval_points[w] for w in workers]
    bases = [_lagrange_basis(field, scheme.z, x, counter) for x in xs]
    return generator_shares(field, workers, xs, bases, bases, inputs, counter)


def lcc_decode(products, scheme: LccScheme, counter: OpCounter | None = None, basis: SolveBasis | None = None):
    """Interpolate the degree-(2n-2) product polynomial through the first
    L = 2n - 1 products with distinct points (rook._first_distinct), then
    evaluate it at the anchors.

    The rows [1, z, ..., z^{L-1}] of the anchors, computed once at binding,
    are folded into the interpolation weights of all L coefficients in one
    n x L by L x L mat_mul, so the products are combined once, by one
    mat_lincombs call of n rows.
    """
    field = scheme.field
    L = scheme.threshold
    _require_products(products, L)
    chosen = _first_distinct(field, products, L, basis)
    weights = interpolation_weights(field, [pr.x for pr in chosen], range(L), counter)
    at_anchors = mat_mul(field, scheme.zpows, FieldMatrix(L, L, weights), counter)
    return mat_lincombs(field, at_anchors.data, [pr.e for pr in chosen], counter)


# --- CSA --------------------------------------------------------------------


@dataclass(frozen=True)
class CsaScheme:
    field: PrimeField
    z: tuple
    eval_points: tuple
    # c_i = prod_{k != i} (z_k - z_i), the residue at the pole z_i.
    residues: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Checked here, whoever builds the scheme: no point may sit on a pole.
        if set(self.eval_points) & set(self.z):
            raise ValueError("evaluation points must avoid the anchors")
        p = self.field.modulus
        residues = tuple(
            math.prod((zk - zi) % p for k, zk in enumerate(self.z) if k != i) % p for i, zi in enumerate(self.z)
        )
        object.__setattr__(self, "residues", residues)

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def threshold(self) -> int:
        return 2 * self.n - 1

    def encode(self, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
        return csa_encode(self, inputs, workers, counter)

    def decode(self, products, counter: OpCounter | None = None, basis: SolveBasis | None = None):
        _require_products(products, self.threshold)
        return csa_decode(products, self, counter, basis)


def make_csa_scheme(n, field, m, rng=None, z=None, eval_points=None) -> CsaScheme:
    """Anchors 1..n; eval points drawn disjoint from the anchors."""
    z, eval_points = _anchors_and_points(n, field, m, rng, z, eval_points)
    return CsaScheme(field=field, z=z, eval_points=eval_points)


def csa_encode(scheme: CsaScheme, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
    """A~(x) = f(x) * sum_i A_i/(z_i - x);  B~(x) = sum_i B_i/(z_i - x) at
    x = x_w for each worker w, with f(x) = prod_i (z_i - x).

    The generator rows are f(x_w)/(z_i - x_w) for A and 1/(z_i - x_w) for
    B, so f is folded into the n coefficients rather than applied to A~.
    Each share is charged n inversions, n - 1 muls for f(x_w) and n to
    scale its A row, besides the two products.
    """
    field = scheme.field
    p = field.modulus
    xs = [scheme.eval_points[w] for w in workers]
    rows_b = [[pow((zi - x) % p, -1, p) for zi in scheme.z] for x in xs]
    fs = [math.prod((zi - x) % p for zi in scheme.z) % p for x in xs]
    rows_a = [[f * c % p for c in row] for f, row in zip(fs, rows_b)]
    if counter is not None:
        counter.mul_count += (2 * scheme.n - 1) * len(xs)
        counter.inv_count += scheme.n * len(xs)
    return generator_shares(field, workers, xs, rows_a, rows_b, inputs, counter)


def csa_decode(products, scheme: CsaScheme, counter: OpCounter | None = None, basis: SolveBasis | None = None):
    """Separate the pole part from the polynomial noise part, in generator form.

    The product evaluations satisfy
    E_w = sum_i c_i A_i B_i/(z_i - x_w) + sum_j N_j x_w^j, with the residues
    c_i fixed at binding, so response w's row carries c_i (z_i - x_w)^{-1}
    in its n pole columns: one inversion and one product each.  The first n
    blocks of the (2n-1)-column solve over every product received are the
    A_i B_i, and the noise blocks are discarded.  Rows are built for the
    products the basis has not absorbed, as in rook_decode.
    """
    field = scheme.field
    p = field.modulus
    _require_products(products, scheme.threshold)
    new = _unabsorbed(products, basis)
    polys = power_rows(field, range(scheme.n - 1), [pr.x for pr in new], counter)
    poles = [
        [c * pow((zi - pr.x) % p, -1, p) % p for zi, c in zip(scheme.z, scheme.residues)] for pr in new
    ]
    rows = np.hstack([np.array(poles, dtype=np.uint64).reshape(len(new), scheme.n), polys])
    if counter is not None:
        counter.mul_count += scheme.n * len(new)
        counter.inv_count += scheme.n * len(new)
    return _solve_responses(field, rows, new, counter, basis)[: scheme.n]


# --- replication -------------------------------------------------------------


@dataclass(frozen=True)
class ReplicationScheme:
    n: int
    lam: int

    @property
    def m(self) -> int:
        return self.lam * self.n

    def assignment(self, worker_id: int) -> int:
        return worker_id % self.n

    @property
    def threshold(self) -> int:
        # Worst case: all lambda replicas of one pair may fail together.
        return self.m - self.lam + 1

    def encode(self, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
        """Each worker's assigned pair, uncoded; x names the pair."""
        return [
            WorkerShare(worker_id=w, x=i, a_tilde=inputs[i][0], b_tilde=inputs[i][1])
            for w, i in zip(workers, map(self.assignment, workers))
        ]

    def decode(self, products, counter: OpCounter | None = None, basis=None):
        """Each pair's first product; UncoveredPair while some pair has none.
        Nothing is solved, so the basis is ignored."""
        first = {}
        for pr in products:
            first.setdefault(pr.x, pr.e)
        missing = [i for i in range(self.n) if i not in first]
        if missing:
            raise UncoveredPair(f"pairs {missing} have no alive replica")
        return [first[i] for i in range(self.n)]


# --- descriptors -------------------------------------------------------------

ROOK_SCHEMES = ("rook-poly", "rook-base3", "rook-behrend")
ALL_SCHEMES = ROOK_SCHEMES + ("lcc", "csa", "replication")


@dataclass(frozen=True)
class SchemeDescriptor:
    """Which code to run, plus its parameters."""

    scheme: str
    n: int
    lam: int | None = None

    def __post_init__(self):
        if self.scheme not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.scheme == "replication" and (self.lam is None or self.lam < 1):
            raise ValueError("replication needs lambda >= 1")

    @property
    def fixed_m(self) -> int | None:
        """Replication runs on exactly lambda * n workers; coded schemes on any m."""
        return self.lam * self.n if self.scheme == "replication" else None


def bind_scheme(desc: SchemeDescriptor, field: PrimeField, m: int, rng):
    """Bind a descriptor to a field and m workers: the one place that picks a
    scheme's code by its name.

    Every bound scheme has `threshold`, `encode(inputs, workers, counter)`
    giving the shares of the listed workers in one call, in their order,
    and `decode(products, counter, basis=None)` giving all n products or
    raising a FieldError (NotEnoughProducts below the threshold).  Passing
    one field.SolveBasis to every decode call over a growing product list
    makes each call solve only the products that arrived since the last;
    the coded schemes keep their elimination in it and replication, which
    solves nothing, ignores it.  A configuration the field or the worker
    count cannot hold raises ConfigInvalid.

    A rook code binds its generator's pair normalized
    (ExponentPair.normalized), which keeps L and the diagonal but spares a
    small field the equal rows of x and -x that an even gap gcd gives.
    poly and base3 pairs are already normalized; behrend pairs are not.
    """
    try:
        if desc.scheme == "lcc":
            return make_lcc_scheme(desc.n, field, m, rng=rng)
        if desc.scheme == "csa":
            return make_csa_scheme(desc.n, field, m, rng=rng)
        if desc.scheme == "replication":
            if m != desc.fixed_m:
                raise ValueError(f"replication needs m = lambda*n = {desc.fixed_m}, got {m}")
            return ReplicationScheme(n=desc.n, lam=desc.lam)
        # Built per call, so a replaced module attribute is the one called.
        generators = {
            "rook-poly": poly_code_exponents,
            "rook-base3": base3_exponents,
            "rook-behrend": behrend_exponents,
        }
        return rook.make_rook_scheme(generators[desc.scheme](desc.n).normalized(), field, m, rng=rng)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


_ANY_FIELD = PrimeField()


def _bind_anywhere(descriptor: SchemeDescriptor):
    # No threshold or exponent pair depends on the field or the eval points,
    # so bind with as few workers as the scheme accepts.
    return bind_scheme(descriptor, _ANY_FIELD, descriptor.fixed_m or 0, random.Random(0))


def rook_exponents_for(descriptor: SchemeDescriptor):
    """A rook descriptor's exponent pair as bound: its generator's pair,
    normalized (see bind_scheme)."""
    scheme = _bind_anywhere(descriptor)
    if not isinstance(scheme, rook.RookScheme):
        raise ValueError(f"{descriptor.scheme} has no exponent pair")
    return scheme.pair


def scheme_threshold(descriptor: SchemeDescriptor) -> int:
    """Recovery threshold: |P+Q| for rook codes, 2n-1 for LCC/CSA,
    m - lambda + 1 (worst case) for replication."""
    return _bind_anywhere(descriptor).threshold
