"""Baseline batch-multiplication codes behind the rook pipeline interface.

LCC interpolates the inputs at anchor points z_i and ships evaluations of
that interpolant; CSA ships evaluations of a rational encoding with poles
at the anchors.  Both have recovery threshold 2n-1 and both must divide
while encoding, which is the cost the rook path avoids.  Both decode the
same way, with no elimination: Lagrange interpolation of a degree-(2n-2)
polynomial through the first 2n-1 distinct points
(field.interpolation_weights), evaluated at the anchors.  For LCC that
polynomial is the product itself; for CSA it is the product times
f(x) = prod_i (z_i - x), which clears the poles.  Only rook supports that
are not intervals are solved by elimination (rook.rook_decode).  Plain
replication rounds out the comparison.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field as dc_field

from . import rook
# sum_support and solve_linear are unused here, but perfbench/spans.py
# traces baselines.sum_support and baselines.solve_linear.
from .exponents import ExponentPair, base3_exponents, behrend_exponents, poly_code_exponents, sum_support  # noqa: F401
from .field import (  # noqa: F401
    FieldError,
    FieldMatrix,
    OpCounter,
    PrimeField,
    interpolation_weights,
    mat_lincombs,
    mat_mul,
    solve_linear,
)
from .rook import (
    WorkerShare,
    _first_distinct,
    _require_products,
    generator_shares,
    power_rows,
)


class ConfigInvalid(Exception):
    pass


def integer(name: str, value) -> int:
    """value as an int: anything operator.index takes (numpy integers
    included) except bool, so that 2.0 or True is not read as a count or a
    seed.  Anything else raises ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
    anchor_rows: FieldMatrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = power_rows(self.field, range(self.threshold), self.z)
        object.__setattr__(self, "anchor_rows", FieldMatrix(self.n, self.threshold, rows))

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def threshold(self) -> int:
        return 2 * self.n - 1

    def encode(self, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
        return lcc_encode(self, inputs, workers, counter)

    def decode(self, products, counter: OpCounter | None = None):
        _require_products(products, self.threshold)
        return lcc_decode(products, self, counter)


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


def _at_anchors(products, scheme, counter: OpCounter | None):
    """The first L = 2n - 1 products with distinct points
    (rook._first_distinct), and the n x L rows taking their values to the
    values at the anchors of the degree-(L-1) polynomial through them:
    scheme.anchor_rows, fixed at binding, times the interpolation weights
    of all L coefficients, one n x L by L x L mat_mul."""
    field, L = scheme.field, scheme.threshold
    _require_products(products, L)
    chosen = _first_distinct(field, products, L)
    weights = interpolation_weights(field, [pr.x for pr in chosen], range(L), counter)
    return chosen, mat_mul(field, scheme.anchor_rows, FieldMatrix(L, L, weights), counter).data


def lcc_decode(products, scheme: LccScheme, counter: OpCounter | None = None):
    """Interpolate the degree-(2n-2) product polynomial through the first
    L = 2n - 1 products with distinct points, then evaluate it at the
    anchors (_at_anchors): the products are combined once, by one
    mat_lincombs call of n rows.
    """
    chosen, rows = _at_anchors(products, scheme, counter)
    return mat_lincombs(scheme.field, rows, [pr.e for pr in chosen], counter)


# --- CSA --------------------------------------------------------------------


@dataclass(frozen=True)
class CsaScheme:
    field: PrimeField
    z: tuple
    eval_points: tuple
    # c_i = prod_{k != i} (z_k - z_i), the residue at the pole z_i.
    residues: tuple = dc_field(init=False, repr=False, compare=False)
    # Rows c_i^{-2} [1, z_i, ..., z_i^{2n-2}] per anchor, taking the
    # coefficients of f(x) times the product to the A_i B_i (csa_decode).
    anchor_rows: FieldMatrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Checked here, whoever builds the scheme: no point may sit on a pole.
        if set(self.eval_points) & set(self.z):
            raise ValueError("evaluation points must avoid the anchors")
        p = self.field.modulus
        residues = tuple(
            math.prod((zk - zi) % p for k, zk in enumerate(self.z) if k != i) % p for i, zi in enumerate(self.z)
        )
        object.__setattr__(self, "residues", residues)
        scales = [pow(c, -2, p) for c in residues]
        powers = power_rows(self.field, range(self.threshold), self.z).tolist()
        rows = [[s * v % p for v in row] for s, row in zip(scales, powers)]
        object.__setattr__(self, "anchor_rows", FieldMatrix(self.n, self.threshold, rows))

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def threshold(self) -> int:
        return 2 * self.n - 1

    def encode(self, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
        return csa_encode(self, inputs, workers, counter)

    def decode(self, products, counter: OpCounter | None = None):
        _require_products(products, self.threshold)
        return csa_decode(products, self, counter)


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


def csa_decode(products, scheme: CsaScheme, counter: OpCounter | None = None):
    """Clear the poles, then decode as lcc_decode does.

    With f_i(x) = f(x)/(z_i - x) = prod_{k != i} (z_k - x), the product
    evaluations are E(x) = A~(x) B~(x) = sum_{i,j} f_i(x) A_i B_j/(z_j - x),
    so g(x) = f(x) E(x) = sum_{i,j} f_i(x) f_j(x) A_i B_j is a polynomial of
    degree at most L - 1 = 2n - 2, and g(z_i) = c_i^2 A_i B_i, as f_j(z_i)
    is c_i for j = i and 0 otherwise.  So A_i B_i is c_i^{-2} g(z_i): the
    anchor rows c_i^{-2} [1, z_i, ..., z_i^{L-1}], fixed at binding, times
    the interpolation weights (_at_anchors), each column w scaled by
    f(x_w), combine the first L products with distinct points.

    Charged, with blen the entries of a product, interpolation_weights'
    charge for L points and all L coefficients, n L^2 for the anchor
    product, L (n - 1) for the f(x_w), n L for the column scaling and
    n L blen for the one mat_lincombs; the L inversions are the weights'.
    """
    field, n, L = scheme.field, scheme.n, scheme.threshold
    p = field.modulus
    chosen, rows = _at_anchors(products, scheme, counter)
    fs = [math.prod((zi - pr.x) % p for zi in scheme.z) % p for pr in chosen]
    rows = [[w * f % p for w, f in zip(row, fs)] for row in rows.tolist()]
    if counter is not None:
        counter.mul_count += L * (n - 1) + n * L
    return mat_lincombs(field, rows, [pr.e for pr in chosen], counter)


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

    def decode(self, products, counter: OpCounter | None = None):
        """Each pair's first product; UncoveredPair while some pair has none."""
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
        object.__setattr__(self, "n", integer("n", self.n))
        if self.lam is not None:
            object.__setattr__(self, "lam", integer("lam", self.lam))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.scheme == "replication" and (self.lam is None or self.lam < 1):
            raise ValueError("replication needs lambda >= 1")

    @property
    def fixed_m(self) -> int | None:
        """Replication runs on exactly lambda * n workers; coded schemes on any m."""
        return self.lam * self.n if self.scheme == "replication" else None


@functools.lru_cache(maxsize=64)
def _rook_pair(scheme: str, n: int) -> ExponentPair:
    """A rook code's generator pair, normalized, generated once per process
    per (scheme, n).  The pair depends on neither field nor points, and it
    is frozen, so every bind may share it.

    The generator is looked up by its module attribute on a miss only: a
    replaced generator is called once the cache is cleared
    (`_rook_pair.cache_clear()`).
    """
    generators = {
        "rook-poly": poly_code_exponents,
        "rook-base3": base3_exponents,
        "rook-behrend": behrend_exponents,
    }
    return generators[scheme](n).normalized()


def bind_scheme(desc: SchemeDescriptor, field: PrimeField, m: int, rng):
    """Bind a descriptor to a field and m workers: the one place that picks a
    scheme's code by its name.

    Every bound scheme has `threshold`, `encode(inputs, workers, counter)`
    giving the shares of the listed workers in one call, in their order,
    and `decode(products, counter)` giving all n products or raising a
    FieldError (NotEnoughProducts below the threshold).  A configuration
    the field or the worker count cannot hold raises ConfigInvalid.

    A rook code binds its generator's pair normalized
    (ExponentPair.normalized), which keeps L and the diagonal but spares a
    small field the equal rows of x and -x that an even gap gcd gives.
    poly and base3 pairs are already normalized; behrend pairs are not.
    The pair is generated once per process per (scheme, n) (_rook_pair);
    every check that depends on the field or m, and the draw of the
    points, runs on every bind.
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
        return rook.make_rook_scheme(_rook_pair(desc.scheme, desc.n), field, m, rng=rng)
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
