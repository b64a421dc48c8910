"""Baseline batch-multiplication codes behind the rook pipeline interface.

LCC interpolates the inputs at anchor points z_i and ships evaluations of
that interpolant; CSA ships evaluations of a rational encoding with poles
at the anchors.  Both have recovery threshold 2n-1 and both must divide
while encoding, which is the cost the rook path avoids.  Plain replication
rounds out the comparison.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from . import rook
# sum_support and solve_linear are unused here, but perfbench/spans.py
# traces baselines.sum_support and baselines.solve_linear.
from .exponents import base3_exponents, behrend_exponents, poly_code_exponents, sum_support  # noqa: F401
from .field import FieldError, OpCounter, PrimeField, mat_lincomb, mat_lincombs, solve_linear  # noqa: F401
from .rook import WorkerShare, _require_products, _solve_responses, power_rows


class ConfigInvalid(Exception):
    pass


class UncoveredPair(FieldError):
    pass


def _anchors_and_points(n, field, m, rng, z, eval_points):
    """Anchors (default 1..n) and eval points (default m random ones off the anchors)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if z is None:
        z = tuple(range(1, n + 1))
    else:
        z = tuple(v % field.modulus for v in z)
    if len(z) != n:
        raise ValueError(f"expected {n} anchors, got {len(z)}")
    if len(set(z)) != n:
        raise ValueError("anchors must be pairwise distinct")
    return z, rook.bind_points(field, m, rng, eval_points, exclude=z)


# --- LCC --------------------------------------------------------------------


@dataclass(frozen=True)
class LccScheme:
    field: PrimeField
    z: tuple
    eval_points: tuple
    # Rows [z, z^2, ..., z^{2n-2}] per anchor, for evaluating at the anchors.
    zpows: list = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "zpows", power_rows(self.field, range(1, self.threshold), self.z))

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
    """L_i(x) = prod_{j != i} (x - z_j) / (z_i - z_j); one inversion each."""
    p = field.modulus
    out = []
    muls = 0
    for i, zi in enumerate(z):
        num = 1
        den = 1
        for j, zj in enumerate(z):
            if j == i:
                continue
            num = num * (x - zj) % p
            den = den * (zi - zj) % p
            muls += 2
        inv = field.inv(den, counter)
        out.append(num * inv % p)
        muls += 1
    if counter is not None:
        counter.mul_count += muls
    return out


def lcc_encode(scheme: LccScheme, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
    """Evaluate the Lagrange interpolants of the inputs at x_w for each
    worker w: the Lagrange bases at the x_w, stacked, times the stacked
    inputs, one mat_lincombs call per side."""
    field = scheme.field
    xs = [scheme.eval_points[w] for w in workers]
    bases = [_lagrange_basis(field, scheme.z, x, counter) for x in xs]
    a_tilde = mat_lincombs(field, bases, [a for a, _ in inputs], counter)
    b_tilde = mat_lincombs(field, bases, [b for _, b in inputs], counter)
    return [
        WorkerShare(worker_id=w, x=x, a_tilde=a, b_tilde=b)
        for w, x, a, b in zip(workers, xs, a_tilde, b_tilde)
    ]


def lcc_decode(products, scheme: LccScheme, counter: OpCounter | None = None):
    """Interpolate the degree-(2n-2) product polynomial from every product
    received, then evaluate it at the anchors."""
    field = scheme.field
    L = scheme.threshold
    _require_products(products, L)
    rows = power_rows(field, range(L), [pr.x for pr in products], counter)
    coeffs = _solve_responses(field, rows, products, counter)
    # C_0 + z C_1 + z^2 C_2 + ... at every anchor in one product: (L - 1)
    # scalar-matrix products per anchor, the cost of Horner's rule; the
    # scalar powers of z, computed once at binding, go uncounted.
    return mat_lincombs(field, scheme.zpows, coeffs[1:], counter, base=coeffs[0])


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

    def decode(self, products, counter: OpCounter | None = None):
        _require_products(products, self.threshold)
        return csa_decode(products, self, counter)


def make_csa_scheme(n, field, m, rng=None, z=None, eval_points=None) -> CsaScheme:
    """Anchors 1..n; eval points drawn disjoint from the anchors."""
    z, eval_points = _anchors_and_points(n, field, m, rng, z, eval_points)
    return CsaScheme(field=field, z=z, eval_points=eval_points)


def csa_encode(scheme: CsaScheme, inputs, workers, counter: OpCounter | None = None) -> list[WorkerShare]:
    """A~(x) = f(x) * sum_i A_i/(z_i - x);  B~(x) = sum_i B_i/(z_i - x) at
    x = x_w for each worker w.

    The rows 1/(z_i - x_w), stacked, times the stacked inputs give both
    sums in one mat_lincombs call per side; each A~ is then rescaled by its
    own f(x_w), rows(A) * inner muls per share.
    """
    field = scheme.field
    p = field.modulus
    xs = [scheme.eval_points[w] for w in workers]
    invs = [[field.inv((zi - x) % p, counter) for zi in scheme.z] for x in xs]
    fs = [math.prod((zi - x) % p for zi in scheme.z) % p for x in xs]
    if counter is not None:
        counter.mul_count += (scheme.n - 1) * len(xs)
    sums = mat_lincombs(field, invs, [a for a, _ in inputs], counter)
    b_tilde = mat_lincombs(field, invs, [b for _, b in inputs], counter)
    return [
        WorkerShare(worker_id=w, x=x, a_tilde=mat_lincomb(field, [f], [a], counter), b_tilde=b)
        for w, x, f, a, b in zip(workers, xs, fs, sums, b_tilde)
    ]


def csa_decode(products, scheme: CsaScheme, counter: OpCounter | None = None):
    """Separate pole residues from the polynomial noise part and rescale.

    The product evaluations satisfy E_w = sum_i D_i/(z_i - x_w) + sum_j N_j x_w^j
    with D_i = c_i * A_i B_i, so a (2n-1)-column solve over every product
    received recovers the D_i and the noise blocks are discarded.
    """
    field = scheme.field
    p = field.modulus
    n = scheme.n
    _require_products(products, scheme.threshold)
    polys = power_rows(field, range(n - 1), [pr.x for pr in products], counter)
    rows = [
        [field.inv((zi - pr.x) % p, counter) for zi in scheme.z] + poly
        for pr, poly in zip(products, polys)
    ]
    blocks = _solve_responses(field, rows, products, counter)
    out = []
    for i in range(n):
        c_inv = field.inv(scheme.residues[i], counter)
        out.append(mat_lincomb(field, [c_inv], [blocks[i]], counter))
    return out


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
    and `decode(products, counter)` giving all n products or raising a
    FieldError (NotEnoughProducts below the threshold). A configuration the
    field or the worker count cannot hold raises ConfigInvalid.
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
        return rook.make_rook_scheme(generators[desc.scheme](desc.n), field, m, rng=rng)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


_ANY_FIELD = PrimeField()


def _bind_anywhere(descriptor: SchemeDescriptor):
    # No threshold or exponent pair depends on the field or the eval points,
    # so bind with as few workers as the scheme accepts.
    return bind_scheme(descriptor, _ANY_FIELD, descriptor.fixed_m or 0, random.Random(0))


def rook_exponents_for(descriptor: SchemeDescriptor):
    """A rook descriptor's exponent pair, the one its generator makes."""
    scheme = _bind_anywhere(descriptor)
    if not isinstance(scheme, rook.RookScheme):
        raise ValueError(f"{descriptor.scheme} has no exponent pair")
    return scheme.pair


def scheme_threshold(descriptor: SchemeDescriptor) -> int:
    """Recovery threshold: |P+Q| for rook codes, 2n-1 for LCC/CSA,
    m - lambda + 1 (worst case) for replication."""
    return _bind_anywhere(descriptor).threshold
