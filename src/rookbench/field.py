"""Exact arithmetic over a prime field, matrices over it, and op counting.

Field elements are canonical Python ints in [0, p) for a prime p below
2^64.  The default modulus is the Mersenne prime 2^61 - 1, so exponents up
to ~2^61 stay representable as monomial degrees.  Scalar and matrix
products use Python ints; powers and inverses use builtin pow.  Every
linear combination of blocks (an encoder's share, a decoder's evaluation at
an anchor or rescale) is one mat_lincomb call: each entry's products are
summed as unreduced Python ints and reduced mod p once, and the call counts
one multiplication per coefficient per entry.
solve_linear, the decoders' hot loop, is one numpy Gauss-Jordan kernel
whose row multiply-add is picked by the modulus: uint64 31/30-bit limb
products with shift-add reduction for 2^61 - 1, the plain uint64 product
for p < 2^32, and Python ints in an object array for any other prime.

Operation counts are derived by formula from the algorithm they describe
(square-and-multiply for powers, elimination that skips zero multipliers
for solves), not tallied per step.  They are accumulated into explicit
OpCounter objects passed to the counted operations (one counter per
logical task), so there is no global mutable state and concurrent tasks
cannot interfere.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul

import numpy as np

M61 = (1 << 61) - 1  # 2^61 - 1, prime


class FieldError(Exception):
    pass


class DimensionMismatch(FieldError):
    pass


class SingularMatrix(FieldError):
    pass


# Deterministic Miller-Rabin witnesses for all n < 3.3 * 10^24 (covers u64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OpCounter:
    """Mutable tally of field multiplications and inversions.

    Scoped per logical task; totals only ever increase within a scope.
    Inversions are tracked separately because a division costs several
    multiplications and the schemes under comparison differ exactly in
    whether they divide at all.
    """

    __slots__ = ("mul_count", "inv_count")

    def __init__(self) -> None:
        self.mul_count = 0
        self.inv_count = 0

    def __repr__(self) -> str:
        return f"OpCounter(mul={self.mul_count}, inv={self.inv_count})"


class PrimeField:
    """The field Z/pZ for a prime p that fits in 64 bits."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int = M61):
        if modulus >= (1 << 64):
            raise ValueError(f"modulus {modulus} does not fit in 64 bits")
        if not is_prime_u64(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        self.modulus = modulus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"

    def inv(self, a: int, counter: OpCounter | None = None) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if counter is not None:
            counter.inv_count += 1
        return pow(a, -1, self.modulus)

    def check_exponent_bound(self, max_exponent: int) -> None:
        # Monomials x^e must stay distinct as functions on the nonzero
        # elements, which holds only while e < p - 1 (the group order).
        if max_exponent >= self.modulus - 1:
            raise ValueError(
                f"exponent {max_exponent} too large for modulus {self.modulus}; "
                "need max exponent < modulus - 1"
            )

    def distinct_nonzero(self, rng, count: int, exclude=()) -> list[int]:
        """Draw `count` distinct nonzero elements avoiding `exclude`."""
        banned = set(exclude)
        if count + len(banned) > self.modulus - 1:
            raise ValueError(
                f"cannot draw {count} distinct nonzero points from GF({self.modulus})"
            )
        out: list[int] = []
        seen = set(banned)
        while len(out) < count:
            x = rng.randrange(1, self.modulus)
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out


def pow_muls(e: int) -> int:
    """Multiplications left-to-right square-and-multiply spends on x^e, e >= 0.

    That is one squaring per bit of e after the leading one plus one
    multiplication per further 1-bit: at most 2*floor(log2 e) for e >= 1,
    depending only on the bit pattern of e.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    return e.bit_length() + e.bit_count() - 2 if e else 0


class FieldMatrix:
    """Dense matrix over a prime field; entries are a row-major int list."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list[int]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_data) -> "FieldMatrix":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        ent: list[int] = []
        for r in rows_data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            ent.extend(r)
        return cls(rows, cols, ent)

    def row(self, i: int) -> list[int]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols}, {self.entries!r})"


def mat_mul(
    field: PrimeField,
    a: FieldMatrix,
    b: FieldMatrix,
    counter: OpCounter | None = None,
) -> FieldMatrix:
    """Schoolbook product; counts a.rows * a.cols * b.cols multiplications."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    p = field.modulus
    n, k, m = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = [0] * (n * m)
    for i in range(n):
        arow = ae[i * k : (i + 1) * k]
        base = i * m
        for j in range(m):
            acc = 0
            idx = j
            for t in range(k):
                acc += arow[t] * be[idx]
                idx += m
            out[base + j] = acc % p
    if counter is not None:
        counter.mul_count += n * k * m
    return FieldMatrix(n, m, out)


# Lazy terms chained before the running sum is materialized: every term
# nests one more C-level iterator, and deep nesting overflows the C stack.
_NEST = 256


def mat_lincomb(
    field: PrimeField,
    coeffs,
    blocks,
    counter: OpCounter | None = None,
    base: FieldMatrix | None = None,
) -> FieldMatrix:
    """base + sum_i coeffs[i] * blocks[i]; counts one multiplication per
    coefficient per entry, len(blocks) * rows * cols in all.

    Each entry's products are summed as unreduced Python ints through
    C-level maps and reduced mod p once.  Raises DimensionMismatch, counting
    nothing, when the coefficients do not pair off with the blocks or a
    shape differs from the first block's (or base's).
    """
    if len(coeffs) != len(blocks):
        raise DimensionMismatch(f"{len(coeffs)} coefficients for {len(blocks)} blocks")
    if base is None and not blocks:
        raise DimensionMismatch("empty linear combination has no shape")
    first = blocks[0] if base is None else base
    rows, cols = first.rows, first.cols
    if any(b.rows != rows or b.cols != cols for b in blocks):
        raise DimensionMismatch("linear combination shape mismatch")
    terms = zip(coeffs, blocks)
    if base is None:
        c, b = next(terms)
        acc = map(mul, repeat(c), b.entries)
    else:
        acc = base.entries
    for i, (c, b) in enumerate(terms, 1):
        acc = map(add, acc, map(mul, repeat(c), b.entries))
        if not i % _NEST:
            acc = list(acc)
    p = field.modulus
    out = [v % p for v in acc]
    if counter is not None:
        counter.mul_count += len(blocks) * rows * cols
    return FieldMatrix(rows, cols, out)


def mat_random(field: PrimeField, rows: int, cols: int, rng) -> FieldMatrix:
    """Uniform random matrix; deterministic given the rng stream."""
    p = field.modulus
    return FieldMatrix(rows, cols, [rng.randrange(p) for _ in range(rows * cols)])


_LO30 = np.uint64((1 << 30) - 1)
_LO31 = np.uint64((1 << 31) - 1)
_M61 = np.uint64(M61)


def _muladd_m61(x, a, b):
    """(x + a*b) mod 2^61 - 1 on uint64 arrays, entries below 2^61.

    a and b are split into 31-bit low and 30-bit high limbs.  Modulo
    2^61 - 1, 2^61 is 1, so the high-high product weighs 2^62 = 2 and the
    middle sum m weighs 2^31, making m*2^31 = (m >> 30) + (m mod 2^30)*2^31.
    Every partial stays below 2^62 and their sum with x below 2^64; one
    shift-add fold and one conditional subtraction make the result
    canonical.
    """
    a_hi, a_lo = a >> 31, a & _LO31
    b_hi, b_lo = b >> 31, b & _LO31
    mid = a_hi * b_lo + a_lo * b_hi
    s = x + ((a_hi * b_hi) << 1) + (mid >> 30) + ((mid & _LO30) << 31) + a_lo * b_lo
    s = (s & _M61) + (s >> 61)
    # s - M61 wraps past s exactly when s < M61.
    return np.minimum(s, s - _M61)


def solve_linear(
    field: PrimeField,
    v: FieldMatrix,
    rhs: list[FieldMatrix],
    counter: OpCounter | None = None,
) -> list[FieldMatrix]:
    """Solve V * C = rhs block-wise by Gauss-Jordan elimination over the field.

    V is k x L with k >= L; rhs is a list of k equally-shaped matrix
    blocks, and the L solution blocks are read from the first L rows once
    every column has its pivot.  A tall system must be consistent, as exact
    evaluations are; rows beyond the pivots are eliminated but not checked.
    Raises SingularMatrix when no nonzero pivot exists in some column, that
    is when V's rank is below L.  Each pivot costs one inversion (tallied
    in inv_count).

    The pivot is the first nonzero entry at or below the diagonal.  Counts
    are those of forward elimination that skips zero multipliers followed
    by back substitution: at column c, ((L - c) + blen) muls per nonzero at
    or below the diagonal, plus blen per nonzero right of the diagonal in
    the normalized pivot row.  When V is singular, the columns completed
    before the one without a pivot are counted.
    """
    if v.rows < v.cols:
        raise DimensionMismatch("V needs at least as many rows as columns")
    n = v.cols
    if len(rhs) != v.rows:
        raise DimensionMismatch("rhs block count must equal V's row count")
    if n == 0:
        return []
    br, bc = rhs[0].rows, rhs[0].cols
    for blk in rhs:
        if blk.rows != br or blk.cols != bc:
            raise DimensionMismatch("rhs blocks must share dimensions")

    p = field.modulus
    blen = br * bc
    if p == M61:
        muladd, dtype = _muladd_m61, np.uint64
    else:
        # Below 2^32 the largest term, (p-1) + (p-1)^2, fits in uint64.
        def muladd(x, a, b):
            return (x + a * b) % p

        dtype = np.uint64 if p < (1 << 32) else object
    aug = np.array([v.row(i) + blk.entries for i, blk in enumerate(rhs)], dtype=dtype)

    for col in range(n):
        nonzero = aug[col:, col].nonzero()[0]
        if nonzero.size == 0:
            raise SingularMatrix(f"no nonzero pivot in column {col}")
        pivot = col + int(nonzero[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        prow = aug[col, col:]
        inv = pow(int(prow[0]), -1, p)
        if counter is not None:
            # Scaling by inv keeps the pivot row's zero pattern, so its count
            # is read before normalization.
            counter.mul_count += ((n - col) + blen) * nonzero.size + blen * int(
                np.count_nonzero(prow[1 : n - col])
            )
            counter.inv_count += 1
        # Row r gets -f_r * inv times the pivot row; the pivot row gets
        # (inv - 1) times itself, which normalizes it.  A zero multiplier
        # leaves its row unchanged, so no rows are gathered.
        coef = [(p - f) * inv % p for f in aug[:, col].tolist()]
        coef[col] = inv - 1
        aug[:, col:] = muladd(aug[:, col:], np.array(coef, dtype=dtype)[:, None], prow)

    return [FieldMatrix(br, bc, row) for row in aug[:n, n:].tolist()]
