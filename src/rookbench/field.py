"""Exact arithmetic over a prime field, matrices over it, and op counting.

Field elements are canonical Python ints in [0, p) for a prime p below
2^64.  The default modulus is the Mersenne prime 2^61 - 1, so exponents up
to ~2^61 stay representable as monomial degrees.  Scalar and matrix
products use Python ints; powers and inverses use builtin pow.
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
    """Mutable tally of field multiplications, additions, and inversions.

    Scoped per logical task; totals only ever increase within a scope.
    Inversions are tracked separately because a division costs several
    multiplications and the schemes under comparison differ exactly in
    whether they divide at all.
    """

    __slots__ = ("mul_count", "add_count", "inv_count")

    def __init__(self) -> None:
        self.mul_count = 0
        self.add_count = 0
        self.inv_count = 0

    def reset(self) -> None:
        self.mul_count = 0
        self.add_count = 0
        self.inv_count = 0

    def absorb(self, other: "OpCounter") -> None:
        self.mul_count += other.mul_count
        self.add_count += other.add_count
        self.inv_count += other.inv_count

    def as_dict(self) -> dict:
        return {
            "mul_count": self.mul_count,
            "add_count": self.add_count,
            "inv_count": self.inv_count,
        }

    def __repr__(self) -> str:
        return f"OpCounter(mul={self.mul_count}, add={self.add_count}, inv={self.inv_count})"


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

    # Scalar helpers.  These are not op-counted; counting happens in the
    # bulk operations below whose counts the reports actually use.
    def add(self, a: int, b: int) -> int:
        s = a + b
        p = self.modulus
        return s - p if s >= p else s

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def neg(self, a: int) -> int:
        return self.modulus - a if a else 0

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

    def rand_element(self, rng) -> int:
        return rng.randrange(self.modulus)

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


def field_pow(field: PrimeField, x: int, e: int, counter: OpCounter | None = None) -> int:
    """x^e, counting the multiplications of left-to-right square-and-multiply.

    That is one squaring per bit of e after the leading one plus one
    multiplication per further 1-bit: at most 2*floor(log2 e) for e >= 1,
    depending only on the bit pattern of e.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    if counter is not None and e:
        counter.mul_count += e.bit_length() + e.bit_count() - 2
    return pow(x, e, field.modulus)


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
    def zeros(cls, rows: int, cols: int) -> "FieldMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "FieldMatrix":
        ent = [0] * (n * n)
        for i in range(n):
            ent[i * n + i] = 1
        return cls(n, n, ent)

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

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

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

    def to_json_dict(self) -> dict:
        # Entries as decimal strings: JSON numbers lose exactness past 2^53.
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [str(e) for e in self.entries],
        }

    @classmethod
    def from_json_dict(cls, d: dict, field: PrimeField | None = None) -> "FieldMatrix":
        entries = [int(e) for e in d["entries"]]
        if field is not None:
            p = field.modulus
            if any(e < 0 or e >= p for e in entries):
                raise ValueError("entry out of field range")
        return cls(int(d["rows"]), int(d["cols"]), entries)


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
        counter.add_count += n * m * (k - 1 if k > 0 else 0)
    return FieldMatrix(n, m, out)


def mat_add(
    field: PrimeField,
    a: FieldMatrix,
    b: FieldMatrix,
    counter: OpCounter | None = None,
) -> FieldMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch("matrix addition shape mismatch")
    p = field.modulus
    out = [(x + y) % p for x, y in zip(a.entries, b.entries)]
    if counter is not None:
        counter.add_count += a.rows * a.cols
    return FieldMatrix(a.rows, a.cols, out)


def mat_scale(
    field: PrimeField,
    s: int,
    a: FieldMatrix,
    counter: OpCounter | None = None,
) -> FieldMatrix:
    p = field.modulus
    out = [s * x % p for x in a.entries]
    if counter is not None:
        counter.mul_count += a.rows * a.cols
    return FieldMatrix(a.rows, a.cols, out)


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
    the normalized pivot row.  Nothing is counted when V is singular.
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
    muls = 0

    for col in range(n):
        nonzero = aug[col:, col].nonzero()[0]
        if nonzero.size == 0:
            raise SingularMatrix(f"no nonzero pivot in column {col}")
        pivot = col + int(nonzero[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        prow = aug[col, col:]
        inv = pow(int(prow[0]), -1, p)
        # Scaling by inv keeps the pivot row's zero pattern, so its count is
        # read before normalization.
        muls += ((n - col) + blen) * nonzero.size + blen * int(np.count_nonzero(prow[1 : n - col]))
        # Row r gets -f_r * inv times the pivot row; the pivot row gets
        # (inv - 1) times itself, which normalizes it.  A zero multiplier
        # leaves its row unchanged, so no rows are gathered.
        coef = [(p - f) * inv % p for f in aug[:, col].tolist()]
        coef[col] = inv - 1
        aug[:, col:] = muladd(aug[:, col:], np.array(coef, dtype=dtype)[:, None], prow)

    if counter is not None:
        counter.mul_count += muls
        counter.inv_count += n
    return [FieldMatrix(br, bc, row) for row in aug[:n, n:].tolist()]
