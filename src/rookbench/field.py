"""Exact arithmetic over a prime field, matrices over it, and op counting.

Field elements are canonical Python ints in [0, p) for a prime p below
2^64.  The default modulus is the Mersenne prime 2^61 - 1, so exponents up
to ~2^61 stay representable as monomial degrees.  Powers and inverses use
builtin pow for single values; power_table computes x^e for many x and e
at once, the encoders' generator matrices and the decoders' system rows.
Every block product (a worker's, the oracle's) is one mat_mul call.  Linear
combinations of the same blocks (all the shares of an op, a decoder's
evaluations at the anchors) are one mat_lincombs call, the len(rows) x
len(blocks) by len(blocks) x entries product of a coefficient matrix and
the stacked blocks; mat_lincomb is its one-row case.  Both count the
multiplications of the schoolbook product and hand the product to one
kernel, _product, which picks its path by its size: below NUMPY_MIN_MULS,
one unreduced Python int sum per entry, reduced mod p once; from it on,
one exact numpy kernel of 21-bit limb products.
solve_linear, the decoders' hot loop, is one numpy Gauss-Jordan kernel.
The numpy kernels do modular arithmetic through one multiply-add picked by
the modulus: uint64 31/30-bit limb products with shift-add reduction for
2^61 - 1, the plain uint64 product for p < 2^32, and Python ints in an
object array for any other prime.

Operation counts are derived by formula from the algorithm they describe
(square-and-multiply for powers, elimination that skips zero multipliers
for solves), not tallied per step.  They are accumulated into explicit
OpCounter objects passed to the counted operations (one counter per
logical task), so there is no global mutable state and concurrent tasks
cannot interfere.
"""

from __future__ import annotations

from operator import mul

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
    for p in _MR_BASES:
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
        """Draw `count` distinct nonzero elements avoiding `exclude`'s residues."""
        p = self.modulus
        # 0 is never drawn, so it takes nothing from the p - 1 candidates.
        seen = {x % p for x in exclude} | {0}
        if count + len(seen) > p:
            raise ValueError(f"cannot draw {count} distinct nonzero points from GF({p})")
        out: list[int] = []
        while len(out) < count:
            x = rng.randrange(1, p)
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


# _product runs the numpy kernel (_mod_matmul) on products of at least this
# many multiplications, and the Python sums, whose fixed cost per call is
# lower, below it.  Timed per call with both paths interleaved on a 2-vCPU
# Xeon VM, over 2^61 - 1 and 257: numpy breaks even near 384-512 muls for
# n x 8 x 8 mat_mul products and near 768-1,024 or beyond for mat_lincomb
# of 4 x 4 blocks, whose entries are all converted and each used once; 512
# lies between.  In the benchmark workloads, the block products of
# decode-bound and retry-gf257 (8 to 64 muls) stay in Python, while their
# batched encodes (one product per side per op, 1,920 to 26,624 muls) and
# every product of block-bound (at least 1,024) run in numpy.
NUMPY_MIN_MULS = 512


def _product(p: int, a_rows, b_rows, m: int) -> list[int]:
    """The n x k by k x m product mod p of row lists, entries in [0, p), as
    a row-major list.

    m is passed because B's rows cannot tell it when k = 0.  From
    NUMPY_MIN_MULS multiplications on, the numpy kernel computes it; below,
    each entry is one unreduced Python int sum, reduced mod p once.
    """
    if len(a_rows) * len(b_rows) * m >= NUMPY_MIN_MULS:
        a, b = np.array(a_rows, dtype=np.uint64), np.array(b_rows, dtype=np.uint64)
        return _mod_matmul(p, a, b).ravel().tolist()
    cols = list(zip(*b_rows)) or [()] * m
    return [sum(map(mul, row, col)) % p for row in a_rows for col in cols]


def mat_mul(
    field: PrimeField,
    a: FieldMatrix,
    b: FieldMatrix,
    counter: OpCounter | None = None,
) -> FieldMatrix:
    """Schoolbook product; counts a.rows * a.cols * b.cols multiplications."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    n, k, m = a.rows, a.cols, b.cols
    out = _product(field.modulus, [a.row(i) for i in range(n)], [b.row(t) for t in range(k)], m)
    if counter is not None:
        counter.mul_count += n * k * m
    return FieldMatrix(n, m, out)


def mat_lincombs(
    field: PrimeField,
    coeff_rows,
    blocks,
    counter: OpCounter | None = None,
    base: FieldMatrix | None = None,
) -> list[FieldMatrix]:
    """[base + sum_i row[i] * blocks[i] for row in coeff_rows]; counts one
    multiplication per coefficient per entry, len(coeff_rows) *
    len(blocks) * rows * cols in all.

    Coefficients act as their residues mod p.  All the sums are one
    len(coeff_rows) x terms by terms x entries product of the coefficient
    rows and the stacked block entries, base being one more block with
    coefficient 1 in every row.  Raises DimensionMismatch, counting
    nothing, when a coefficient row does not pair off with the blocks or a
    shape differs from the first block's (or base's).  No rows give [].
    """
    for row in coeff_rows:
        if len(row) != len(blocks):
            raise DimensionMismatch(f"{len(row)} coefficients for {len(blocks)} blocks")
    if base is None and not blocks:
        raise DimensionMismatch("empty linear combination has no shape")
    first = blocks[0] if base is None else base
    rows, cols = first.rows, first.cols
    if any(b.rows != rows or b.cols != cols for b in blocks):
        raise DimensionMismatch("linear combination shape mismatch")
    p = field.modulus
    entries = [b.entries for b in blocks]
    tail = []
    if base is not None:
        entries.append(base.entries)
        tail.append(1)
    size = rows * cols
    out = _product(p, [[c % p for c in row] + tail for row in coeff_rows], entries, size)
    if counter is not None:
        counter.mul_count += len(coeff_rows) * len(blocks) * size
    return [FieldMatrix(rows, cols, out[i * size : (i + 1) * size]) for i in range(len(coeff_rows))]


def mat_lincomb(
    field: PrimeField,
    coeffs,
    blocks,
    counter: OpCounter | None = None,
    base: FieldMatrix | None = None,
) -> FieldMatrix:
    """base + sum_i coeffs[i] * blocks[i]: mat_lincombs of one coefficient row."""
    return mat_lincombs(field, [coeffs], blocks, counter, base)[0]


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


def _modular(p: int):
    """(muladd, dtype): x + a*b mod p on numpy arrays of entries below p.

    For 2^61 - 1, _muladd_m61 on uint64; for p < 2^32 the plain uint64
    product, since the largest term, (p-1) + (p-1)^2, fits in uint64; for
    any other prime, Python ints in an object array.
    """
    if p == M61:
        return _muladd_m61, np.uint64

    def muladd(x, a, b):
        return (x + a * b) % p

    return muladd, np.uint64 if p < (1 << 32) else object


_LIMB_BITS = 21
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
# Limb products are below 2^42, so float64, exact below 2^53, sums 2^11 of
# them exactly: the limb matmul takes the inner dimension in chunks of that.
_CHUNK = 1 << 11
# The limb matmul takes the output in column slices of at most this many
# entries, which bounds the digit array and the multiply-add temporaries
# built from it however many rows a batched product has.
_SLICE = 1 << 12


def _mod_matmul(p: int, a, b):
    """a @ b mod p for uint64 arrays a (n x k) and b (k x m) of entries below p.

    Entries are split into 21-bit limbs.  One float64 matmul of a's limbs,
    stacked as row blocks, by b's limbs, laid side by side as column blocks,
    gives every limb product sum exactly for a chunk of the inner dimension.
    Limb products of weight 2^(21d) add up to digit d (at most four terms,
    below 2^55); the digits are reduced mod p, weighted by 2^(21d) mod p in
    one call of the modulus's muladd, summed (at most seven residues, which
    fit in uint64 whenever the dtype is uint64) and reduced again.  Chunks
    are added with the muladd.  The output is computed in column slices of
    at most _SLICE entries.  Returns an n x m array of residues of
    _modular(p)'s dtype.
    """
    muladd, dtype = _modular(p)
    count = -(-(p - 1).bit_length() // _LIMB_BITS)
    (n, k), m = a.shape, b.shape[1]
    shifts = np.arange(0, count * _LIMB_BITS, _LIMB_BITS, dtype=np.uint64)
    a_limbs = ((a >> shifts[:, None, None]) & _LIMB_MASK).astype(np.float64).reshape(count * n, k)
    weights = np.array([pow(2, _LIMB_BITS * d, p) for d in range(2 * count - 1)], dtype=dtype)[:, None, None]
    out = np.zeros((n, m), dtype=dtype)
    width = max(1, _SLICE // n)
    for start in range(0, m, width):
        w = min(width, m - start)
        cols = slice(start, start + w)
        b_limbs = ((b[:, None, cols] >> shifts[:, None]) & _LIMB_MASK).astype(np.float64).reshape(k, count * w)
        for lo in range(0, k, _CHUNK):
            part = a_limbs[:, lo : lo + _CHUNK] @ b_limbs[lo : lo + _CHUNK]
            # part[i, j] is limb i of a times limb j of b; it adds to digit i + j.
            part = part.astype(np.uint64).reshape(count, n, count, w).transpose(0, 2, 1, 3)
            digits = np.zeros((2 * count - 1, n, w), dtype=np.uint64)
            for i in range(count):
                digits[i : i + count] += part[i]
            acc = muladd(0, digits.astype(dtype) % p, weights).sum(axis=0) % p
            out[:, cols] = acc if lo == 0 else muladd(out[:, cols], acc, 1)
    return out


def power_table(p: int, exponents, xs):
    """The len(xs) x len(exponents) array of x^e mod p, exponents e >= 0.

    Square-and-multiply over windows of k bits of every exponent at once,
    k about log2(len(exponents)) (the 2^k-ary method): for each window, k
    doublings (fewer in the last window), each one multiply-add on a whole
    array, turn [1, b] into the powers b^0 .. b^(2^k) of the window's base
    b = x^(2^shift); the
    window's digits of the exponents pick their columns, and one more
    multiply-add folds them into the table.  x^0 is 1, 0^0 included.
    Entries are residues of _modular(p)'s dtype.
    """
    muladd, dtype = _modular(p)
    e = np.array(exponents, dtype=np.uint64)
    base = np.array([x % p for x in xs], dtype=dtype).reshape(-1, 1)
    top = int(e.max()).bit_length() if e.size else 0
    k = max(1, min(top, e.size.bit_length()))
    table = np.ones((base.shape[0], e.size), dtype=dtype)
    for shift in range(0, top, k):
        steps = min(k, top - shift)
        powers = np.concatenate([np.ones_like(base), base], axis=1)
        for _ in range(steps):
            # Columns b^0 .. b^j times b^j, the last, are b^j .. b^(2j).
            powers = np.concatenate([powers[:, :-1], muladd(0, powers, powers[:, -1:])], axis=1)
        digits = ((e >> np.uint64(shift)) & np.uint64((1 << steps) - 1)).astype(np.intp)
        table = powers[:, digits] if shift == 0 else muladd(0, table, powers[:, digits])
        base = powers[:, -1:]
    return table


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
    muladd, dtype = _modular(p)
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
