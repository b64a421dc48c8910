"""Exact arithmetic over a prime field, matrices over it, and op counting.

Field elements are canonical Python ints in [0, p) for a prime p below
2^64.  The default modulus is the Mersenne prime 2^61 - 1, so exponents up
to ~2^61 stay representable as monomial degrees.  A FieldMatrix holds one
read-only uint64 array, which the kernels below take and return as it is;
an entry of p or more acts as its residue.  Powers and inverses use
builtin pow for single values; power_table computes x^e for many x and e
at once, the encoders' generator matrices and the decoders' system rows.
Every block product (a worker's, the oracle's) is one mat_mul call.  Linear
combinations of the same blocks (all the shares of an op, a decoder's
evaluations at the anchors) are one mat_lincombs call, the len(rows) x
len(blocks) by len(blocks) x entries product of a coefficient matrix and
the stacked blocks; a single combination is one row.  Both count the
multiplications of the schoolbook product and hand the product to one
kernel, _product, which picks its path by its size: below NUMPY_MIN_MULS,
one unreduced Python int sum per entry, reduced mod p once; from it on,
one exact numpy kernel of 21-bit limb products on operands reduced mod p.
That kernel takes the inner dimension in chunks of 2^9 terms, and one
float64 matmul per chunk, of a's limbs laid out by digit plane against b's
limbs, gives the chunk's digit planes, summed exactly; it folds them mod p
once per chunk.  For 2^61 - 1 there are three planes, since 2^63 is 4
there (digits 3 and 4 enter planes 0 and 1 times 4), folded by
shift-and-add; any other prime has one plane per digit, each reduced and
weighted by 2^(21d) mod p.  mat_random draws a large matrix with one
getrandbits call, with the values and rng state of one randrange per entry.
solve_linear, the decoders' hot loop, is one numpy Gauss-Jordan kernel
that adds each column's multipliers times its pivot row to the trailing
block of [V | rhs] in place, the block held as one contiguous array in one
of the buffers allocated once per solve.  It keeps its elimination in a
SolveBasis, fresh when the caller passes none: the reduced pivot rows,
restricted to the columns without a pivot and the rhs.  Given the basis
of an earlier call, a system whose rows arrive over several calls
reduces only its new rows against them, in one product, and eliminates
those over the columns still without a pivot, so a decoder that retries
after each response never re-solves from scratch.
The numpy kernels do modular arithmetic through one multiply-add, and the
solve through its in-place form, picked by the modulus: uint64 31/30-bit
limb products with shift-add reduction for 2^61 - 1, the plain uint64
product for p < 2^32, and Python ints in an object array for any other
prime.

Operation counts are derived by formula from the algorithm they describe
(square-and-multiply for powers, elimination that skips zero multipliers
for solves), not tallied per step.  They are accumulated into explicit
OpCounter objects passed to the counted operations (one counter per
logical task), so there is no global mutable state and concurrent tasks
cannot interfere.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import islice
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
    """Dense matrix over a prime field: a read-only rows x cols uint64 array.

    Every residue of a prime below 2^64 fits in uint64.  The constructor
    takes the entries as a row-major list or as an array; an entry outside
    [0, 2^64) raises ValueError.  An array is taken as it is, without a
    copy, so its owner must not write it afterwards; the kernels hand over
    arrays they built themselves.
    """

    __slots__ = ("data",)

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if not (isinstance(entries, np.ndarray) and entries.dtype == np.uint64):
            # Another array goes through Python ints, so no entry wraps.
            if isinstance(entries, np.ndarray):
                entries = entries.tolist()
            try:
                entries = np.array(entries, dtype=np.uint64)
            except OverflowError as exc:
                raise ValueError(f"matrix entries must lie in [0, 2^64): {exc}") from exc
        if entries.size != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {entries.size}")
        self.data = entries.reshape(rows, cols)
        self.data.setflags(write=False)

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

    @classmethod
    def _wrap(cls, data) -> "FieldMatrix":
        """The matrix of a 2-D uint64 array of residues that a kernel built,
        without the constructor's checks; data is made read-only."""
        data.setflags(write=False)
        m = object.__new__(cls)
        m.data = data
        return m

    @classmethod
    def _split(cls, stack) -> list["FieldMatrix"]:
        """The matrices stack[0], stack[1], ... of a 3-D uint64 array that a
        kernel built, as _wrap makes them."""
        return [cls._wrap(data) for data in stack]

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def entries(self) -> list[int]:
        """The entries as a row-major list of Python ints."""
        return self.data.ravel().tolist()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldMatrix) and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:
        return hash((self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols}, {self.entries!r})"


# _product runs the numpy kernel (_mod_matmul) on products of at least this
# many multiplications, and the Python sums, whose fixed cost per call is
# lower, below it.  Timed per call with both paths interleaved on a 2-vCPU
# Xeon VM (15 rounds), with operands that reach the kernel as uint64
# arrays: over 2^61 - 1, numpy breaks even near 192 muls for n x 8 x 8
# mat_mul products (wins 9 of 15 rounds; 51 against 135 us at 512) and
# near 192-256 for one-row mat_lincombs of 4 x 4 blocks (5 of 15 at 192,
# 14 of 15 at 256); over 257, near 384 for both (10 and 12 of 15 rounds),
# and at 512 numpy wins 15 and 14 of 15 (28 against 47 us, 52 against
# 59 us).  512 is the smallest size timed at which numpy wins every shape
# over both moduli.  A 4 x 4 x 4 product takes 31 us in Python and 56 us
# in numpy over 2^61 - 1 (19 and 47 us over 257).  In the benchmark
# workloads, the block products of decode-bound and retry-gf257 (8 to 64
# muls) stay in Python, while their batched encodes (one product per side
# per op, 1,920 to 26,624 muls) and every product of block-bound (at least
# 1,024) run in numpy.
NUMPY_MIN_MULS = 512


def _stack(blocks, size: int):
    """The blocks' row-major entries, size each, as the rows of one array."""
    return np.concatenate([b.data for b in blocks]).reshape(len(blocks), size)


def _reduced(p: int, a):
    """a uint64 array with every entry reduced mod p; a itself when all are."""
    return a % np.uint64(p) if a.size and a.max() >= p else a


def _product(p: int, a, b):
    """a @ b mod p for uint64 arrays a (n x k) and b (k x m), as an n x m
    uint64 array of residues.

    From NUMPY_MIN_MULS multiplications on, the numpy kernel computes it,
    after reducing an operand that holds an entry of p or more; below, each
    entry is one unreduced Python int sum, reduced mod p once.
    """
    (n, k), m = a.shape, b.shape[1]
    if n * k * m >= NUMPY_MIN_MULS:
        return _mod_matmul(p, _reduced(p, a), _reduced(p, b)).astype(np.uint64, copy=False)
    cols = list(zip(*b.tolist())) or [()] * m
    out = [sum(map(mul, row, col)) % p for row in a.tolist() for col in cols]
    return np.array(out, dtype=np.uint64).reshape(n, m)


def mat_mul(
    field: PrimeField,
    a: FieldMatrix,
    b: FieldMatrix,
    counter: OpCounter | None = None,
) -> FieldMatrix:
    """Schoolbook product; counts a.rows * a.cols * b.cols multiplications."""
    (n, k), (k_b, m) = a.data.shape, b.data.shape
    if k != k_b:
        raise DimensionMismatch(f"{n}x{k} times {k_b}x{m}")
    out = _product(field.modulus, a.data, b.data)
    if counter is not None:
        counter.mul_count += n * k * m
    return FieldMatrix._wrap(out)


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

    Coefficients act as their residues mod p; coeff_rows may also be a 2-D
    array of residues (power_table's), which reaches the kernel as it is.
    All the sums are one len(coeff_rows) x terms by terms x entries product
    of the coefficient rows and the stacked block entries, base being one
    more block with coefficient 1 in every row; each result holds one row
    of that product's array.  Raises DimensionMismatch,
    counting nothing, when a coefficient row does not pair off with the
    blocks or a shape differs from the first block's (or base's).  No rows
    give [].
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
    terms, tail = (blocks, []) if base is None else ([*blocks, base], [1])
    if isinstance(coeff_rows, np.ndarray):
        a = np.hstack([coeff_rows, np.ones((len(coeff_rows), len(tail)), coeff_rows.dtype)])
    else:
        a = [[c % p for c in row] + tail for row in coeff_rows]
    a = np.asarray(a, dtype=np.uint64).reshape(len(coeff_rows), len(terms))
    out = _product(p, a, _stack(terms, rows * cols))
    if counter is not None:
        counter.mul_count += len(coeff_rows) * len(blocks) * rows * cols
    return FieldMatrix._split(out.reshape(len(coeff_rows), rows, cols))


def mat_random(field: PrimeField, rows: int, cols: int, rng) -> FieldMatrix:
    """Uniform random matrix; deterministic given the rng stream.

    Each entry is the first draw of rng.getrandbits(b) below p, b being
    p.bit_length(), which is what rng.randrange(p) computes (values and rng
    state alike), without its per-call argument handling.  From
    NUMPY_MIN_MULS entries on, one rng.getrandbits(32 * w * count) call
    draws the count entries still missing, w = ceil(b / 32) 32-bit words
    each: getrandbits(b) takes the same words, least significant first,
    and keeps the top b - 32 * (w - 1) bits of the last.  Each call draws
    exactly the shortfall left by the rejections, so the rng ends where
    the one-by-one draws leave it.
    """
    p = field.modulus
    bits, size = p.bit_length(), rows * cols
    if size < NUMPY_MIN_MULS:
        draws = iter(partial(rng.getrandbits, bits), None)
        return FieldMatrix(rows, cols, list(islice(filter(p.__gt__, draws), size)))
    words = -(-bits // 32)
    parts, missing = [], size
    while missing:
        block = rng.getrandbits(32 * words * missing).to_bytes(4 * words * missing, "little")
        block = np.frombuffer(block, dtype="<u4").reshape(missing, words)
        draws = (block[:, -1] >> (32 * words - bits)).astype(np.uint64)
        if words == 2:
            draws = (draws << 32) | block[:, 0]
        parts.append(draws[draws < p])
        missing -= parts[-1].size
    return FieldMatrix(rows, cols, np.concatenate(parts))


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


def _update_m61(x, a, b, t1, t2):
    """x += a*b mod 2^61 - 1, in place on a uint64 array x of residues; a
    and b (arrays or ints) broadcast to x's shape, entries below 2^61.

    The arithmetic of _muladd_m61, with every full-size step written
    through out= or an in-place operator into x or the scratch arrays t1
    and t2, which have x's shape; only the limbs of a and b are new
    arrays, which is cheap where a is a column and b a row, as in
    solve_linear.  b may be a view into x: its limbs are split before x
    changes.
    """
    a_hi, a_lo = a >> 31, a & _LO31
    b_hi, b_lo = b >> 31, b & _LO31
    np.multiply(a_hi, b_hi << 1, out=t1)
    x += t1
    # The middle sum, below 2^62; it weighs 2^31.
    np.multiply(a_hi, b_lo, out=t1)
    np.multiply(a_lo, b_hi, out=t2)
    t1 += t2
    np.right_shift(t1, 30, out=t2)
    x += t2
    t1 &= _LO30
    t1 <<= 31
    x += t1
    np.multiply(a_lo, b_lo, out=t1)
    x += t1
    np.right_shift(x, 61, out=t1)
    x &= _M61
    x += t1
    np.subtract(x, _M61, out=t1)
    np.minimum(x, t1, out=x)


def _modular(p: int):
    """(muladd, update, dtype) for arithmetic mod p on numpy arrays of
    entries below p.

    muladd(x, a, b) returns x + a*b mod p as a new array; update(x, a, b,
    t1, t2) adds a*b to x mod p in place, t1 and t2 being scratch arrays of
    x's shape and dtype; only 2^61 - 1's uses t2, which may be t1 for any
    other prime.  For
    2^61 - 1, _muladd_m61 and _update_m61 on uint64; for p < 2^32 the plain
    uint64 product, since the largest term, (p-1) + (p-1)^2, fits in
    uint64; for any other prime, Python ints in an object array.
    """
    if p == M61:
        return _muladd_m61, _update_m61, np.uint64

    def muladd(x, a, b):
        return (x + a * b) % p

    def update(x, a, b, t1, t2):
        np.multiply(a, b, out=t1)
        x += t1
        np.remainder(x, p, out=x)

    return muladd, update, np.uint64 if p < (1 << 32) else object


_LIMB_BITS = 21
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
# A plane of the limb product gains below 4 * (2^21 - 1)^2 per inner term
# (_plane_fold), and 4 * 2^9 * (2^21 - 1)^2 < 2^53: float64 adds a chunk of
# this many terms into the planes exactly.  The limb matmul takes the inner
# dimension in such chunks.
_CHUNK = 1 << 9
# The limb matmul takes the output in column slices of at most this many
# entries, which bounds the plane array and the fold temporaries built from
# it however many rows a batched product has.
_SLICE = 1 << 12


def _limb_count(p: int) -> int:
    """The number of 21-bit limbs of an entry below p."""
    return -(-(p - 1).bit_length() // _LIMB_BITS)


def _fold_m61(planes):
    """P0 + P1 * 2^21 + P2 * 2^42 mod 2^61 - 1 for three uint64 planes below
    2^53, written into planes.

    Modulo 2^61 - 1, x * 2^s is ((x << s) & M61) + (x >> (61 - s)), its
    bits below and from 2^61 on.  With P0 the sum is below 3 * M61, so two
    conditional subtractions make it canonical.
    """
    s, *rest = planes
    t = np.empty_like(s)
    for shift, x in zip((21, 42), rest):
        np.left_shift(x, shift, out=t)
        t &= _M61
        s += t
        x >>= 61 - shift
        s += x
    for _ in range(2):
        # s - M61 wraps past s exactly when s < M61.
        np.subtract(s, _M61, out=t)
        np.minimum(s, t, out=s)
    return s


@cache
def _plane_fold(p: int):
    """(shifts, masks, pick, fold): how _mod_matmul lays out and folds the
    limb product mod p.

    Lane l of a is (a >> shifts[l]) & masks[l]; lanes 0 to count - 1 are
    its limbs.  Digit i + j, limb i of a times limb j of b, goes to one
    plane, and block (q, j) of the left operand is lane pick[q][j]: limb i
    of a, weighted by the digit's weight over its plane's, for the i whose
    digit lands in plane q, or a lane of zeros.  fold maps the uint64
    planes (planes x n x w, each below 2^53) to the n x w residues of
    _modular(p)'s dtype.

    For 2^61 - 1 digit d goes to plane d mod 3: 2^63 is 4, so digits 3 and
    4 enter planes 0 and 1 as limb i times 4, lane 3 or 4, its bits shifted
    by 21i - 2.  The top limb is below 2^19, so a plane gains below 3 *
    2^42 per inner term; _fold_m61 shifts and adds the three planes.  For
    any other prime digit d is plane d, 2 * count - 1 of them, each
    reduced, weighted by 2^(21d) mod p in one call of the modulus's muladd,
    and the sum (at most seven residues, which fit in uint64 whenever the
    dtype is uint64) reduced again; below 2^21 there is one plane, of
    weight 1, and the fold is one reduction.
    """
    count = _limb_count(p)
    shifts, masks = [_LIMB_BITS * i for i in range(count)], [_LIMB_MASK] * count
    if p == M61:
        shifts += [_LIMB_BITS - 2, 2 * _LIMB_BITS - 2]
        masks += [_LIMB_MASK << np.uint64(2)] * 2
        # [[a0, 4a2, 4a1], [a1, a0, 4a2], [a2, a1, a0]]
        pick, fold = [[0, 4, 3], [1, 0, 4], [2, 1, 0]], _fold_m61
    else:
        muladd, _, dtype = _modular(p)
        planes = 2 * count - 1
        weights = np.array([pow(2, _LIMB_BITS * d, p) for d in range(planes)], dtype=dtype)[:, None, None]
        shifts.append(0)
        masks.append(0)
        pick = [[q - j if 0 <= q - j < count else count for j in range(count)] for q in range(planes)]

        def fold(digits):
            if planes == 1:
                return digits[0] % p
            return muladd(0, digits.astype(dtype) % p, weights).sum(axis=0) % p

    shifts, masks = (np.array(x, dtype=np.uint64)[:, None, None] for x in (shifts, masks))
    return shifts, masks, np.array(pick), fold


def _mod_matmul(p: int, a, b):
    """a @ b mod p for uint64 arrays a (n x k) and b (k x m) of entries below p.

    Entries are split into 21-bit limbs, and one float64 matmul per chunk of
    _CHUNK inner terms gives the chunk's planes.  Its left operand holds
    a's lanes as _plane_fold(p) places them, rows (row of a, plane) by
    columns (limb of b, inner term); its right operand holds b's limbs,
    rows (limb, inner term).  The product, n x planes x w, sums every
    plane exactly; fold reduces it mod p, and chunks are added with the
    modulus's muladd.  The output is computed in column slices of at most
    _SLICE entries.  Returns an n x m array of residues of _modular(p)'s
    dtype.
    """
    muladd, _, dtype = _modular(p)
    shifts, masks, pick, fold = _plane_fold(p)
    planes, count = pick.shape
    (n, k), m = a.shape, b.shape[1]
    lanes = a >> shifts
    lanes &= masks
    lhs = lanes.astype(np.float64).transpose(1, 0, 2)[:, pick]
    out = np.zeros((n, m), dtype=dtype)
    width = max(1, _SLICE // n)
    for start in range(0, m, width):
        rhs = ((b[:, start : start + width] >> shifts[:count]) & masks[:count]).astype(np.float64)
        w = rhs.shape[2]
        cols = out[:, start : start + w]
        for lo in range(0, k, _CHUNK):
            chunk = slice(lo, lo + _CHUNK)
            prod = lhs[..., chunk].reshape(n * planes, -1) @ rhs[:, chunk].reshape(-1, w)
            acc = fold(prod.reshape(n, planes, w).transpose(1, 0, 2).astype(np.uint64, order="C"))
            cols[...] = acc if lo == 0 else muladd(cols, acc, 1)
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
    muladd, _, dtype = _modular(p)
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


class SolveBasis:
    """What solve_linear keeps of one system's elimination between calls.

    `block` holds the reduced pivot rows restricted to the columns without
    a pivot and the rhs, a read-only rank x (len(free) + blen) uint64 array
    whose row i belongs to column pivots[i], pivots in increasing order;
    `free` lists the columns without a pivot, in order (None before the
    first call), and `absorbed` counts the rows taken so far.  Pass one new
    basis to every call over the rows of one growing system, each call
    with the rows that arrived since the last; a call without one starts
    from a fresh basis.
    """

    __slots__ = ("pivots", "free", "block", "absorbed")

    def __init__(self) -> None:
        self.pivots: list[int] = []
        self.free: list[int] | None = None
        self.block = None
        self.absorbed = 0


def _right_nonzeros(right, free, left) -> int:
    """How many nonzeros the new pivot rows held right of their pivots when
    pivoted, outside the columns in `left`.

    right lists (i, mask) per pivot, i being the pivot's column's place in
    `free` and mask the nonzero pattern of its row in free[i + 1:].
    """
    if not left:
        return int(np.count_nonzero(np.concatenate([mask for _, mask in right]))) if right else 0
    pivoted = np.array([col not in left for col in free])
    return sum(int(np.count_nonzero(mask & pivoted[i + 1 :])) for i, mask in right)


def solve_linear(
    field: PrimeField,
    v: FieldMatrix,
    rhs: list[FieldMatrix],
    counter: OpCounter | None = None,
    basis: SolveBasis | None = None,
) -> list[FieldMatrix]:
    """Solve V * C = rhs block-wise by Gauss-Jordan elimination over the field.

    V is k x L and rhs k equally-shaped matrix blocks.  V's rows join the
    pivot rows the basis kept (a fresh basis when none is given): each is
    reduced by them, r - r[pivots] * B in one product, and the reduced rows
    are eliminated over the columns still without a pivot, where the pivot
    is the column's first nonzero entry among the rows not yet pivot rows.
    A column without one is kept, rows that reduce to zero are dropped, and
    rows beyond the pivots are not checked (exact evaluations are
    consistent).  The basis keeps every pivot row; once every column has
    one they are the L solution blocks, which the results share.  Until
    then SingularMatrix names the first column without a pivot.

    Counts are those of forward elimination that skips zero multipliers,
    then back substitution, call by call.  A new row's reduction costs
    f + blen muls per nonzero entry in a pivot column, f being the columns
    without a pivot before the call.  A pivot costs one inversion, and
    (w + blen) muls per nonzero of its column among the rows not yet pivot
    rows, w being the columns without a pivot from it on.  Each nonzero an
    earlier pivot row held in a column pivoted in the call (when pivoted,
    or before the call for a basis row) costs f' + blen, f' being the
    columns still without a pivot after the call (0 once V's rank is L).

    Each column takes one multiplier per row (one multiply-add of the
    column by the scalar p - inv), then adds the multipliers times the
    pivot row to the block of the columns without a pivot and the rhs, in
    place with _modular(p)'s update.  No pivoted column allocates an array
    of the block's size; a kept one moves once to the end of the block.
    """
    if basis is None:
        basis = SolveBasis()
    n = v.cols
    if len(rhs) != v.rows:
        raise DimensionMismatch("rhs block count must equal V's row count")
    if n == 0:
        return []
    if not rhs:
        raise DimensionMismatch("no rows to solve")
    br, bc = rhs[0].rows, rhs[0].cols
    for blk in rhs:
        if blk.rows != br or blk.cols != bc:
            raise DimensionMismatch("rhs blocks must share dimensions")

    p = field.modulus
    blen = br * bc
    muladd, update, dtype = _modular(p)
    pivots, free = ([], list(range(n))) if basis.free is None else (basis.pivots, basis.free)
    top, nv = len(pivots), len(free)
    if top + nv != n or (top and basis.block.shape[1] != nv + blen):
        raise DimensionMismatch("rows do not fit the basis")
    k = top + v.rows
    # Buffers of [V | rhs]'s size, three for 2^61 - 1 and two otherwise, as
    # only 2^61 - 1's update uses its second scratch array: the block of the
    # columns without a pivot and the rhs, k x (nv + blen), is one
    # contiguous row-major array in the first, the update's scratch are the
    # others, and the block without a newly pivoted column is copied into
    # the second, which then swaps with the first.  So every pass runs over
    # whole contiguous rows, however tall or wide the system.  The basis's
    # pivot rows come first.
    bufs = list(np.empty((3 if p == M61 else 2, k * (nv + blen)), dtype=dtype))
    x = bufs[0].reshape(k, nv + blen)
    rows = _reduced(p, v.data)
    x[top:, :nv] = rows[:, free] if top else rows
    x[top:, nv:] = _reduced(p, _stack(rhs, blen))
    if top:
        x[:top] = basis.block
        known = rows[:, pivots]
        x[top:] = muladd(x[top:], _product(p, known, basis.block).astype(dtype, copy=False), p - 1)
        if counter is not None:
            counter.mul_count += int(np.count_nonzero(known)) * (nv + blen)

    # The current column is block column 0.  A column kept without a pivot
    # moves to the end of the block's V part, where the pivot rows that
    # follow are zero, so every pivot row starts at block column 0 and
    # covers the columns not yet reached, free[i:], then the kept ones.
    # right: per new pivot, i and the nonzero pattern of its row in
    # free[i + 1:], read before normalization, which keeps it.
    right, found, left = [], [], []
    for i, col in enumerate(free):
        nonzero = x[top:, 0].nonzero()[0]
        if nonzero.size == 0:
            x[:, :nv] = np.roll(x[:, :nv], -1, axis=1)
            left.append(col)
            continue
        pivot = top + int(nonzero[0])
        if pivot != top:
            x[[top, pivot]] = x[[pivot, top]]
        prow = x[top]
        inv = pow(int(prow[0]), -1, p)
        w = len(free) - i
        if counter is not None:
            counter.mul_count += (w + blen) * nonzero.size
            counter.inv_count += 1
            right.append((i, prow[1:w].astype(bool)))
        # Row r gets f_r * (p - inv) = -f_r * inv times the pivot row; the
        # pivot row gets (inv - 1) times itself, which normalizes it.  A
        # zero f_r gives a zero multiplier, which leaves its row unchanged,
        # so no rows are gathered.
        coef = muladd(0, x[:, 0], p - inv)
        coef[top] = inv - 1
        size = x.size
        update(x, coef[:, None], prow, bufs[1][:size].reshape(x.shape), bufs[-1][:size].reshape(x.shape))
        nxt = bufs[1][: size - k].reshape(k, -1)
        nxt[...] = x[:, 1:]
        x, bufs[0], bufs[1] = nxt, bufs[1], bufs[0]
        found.append(col)
        top += 1
        nv -= 1

    if counter is not None:
        # Back substitution clears the earlier pivot rows' nonzeros in the
        # columns pivoted here: the new rows' as pivoted, the basis rows' as
        # they were before the call.
        cleared = _right_nonzeros(right, free, left)
        if pivots:
            pivoted = [i for i, col in enumerate(free) if col not in left]
            cleared += int(np.count_nonzero(basis.block[:, pivoted]))
        counter.mul_count += (len(left) + blen) * cleared
    # The pivot rows in column order, read-only: once every column has its
    # pivot they are the solution, which the results then share.
    order = np.argsort(pivots + found)
    basis.block = x[:top][order].astype(np.uint64, copy=False)
    basis.block.setflags(write=False)
    basis.pivots = sorted(pivots + found)
    basis.free = left
    basis.absorbed += v.rows
    if left:
        raise SingularMatrix(f"no nonzero pivot in column {left[0]}")
    return FieldMatrix._split(basis.block.reshape(n, br, bc))
