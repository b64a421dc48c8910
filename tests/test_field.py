from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import identity, reference_pow, rng, to_rows
from rookbench.field import (
    M61,
    NUMPY_MIN_MULS,
    _CHUNK,
    _SLICE,
    _muladd_m61,
    DimensionMismatch,
    FieldMatrix,
    OpCounter,
    PrimeField,
    SingularMatrix,
    is_prime_u64,
    mat_lincomb,
    mat_lincombs,
    mat_mul,
    mat_random,
    pow_muls,
    power_table,
    solve_linear,
)


def field_pow(field, x, e, counter=None):
    """A counted power as the package computes one: builtin pow, charged pow_muls(e)."""
    muls = pow_muls(e)
    if counter is not None:
        counter.mul_count += muls
    return pow(x, e, field.modulus)


def mat_scale(field, s, a):
    """The scale the encoders used before mat_lincomb: s*a, reduced per entry."""
    return FieldMatrix(a.rows, a.cols, [s * v % field.modulus for v in a.entries])


def mat_muladd(field, x, s, y):
    """The multiply-add the encoders chained before mat_lincomb: x + s*y."""
    return FieldMatrix(x.rows, x.cols, [(a + s * b) % field.modulus for a, b in zip(x.entries, y.entries)])


def chained_lincomb(field, coeffs, blocks, base=None):
    """base + sum_i c_i B_i as the old encoders built it: one mat_scale (or
    the base), then one mat_muladd per further term."""
    terms = list(zip(coeffs, blocks))
    acc = base if base is not None else mat_scale(field, *terms.pop(0))
    for c, b in terms:
        acc = mat_muladd(field, acc, c, b)
    return acc


def test_primality_checker():
    assert is_prime_u64(2)
    assert is_prime_u64(101)
    assert is_prime_u64(M61)
    assert not is_prime_u64(1)
    assert not is_prime_u64((1 << 61) + 1)
    assert not is_prime_u64(561)  # Carmichael


def test_field_construction_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1 << 64)  # prime or not, too wide
    assert PrimeField().modulus == M61


def test_exponent_bound_check():
    f = PrimeField(101)
    f.check_exponent_bound(99)
    with pytest.raises(ValueError):
        f.check_exponent_bound(100)


def test_field_pow_examples():
    f = PrimeField(M61)
    assert field_pow(f, 7, 0) == 1
    assert field_pow(f, 2, 10) == 1024
    g = PrimeField(101)
    assert field_pow(g, 3, 100) == 1  # Fermat


def test_field_pow_matches_repeated_multiplication():
    f = PrimeField(101)
    r = rng(1)
    for _ in range(50):
        x = r.randrange(f.modulus)
        e = r.randrange(65)
        acc = 1
        for _ in range(e):
            acc = acc * x % 101
        assert field_pow(f, x, e) == acc == pow(x, e, 101)


def test_field_pow_mul_count_bounded_and_deterministic():
    f = PrimeField(M61)
    for e in (1, 2, 3, 10, 255, 1 << 40, (1 << 40) + 12345):
        c1 = OpCounter()
        field_pow(f, 3, e, c1)
        c2 = OpCounter()
        field_pow(f, 987654321, e, c2)
        assert c1.mul_count == c2.mul_count == pow_muls(e)  # depends only on e's bits
        assert c1.mul_count <= 2 * (e.bit_length() - 1)


def test_field_pow_rejects_negative_exponent():
    # A negative exponent has no square-and-multiply count.
    for e in (-1, -8):
        with pytest.raises(ValueError):
            pow_muls(e)


def test_field_pow_matches_square_and_multiply():
    r = rng(21)
    near_2_61 = [(1 << 61) + d for d in (-3, -2, -1, 0, 1, 5)] + [r.randrange(1 << 60, 1 << 62) for _ in range(4)]
    for p in (101, M61):
        f = PrimeField(p)
        for e in list(range(4097)) + near_2_61:
            x = r.randrange(p)
            ctr = OpCounter()
            assert (field_pow(f, x, e, ctr), ctr.mul_count) == reference_pow(p, x, e)


@pytest.mark.parametrize("p", [7, 101, 4294967291, M61, 18446744073709551557])
def test_inv_matches_fermat_and_counts_one_inversion(p):
    f = PrimeField(p)
    r = rng(22)
    for a in [1, p - 1] + [r.randrange(1, p) for _ in range(200)]:
        ctr = OpCounter()
        assert f.inv(a, ctr) == pow(a, p - 2, p)
        assert (ctr.mul_count, ctr.inv_count) == (0, 1)
    ctr = OpCounter()
    with pytest.raises(ZeroDivisionError):
        f.inv(0, ctr)
    assert ctr.inv_count == 0


def test_ring_axioms_sampled():
    f = PrimeField(M61)
    p = f.modulus
    r = rng(2)
    for _ in range(200):
        a, b, c = (r.randrange(p) for _ in range(3))
        assert a * ((b + c) % p) % p == (a * b % p + a * c % p) % p
        if a:
            assert a * f.inv(a) % p == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_inv_counts_inversions():
    f = PrimeField(101)
    ctr = OpCounter()
    f.inv(7, ctr)
    f.inv(9, ctr)
    assert ctr.inv_count == 2


def schoolbook(p, a, b):
    """The reference product: one unreduced int sum per entry, reduced once."""
    return [
        sum(a.entries[i * a.cols + t] * b.entries[t * b.cols + j] for t in range(a.cols)) % p
        for i in range(a.rows)
        for j in range(b.cols)
    ]


# Past the numpy kernel's exact float64 chunk of 2^11 inner terms.
LONG_INNER = 2100
# Moduli of each numpy fold: uint64 below 2^32, 2^61 - 1's limb muladd and
# the object fold.
KERNEL_MODULI = [257, 4294967291, M61, 18446744073709551557]


def test_mat_mul_examples(gf101):
    m = FieldMatrix.from_rows([[1, 2], [3, 4]])
    ident = identity(3)
    x = mat_random(gf101, 3, 3, rng(3))
    assert mat_mul(gf101, ident, x) == x
    assert mat_mul(gf101, FieldMatrix(1, 1, [3]), FieldMatrix(1, 1, [2])).entries == [6]
    prod = mat_mul(gf101, m, FieldMatrix.from_rows([[5, 6], [7, 8]]))
    assert to_rows(prod) == [[19, 22], [43, 50]]  # hand schoolbook check
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        r = rng(p % 1000 + 3)
        # Shapes on both sides of NUMPY_MIN_MULS, one with an inner
        # dimension past the kernel's chunk, each random and all p - 1.
        for n, k, mm in ((3, 5, 2), (8, 8, 7), (8, 8, 8), (16, 16, 16), (2, LONG_INNER, 3)):
            full = (FieldMatrix(n, k, [p - 1] * (n * k)), FieldMatrix(k, mm, [p - 1] * (k * mm)))
            for a, b in ((mat_random(field, n, k, r), mat_random(field, k, mm, r)), full):
                ctr = OpCounter()
                got = mat_mul(field, a, b, ctr)
                assert (got.rows, got.cols, got.entries) == (n, mm, schoolbook(p, a, b)), (p, n, k, mm)
                assert (ctr.mul_count, ctr.inv_count) == (n * k * mm, 0)
        # Just below the cutoff (Python) and at it (numpy): a zero term
        # appended to the inner dimension leaves the product as it was.
        a = mat_random(field, 1, NUMPY_MIN_MULS - 1, r)
        b = mat_random(field, NUMPY_MIN_MULS - 1, 1, r)
        below, at = OpCounter(), OpCounter()
        want = mat_mul(field, a, b, below)
        a_pad = FieldMatrix(1, NUMPY_MIN_MULS, a.entries + [0])
        b_pad = FieldMatrix(NUMPY_MIN_MULS, 1, b.entries + [p - 1])
        assert mat_mul(field, a_pad, b_pad, at) == want
        assert want.entries == schoolbook(p, a, b)
        assert (below.mul_count, at.mul_count) == (NUMPY_MIN_MULS - 1, NUMPY_MIN_MULS)
    # Empty shapes: an empty inner dimension gives the zero matrix (B has no
    # rows to take columns from), an empty outer one an empty result; none
    # charges a multiplication.
    for n, k, mm in ((2, 0, 3), (0, 2, 3), (2, 3, 0), (0, 0, 0)):
        ctr = OpCounter()
        got = mat_mul(gf101, FieldMatrix(n, k, [1] * (n * k)), FieldMatrix(k, mm, [1] * (k * mm)), ctr)
        assert (got.rows, got.cols, got.entries) == (n, mm, [0] * (n * mm))
        assert (ctr.mul_count, ctr.inv_count) == (0, 0)


def test_mat_mul_counts_and_dimension_error(gf101):
    a = mat_random(gf101, 2, 3, rng(4))
    b = mat_random(gf101, 3, 4, rng(5))
    ctr = OpCounter()
    mat_mul(gf101, a, b, ctr)
    assert ctr.mul_count == 2 * 3 * 4
    with pytest.raises(DimensionMismatch):
        mat_mul(gf101, a, a)


def test_mat_helpers(gf101):
    a = FieldMatrix.from_rows([[1, 2], [3, 4]])
    b = FieldMatrix.from_rows([[100, 100], [100, 100]])
    assert to_rows(mat_lincomb(gf101, [1], [b], base=a)) == [[0, 1], [2, 3]]
    assert to_rows(mat_lincomb(gf101, [2], [b], base=a)) == [[100, 0], [1, 2]]
    assert to_rows(mat_lincomb(gf101, [2], [a])) == [[2, 4], [6, 8]]
    assert to_rows(mat_lincomb(gf101, [2, 1], [a, b])) == [[1, 3], [5, 7]]
    with pytest.raises(ValueError):
        FieldMatrix(2, 2, [1, 2, 3])


# Operands at 2^61 - 1's 30/31-bit limb boundaries.
LIMB_EDGES = (0, 1, 2, (1 << 30) - 1, 1 << 30, (1 << 31) - 1, 1 << 31, (1 << 32) - 1, M61 - 2, M61 - 1)


@pytest.mark.parametrize(
    "p", [7, 257, M61, 18446744073709551557], ids=["p7", "p257", "m61", "p2^64-59"]
)
def test_mat_muladd_matches_int_oracle(p):
    # x + s*y, the multiply-add the encoders used to chain, is one term on a base.
    field = PrimeField(p)
    r = rng(p % 1000 + 23)
    edges = sorted({e % p for e in LIMB_EDGES} | {p - 2, p - 1})
    k = len(edges)
    x_all = FieldMatrix(k, k, [a for a in edges for _ in edges])
    y_all = FieldMatrix(k, k, [b for _ in edges for b in edges])
    cases = [(x_all, s, y_all) for s in edges]
    for rows, cols in ((1, 1), (2, 3), (4, 4), (5, 1)):
        cases.append((mat_random(field, rows, cols, r), r.randrange(p), mat_random(field, rows, cols, r)))
    for x, s, y in cases:
        got = mat_lincomb(field, [s], [y], base=x)
        assert (got.rows, got.cols) == (x.rows, x.cols)
        assert got.entries == [(a + s * b) % p for a, b in zip(x.entries, y.entries)]


def test_mat_muladd_counts_checks_shape_and_leaves_inputs(gf101):
    x = mat_random(gf101, 2, 3, rng(24))
    y = mat_random(gf101, 2, 3, rng(25))
    x_before, y_before = list(x.entries), list(y.entries)
    ctr = OpCounter()
    out = mat_lincomb(gf101, [5], [y], ctr, base=x)
    assert (ctr.mul_count, ctr.inv_count) == (2 * 3, 0)
    assert x.entries == x_before and y.entries == y_before
    assert out.entries is not x.entries and out.entries is not y.entries
    for bad in (mat_random(gf101, 3, 2, rng(26)), mat_random(gf101, 2, 2, rng(27))):
        with pytest.raises(DimensionMismatch):
            mat_lincomb(gf101, [5], [bad], ctr, base=x)
    assert (ctr.mul_count, ctr.inv_count) == (2 * 3, 0)


@pytest.mark.parametrize(
    "p",
    [7, 257, 4294967291, M61, 18446744073709551557],
    ids=["p7", "p257", "p2^32-5", "m61", "p2^64-59"],
)
def test_mat_lincomb_matches_int_oracle_and_old_chain(p):
    field = PrimeField(p)
    r = rng(p % 1000 + 31)
    cases = []
    for rows, cols in ((1, 1), (2, 3)):
        for count in (1, 2, 3, 7, 16, 40):
            blocks = [mat_random(field, rows, cols, r) for _ in range(count)]
            cases.append(([r.randrange(p) for _ in range(count)], blocks))
    for count in (1, 4, 7):
        cases.append(([r.randrange(p) for _ in range(count)], [mat_random(field, 32, 32, r) for _ in range(count)]))
    # Every entry and coefficient p - 1: the unreduced sums are largest.
    for rows, cols, count in ((1, 1, 40), (2, 3, 40), (32, 32, 7), (1, 1, LONG_INNER)):
        cases.append(([p - 1] * count, [FieldMatrix(rows, cols, [p - 1] * (rows * cols))] * count))
    # Coefficients outside [0, p) act as their residues, below the numpy
    # cutoff and past it.
    for rows, cols in ((2, 3), (16, 16)):
        coeffs = [-1, p, p + 5, -(p + 3), 3 * p - 1, -(1 << 70)]
        cases.append((coeffs, [mat_random(field, rows, cols, r) for _ in coeffs]))
    # 1 x 1 blocks, so the term count is the inner dimension of the numpy
    # kernel: past its chunk, and just below and at NUMPY_MIN_MULS, where a
    # zero coefficient on one more block leaves the sum as it was.  A base
    # is one more term of the product, so with it the cutoff is a block
    # earlier.
    long = [mat_random(field, 1, 1, r) for _ in range(LONG_INNER)]
    cases.append(([r.randrange(p) for _ in long], long))
    coeffs = [r.randrange(p) for _ in range(NUMPY_MIN_MULS - 1)]
    below = long[: NUMPY_MIN_MULS - 1]
    cases += [(coeffs, below), (coeffs + [0], below + [FieldMatrix(1, 1, [p - 1])])]
    for base, skip in ((None, 0), (FieldMatrix(1, 1, [p - 1]), 1)):
        sums = [mat_lincomb(field, cs[skip:], bs[skip:], base=base) for cs, bs in cases[-2:]]
        assert sums[0] == sums[1]
    for coeffs, blocks in cases:
        rows, cols = blocks[0].rows, blocks[0].cols
        full = FieldMatrix(rows, cols, [p - 1] * (rows * cols))
        for base in (None, mat_random(field, rows, cols, r), full):
            ctr = OpCounter()
            got = mat_lincomb(field, coeffs, blocks, ctr, base=base)
            assert (ctr.mul_count, ctr.inv_count) == (len(blocks) * rows * cols, 0)
            start = base.entries if base is not None else [0] * (rows * cols)
            want = [
                (start[j] + sum(c * b.entries[j] for c, b in zip(coeffs, blocks))) % p
                for j in range(rows * cols)
            ]
            assert (got.rows, got.cols) == (rows, cols)
            assert got.entries == want
            assert got == chained_lincomb(field, coeffs, blocks, base)


def test_mat_lincomb_counts_and_leaves_inputs(gf101):
    r = rng(32)
    blocks = [mat_random(gf101, 2, 3, r) for _ in range(4)]
    base = mat_random(gf101, 2, 3, r)
    coeffs = [3, 0, 100, 7]
    before = [list(b.entries) for b in blocks + [base]]
    for use_base in (False, True):
        ctr = OpCounter()
        out = mat_lincomb(gf101, coeffs, blocks, ctr, base=base if use_base else None)
        assert (ctr.mul_count, ctr.inv_count) == (4 * 2 * 3, 0)
        assert [list(b.entries) for b in blocks + [base]] == before
        assert all(out.entries is not b.entries for b in blocks + [base])
    ctr = OpCounter()
    out = mat_lincomb(gf101, [], [], ctr, base=base)
    assert out == base and out.entries is not base.entries
    assert (ctr.mul_count, ctr.inv_count) == (0, 0)
    # Blocks without entries: B has rows but no columns to zip.
    for rows, cols in ((0, 3), (3, 0)):
        empty = [FieldMatrix(rows, cols, []) for _ in coeffs]
        for base in (None, FieldMatrix(rows, cols, [])):
            ctr = OpCounter()
            assert mat_lincomb(gf101, coeffs, empty, ctr, base=base) == FieldMatrix(rows, cols, [])
            assert (ctr.mul_count, ctr.inv_count) == (0, 0)


def test_mat_lincomb_dimension_errors_count_nothing(gf101):
    r = rng(33)
    a, b = mat_random(gf101, 2, 3, r), mat_random(gf101, 2, 3, r)
    cases = [
        ([1, 2, 3], [a, b], None),  # more coefficients than blocks
        ([1], [a, b], None),  # fewer
        ([], [], None),  # nothing to take a shape from
        ([1, 2], [a, mat_random(gf101, 3, 2, r)], None),
        ([1, 2], [a, mat_random(gf101, 2, 2, r)], None),
        ([1], [a], mat_random(gf101, 3, 2, r)),
        ([1], [a], mat_random(gf101, 1, 3, r)),
    ]
    for coeffs, blocks, base in cases:
        ctr = OpCounter()
        with pytest.raises(DimensionMismatch):
            mat_lincomb(gf101, coeffs, blocks, ctr, base=base)
        assert (ctr.mul_count, ctr.inv_count) == (0, 0)


def test_mat_lincomb_long_combination():
    # 200,000 1 x 1 terms are the numpy kernel's inner dimension, about 98
    # of its exact float64 chunks of 2^11 terms, with and without base.
    field = PrimeField(M61)
    r = rng(34)
    count = 200_000
    coeffs = [r.randrange(M61) for _ in range(count)]
    blocks = [FieldMatrix(1, 1, [r.randrange(M61)]) for _ in range(count)]
    want = sum(c * b.entries[0] for c, b in zip(coeffs, blocks))
    ctr = OpCounter()
    assert mat_lincomb(field, coeffs, blocks, ctr).entries == [want % M61]
    assert ctr.mul_count == count
    assert mat_lincomb(field, coeffs, blocks, base=FieldMatrix(1, 1, [5])).entries == [(want + 5) % M61]


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_mat_lincombs_matches_per_row_mat_lincomb(p):
    field = PrimeField(p)
    r = rng(p % 1000 + 35)
    for (rows, cols), count, nrows in (((1, 1), 3, 5), ((2, 3), 7, 4), ((4, 4), 16, 40), ((16, 16), 4, 9)):
        blocks = [mat_random(field, rows, cols, r) for _ in range(count)]
        coeff_rows = [[r.choice((0, 1, p - 1, r.randrange(p), -3, p + 2)) for _ in blocks] for _ in range(nrows)]
        for base in (None, mat_random(field, rows, cols, r)):
            ctr = OpCounter()
            got = mat_lincombs(field, coeff_rows, blocks, ctr, base=base)
            assert (ctr.mul_count, ctr.inv_count) == (nrows * count * rows * cols, 0)
            want_ctr = OpCounter()
            want = [mat_lincomb(field, row, blocks, want_ctr, base=base) for row in coeff_rows]
            assert got == want
            assert ctr.mul_count == want_ctr.mul_count


def test_mat_lincombs_ragged_rows_raise_and_no_rows_give_nothing(gf101):
    r = rng(36)
    blocks = [mat_random(gf101, 2, 3, r) for _ in range(3)]
    base = mat_random(gf101, 2, 3, r)
    for coeff_rows in ([[1, 2, 3], [1, 2]], [[1, 2, 3, 4]], [[1, 2, 3], [4, 5, 6], []]):
        for b in (None, base):
            ctr = OpCounter()
            with pytest.raises(DimensionMismatch):
                mat_lincombs(gf101, coeff_rows, blocks, ctr, base=b)
            assert (ctr.mul_count, ctr.inv_count) == (0, 0)
    for b in (None, base):
        ctr = OpCounter()
        assert mat_lincombs(gf101, [], blocks, ctr, base=b) == []
        assert (ctr.mul_count, ctr.inv_count) == (0, 0)


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_mat_lincombs_across_slices_and_chunks_matches_int_oracle(p):
    # 9 coefficient rows of LONG_INNER terms (past one float64 chunk) by
    # blocks whose entries give 9 x 1,000 outputs, three column slices.
    # The product is too large for a full Python oracle, so every row is
    # checked at each slice's first and last column and at random ones.
    field = PrimeField(p)
    nrows, count, rows, cols = 9, LONG_INNER, 20, 50
    entries = rows * cols
    width = _SLICE // nrows
    assert count > _CHUNK and nrows * entries > 2 * _SLICE and entries <= 3 * width
    gen = np.random.default_rng(p % 1000 + 37)
    data = gen.integers(0, p, size=(count + 1, entries), dtype=np.uint64).tolist()
    blocks = [FieldMatrix(rows, cols, e) for e in data[:count]]
    base = FieldMatrix(rows, cols, data[count])
    coeff_rows = gen.integers(0, p, size=(nrows, count), dtype=np.uint64).tolist()
    r = rng(p % 1000 + 38)
    columns = sorted({0, width - 1, width, 2 * width - 1, 2 * width, entries - 1} | set(r.sample(range(entries), 20)))
    ctr = OpCounter()
    got = mat_lincombs(field, coeff_rows, blocks, ctr, base=base)
    assert ctr.mul_count == nrows * count * entries
    assert len(got) == nrows and all((g.rows, g.cols) == (rows, cols) for g in got)
    for row, out in zip(coeff_rows, got):
        for j in columns:
            want = (base.entries[j] + sum(c * e[j] for c, e in zip(row, data))) % p
            assert out.entries[j] == want, j
    # Every coefficient and entry p - 1: the largest digits and chunk sums.
    full = FieldMatrix(rows, cols, [p - 1] * entries)
    got = mat_lincombs(field, [[p - 1] * count] * nrows, [full] * count, base=full)
    want = (count * (p - 1) * (p - 1) + p - 1) % p
    assert all(out.entries == [want] * entries for out in got)


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_power_table_matches_builtin_pow(p):
    r = rng(p % 1000 + 39)
    xs = [0, 1, p - 1] + [r.randrange(p) for _ in range(5)] + [p + 3]
    top = min(p, 1 << 61)
    cases = [
        [0, 1, p - 2] + [r.randrange(top) for _ in range(5)],  # many windows
        list(range(200)),  # one window
        [p - 2, 5, 0, 5, 1],  # unsorted, repeated
        [0, 0],
    ]
    for exponents in cases:
        table = power_table(p, exponents, xs)
        assert table.shape == (len(xs), len(exponents))
        assert table.tolist() == [[pow(x, e, p) for e in exponents] for x in xs], exponents
    assert power_table(p, cases[0], []).shape == (0, len(cases[0]))
    assert power_table(p, [], xs).tolist() == [[] for _ in xs]


def test_mat_random_determinism(gf_m61):
    a = mat_random(gf_m61, 3, 4, rng(99))
    b = mat_random(gf_m61, 3, 4, rng(99))
    c = mat_random(gf_m61, 3, 4, rng(100))
    assert a == b
    assert a != c
    empty = mat_random(gf_m61, 0, 4, rng(1))
    assert empty.rows == 0 and empty.entries == []


def test_solve_identity(gf101):
    blocks = [mat_random(gf101, 2, 2, rng(i)) for i in range(3)]
    out = solve_linear(gf101, identity(3), blocks)
    assert out == blocks


def test_solve_vandermonde_recovers_quadratic(gf101):
    # Forward-evaluate a known quadratic at x = 1, 2, 3, then solve.
    coeffs = [17, 42, 99]
    xs = [1, 2, 3]
    v = FieldMatrix.from_rows([[pow(x, j, 101) for j in range(3)] for x in xs])
    rhs = [
        FieldMatrix(1, 1, [sum(c * pow(x, j) for j, c in enumerate(coeffs)) % 101])
        for x in xs
    ]
    out = solve_linear(gf101, v, rhs)
    assert [m.entries[0] for m in out] == coeffs


def test_solve_singular_on_equal_rows(gf101):
    v = FieldMatrix.from_rows([[1, 2], [1, 2]])
    rhs = [FieldMatrix(1, 1, [1]), FieldMatrix(1, 1, [2])]
    with pytest.raises(SingularMatrix):
        solve_linear(gf101, v, rhs)


def test_solve_roundtrip_random_systems(gf_m61):
    r = rng(7)
    for trial in range(10):
        size = r.choice([1, 2, 3, 5, 8, 13, 21, 32])
        v = mat_random(gf_m61, size, size, r)
        want = [mat_random(gf_m61, 2, 3, r) for _ in range(size)]
        rhs = [mat_lincomb(gf_m61, v.row(i), want) for i in range(size)]
        try:
            got = solve_linear(gf_m61, v, rhs)
        except SingularMatrix:
            continue  # vanishing probability at p = 2^61 - 1
        assert got == want


def test_solve_counts_pivot_inversions(gf101):
    r = rng(8)
    v = mat_random(gf101, 4, 4, r)
    rhs = [mat_random(gf101, 1, 1, r) for _ in range(4)]
    ctr = OpCounter()
    try:
        solve_linear(gf101, v, rhs, ctr)
    except SingularMatrix:
        pytest.skip("random system happened to be singular")
    assert ctr.inv_count == 4


def test_op_counts_deterministic_for_fixed_inputs(gf101):
    a = mat_random(gf101, 3, 3, rng(11))
    b = mat_random(gf101, 3, 3, rng(12))
    counts = []
    for _ in range(2):
        ctr = OpCounter()
        mat_mul(gf101, a, b, ctr)
        field_pow(gf101, 5, 1000, ctr)
        counts.append((ctr.mul_count, ctr.inv_count))
    assert counts[0] == counts[1]


def test_distinct_nonzero_draw(gf101):
    pts = gf101.distinct_nonzero(rng(14), 100)
    assert len(set(pts)) == 100
    assert all(0 < x < 101 for x in pts)
    with pytest.raises(ValueError):
        gf101.distinct_nonzero(rng(14), 101)
    # Excluded residues count against the 100 nonzero points; 0 is not one.
    assert sorted(gf101.distinct_nonzero(rng(14), 99, exclude=(0, 101, 1, 102))) == list(range(2, 101))
    with pytest.raises(ValueError):
        gf101.distinct_nonzero(rng(14), 99, exclude=(1, 2))


def reference_solve(field, v, rhs, counter=None):
    """Pure-Python Gaussian elimination and back substitution, skipping zero
    multipliers; the op counts solve_linear must reproduce.  A tall V
    (k > n rows) is eliminated over all k rows and solved from its first n.
    A singular V is charged the full cost of the columns completed before
    the one without a pivot."""
    if v.rows < v.cols:
        raise DimensionMismatch("V needs at least as many rows as columns")
    k, n = v.rows, v.cols
    if len(rhs) != k:
        raise DimensionMismatch("rhs block count must equal V's row count")
    if n == 0:
        return []
    br, bc = rhs[0].rows, rhs[0].cols
    for blk in rhs:
        if blk.rows != br or blk.cols != bc:
            raise DimensionMismatch("rhs blocks must share dimensions")

    p = field.modulus
    a = [v.row(i) for i in range(k)]
    b = [list(blk.entries) for blk in rhs]
    muls = 0
    invs = 0
    blen = br * bc

    for col in range(n):
        pivot = None
        for r in range(col, k):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            # Each completed column also owes its back substitution: blen per
            # nonzero right of the diagonal in its pivot row.
            muls += blen * sum(1 for r in range(col) for j in range(r + 1, n) if a[r][j])
            if counter is not None:
                counter.mul_count += muls
                counter.inv_count += invs
            raise SingularMatrix(f"no nonzero pivot in column {col}")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = pow(a[col][col], p - 2, p)
        invs += 1
        arow = a[col]
        for j in range(col, n):
            arow[j] = arow[j] * inv % p
        brow = b[col]
        for j in range(blen):
            brow[j] = brow[j] * inv % p
        muls += (n - col) + blen
        for r in range(col + 1, k):
            f = a[r][col]
            if not f:
                continue
            rrow = a[r]
            for j in range(col, n):
                rrow[j] = (rrow[j] - f * arow[j]) % p
            rb = b[r]
            for j in range(blen):
                rb[j] = (rb[j] - f * brow[j]) % p
            muls += (n - col) + blen

    for col in range(n - 1, -1, -1):
        bcol = b[col]
        for r in range(col):
            f = a[r][col]
            if not f:
                continue
            rb = b[r]
            for j in range(blen):
                rb[j] = (rb[j] - f * bcol[j]) % p
            a[r][col] = 0
            muls += blen

    if counter is not None:
        counter.mul_count += muls
        counter.inv_count += invs
    return [FieldMatrix(br, bc, row) for row in b[:n]]


def _solve_outcome(solve, field, v, rhs):
    ctr = OpCounter()
    try:
        result = [blk.entries for blk in solve(field, v, rhs, ctr)]
    except SingularMatrix as exc:
        result = str(exc)
    return result, (ctr.mul_count, ctr.inv_count)


def _oracle_systems(p: int, n: int, blen: int, r: random.Random):
    """A 30 %-dense system of size n, then by turns a dense one, one with a
    repeated row and one with a zero column."""
    br, bc = {1: (1, 1), 4: (2, 2), 9: (3, 3)}[blen]

    def draw(density):
        return [[r.randrange(1, p) if r.random() < density else 0 for _ in range(n)] for _ in range(n)]

    second = draw(1.0)
    if n % 3 == 1 and n > 1:
        i, j = r.sample(range(n), 2)
        second[j] = list(second[i])
    elif n % 3 == 2:
        k = r.randrange(n)
        for row in second:
            row[k] = 0
    for rows in (draw(0.3), second):
        rhs = [FieldMatrix(br, bc, [r.randrange(p) for _ in range(blen)]) for _ in range(n)]
        yield FieldMatrix.from_rows(rows), rhs


@pytest.mark.parametrize("blen", [1, 4, 9])
@pytest.mark.parametrize(
    "p",
    [7, 101, 257, 4294967291, M61, 18446744073709551557],
    ids=["p7", "p101", "p257", "p2^32-5", "m61", "p2^64-59"],
)
def test_solve_matches_reference_elimination(p, blen):
    field = PrimeField(p)
    r = rng(p % 1000 + blen)
    outcomes = set()
    for n in range(1, 41):
        for v, rhs in _oracle_systems(p, n, blen, r):
            v_before = list(v.entries)
            rhs_before = [list(blk.entries) for blk in rhs]
            got = _solve_outcome(solve_linear, field, v, rhs)
            assert got == _solve_outcome(reference_solve, field, v, rhs), (n, v, rhs)
            assert all(type(c) is int for c in got[1])  # not numpy ints
            assert v.entries == v_before
            assert [blk.entries for blk in rhs] == rhs_before
            outcomes.add(isinstance(got[0], str))
    assert outcomes == {False, True}  # both solved and singular systems


def _tall_systems(p: int, n: int, extra: int, blen: int, r: random.Random):
    """Consistent systems of n + extra rows, rhs = V * want: a dense one, one
    whose first `extra` rows repeat, scale or zero later rows (dependent rows
    placed first), and one of rank below n (a zero column)."""
    br, bc = {1: (1, 1), 4: (2, 2)}[blen]
    want = [[r.randrange(p) for _ in range(blen)] for _ in range(n)]

    def rand_rows(count):
        return [[r.randrange(p) for _ in range(n)] for _ in range(count)]

    base = rand_rows(n)
    dependent = []
    for i in range(extra):
        row = base[r.randrange(n)]
        dependent.append([0] * n if i % 3 == 2 else [x * (i + 1) % p for x in row])
    deficient = rand_rows(n + extra)
    zero_col = r.randrange(n)
    for row in deficient:
        row[zero_col] = 0
    for rows in (rand_rows(n + extra), dependent + base, deficient):
        rhs = [
            FieldMatrix(br, bc, [sum(row[j] * want[j][t] for j in range(n)) % p for t in range(blen)])
            for row in rows
        ]
        yield FieldMatrix.from_rows(rows), rhs, want


@pytest.mark.parametrize("blen", [1, 4])
@pytest.mark.parametrize(
    "p",
    [7, 101, 257, 4294967291, M61, 18446744073709551557],
    ids=["p7", "p101", "p257", "p2^32-5", "m61", "p2^64-59"],
)
def test_tall_solve_matches_reference_elimination(p, blen):
    field = PrimeField(p)
    r = rng(p % 997 + 10 * blen)
    outcomes = set()
    for n in range(1, 13):
        for extra in range(6):
            for v, rhs, want in _tall_systems(p, n, extra, blen, r):
                got = _solve_outcome(solve_linear, field, v, rhs)
                assert got == _solve_outcome(reference_solve, field, v, rhs), (n, extra, v)
                assert all(type(c) is int for c in got[1])
                if isinstance(got[0], str):
                    assert got[0].startswith("no nonzero pivot in column")
                else:
                    assert got[0] == want  # exact rhs: the unique solution
                outcomes.add(isinstance(got[0], str))
    assert outcomes == {False, True}


def test_solve_dimension_checks_match_reference(gf101):
    two = [FieldMatrix(1, 1, [1]), FieldMatrix(1, 1, [2])]
    cases = [
        (FieldMatrix(2, 3, [1] * 6), two),
        (FieldMatrix(3, 2, [1] * 6), two),
        (identity(2), two[:1]),
        (identity(2), [two[0], FieldMatrix(1, 2, [1, 2])]),
    ]
    for v, rhs in cases:
        messages = []
        for solve in (solve_linear, reference_solve):
            ctr = OpCounter()
            with pytest.raises(DimensionMismatch) as exc:
                solve(gf101, v, rhs, ctr)
            messages.append(str(exc.value))
            assert (ctr.mul_count, ctr.inv_count) == (0, 0)
        assert messages[0] == messages[1]
    assert solve_linear(gf101, FieldMatrix(0, 0, []), []) == []


def test_m61_muladd_at_limb_extremes():
    arr = np.array(LIMB_EDGES, dtype=np.uint64)
    for x in LIMB_EDGES:
        got = _muladd_m61(np.uint64(x), arr[:, None], arr).tolist()
        assert got == [[(x + a * b) % M61 for b in LIMB_EDGES] for a in LIMB_EDGES]
