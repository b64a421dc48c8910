from __future__ import annotations

import random
import tracemalloc
from math import comb
from operator import mul

import numpy as np
import pytest

from conftest import from_rows, identity, interpolation_charge, reference_pow, rng, to_rows
from rookbench.exponents import base3_exponents, poly_code_exponents, sum_support
from rookbench.field import (
    M61,
    NUMPY_MIN_MULS,
    _CHUNK,
    _LEAF,
    _LIMB_BITS,
    _SLICE,
    _limb_count,
    _master,
    _mod_matmul,
    _muladd_m61,
    _plane_fold,
    _update_m61,
    DimensionMismatch,
    FieldMatrix,
    OpCounter,
    PrimeField,
    SingularMatrix,
    interpolation_weights,
    is_prime_u64,
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
    """The scale the encoders used before mat_lincombs: s*a, reduced per entry."""
    return FieldMatrix(a.rows, a.cols, [s * v % field.modulus for v in a.entries])


def mat_muladd(field, x, s, y):
    """The multiply-add the encoders chained before mat_lincombs: x + s*y."""
    return FieldMatrix(x.rows, x.cols, [(a + s * b) % field.modulus for a, b in zip(x.entries, y.entries)])


def chained_lincomb(field, coeffs, blocks):
    """sum_i c_i B_i as the old encoders built it: one mat_scale, then one
    mat_muladd per further term."""
    terms = list(zip(coeffs, blocks))
    acc = mat_scale(field, *terms.pop(0))
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


def test_ring_axioms_sampled():
    f = PrimeField(M61)
    p = f.modulus
    r = rng(2)
    for _ in range(200):
        a, b, c = (r.randrange(p) for _ in range(3))
        assert a * ((b + c) % p) % p == (a * b % p + a * c % p) % p
        if a:
            assert a * pow(a, -1, p) % p == 1


def schoolbook(p, a, b):
    """The reference product: one unreduced int sum per entry, reduced once."""
    a_entries, b_entries = a.entries, b.entries
    return [
        sum(a_entries[i * a.cols + t] * b_entries[t * b.cols + j] for t in range(a.cols)) % p
        for i in range(a.rows)
        for j in range(b.cols)
    ]


# Spans five of the numpy kernel's exact float64 chunks of field._CHUNK inner terms.
LONG_INNER = 2100
# Moduli of each numpy fold: uint64 below 2^32, 2^61 - 1's limb muladd and
# the object fold.
KERNEL_MODULI = [257, 4294967291, M61, 18446744073709551557]
SOLVE_MODULI = [
    pytest.param(p, id=name)
    for p, name in zip(
        [7, 101, 257, 4294967291, M61, 18446744073709551557],
        ["p7", "p101", "p257", "p2^32-5", "m61", "p2^64-59"],
    )
]


def test_mat_mul_examples(gf101):
    m = from_rows([[1, 2], [3, 4]])
    ident = identity(3)
    x = mat_random(gf101, 3, 3, rng(3))
    assert mat_mul(gf101, ident, x) == x
    assert mat_mul(gf101, FieldMatrix(1, 1, [3]), FieldMatrix(1, 1, [2])).entries == [6]
    prod = mat_mul(gf101, m, from_rows([[5, 6], [7, 8]]))
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


@pytest.mark.parametrize("p", [257, M61], ids=["p257", "m61"])
def test_mat_mul_result_is_read_only_and_equals_the_list_built_matrix(p):
    # Both product paths: 2 x 2 x 2 in Python, 8 x 8 x 8 in numpy.
    field = PrimeField(p)
    r = rng(p % 1000 + 31)
    for n in (2, 8):
        a, b = mat_random(field, n, n, r), mat_random(field, n, n, r)
        got = mat_mul(field, a, b)
        want = FieldMatrix(n, n, schoolbook(p, a, b))
        assert got.data.dtype == np.uint64 and got.data.shape == (n, n)
        assert not got.data.flags.writeable
        with pytest.raises(ValueError):
            got.data[0, 0] = 1
        assert got == want and hash(got) == hash(want)


def test_mat_helpers(gf101):
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[100, 100], [100, 100]])
    assert to_rows(mat_lincombs(gf101, [[1, 1]], [a, b])[0]) == [[0, 1], [2, 3]]
    assert to_rows(mat_lincombs(gf101, [[2]], [a])[0]) == [[2, 4], [6, 8]]
    assert to_rows(mat_lincombs(gf101, [[2, 1]], [a, b])[0]) == [[1, 3], [5, 7]]
    with pytest.raises(ValueError):
        FieldMatrix(2, 2, [1, 2, 3])


def test_field_matrix_holds_a_read_only_uint64_array():
    values = [0, 1, 2, 100, M61 - 1, (1 << 64) - 1]
    built = [
        FieldMatrix(2, 3, values),
        from_rows([values[:3], values[3:]]),
        FieldMatrix(2, 3, np.array(values, dtype=np.uint64)),
        FieldMatrix(2, 3, np.array([values[:3], values[3:]], dtype=np.uint64)),
        FieldMatrix(2, 3, np.array(values, dtype=object)),
    ]
    for m in built:
        assert m == built[0] and hash(m) == hash(built[0])
        assert (m.rows, m.cols) == (2, 3)
        assert m.data.dtype == np.uint64 and m.data.shape == (2, 3)
        assert not m.data.flags.writeable
        with pytest.raises(ValueError):
            m.data[0, 0] = 5
        assert m.entries == values and all(type(e) is int for e in m.entries)
        assert repr(m) == f"FieldMatrix(2x3, {values!r})"
    assert built[0] != FieldMatrix(3, 2, values) and built[0] != FieldMatrix(2, 3, values[::-1])
    assert FieldMatrix(0, 3, []) != FieldMatrix(3, 0, [])
    for entries in ([1, 2, 3], [1] * 5, np.ones(3, dtype=np.uint64), np.ones((3, 2), dtype=np.uint64)):
        with pytest.raises(ValueError):
            FieldMatrix(2, 2, entries)


def test_field_matrix_rejects_entries_outside_u64():
    for bad in (-1, 1 << 64, -(1 << 70)):
        with pytest.raises(ValueError):
            FieldMatrix(1, 2, [3, bad])
        with pytest.raises(ValueError):
            FieldMatrix(1, 2, np.array([3, bad], dtype=object))
    with pytest.raises(ValueError):
        FieldMatrix(1, 2, np.array([3, -1], dtype=np.int64))


@pytest.mark.parametrize("p", [257, M61], ids=["p257", "m61"])
def test_both_product_paths_reduce_non_canonical_entries(p):
    # Entries of p or more act as their residues on the Python path (1 x 1)
    # and on the numpy path (8 x 8), in products, combinations and solves.
    field = PrimeField(p)
    r = rng(p % 1000 + 29)
    big = 1 << 40
    for n in (1, 8):
        assert (n**3 >= NUMPY_MIN_MULS) == (n == 8)
        a = FieldMatrix(n, n, [big] * (n * n))
        assert mat_mul(field, a, a).entries == [n * big * big % p] * (n * n)
        wide = [v + p * r.randrange((1 << 64) // p) for v in range(n * n)]
        canon = [v % p for v in wide]
        coeffs = [[r.randrange(p) for _ in range(n)]]
        blocks = [FieldMatrix(n, n, wide)] * n
        want = mat_lincombs(field, coeffs, [FieldMatrix(n, n, canon)] * n)
        assert mat_lincombs(field, coeffs, blocks) == want
        assert mat_mul(field, FieldMatrix(n, n, wide), a) == mat_mul(field, FieldMatrix(n, n, canon), a)
    # 2^64 - 1, the largest entry a matrix holds.
    top = (1 << 64) - 1
    for n in (1, 8):
        a = FieldMatrix(n, n, [top] * (n * n))
        assert mat_mul(field, a, a).entries == [n * top * top % p] * (n * n)
    # A unit upper triangular V is invertible over any field.
    want = [mat_random(field, 1, 2, r) for _ in range(3)]
    v = from_rows([[1, r.randrange(p), r.randrange(p)], [0, 1, r.randrange(p)], [0, 0, 1]])
    rhs = [mat_lincombs(field, [row], want)[0] for row in to_rows(v)]
    lift = [[x + p * r.randrange((1 << 64) // p) for x in row] for row in to_rows(v)]
    rhs_lift = [FieldMatrix(1, 2, [x + p for x in b.entries]) for b in rhs]
    assert solve_linear(field, from_rows(lift), rhs_lift) == solve_linear(field, v, rhs) == want


@pytest.mark.parametrize("p", [257, M61], ids=["p257", "m61"])
def test_results_share_no_writable_buffer_with_operands(p):
    field = PrimeField(p)
    r = rng(p % 1000 + 30)
    for dims in ((2, 2), (8, 8)):
        blocks = [mat_random(field, *dims, r) for _ in range(3)]
        # Four rows of three 8 x 8 blocks are past NUMPY_MIN_MULS.
        outs = mat_lincombs(field, [[1, 0, 0], [2, 3, 4], [5, 6, 7], [0, 0, 1]], blocks)
        outs += solve_linear(field, identity(3), blocks)
        outs.append(mat_mul(field, blocks[0], identity(dims[1])))
        for out in outs:
            assert not out.data.flags.writeable
            assert not any(np.shares_memory(out.data, x.data) for x in blocks)
        assert outs[0] == blocks[0] and outs[3] == blocks[2]
        assert outs[4:7] == blocks and outs[7] == blocks[0]


@pytest.mark.parametrize("p", [257, M61], ids=["p257", "m61"])
def test_every_returned_block_rejects_writes(p):
    # The results are views of one stack made read-only once, so a write
    # through any block, not only the first, must raise.
    field = PrimeField(p)
    r = rng(p % 1000 + 38)
    L = 12
    v = from_rows([[pow(x, j, p) for j in range(L)] for x in range(1, L + 1)])
    for dims in ((2, 2), (8, 8)):
        blocks = [mat_random(field, *dims, r) for _ in range(L)]
        coeff_rows = [[r.randrange(p) for _ in blocks] for _ in range(5)]
        outs = mat_lincombs(field, coeff_rows, blocks) + solve_linear(field, v, blocks)
        assert len(outs) == 5 + L
        for out in outs:
            assert not out.data.flags.writeable
            with pytest.raises(ValueError):
                out.data[0, 0] = 1


# Operands at 2^61 - 1's 30/31-bit limb boundaries.
LIMB_EDGES = (0, 1, 2, (1 << 30) - 1, 1 << 30, (1 << 31) - 1, 1 << 31, (1 << 32) - 1, M61 - 2, M61 - 1)


@pytest.mark.parametrize(
    "p", [7, 257, M61, 18446744073709551557], ids=["p7", "p257", "m61", "p2^64-59"]
)
def test_mat_muladd_matches_int_oracle(p):
    # x + s*y is a combination of two terms, the first with coefficient 1.
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
        got = mat_lincombs(field, [[1, s]], [x, y])[0]
        assert (got.rows, got.cols) == (x.rows, x.cols)
        assert got.entries == [(a + s * b) % p for a, b in zip(x.entries, y.entries)]


def test_mat_lincombs_of_two_terms_counts_checks_shape_and_leaves_inputs(gf101):
    x = mat_random(gf101, 2, 3, rng(24))
    y = mat_random(gf101, 2, 3, rng(25))
    x_before, y_before = list(x.entries), list(y.entries)
    ctr = OpCounter()
    out = mat_lincombs(gf101, [[1, 5]], [x, y], ctr)[0]
    assert (ctr.mul_count, ctr.inv_count) == (2 * 2 * 3, 0)
    assert out.entries == [(a + 5 * b) % 101 for a, b in zip(x_before, y_before)]
    assert x.entries == x_before and y.entries == y_before
    assert out.entries is not x.entries and out.entries is not y.entries
    for bad in (mat_random(gf101, 3, 2, rng(26)), mat_random(gf101, 2, 2, rng(27))):
        with pytest.raises(DimensionMismatch):
            mat_lincombs(gf101, [[1, 5]], [x, bad], ctr)
    assert (ctr.mul_count, ctr.inv_count) == (2 * 2 * 3, 0)


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
    # zero coefficient on one more block leaves the sum as it was.
    long = [mat_random(field, 1, 1, r) for _ in range(LONG_INNER)]
    cases.append(([r.randrange(p) for _ in long], long))
    coeffs = [r.randrange(p) for _ in range(NUMPY_MIN_MULS - 1)]
    below = long[: NUMPY_MIN_MULS - 1]
    cases += [(coeffs, below), (coeffs + [0], below + [FieldMatrix(1, 1, [p - 1])])]
    sums = [mat_lincombs(field, [cs], bs)[0] for cs, bs in cases[-2:]]
    assert sums[0] == sums[1]
    for coeffs, blocks in cases:
        rows, cols = blocks[0].rows, blocks[0].cols
        ctr = OpCounter()
        got = mat_lincombs(field, [coeffs], blocks, ctr)[0]
        assert (ctr.mul_count, ctr.inv_count) == (len(blocks) * rows * cols, 0)
        block_entries = [b.entries for b in blocks]
        want = [sum(c * e[j] for c, e in zip(coeffs, block_entries)) % p for j in range(rows * cols)]
        assert (got.rows, got.cols) == (rows, cols)
        assert got.entries == want
        assert got == chained_lincomb(field, coeffs, blocks)


def test_mat_lincombs_counts_and_leaves_inputs(gf101):
    r = rng(32)
    blocks = [mat_random(gf101, 2, 3, r) for _ in range(4)]
    coeffs = [3, 0, 100, 7]
    before = [list(b.entries) for b in blocks]
    ctr = OpCounter()
    out = mat_lincombs(gf101, [coeffs], blocks, ctr)[0]
    assert (ctr.mul_count, ctr.inv_count) == (4 * 2 * 3, 0)
    assert [list(b.entries) for b in blocks] == before
    assert all(out.entries is not b.entries for b in blocks)
    # Blocks without entries: B has rows but no columns to zip.
    for rows, cols in ((0, 3), (3, 0)):
        empty = [FieldMatrix(rows, cols, []) for _ in coeffs]
        ctr = OpCounter()
        assert mat_lincombs(gf101, [coeffs], empty, ctr)[0] == FieldMatrix(rows, cols, [])
        assert (ctr.mul_count, ctr.inv_count) == (0, 0)


def test_mat_lincombs_dimension_errors_count_nothing(gf101):
    r = rng(33)
    a, b = mat_random(gf101, 2, 3, r), mat_random(gf101, 2, 3, r)
    cases = [
        ([1, 2, 3], [a, b]),  # more coefficients than blocks
        ([1], [a, b]),  # fewer
        ([], []),  # nothing to take a shape from
        ([1, 2], [a, mat_random(gf101, 3, 2, r)]),
        ([1, 2], [a, mat_random(gf101, 2, 2, r)]),
        ([1, 2], [a, mat_random(gf101, 1, 3, r)]),
    ]
    for coeffs, blocks in cases:
        ctr = OpCounter()
        with pytest.raises(DimensionMismatch):
            mat_lincombs(gf101, [coeffs], blocks, ctr)
        assert (ctr.mul_count, ctr.inv_count) == (0, 0)


def test_mat_lincombs_long_combination():
    # 200,000 1 x 1 terms are the numpy kernel's inner dimension, about 391
    # of its exact float64 chunks of field._CHUNK terms.
    field = PrimeField(M61)
    r = rng(34)
    count = 200_000
    coeffs = [r.randrange(M61) for _ in range(count)]
    blocks = [FieldMatrix(1, 1, [r.randrange(M61)]) for _ in range(count)]
    want = sum(c * b.entries[0] for c, b in zip(coeffs, blocks))
    ctr = OpCounter()
    assert mat_lincombs(field, [coeffs], blocks, ctr)[0].entries == [want % M61]
    assert ctr.mul_count == count


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_mat_lincombs_matches_per_row_mat_lincomb(p):
    field = PrimeField(p)
    r = rng(p % 1000 + 35)
    for (rows, cols), count, nrows in (((1, 1), 3, 5), ((2, 3), 7, 4), ((4, 4), 16, 40), ((16, 16), 4, 9)):
        blocks = [mat_random(field, rows, cols, r) for _ in range(count)]
        coeff_rows = [[r.choice((0, 1, p - 1, r.randrange(p), -3, p + 2)) for _ in blocks] for _ in range(nrows)]
        ctr = OpCounter()
        got = mat_lincombs(field, coeff_rows, blocks, ctr)
        assert (ctr.mul_count, ctr.inv_count) == (nrows * count * rows * cols, 0)
        want_ctr = OpCounter()
        want = [mat_lincombs(field, [row], blocks, want_ctr)[0] for row in coeff_rows]
        assert got == want
        assert ctr.mul_count == want_ctr.mul_count


def test_mat_lincombs_ragged_rows_raise_and_no_rows_give_nothing(gf101):
    r = rng(36)
    blocks = [mat_random(gf101, 2, 3, r) for _ in range(3)]
    for coeff_rows in ([[1, 2, 3], [1, 2]], [[1, 2, 3, 4]], [[1, 2, 3], [4, 5, 6], []]):
        ctr = OpCounter()
        with pytest.raises(DimensionMismatch):
            mat_lincombs(gf101, coeff_rows, blocks, ctr)
        assert (ctr.mul_count, ctr.inv_count) == (0, 0)
    ctr = OpCounter()
    assert mat_lincombs(gf101, [], blocks, ctr) == []
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
    data = gen.integers(0, p, size=(count, entries), dtype=np.uint64).tolist()
    blocks = [FieldMatrix(rows, cols, e) for e in data]
    coeff_rows = gen.integers(0, p, size=(nrows, count), dtype=np.uint64).tolist()
    r = rng(p % 1000 + 38)
    columns = sorted({0, width - 1, width, 2 * width - 1, 2 * width, entries - 1} | set(r.sample(range(entries), 20)))
    ctr = OpCounter()
    got = mat_lincombs(field, coeff_rows, blocks, ctr)
    assert ctr.mul_count == nrows * count * entries
    assert len(got) == nrows and all((g.rows, g.cols) == (rows, cols) for g in got)
    for row, out in zip(coeff_rows, got):
        out_entries = out.entries
        for j in columns:
            want = sum(c * e[j] for c, e in zip(row, data)) % p
            assert out_entries[j] == want, j
    # Every coefficient and entry p - 1: the largest digits and chunk sums.
    full = FieldMatrix(rows, cols, [p - 1] * entries)
    got = mat_lincombs(field, [[p - 1] * count] * nrows, [full] * count)
    want = count * (p - 1) * (p - 1) % p
    assert all(out.entries == [want] * entries for out in got)


def expected_block(p, q, j):
    """(i, weight) of block (q, j) of the limb product's left operand: limb
    i of a, whose digit i + j lands in plane q, and the digit's weight over
    the plane's; None where no digit does."""
    if p == M61:
        # Digit d goes to plane d mod 3, and 2^63 is 4 mod 2^61 - 1.
        return (q - j) % 3, 4 if q < j else 1
    return (q - j, 1) if 0 <= q - j < _limb_count(p) else None


@pytest.mark.parametrize("p", KERNEL_MODULI + [2, 7, 4294967311])
def test_plane_layout_places_weighted_limbs(p):
    shifts, masks, pick, _ = _plane_fold(p)
    count = _limb_count(p)
    assert pick.shape == ((3, 3) if p == M61 else (2 * count - 1, count))
    r = rng(p % 1000 + 55)
    a = np.array([p - 1] + [r.randrange(p) for _ in range(20)], dtype=np.uint64)
    lanes = ((a >> shifts) & masks)[:, 0].tolist()
    limbs = [[v >> (_LIMB_BITS * i) & ((1 << _LIMB_BITS) - 1) for v in a.tolist()] for i in range(count)]
    for q, row in enumerate(pick.tolist()):
        for j, lane in enumerate(row):
            block = expected_block(p, q, j)
            want = [0] * a.size if block is None else [block[1] * v for v in limbs[block[0]]]
            assert lanes[lane] == want, (q, j)


def test_chunk_keeps_digit_sums_exact():
    # Per inner term, plane q gains the product of each block (q, j)'s
    # weighted limb of a with limb j of b; float64 adds _CHUNK such gains
    # exactly while they stay below 2^53.  Limb i of an entry below p is at
    # most min(2^21 - 1, (p - 1) >> 21i): 21, 21 and 19 bits for 2^61 - 1,
    # whose wrapped digits weigh 4.
    for p in KERNEL_MODULI + [2, 7, (1 << 42) - 11]:
        count = _limb_count(p)
        assert (count - 1) * _LIMB_BITS < (p - 1).bit_length() <= count * _LIMB_BITS
        top = [min((1 << _LIMB_BITS) - 1, (p - 1) >> (_LIMB_BITS * i)) for i in range(count)]
        planes = _plane_fold(p)[2].shape[0]
        gains = [0] * planes
        for q in range(planes):
            for j in range(count):
                block = expected_block(p, q, j)
                if block is not None:
                    gains[q] += block[1] * top[block[0]] * top[j]
        assert _CHUNK * max(gains) < 1 << 53, p
        if p == M61:
            assert [w.bit_length() for w in top] == [21, 21, 19] and max(gains) < 3 << 42
    assert _limb_count(18446744073709551557) == 4


def full_limb_values(p):
    """p - 1 and, for each limb count, the value whose 21-bit limbs are all
    2^21 - 1, where it stays below p."""
    values = [p - 1]
    for count in range(1, _limb_count(p) + 1):
        v = (1 << (_LIMB_BITS * count)) - 1
        if v < p:
            values.append(v)
    return values


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_mod_matmul_at_chunk_and_slice_edges_matches_int_oracle(p):
    # Inner dimensions one short of a chunk, one chunk, one past it and
    # past two; 2 x (width + 2) outputs, so the last two columns are a
    # second slice.  Row 0 and columns 0 and width hold one large value
    # throughout, where the digit sums are largest; the rest is random.
    # Checked against int sums at both sides of the slice edge.
    gen = np.random.default_rng(p % 1000 + 41)
    width = _SLICE // 2
    columns = [0, 1, width - 1, width, width + 1]
    for k in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1):
        for value in full_limb_values(p):
            a = gen.integers(0, p, size=(2, k), dtype=np.uint64)
            b = gen.integers(0, p, size=(k, width + 2), dtype=np.uint64)
            a[0] = value
            b[:, [0, width]] = value
            got = _mod_matmul(p, a, b)
            assert got.shape == (2, width + 2)
            rows, cols = a.tolist(), b[:, columns].T.tolist()
            for i, row in enumerate(rows):
                for j, col in zip(columns, cols):
                    assert int(got[i, j]) == sum(map(int.__mul__, row, col)) % p, (k, value, i, j)
            assert int(got[0, 0]) == k * value * value % p


@pytest.mark.parametrize("p", [257, 2097143], ids=["p257", "p2^21-9"])
def test_single_plane_fold_matches_int_oracle(p):
    # Below 2^21 an entry is one limb, so the limb product has one plane,
    # of weight 1, and the fold is one reduction mod p.  Checked on
    # retry-gf257's 60 x 8 x 4 encode and on shapes past a chunk and a
    # slice, with p - 1 in a row and a column, against Python int sums.
    shifts, masks, pick, fold = _plane_fold(p)
    assert pick.shape == (1, 1)
    digits = np.array([[[0, 1, p, (1 << 53) - 1]]], dtype=np.uint64)
    assert fold(digits).tolist() == [[0, 1, 0, ((1 << 53) - 1) % p]]
    gen = np.random.default_rng(p % 1000 + 59)
    for n, k, m in ((60, 8, 4), (32, _CHUNK + 1, _SLICE // 32 + 2), (3, 2 * _CHUNK + 1, 5)):
        a = gen.integers(0, p, size=(n, k), dtype=np.uint64)
        b = gen.integers(0, p, size=(k, m), dtype=np.uint64)
        a[0] = b[:, 0] = p - 1
        want = (a.astype(object) @ b.astype(object)) % p
        assert _mod_matmul(p, a, b).tolist() == want.tolist(), (n, k, m)


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_mod_matmul_memory_of_a_wide_row_stays_bounded(p):
    # One row by a full slice of columns: the kernel's peak is the limbs of
    # b's slice, built as a shift and a mask of count planes each; the
    # bound leaves one more plane of room.
    k = 64
    gen = np.random.default_rng(p % 1000 + 43)
    a = gen.integers(0, p, size=(1, k), dtype=np.uint64)
    b = gen.integers(0, p, size=(k, _SLICE), dtype=np.uint64)
    tracemalloc.start()
    try:
        _mod_matmul(p, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * _limb_count(p) + 1) * b.nbytes


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_mat_lincombs_takes_power_table_rows_as_they_are(p):
    # power_table's array of residues gives the same sums as its rows as
    # int lists, below the numpy cutoff and past it.
    field = PrimeField(p)
    r = rng(p % 1000 + 45)
    for nrows, dims in ((2, (1, 2)), (24, (4, 4))):
        table = power_table(p, [0, 1, 3, 7], [r.randrange(p) for _ in range(nrows)])
        blocks = [mat_random(field, *dims, r) for _ in range(4)]
        got, want = OpCounter(), OpCounter()
        assert mat_lincombs(field, table, blocks, got) == mat_lincombs(field, table.tolist(), blocks, want)
        assert got.mul_count == want.mul_count == nrows * 4 * dims[0] * dims[1]


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
    # range(L) is one window whose doublings stop at its largest digit
    # L - 1: the last doubling adds no column at L = 2, 129 and 257, where
    # L - 1 is a power of two, and only part of one at L = 144 and 256.
    cases += [list(range(L)) for L in (2, 129, 144, 256, 257)]
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


@pytest.mark.parametrize("p", [2, 7, 257, 4294967291, 4294967311, M61, 18446744073709551557])
def test_mat_random_draws_as_randrange(p):
    # Same values and the same end state as one randrange(p) per entry, so
    # several matrices drawn from one rng stay as they were.  32 x 32 and 1
    # x 600 draw in blocks of words (two per entry past 2^32), 2's with
    # about half of them rejected.
    field = PrimeField(p)
    for rows, cols in ((0, 3), (1, 1), (3, 5), (16, 16), (32, 32), (1, 600)):
        got_rng, want_rng = rng(p % 1000 + rows), rng(p % 1000 + rows)
        got = mat_random(field, rows, cols, got_rng)
        assert got.entries == [want_rng.randrange(p) for _ in range(rows * cols)]
        assert got_rng.getstate() == want_rng.getstate()


def test_solve_identity(gf101):
    blocks = [mat_random(gf101, 2, 2, rng(i)) for i in range(3)]
    out = solve_linear(gf101, identity(3), blocks)
    assert out == blocks


def test_solve_vandermonde_recovers_quadratic(gf101):
    # Forward-evaluate a known quadratic at x = 1, 2, 3, then solve.
    coeffs = [17, 42, 99]
    xs = [1, 2, 3]
    v = from_rows([[pow(x, j, 101) for j in range(3)] for x in xs])
    rhs = [
        FieldMatrix(1, 1, [sum(c * pow(x, j) for j, c in enumerate(coeffs)) % 101])
        for x in xs
    ]
    out = solve_linear(gf101, v, rhs)
    assert [m.entries[0] for m in out] == coeffs


def test_solve_singular_on_equal_rows(gf101):
    v = from_rows([[1, 2], [1, 2]])
    rhs = [FieldMatrix(1, 1, [1]), FieldMatrix(1, 1, [2])]
    with pytest.raises(SingularMatrix):
        solve_linear(gf101, v, rhs)


def test_solve_roundtrip_random_systems(gf_m61):
    r = rng(7)
    for trial in range(10):
        size = r.choice([1, 2, 3, 5, 8, 13, 21, 32])
        v = mat_random(gf_m61, size, size, r)
        want = [mat_random(gf_m61, 2, 3, r) for _ in range(size)]
        rhs = [mat_lincombs(gf_m61, [row], want)[0] for row in to_rows(v)]
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
    multipliers; the values and op counts solve_linear must reproduce.
    Forward elimination skips a column no remaining row has a nonzero in,
    then the pivots are back-substituted, right to left, into every other
    pivot row.  SingularMatrix names the first column without a pivot."""
    k, n = v.rows, v.cols
    if len(rhs) != k:
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
    tail = list(range(n, n + blen))
    new = [[x % p for x in row] + [x % p for x in blk.entries] for row, blk in zip(to_rows(v), rhs)]
    muls = 0
    invs = 0

    top = 0
    found = []
    left = list(range(n))
    for c in range(n):
        pivot = next((i for i in range(top, k) if new[i][c]), None)
        if pivot is None:
            continue
        new[top], new[pivot] = new[pivot], new[top]
        arow = new[top]
        trail = [j for j in left if j >= c] + tail
        inv = pow(arow[c], p - 2, p)
        invs += 1
        for j in trail:
            arow[j] = arow[j] * inv % p
        muls += len(trail)
        for r in new[top + 1 :]:
            f = r[c]
            if not f:
                continue
            for j in trail:
                r[j] = (r[j] - f * arow[j]) % p
            muls += len(trail)
        found.append(c)
        left.remove(c)
        top += 1

    # Right to left, a pivot row is zero in every other pivot column by the
    # time it is used, and clearing its column leaves the others'.
    rows = new[:top]
    owner = dict(zip(found, rows))
    for c in sorted(found, reverse=True):
        prow = owner[c]
        for r in rows:
            f = r[c]
            if r is prow or not f:
                continue
            for j in left + tail:
                r[j] = (r[j] - f * prow[j]) % p
            r[c] = 0
            muls += len(left) + blen

    if counter is not None:
        counter.mul_count += muls
        counter.inv_count += invs
    if left:
        raise SingularMatrix(f"no nonzero pivot in column {left[0]}")
    return [FieldMatrix(br, bc, owner[c][n:]) for c in range(n)]


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
        yield from_rows(rows), rhs


@pytest.mark.parametrize("blen", [1, 4, 9])
@pytest.mark.parametrize("p", SOLVE_MODULI)
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
        yield from_rows(rows), rhs, want


@pytest.mark.parametrize("blen", [1, 4])
@pytest.mark.parametrize("p", SOLVE_MODULI)
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


@pytest.mark.parametrize("blen", [1, 4])
@pytest.mark.parametrize("p", SOLVE_MODULI)
def test_solve_without_basis_names_the_first_column_without_a_pivot(p, blen):
    # A wide V and one with an all-zero column are eliminated over every
    # column: SingularMatrix names the first column left without a pivot,
    # the charge is the reference's, and V and the rhs stay as they were.
    field = PrimeField(p)
    r = rng(p % 1000 + 59 + blen)
    br, bc = {1: (1, 1), 4: (2, 2)}[blen]
    cases = [
        ([[1] * 3, [1] * 3], 1),
        ([[1, 2, 3], [2, 4, 7]], 1),
        ([[1, 0, 5], [0, 1, 6]], 2),
        ([[0, 1, 2], [0, 3, 4], [0, 5, 7]], 0),
        ([[1, 0, 2], [3, 0, 4], [5, 0, 6], [7, 0, 9]], 1),
    ]
    for rows, col in cases:
        v = from_rows(rows)
        rhs = [FieldMatrix(br, bc, [r.randrange(p) for _ in range(blen)]) for _ in rows]
        got = _solve_outcome(_solve_checked, field, v, rhs)
        assert got[0] == f"no nonzero pivot in column {col}", rows
        assert got == _solve_outcome(reference_solve, field, v, rhs), rows


def _stacked(blocks):
    """The blocks' row-major entries as the rows of one matrix."""
    return FieldMatrix(len(blocks), blocks[0].rows * blocks[0].cols, np.stack([b.data.ravel() for b in blocks]))


def _solve_checked(field, v, rhs, counter=None):
    """solve_linear's blocks, checked to be read-only and C-contiguous, and
    V's and the rhs blocks' arrays checked to be as they were."""
    before = [m.data.copy() for m in (v, *rhs)]
    try:
        got = solve_linear(field, v, rhs, counter)
    finally:
        assert all(np.array_equal(x, m.data) for x, m in zip(before, (v, *rhs)))
    for blk in got:
        assert blk.data.flags.c_contiguous and not blk.data.flags.writeable
    return got


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_solve_large_wide_and_tall_shapes(p):
    # decode-bound's rook-poly system (L = 144, blen 4), wide right-hand
    # sides (k = 9 and 16, blen 1024) and a tall system (k = L + 5): the
    # solution C satisfies V * C = rhs, and a tall system's is the one rhs
    # was built from.
    field = PrimeField(p)
    gen = np.random.default_rng(p % 1000 + 51)
    for k, L, br, bc in ((144, 144, 2, 2), (9, 9, 32, 32), (16, 16, 32, 32), (29, 24, 2, 2)):
        v = FieldMatrix(k, L, gen.integers(0, p, size=(k, L), dtype=np.uint64))
        if k == L:
            want = None
            rhs = [FieldMatrix(br, bc, gen.integers(0, p, size=br * bc, dtype=np.uint64)) for _ in range(k)]
        else:
            want = [FieldMatrix(br, bc, gen.integers(0, p, size=br * bc, dtype=np.uint64)) for _ in range(L)]
            rhs = [FieldMatrix(br, bc, row) for row in mat_mul(field, v, _stacked(want)).data]
        ctr = OpCounter()
        got = _solve_checked(field, v, rhs, ctr)
        assert len(got) == L and all((blk.rows, blk.cols) == (br, bc) for blk in got)
        assert mat_mul(field, v, _stacked(got)) == _stacked(rhs), (k, L)
        assert want is None or got == want
        assert ctr.inv_count == L


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_solve_singular_only_at_last_column_charges_as_reference(p):
    # V's last column is a combination of the others, which are
    # independent: every column but the last gets its pivot, and the
    # charge for them matches the reference elimination's.
    field = PrimeField(p)
    r = rng(p % 1000 + 52)
    L = 40
    for k in (L, L + 5):
        rows = [[r.randrange(p) for _ in range(L - 1)] for _ in range(k)]
        mix = [r.randrange(p) for _ in range(L - 1)]
        for row in rows:
            row.append(sum(map(mul, mix, row)) % p)
        v = from_rows(rows)
        rhs = [FieldMatrix(2, 2, [r.randrange(p) for _ in range(4)]) for _ in range(k)]
        got = _solve_outcome(_solve_checked, field, v, rhs)
        assert got[0] == f"no nonzero pivot in column {L - 1}"
        assert got == _solve_outcome(reference_solve, field, v, rhs)
        assert got[1][0] > 0 and got[1][1] == L - 1


@pytest.mark.parametrize("p", [257, M61], ids=["p257", "m61"])
def test_solve_memory_stays_within_three_augmented_arrays(p):
    # The solve holds three buffers of [V | rhs]'s size.  Beyond them it may
    # hold numpy's ufunc buffers, which a broadcasting call allocates for
    # its two broadcast operands whatever the array's size (at most
    # np.getbufsize() entries each), and a few rows and columns: the pivot
    # row's limbs and the multipliers.  One temporary of the trailing
    # block's size, made per column, passes the bound at L = 144 (there the
    # bound is below 4x the array); a multiply-add that allocates its
    # result per column peaked at 6.1x the array on 2^61 - 1.
    field = PrimeField(p)
    gen = np.random.default_rng(p % 1000 + 53)
    ufunc_buffers = 2 * np.getbufsize() * 8
    for L, br, bc in ((144, 2, 2), (16, 32, 32)):
        v = FieldMatrix(L, L, gen.integers(0, p, size=(L, L), dtype=np.uint64))
        rhs = [FieldMatrix(br, bc, gen.integers(0, p, size=br * bc, dtype=np.uint64)) for _ in range(L)]
        width = L + br * bc
        aug_bytes = L * width * 8
        bound = 3 * aug_bytes + ufunc_buffers + 8 * (L + width) * 8
        tracemalloc.start()
        try:
            solve_linear(field, v, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (L, br * bc, peak / aug_bytes)


def test_solve_memory_over_gf257_stays_within_two_augmented_arrays():
    # Below 2^32 the in-place update takes one scratch array, so the solve
    # holds two buffers of [V | rhs]'s size, with the allowance of the test
    # above; a third buffer, as 2^61 - 1 needs, fails the bound.
    p = 257
    field = PrimeField(p)
    gen = np.random.default_rng(p % 1000 + 57)
    ufunc_buffers = 2 * np.getbufsize() * 8
    for L, br, bc in ((144, 2, 2), (16, 32, 32)):
        v = FieldMatrix(L, L, gen.integers(0, p, size=(L, L), dtype=np.uint64))
        rhs = [FieldMatrix(br, bc, gen.integers(0, p, size=br * bc, dtype=np.uint64)) for _ in range(L)]
        width = L + br * bc
        aug_bytes = L * width * 8
        bound = 2 * aug_bytes + ufunc_buffers + 8 * (L + width) * 8
        tracemalloc.start()
        try:
            solve_linear(field, v, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (L, br * bc, peak / aug_bytes)


def test_m61_muladd_at_limb_extremes():
    arr = np.array(LIMB_EDGES, dtype=np.uint64)
    for x in LIMB_EDGES:
        got = _muladd_m61(np.uint64(x), arr[:, None], arr).tolist()
        assert got == [[(x + a * b) % M61 for b in LIMB_EDGES] for a in LIMB_EDGES]


def test_m61_update_in_place_at_limb_extremes():
    # x += a (column) times b (row), b being a row of x itself, as in
    # solve_linear; and a vector times a scalar.
    arr = np.array(LIMB_EDGES, dtype=np.uint64)
    n = len(LIMB_EDGES)
    for x in LIMB_EDGES:
        block = np.full((n, n), x, dtype=np.uint64)
        block[0] = arr
        want = [[(x if i else LIMB_EDGES[j]) + a * LIMB_EDGES[j] for j in range(n)] for i, a in enumerate(LIMB_EDGES)]
        t1, t2 = np.empty_like(block), np.empty_like(block)
        _update_m61(block, arr[:, None], block[0], t1, t2)
        assert block.tolist() == [[v % M61 for v in row] for row in want]
        for s in LIMB_EDGES:
            vec = np.full(n, x, dtype=np.uint64)
            _update_m61(vec, arr, s, np.empty_like(vec), np.empty_like(vec))
            assert vec.tolist() == [(x + a * s) % M61 for a in LIMB_EDGES]


# The diagonal of an interval rook pair with L sums; no pair has L = 2, so
# that size takes its top coefficient.
INTERVAL_DIAGONALS = {
    1: sum_support(poly_code_exponents(1)).diag_index,
    2: (1,),
    9: sum_support(base3_exponents(4)).diag_index,
    81: sum_support(base3_exponents(16)).diag_index,
    144: sum_support(poly_code_exponents(12)).diag_index,
}


@pytest.mark.parametrize("L", sorted(INTERVAL_DIAGONALS))
@pytest.mark.parametrize("p", [M61, 257, 1099511627689], ids=["m61", "p257", "p40bit"])
def test_interpolation_weights_match_the_vandermonde_solve(p, L):
    # The weights times the values are solve_linear's solution at `wanted`
    # of the Vandermonde system over the same points, for the diagonal and
    # for every coefficient, and the charge is the docstring's formula.  A
    # 40-bit prime runs the object-array arithmetic; 0 is one of the points.
    field = PrimeField(p)
    r = rng(p % 1000 + L)
    xs = [0, *field.distinct_nonzero(r, L - 1)]
    r.shuffle(xs)
    values = [FieldMatrix(1, 2, [r.randrange(p) for _ in range(2)]) for _ in range(L)]
    coeffs = solve_linear(field, FieldMatrix(L, L, power_table(p, range(L), xs)), values)
    for wanted in (INTERVAL_DIAGONALS[L], range(L)):
        ctr = OpCounter()
        weights = interpolation_weights(field, xs, wanted, ctr)
        assert weights.shape == (len(wanted), L) and weights.dtype == np.uint64
        assert mat_lincombs(field, weights, values) == [coeffs[t] for t in wanted]
        assert (ctr.mul_count, ctr.inv_count) == interpolation_charge(L, len(wanted))


def reference_master(p: int, xs) -> list[int]:
    """prod_w (z - x_w) mod p, one factor at a time, m_0 first."""
    master = [1]
    for x in xs:
        master = [(lo - x * hi) % p for lo, hi in zip([0, *master], [*master, 0])]
    return master


@pytest.mark.parametrize("L", [0, 1, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 81, 144, 255])
@pytest.mark.parametrize("p", [M61, 257, 13, 1099511627689], ids=["m61", "p257", "p13", "p40bit"])
def test_master_matches_one_factor_at_a_time(p, L):
    # Random points below 2p, 0 among them, so some are p or more (points
    # repeat over GF(13)); then L equal points p - 1, whose product
    # (z + 1)^L has the binomials mod p as coefficients.  Over GF(13) and
    # the 40-bit prime, a slot that left out the bits(L) term would carry.
    r = rng(p % 1000 + L)
    xs = [r.randrange(2 * p) for _ in range(L)]
    if xs:
        xs[r.randrange(L)] = 0
    assert _master(p, xs) == reference_master(p, xs)
    assert _master(p, [p - 1] * L) == reference_master(p, [p - 1] * L) == [comb(L, k) % p for k in range(L + 1)]


@pytest.mark.parametrize("p, xs", [(257, [3, 260]), (257, [5, 0, 9, 257]), (M61, [1, 7, M61 + 7])])
def test_interpolation_weights_reject_points_equal_mod_p(p, xs):
    ctr = OpCounter()
    repeated = xs[-1] % p
    with pytest.raises(SingularMatrix, match=rf"point {repeated} repeats mod {p}"):
        interpolation_weights(PrimeField(p), xs, range(len(xs)), ctr)
    assert (ctr.mul_count, ctr.inv_count) == (0, 0)
