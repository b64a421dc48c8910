from __future__ import annotations

import pytest

from conftest import direct_products, rng, scalar
from rookbench.exponents import (
    ExponentPair,
    base3_exponents,
    behrend_exponents,
    poly_code_exponents,
    sum_support,
)
from rookbench.field import (
    M61,
    DimensionMismatch,
    FieldMatrix,
    OpCounter,
    PrimeField,
    mat_random,
    solve_linear,
)
from rookbench.rook import (
    NotEnoughProducts,
    RookScheme,
    SingularAfterRetry,
    WorkerProduct,
    gap_powers,
    make_rook_scheme,
    rook_decode,
    rook_encode_share,
    rook_worker,
)

GF101 = PrimeField(101)
GFM61 = PrimeField(M61)

WORKED_A = [scalar(3), scalar(5)]
WORKED_B = [scalar(2), scalar(7)]
WORKED_INPUTS = list(zip(WORKED_A, WORKED_B))


def worked_scheme(points=(1, 2, 3)):
    return make_rook_scheme(base3_exponents(2), GF101, len(points), eval_points=points)


def random_inputs(field, n, dims, seed):
    r = rng(seed)
    rows, inner, cols = dims
    return [
        (mat_random(field, rows, inner, r), mat_random(field, inner, cols, r))
        for _ in range(n)
    ]


# --- gap powers -----------------------------------------------------------------


def test_gap_powers_examples():
    gf7 = PrimeField(7)
    assert gap_powers(gf7, (0, 2, 3), 2) == [1, 4, 2]
    gf = PrimeField(101)
    assert gap_powers(gf, (0, 1, 2, 3), 5) == [1, 5, 5, 5]  # unit gaps
    assert gap_powers(gf, (5,), 2) == [32]


def test_gap_powers_count_is_own_delta():
    ctr = OpCounter()
    gap_powers(GFM61, (0, 2, 3, 11), 7, ctr)
    # gaps 0, 2, 1, 8 cost 0 + 1 + 0 + 3 square-and-multiply products
    assert ctr.mul_count == 4
    assert ctr.inv_count == 0


# --- encoding -------------------------------------------------------------------


def test_encode_worked_example():
    scheme = worked_scheme()
    share = rook_encode_share(scheme, WORKED_INPUTS, 1)
    assert share.x == 2
    assert share.a_tilde.entries == [13]  # 3 + 5*2
    assert share.b_tilde.entries == [16]  # 2 + 7*2


def test_encode_single_pair():
    pair = ExponentPair(1, (0,), (0,))
    scheme = make_rook_scheme(pair, GF101, 1, eval_points=(7,))
    a0 = FieldMatrix.from_rows([[1, 2], [3, 4]])
    b0 = FieldMatrix.from_rows([[5], [6]])
    share = rook_encode_share(scheme, [(a0, b0)], 0)
    assert share.a_tilde == a0  # p_0 = 0: the constant term survives
    pair2 = ExponentPair(1, (2,), (0,))
    scheme2 = make_rook_scheme(pair2, GF101, 1, eval_points=(3,))
    share2 = rook_encode_share(scheme2, [(a0, b0)], 0)
    assert share2.a_tilde.entries == [(9 * v) % 101 for v in a0.entries]


def test_encode_at_zero_keeps_constant_term():
    # 0 is barred from eval points, but the Horner algebra itself is sound
    # there: only the exponent-zero term survives.
    pair = base3_exponents(2)
    scheme = RookScheme(
        pair=pair, support=sum_support(pair), field=GF101, eval_points=(0, 5)
    )
    share = rook_encode_share(scheme, WORKED_INPUTS, 0)
    assert share.a_tilde.entries == [3]
    assert share.b_tilde.entries == [2]


def test_encode_rejects_ragged_inputs():
    scheme = worked_scheme()
    bad = [(scalar(3), scalar(2)), (FieldMatrix.from_rows([[1, 2]]), scalar(7))]
    with pytest.raises(DimensionMismatch):
        rook_encode_share(scheme, bad, 0)
    with pytest.raises(DimensionMismatch):
        rook_encode_share(scheme, WORKED_INPUTS[:1], 0)


def test_encode_mul_count_identity():
    # measured muls == delta (gap powers) + (rows_A + cols_B) * inner * n
    for pair, dims, seed in (
        (base3_exponents(4), (2, 3, 2), 31),
        (poly_code_exponents(5), (1, 1, 1), 32),
        (behrend_exponents(8), (3, 2, 4), 33),
    ):
        scheme = make_rook_scheme(pair, GFM61, 6, rng=rng(seed))
        inputs = random_inputs(GFM61, pair.n, dims, seed + 1)
        rows, inner, cols = dims
        for w in range(6):
            ctr = OpCounter()
            rook_encode_share(scheme, inputs, w, ctr)
            delta = OpCounter()
            gap_powers(GFM61, pair.p, scheme.eval_points[w], delta)
            gap_powers(GFM61, pair.q, scheme.eval_points[w], delta)
            bound = delta.mul_count + (rows + cols) * inner * pair.n
            assert ctr.mul_count == bound
            assert ctr.inv_count == 0


# --- worker ---------------------------------------------------------------------


def test_worker_continues_worked_example():
    scheme = worked_scheme()
    share = rook_encode_share(scheme, WORKED_INPUTS, 1)
    prod = rook_worker(GF101, share)
    assert prod.e.entries == [6]  # 13 * 16 mod 101


def test_worker_identity_and_zero():
    from rookbench.rook import WorkerShare

    ident = FieldMatrix.identity(3)
    b = mat_random(GF101, 3, 2, rng(41))
    share = WorkerShare(worker_id=0, x=1, a_tilde=ident, b_tilde=b)
    assert rook_worker(GF101, share).e == b
    zero = FieldMatrix.zeros(3, 3)
    share0 = WorkerShare(worker_id=0, x=1, a_tilde=zero, b_tilde=b)
    assert rook_worker(GF101, share0).e == FieldMatrix.zeros(3, 2)


def test_worker_counts_schoolbook_muls():
    scheme = make_rook_scheme(base3_exponents(2), GFM61, 3, rng=rng(42))
    inputs = random_inputs(GFM61, 2, (3, 4, 5), 43)
    share = rook_encode_share(scheme, inputs, 0)
    ctr = OpCounter()
    rook_worker(GFM61, share, ctr)
    assert ctr.mul_count == 3 * 4 * 5
    assert ctr.inv_count == 0


# --- decoding -------------------------------------------------------------------


def run_pipeline(scheme, inputs, worker_ids=None):
    ids = range(len(scheme.eval_points)) if worker_ids is None else worker_ids
    return [
        rook_worker(scheme.field, rook_encode_share(scheme, inputs, w)) for w in ids
    ]


def test_decode_worked_example():
    scheme = worked_scheme()
    prods = run_pipeline(scheme, WORKED_INPUTS)
    assert [p.e.entries[0] for p in prods] == [72, 6, 10]
    out = rook_decode(prods, scheme)
    assert [m.entries[0] for m in out] == [6, 35]


def test_decode_single_pair_divides_out_monomial():
    pair = ExponentPair(1, (2,), (3,))
    scheme = make_rook_scheme(pair, GF101, 1, eval_points=(3,))
    inputs = [(scalar(4), scalar(9))]
    prods = run_pipeline(scheme, inputs)
    assert prods[0].e.entries[0] == 4 * 9 * pow(3, 5, 101) % 101
    out = rook_decode(prods, scheme)
    assert out[0].entries == [36]


def test_decode_not_enough_products():
    scheme = worked_scheme()
    prods = run_pipeline(scheme, WORKED_INPUTS)
    with pytest.raises(NotEnoughProducts):
        rook_decode(prods[:2], scheme)


def test_decode_duplicate_point():
    # A repeated response is a dependent row: skipped while L distinct x are
    # present, and not enough to decode without them.
    scheme = worked_scheme()
    prods = run_pipeline(scheme, WORKED_INPUTS)
    want = direct_products(GF101, WORKED_INPUTS)
    assert rook_decode([prods[1], prods[1], prods[0], prods[2]], scheme) == want
    assert rook_decode([prods[0], prods[1], prods[0], prods[1], prods[2]], scheme) == want
    with pytest.raises(SingularAfterRetry):
        rook_decode([prods[0], prods[1], prods[1]], scheme)
    with pytest.raises(SingularAfterRetry):
        rook_decode([prods[2], prods[2], prods[0], prods[2]], scheme)


# Over GF(13) the support {0, 2, 4} collides at x = 5 and x = 8 (both square
# to 12), so the decode matrix can genuinely go singular.
SPARSE_PAIR = ExponentPair(2, (0, 2), (0, 2))


def test_decode_retry_recovers_from_singular_rows():
    gf13 = PrimeField(13)
    scheme = make_rook_scheme(SPARSE_PAIR, gf13, 4, eval_points=(5, 2, 8, 3))
    inputs = [(scalar(4), scalar(6)), (scalar(2), scalar(11))]
    prods = run_pipeline(scheme, inputs)
    out = rook_decode(prods, scheme)  # first 3 rows singular; x=3 completes the rank
    assert out == direct_products(gf13, inputs)


def test_decode_uses_every_response():
    # Rows of x=5 and x=8 are equal, and so are those of x=1 and x=12: any
    # three of the first four, and so the old single retry, stay singular,
    # but x=2 makes all five rows rank 3.
    gf13 = PrimeField(13)
    scheme = make_rook_scheme(SPARSE_PAIR, gf13, 5, eval_points=(5, 8, 1, 12, 2))
    inputs = [(scalar(4), scalar(6)), (scalar(2), scalar(11))]
    prods = run_pipeline(scheme, inputs)
    assert rook_decode(prods, scheme) == direct_products(gf13, inputs)


def test_decode_singular_after_retry():
    gf13 = PrimeField(13)
    scheme = make_rook_scheme(SPARSE_PAIR, gf13, 4, eval_points=(5, 8, 1, 12))
    inputs = [(scalar(4), scalar(6)), (scalar(2), scalar(11))]
    prods = run_pipeline(scheme, inputs)
    with pytest.raises(SingularAfterRetry):
        rook_decode(prods, scheme)
    with pytest.raises(SingularAfterRetry):
        rook_decode(prods[:3], scheme)  # no spare product to retry with


def test_decode_ignores_products_beyond_threshold():
    scheme = make_rook_scheme(base3_exponents(4), GFM61, 12, rng=rng(51))
    inputs = random_inputs(GFM61, 4, (2, 2, 2), 52)
    prods = run_pipeline(scheme, inputs)
    l = scheme.support.L
    # The first L rows are nonsingular, so every pivot comes from them and
    # the rows beyond are eliminated without being read.
    garbage = FieldMatrix.zeros(2, 2)
    spoiled = prods[:l] + [
        WorkerProduct(worker_id=p.worker_id, x=p.x, e=garbage) for p in prods[l:]
    ]
    assert rook_decode(spoiled, scheme) == direct_products(GFM61, inputs)


def test_decode_counts_gap_powers_per_row_plus_solve():
    # Each of the k rows costs its gap powers plus one product per entry;
    # the solve is counted over all k rows.
    for pair in (base3_exponents(4), behrend_exponents(8)):
        support = sum_support(pair).support
        scheme = make_rook_scheme(pair, GFM61, len(support) + 3, rng=rng(56))
        prods = run_pipeline(scheme, random_inputs(GFM61, pair.n, (1, 2, 1), 57))
        ctr = OpCounter()
        rook_decode(prods, scheme, ctr)
        want = OpCounter()
        rows = []
        for pr in prods:
            row, val = [], 1
            for g in gap_powers(GFM61, support, pr.x, want):
                val = val * g % M61
                row.append(val)
            rows.append(row)
        want.mul_count += len(prods) * len(support)
        solve_linear(GFM61, FieldMatrix.from_rows(rows), [pr.e for pr in prods], want)
        assert ctr.as_dict() == want.as_dict()


def test_decode_is_arrival_order_invariant():
    scheme = make_rook_scheme(base3_exponents(4), GFM61, 9, rng=rng(53))
    inputs = random_inputs(GFM61, 4, (2, 3, 2), 54)
    prods = run_pipeline(scheme, inputs)
    want = direct_products(GFM61, inputs)
    r = rng(55)
    for _ in range(5):
        shuffled = prods[:]
        r.shuffle(shuffled)
        assert rook_decode(shuffled, scheme) == want


@pytest.mark.parametrize(
    "maker,ns",
    [
        (poly_code_exponents, (1, 2, 4, 8, 16)),
        (base3_exponents, (1, 2, 4, 8, 16, 32)),
        (behrend_exponents, (1, 2, 4, 8, 16, 32)),
    ],
)
def test_roundtrip_any_l_subset_m61(maker, ns):
    for n in ns:
        pair = maker(n)
        scheme = make_rook_scheme(pair, GFM61, sum_support(pair).L + 3, rng=rng(1000 + n))
        dims = (2, 2, 2) if n <= 8 else (1, 1, 1)
        inputs = random_inputs(GFM61, n, dims, 2000 + n)
        prods = run_pipeline(scheme, inputs)
        want = direct_products(GFM61, inputs)
        r = rng(3000 + n)
        l = scheme.support.L
        subset = r.sample(prods, l)
        assert rook_decode(subset, scheme) == want


@pytest.mark.parametrize("maker", [poly_code_exponents, base3_exponents, behrend_exponents])
def test_roundtrip_small_field(maker):
    # GF(101) only fits the smaller instances: exponents must stay below 100.
    for n in (1, 2, 4, 8):
        pair = maker(n)
        l = sum_support(pair).L
        if pair.p[-1] + pair.q[-1] >= 100 or l + 2 > 100:
            continue
        scheme = make_rook_scheme(pair, GF101, l + 2, rng=rng(4000 + n))
        inputs = random_inputs(GF101, n, (2, 2, 2), 5000 + n)
        prods = run_pipeline(scheme, inputs)
        want = direct_products(GF101, inputs)
        try:
            assert rook_decode(prods, scheme) == want
        except SingularAfterRetry:
            pytest.skip("small-field draw hit a singular system")


def test_recovery_threshold_values():
    assert worked_scheme().threshold == 3
    poly3 = make_rook_scheme(poly_code_exponents(3), GF101, 9, rng=rng(61))
    assert poly3.threshold == 9
    b4 = behrend_exponents(4, digit_range=3, length=3)
    scheme = make_rook_scheme(b4, GFM61, 12, rng=rng(62))
    assert scheme.threshold == sum_support(b4).L


# --- scheme construction ---------------------------------------------------------


def test_scheme_rejects_non_decodable_pair():
    with pytest.raises(ValueError):
        make_rook_scheme(ExponentPair(3, (0, 1, 2), (0, 1, 2)), GF101, 5, rng=rng(71))


def test_scheme_rejects_bad_eval_points():
    pair = base3_exponents(2)
    with pytest.raises(ValueError):
        make_rook_scheme(pair, GF101, 3, eval_points=(1, 2))
    with pytest.raises(ValueError):
        make_rook_scheme(pair, GF101, 3, eval_points=(1, 2, 2))
    with pytest.raises(ValueError):
        make_rook_scheme(pair, GF101, 3, eval_points=(0, 1, 2))
    with pytest.raises(ValueError):
        make_rook_scheme(pair, GF101, 3)  # no rng and no points


def test_scheme_enforces_field_exponent_bound():
    pair = poly_code_exponents(11)  # max sum 120 >= 100
    with pytest.raises(ValueError):
        make_rook_scheme(pair, GF101, 5, rng=rng(72))


def test_scheme_random_points_are_distinct_nonzero():
    scheme = make_rook_scheme(base3_exponents(8), GFM61, 40, rng=rng(73))
    assert len(set(scheme.eval_points)) == 40
    assert all(x != 0 for x in scheme.eval_points)


def test_worker_product_json_roundtrip():
    prod = WorkerProduct(worker_id=3, x=12345678901234567890 % M61, e=scalar(7))
    d = prod.to_json_dict()
    assert d["worker"] == 3
    assert isinstance(d["x"], str)
    assert WorkerProduct.from_json_dict(d) == prod
