from __future__ import annotations

from itertools import combinations

import pytest

from conftest import (
    direct_products,
    from_rows,
    gap_powers,
    identity,
    interpolation_charge,
    random_inputs,
    rng,
    scalar,
    zeros,
)
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
    bind_points,
    encode_delta,
    make_rook_scheme,
    power_rows,
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
    assert encode_delta(ExponentPair(4, (0, 2, 3, 11), (0, 2, 3, 11))) == 2 * 4
    assert encode_delta(ExponentPair(2, (5, 6), (0, 1))) == 3 + 0 + 0 + 0


def test_encode_delta_matches_square_and_multiply_oracle():
    for maker in (poly_code_exponents, base3_exponents, behrend_exponents):
        for n in (1, 2, 3, 5, 8, 13, 16, 31, 64):
            pair = maker(n)
            want = OpCounter()
            gap_powers(GFM61, pair.p, 2, want)
            gap_powers(GFM61, pair.q, 2, want)
            assert encode_delta(pair) == want.mul_count, (maker.__name__, n)
            scheme = make_rook_scheme(pair, GFM61, 1, eval_points=(3,))
            assert scheme.delta == want.mul_count


def test_power_rows_are_running_products_of_gap_powers():
    assert power_rows(GF101, (0, 2, 3), [2, 5]).tolist() == [[1, 4, 8], [1, 25, 24]]
    assert power_rows(GF101, (1, 1, 4), [3]).tolist() == [[3, 3, 81]]  # a zero gap repeats
    assert power_rows(GF101, (), [3, 4]).tolist() == [[], []]
    assert power_rows(GF101, (0, 1), []).tolist() == []
    exps = (0, 4, 6, 30, 99)
    for x in (0, 1, 7, 100):
        assert power_rows(GF101, exps, [x]).tolist() == [[pow(x, e, 101) for e in exps]]


def test_power_rows_count_gap_powers_plus_products_after_the_first():
    ctr = OpCounter()
    power_rows(GFM61, (0, 2, 3, 11), [7, 9, 11], ctr)
    # gap powers 0 + 1 + 0 + 3 and 3 running products per row
    assert (ctr.mul_count, ctr.inv_count) == (3 * 7, 0)
    for exps, want in ((range(5), 2 * 4), (range(1), 0), (range(0), 0)):
        ctr = OpCounter()
        power_rows(GFM61, exps, [3, 4], ctr)
        assert ctr.mul_count == want


def test_power_rows_reject_decreasing_exponents():
    for exps in ((0, 3, 2), (-1, 2)):
        with pytest.raises(ValueError):
            power_rows(GF101, exps, [2])


# --- encoding -------------------------------------------------------------------


def test_encode_worked_example():
    scheme = worked_scheme()
    share = rook_encode_share(scheme, WORKED_INPUTS, [1])[0]
    assert share.x == 2
    assert share.a_tilde.entries == [13]  # 3 + 5*2
    assert share.b_tilde.entries == [16]  # 2 + 7*2


def test_encode_single_pair():
    pair = ExponentPair(1, (0,), (0,))
    scheme = make_rook_scheme(pair, GF101, 1, eval_points=(7,))
    a0 = from_rows([[1, 2], [3, 4]])
    b0 = from_rows([[5], [6]])
    share = rook_encode_share(scheme, [(a0, b0)], [0])[0]
    assert share.a_tilde == a0  # p_0 = 0: the constant term survives
    pair2 = ExponentPair(1, (2,), (0,))
    scheme2 = make_rook_scheme(pair2, GF101, 1, eval_points=(3,))
    share2 = rook_encode_share(scheme2, [(a0, b0)], [0])[0]
    assert share2.a_tilde.entries == [(9 * v) % 101 for v in a0.entries]


def test_encode_at_zero_keeps_constant_term():
    # 0 is barred from eval points, but the encoding itself is sound there:
    # only the exponent-zero term survives.
    pair = base3_exponents(2)
    scheme = RookScheme(
        pair=pair, support=sum_support(pair), field=GF101, eval_points=(0, 5)
    )
    share = rook_encode_share(scheme, WORKED_INPUTS, [0])[0]
    assert share.a_tilde.entries == [3]
    assert share.b_tilde.entries == [2]


def test_encode_rejects_ragged_inputs():
    scheme = worked_scheme()
    bad = [(scalar(3), scalar(2)), (from_rows([[1, 2]]), scalar(7))]
    with pytest.raises(DimensionMismatch):
        rook_encode_share(scheme, bad, [0])
    with pytest.raises(DimensionMismatch):
        rook_encode_share(scheme, WORKED_INPUTS[:1], [0])


def test_inner_dimension_mismatch_raises_when_the_worker_multiplies():
    # The encoder leaves A.cols == B.rows to the worker's mat_mul.
    scheme = worked_scheme()
    a = from_rows([[1, 2]])
    share = rook_encode_share(scheme, [(a, scalar(3)), (a, scalar(4))], [0])[0]
    with pytest.raises(DimensionMismatch):
        rook_worker(GF101, share)


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
            rook_encode_share(scheme, inputs, [w], ctr)
            delta = OpCounter()
            gap_powers(GFM61, pair.p, scheme.eval_points[w], delta)
            gap_powers(GFM61, pair.q, scheme.eval_points[w], delta)
            bound = delta.mul_count + (rows + cols) * inner * pair.n
            assert ctr.mul_count == bound
            assert ctr.inv_count == 0


# --- worker ---------------------------------------------------------------------


def test_worker_continues_worked_example():
    scheme = worked_scheme()
    share = rook_encode_share(scheme, WORKED_INPUTS, [1])[0]
    prod = rook_worker(GF101, share)
    assert prod.e.entries == [6]  # 13 * 16 mod 101


def test_worker_identity_and_zero():
    from rookbench.rook import WorkerShare

    ident = identity(3)
    b = mat_random(GF101, 3, 2, rng(41))
    share = WorkerShare(worker_id=0, x=1, a_tilde=ident, b_tilde=b)
    assert rook_worker(GF101, share).e == b
    zero = zeros(3, 3)
    share0 = WorkerShare(worker_id=0, x=1, a_tilde=zero, b_tilde=b)
    assert rook_worker(GF101, share0).e == zeros(3, 2)


def test_worker_counts_schoolbook_muls():
    scheme = make_rook_scheme(base3_exponents(2), GFM61, 3, rng=rng(42))
    inputs = random_inputs(GFM61, 2, (3, 4, 5), 43)
    share = rook_encode_share(scheme, inputs, [0])[0]
    ctr = OpCounter()
    rook_worker(GFM61, share, ctr)
    assert ctr.mul_count == 3 * 4 * 5
    assert ctr.inv_count == 0


# --- decoding -------------------------------------------------------------------


def run_pipeline(scheme, inputs, worker_ids=None):
    ids = range(len(scheme.eval_points)) if worker_ids is None else worker_ids
    return [
        rook_worker(scheme.field, rook_encode_share(scheme, inputs, [w])[0]) for w in ids
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


def test_singular_decode_charges_completed_columns():
    # Rows [1, x^2, x^4] for x = 5, 8, 1, 12 have rank 2: the solve pivots
    # columns 0 and 1, finds no pivot in column 2, and is charged for the two
    # columns it completed on top of the row-building muls.
    gf13 = PrimeField(13)
    scheme = make_rook_scheme(SPARSE_PAIR, gf13, 4, eval_points=(5, 8, 1, 12))
    prods = run_pipeline(scheme, [(scalar(4), scalar(6)), (scalar(2), scalar(11))])
    support = scheme.support.support
    rows = OpCounter()
    power_rows(gf13, support, [pr.x for pr in prods], rows)
    ctr = OpCounter()
    with pytest.raises(SingularAfterRetry):
        rook_decode(prods, scheme, ctr)
    assert ctr.mul_count > rows.mul_count
    assert ctr.inv_count == 2


def test_decode_ignores_products_beyond_threshold():
    scheme = make_rook_scheme(base3_exponents(4), GFM61, 12, rng=rng(51))
    inputs = random_inputs(GFM61, 4, (2, 2, 2), 52)
    prods = run_pipeline(scheme, inputs)
    l = scheme.support.L
    # The first L rows are nonsingular, so every pivot comes from them and
    # the rows beyond are eliminated without being read.
    garbage = zeros(2, 2)
    spoiled = prods[:l] + [
        WorkerProduct(worker_id=p.worker_id, x=p.x, e=garbage) for p in prods[l:]
    ]
    assert rook_decode(spoiled, scheme) == direct_products(GFM61, inputs)


def test_decode_counts_gap_powers_per_row_plus_solve():
    # behrend(8)'s support is not an interval: each of the k rows costs its
    # gap powers plus one product per entry after the first, and the solve
    # is counted over all k rows.  base3(4)'s is 0..L-1: the first L
    # products are interpolated, charged interpolation_weights' formula for
    # the n diagonal coefficients plus one mat_lincombs of n rows over L
    # 1x1 blocks.
    for pair in (base3_exponents(4), behrend_exponents(8)):
        support = sum_support(pair).support
        scheme = make_rook_scheme(pair, GFM61, len(support) + 3, rng=rng(56))
        prods = run_pipeline(scheme, random_inputs(GFM61, pair.n, (1, 2, 1), 57))
        ctr = OpCounter()
        rook_decode(prods, scheme, ctr)
        if support[-1] == len(support) - 1:
            L = len(support)
            muls, invs = interpolation_charge(L, pair.n)
            assert (ctr.mul_count, ctr.inv_count) == (muls + pair.n * L, invs)
            continue
        want = OpCounter()
        rows = []
        for pr in prods:
            row, val = [], 1
            for g in gap_powers(GFM61, support, pr.x, want):
                val = val * g % M61
                row.append(val)
            rows.append(row)
        want.mul_count += len(prods) * (len(support) - 1)
        solve_linear(GFM61, from_rows(rows), [pr.e for pr in prods], want)
        assert (ctr.mul_count, ctr.inv_count) == (want.mul_count, want.inv_count)


@pytest.mark.parametrize(
    "pair",
    [poly_code_exponents(2), poly_code_exponents(3), base3_exponents(2), base3_exponents(4)],
    ids=["poly2", "poly3", "base3-2", "base3-4"],
)
def test_interval_support_decodes_every_l_subset_on_its_first_call(pair):
    # Over GF(13), whose 12 nonzero points all serve, every L of them make
    # a Vandermonde system: one decode call recovers the products and
    # inverts once per point.
    gf13 = PrimeField(13)
    scheme = make_rook_scheme(pair, gf13, 12, eval_points=range(1, 13))
    L = scheme.support.L
    assert scheme.support.support == tuple(range(L))
    inputs = random_inputs(gf13, pair.n, (1, 2, 1), 58)
    prods = run_pipeline(scheme, inputs)
    want = direct_products(gf13, inputs)
    for subset in combinations(prods, L):
        ctr = OpCounter()
        assert rook_decode(list(subset), scheme, ctr) == want
        assert ctr.inv_count == L


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


def test_bind_points_draws_off_exclusions_or_checks_explicit_points():
    drawn = bind_points(PrimeField(11), 7, rng(74), exclude=(1, 2, 3))
    assert sorted(drawn) == list(range(4, 11))
    assert bind_points(GF101, 3, None, (102, -1, 0)) == (1, 100, 0)
    with pytest.raises(ValueError, match="pairwise distinct"):
        bind_points(GF101, 2, None, (1, 102))  # distinct only before reduction
