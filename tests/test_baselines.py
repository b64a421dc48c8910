from __future__ import annotations

from itertools import combinations

import pytest

from conftest import direct_products, rng, scalar
from rookbench.baselines import (
    CsaScheme,
    LccScheme,
    ReplicationScheme,
    SchemeDescriptor,
    UncoveredPair,
    csa_decode,
    csa_encode,
    lcc_decode,
    lcc_encode,
    make_csa_scheme,
    make_lcc_scheme,
    scheme_threshold,
)
from rookbench.exponents import base3_exponents
from rookbench.field import M61, FieldMatrix, OpCounter, PrimeField, mat_random
from rookbench.rook import NotEnoughProducts, SingularAfterRetry, power_rows, rook_worker

GF101 = PrimeField(101)
GFM61 = PrimeField(M61)

WORKED_INPUTS = [(scalar(3), scalar(2)), (scalar(5), scalar(7))]


def random_inputs(field, n, dims, seed):
    r = rng(seed)
    rows, inner, cols = dims
    return [
        (mat_random(field, rows, inner, r), mat_random(field, inner, cols, r))
        for _ in range(n)
    ]


def run_workers(field, scheme, inputs, encode):
    return [
        rook_worker(field, encode(scheme, inputs, [w])[0])
        for w in range(len(scheme.eval_points))
    ]


# --- LCC ---------------------------------------------------------------------


def test_lcc_encode_worked_example():
    scheme = make_lcc_scheme(2, GF101, 3, z=(0, 1), eval_points=(2, 3, 4))
    share = lcc_encode(scheme, WORKED_INPUTS, [0])[0]
    assert share.a_tilde.entries == [7]  # A~(x) = 3(1-x) + 5x evaluated at 2
    assert share.b_tilde.entries == [12]  # B~(x) = 2(1-x) + 7x at 2


def test_lcc_anchor_property():
    # A~(z_i) = A_i: evaluating at an anchor returns that input exactly.
    scheme = make_lcc_scheme(3, GFM61, 3, eval_points=(1, 2, 3))
    inputs = random_inputs(GFM61, 3, (2, 2, 2), 81)
    for i in range(3):
        share = lcc_encode(scheme, inputs, [i])[0]
        assert share.a_tilde == inputs[i][0]
        assert share.b_tilde == inputs[i][1]


def test_lcc_single_pair_is_constant():
    scheme = make_lcc_scheme(1, GF101, 3, eval_points=(5, 9, 14))
    inputs = random_inputs(GF101, 1, (2, 2, 2), 82)
    shares = [lcc_encode(scheme, inputs, [w])[0] for w in range(3)]
    assert all(s.a_tilde == inputs[0][0] for s in shares)


def test_lcc_decode_worked_example():
    # Product polynomial (3+2x)(2+5x) = 6 + 19x + 10x^2; evaluations at
    # x = 2, 3, 4 are 84, 52, 40 mod 101 (forward-evaluated here).
    scheme = make_lcc_scheme(2, GF101, 3, z=(0, 1), eval_points=(2, 3, 4))
    prods = run_workers(GF101, scheme, WORKED_INPUTS, lcc_encode)
    want_evals = [(6 + 19 * x + 10 * x * x) % 101 for x in (2, 3, 4)]
    assert [p.e.entries[0] for p in prods] == want_evals == [84, 52, 40]
    out = lcc_decode(prods, scheme)
    assert [m.entries[0] for m in out] == [6, 35]


def test_lcc_decode_errors():
    scheme = make_lcc_scheme(2, GF101, 3, z=(0, 1), eval_points=(2, 3, 4))
    prods = run_workers(GF101, scheme, WORKED_INPUTS, lcc_encode)
    with pytest.raises(NotEnoughProducts):
        lcc_decode(prods[:2], scheme)
    # A repeated response is a dependent row: skipped while 2n-1 distinct x
    # are present, and not enough to decode without them.
    with pytest.raises(SingularAfterRetry):
        lcc_decode([prods[0], prods[0], prods[1]], scheme)
    assert [m.entries[0] for m in lcc_decode([prods[0], prods[0], prods[1], prods[2]], scheme)] == [6, 35]


def test_lcc_roundtrip_any_subset():
    r = rng(83)
    for n in (1, 2, 3, 5, 8, 16):
        scheme = make_lcc_scheme(n, GFM61, 2 * n + 2, rng=r)
        inputs = random_inputs(GFM61, n, (2, 2, 2), 84 + n)
        prods = run_workers(GFM61, scheme, inputs, lcc_encode)
        subset = r.sample(prods, 2 * n - 1)
        assert lcc_decode(subset, scheme) == direct_products(GFM61, inputs)


def test_lcc_anchor_powers_bound_once():
    # A directly built LccScheme computes the anchor powers itself, and a
    # decode reads them rather than rebuilding them.
    scheme = LccScheme(field=GF101, z=(0, 1), eval_points=(2, 3, 4))
    assert scheme.zpows == power_rows(GF101, range(1, 3), (0, 1)) == [[0, 0], [1, 1]]
    prods = run_workers(GF101, scheme, WORKED_INPUTS, lcc_encode)
    assert [m.entries[0] for m in lcc_decode(prods, scheme)] == [6, 35]


def test_lcc_anchor_coincident_eval_points_allowed():
    # Anchors may double as evaluation points for LCC.
    scheme = make_lcc_scheme(2, GF101, 3, z=(1, 2), eval_points=(1, 2, 3))
    inputs = random_inputs(GF101, 2, (1, 1, 1), 85)
    prods = run_workers(GF101, scheme, inputs, lcc_encode)
    assert lcc_decode(prods, scheme) == direct_products(GF101, inputs)


# --- CSA ---------------------------------------------------------------------


def test_csa_single_pair_encoding_is_constant():
    scheme = make_csa_scheme(1, GF101, 4, rng=rng(91))
    inputs = random_inputs(GF101, 1, (2, 2, 2), 92)
    for w in range(4):
        share = csa_encode(scheme, inputs, [w])[0]
        assert share.a_tilde == inputs[0][0]  # f cancels the single pole


def test_csa_encode_worked_example():
    scheme = make_csa_scheme(2, GF101, 1, z=(1, 2), eval_points=(3,))
    a0, a1 = 3, 5
    share = csa_encode(scheme, [(scalar(a0), scalar(2)), (scalar(a1), scalar(7))], [0])[0]
    inv_m2 = pow(101 - 2, 99, 101)  # (1-3)^-1 = 50
    inv_m1 = pow(101 - 1, 99, 101)  # (2-3)^-1 = 100
    assert (inv_m2, inv_m1) == (50, 100)
    f_at_3 = (1 - 3) * (2 - 3) % 101
    assert f_at_3 == 2
    want = f_at_3 * (a0 * inv_m2 + a1 * inv_m1) % 101
    assert share.a_tilde.entries == [want]


def test_csa_pole_guards():
    with pytest.raises(ValueError):
        make_csa_scheme(2, GF101, 2, z=(1, 2), eval_points=(2, 5))
    # The rule lives in CsaScheme itself, so a directly built scheme is held to it too.
    with pytest.raises(ValueError, match="must avoid the anchors"):
        CsaScheme(field=GF101, z=(1, 2), eval_points=(1, 7))


def test_csa_residues_closed_form():
    scheme = make_csa_scheme(2, GF101, 3, z=(1, 2), eval_points=(3, 4, 5))
    z0, z1 = 1, 2
    assert scheme.residues == ((z1 - z0) % 101, (z0 - z1) % 101)


def eval_poly(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def fit_poly(xs, ys, p):
    """Lagrange interpolation in coefficient form (small, test-only)."""
    k = len(xs)
    coeffs = [0] * k
    for i in range(k):
        num = [1]
        den = 1
        for j in range(k):
            if j == i:
                continue
            num = [
                ((num[t - 1] if t else 0) - xs[j] * (num[t] if t < len(num) else 0)) % p
                for t in range(len(num) + 1)
            ]
            den = den * (xs[i] - xs[j]) % p
        scale = ys[i] * pow(den, p - 2, p) % p
        for t, c in enumerate(num):
            coeffs[t] = (coeffs[t] + scale * c) % p
    return coeffs


def test_csa_partial_fraction_identity():
    # A~(x) B~(x) - sum_i c_i A_i B_i / (z_i - x) must be one polynomial of
    # degree <= n-2: fit it on n-1 probes, then validate on fresh probes.
    # This is the oracle that pins the residues c_i = prod_{k!=i}(z_k - z_i).
    p = M61
    fld = GFM61
    r = rng(93)
    for n in (2, 3, 4):
        probes = fld.distinct_nonzero(r, 3 * n, exclude=range(1, n + 1))
        scheme = make_csa_scheme(n, fld, 3 * n, eval_points=tuple(probes))
        inputs = random_inputs(fld, n, (1, 1, 1), 94 + n)
        ab = [a.entries[0] * b.entries[0] % p for a, b in inputs]
        g_vals = []
        for w, x in enumerate(probes):
            share = csa_encode(scheme, inputs, [w])[0]
            prod = share.a_tilde.entries[0] * share.b_tilde.entries[0] % p
            pole_part = sum(
                c * v % p * pow((z - x) % p, p - 2, p)
                for c, v, z in zip(scheme.residues, ab, scheme.z)
            ) % p
            g_vals.append((prod - pole_part) % p)
        coeffs = fit_poly(probes[: n - 1], g_vals[: n - 1], p)
        for x, want in zip(probes[n - 1 :], g_vals[n - 1 :]):
            assert eval_poly(coeffs, x, p) == want


def test_csa_roundtrip_any_subset():
    r = rng(95)
    for n in (1, 2, 3, 5, 8, 16):
        scheme = make_csa_scheme(n, GFM61, 2 * n + 2, rng=r)
        inputs = random_inputs(GFM61, n, (2, 2, 2), 96 + n)
        prods = run_workers(GFM61, scheme, inputs, csa_encode)
        subset = r.sample(prods, 2 * n - 1)
        assert csa_decode(subset, scheme) == direct_products(GFM61, inputs)


def test_csa_single_pair_decode():
    scheme = make_csa_scheme(1, GF101, 2, z=(9,), eval_points=(3, 4))
    inputs = [(scalar(6), scalar(7))]
    prods = run_workers(GF101, scheme, inputs, csa_encode)
    assert csa_decode(prods[:1], scheme) == direct_products(GF101, inputs)


@pytest.mark.parametrize("make", [make_lcc_scheme, make_csa_scheme])
def test_anchor_count_checked_before_distinctness(make):
    with pytest.raises(ValueError, match="expected 3 anchors, got 2"):
        make(3, GF101, 5, z=(1, 2))
    with pytest.raises(ValueError, match="anchors must be pairwise distinct"):
        make(2, GF101, 5, z=(1, 102))


@pytest.mark.parametrize("make", [make_lcc_scheme, make_csa_scheme])
def test_anchor_at_zero_leaves_the_nonzero_points_free(make):
    # GF(5) has four nonzero points; with anchors 0 (written 0 or 5) and 1,
    # the three workers take the other three.
    for z in ((0, 1), (5, 1)):
        scheme = make(2, PrimeField(5), 3, rng=rng(0), z=z)
        assert sorted(scheme.eval_points) == [2, 3, 4]


@pytest.mark.parametrize("make", [make_lcc_scheme, make_csa_scheme])
def test_explicit_eval_points_must_number_m(make):
    with pytest.raises(ValueError, match="expected 5 eval points, got 3"):
        make(2, GF101, 5, eval_points=(3, 4, 5))
    with pytest.raises(ValueError, match="expected 2 eval points, got 3"):
        make(2, GF101, 2, eval_points=(3, 4, 5))


# --- division accounting -------------------------------------------------------


def test_rook_paths_are_division_free():
    from rookbench.rook import make_rook_scheme, rook_decode, rook_encode_share

    scheme = make_rook_scheme(base3_exponents(4), GFM61, 12, rng=rng(97))
    inputs = random_inputs(GFM61, 4, (2, 2, 2), 98)
    ctr = OpCounter()
    prods = [
        rook_worker(GFM61, rook_encode_share(scheme, inputs, [w], ctr)[0], ctr)
        for w in range(12)
    ]
    assert ctr.inv_count == 0  # encode and worker never divide
    dctr = OpCounter()
    rook_decode(prods, scheme, dctr)
    assert dctr.inv_count > 0  # decoding is where rook pays its divisions


@pytest.mark.parametrize("n", [2, 4, 8])
def test_lcc_and_csa_encode_must_divide(n):
    lcc = make_lcc_scheme(n, GFM61, 1, rng=rng(99))
    csa = make_csa_scheme(n, GFM61, 1, rng=rng(99))
    inputs = random_inputs(GFM61, n, (2, 2, 2), 100 + n)
    lctr = OpCounter()
    lcc_encode(lcc, inputs, [0], lctr)
    cctr = OpCounter()
    csa_encode(csa, inputs, [0], cctr)
    assert lctr.inv_count >= n - 1
    assert cctr.inv_count >= n - 1


# --- replication ----------------------------------------------------------------


def replicate(inputs, alive_workers):
    """Every alive worker multiplies its pair; decode keeps each pair's first product."""
    scheme = ReplicationScheme(n=len(inputs), lam=2)
    return scheme.decode([rook_worker(GF101, scheme.encode(inputs, [w])[0]) for w in alive_workers])


def test_replication_same_pair_kill_fails():
    inputs = random_inputs(GF101, 2, (2, 2, 2), 103)
    # workers 0..3 handle pairs (0, 1, 0, 1); killing {0, 2} orphans pair 0
    with pytest.raises(UncoveredPair):
        replicate(inputs, [1, 3])


def test_replication_cross_pair_kill_succeeds():
    inputs = random_inputs(GF101, 2, (2, 2, 2), 104)
    out = replicate(inputs, [1, 2])
    assert out == direct_products(GF101, inputs)


def test_replication_no_kill():
    inputs = random_inputs(GF101, 2, (2, 2, 2), 105)
    out = replicate(inputs, range(4))
    assert out == direct_products(GF101, inputs)


def test_replication_adversarial_structure_exhaustive():
    # n=2, lambda=2, m=4: some 2-subset of failures is fatal, no 1-subset is.
    inputs = random_inputs(GF101, 2, (1, 1, 1), 106)
    fatal = []
    for kill in combinations(range(4), 2):
        alive = [w for w in range(4) if w not in kill]
        try:
            replicate(inputs, alive)
        except UncoveredPair:
            fatal.append(kill)
    assert fatal == [(0, 2), (1, 3)]
    for kill in combinations(range(4), 1):
        alive = [w for w in range(4) if w not in kill]
        assert replicate(inputs, alive) == direct_products(GF101, inputs)


# --- descriptors ----------------------------------------------------------------


def test_scheme_threshold_examples():
    assert scheme_threshold(SchemeDescriptor(scheme="lcc", n=5)) == 9
    assert scheme_threshold(SchemeDescriptor(scheme="csa", n=1)) == 1
    assert scheme_threshold(SchemeDescriptor(scheme="replication", n=2, lam=2)) == 3
    assert scheme_threshold(SchemeDescriptor(scheme="rook-poly", n=3)) == 9
    assert scheme_threshold(SchemeDescriptor(scheme="rook-base3", n=2)) == 3


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SchemeDescriptor(scheme="magic", n=2)
    with pytest.raises(ValueError):
        SchemeDescriptor(scheme="replication", n=2)  # lambda required
    with pytest.raises(ValueError):
        SchemeDescriptor(scheme="lcc", n=0)


def test_replication_scheme_threshold_formula():
    for n in (1, 2, 5):
        for lam in (1, 2, 4):
            s = ReplicationScheme(n=n, lam=lam)
            assert s.threshold == lam * n - lam + 1
            assert s.m == lam * n
