"""Batched encoders against per-share reference encoders.

Each scheme encodes all the shares of an op in one call, one generator-
matrix product per side through rook.generator_shares.  The references
below encode one worker's share at a time, a one-row mat_lincombs per
side; the batched encoders must give the same shares, in the order of the
worker list, and the same op counts.  CSA's reference folds f(x) into its A row,
as csa_encode does; a value-only check against rescaling the finished
sum by f(x) shows that the fold changes no share.
"""

from __future__ import annotations

import math

import pytest

from conftest import rng
from rookbench import baselines, rook
from rookbench.baselines import (
    ReplicationScheme,
    SchemeDescriptor,
    _lagrange_basis,
    bind_scheme,
    csa_encode,
    lcc_encode,
    make_csa_scheme,
    make_lcc_scheme,
    scheme_threshold,
)
from rookbench.exponents import base3_exponents, behrend_exponents, poly_code_exponents
from rookbench.field import M61, OpCounter, PrimeField, mat_lincombs, mat_random, power_table
from rookbench.rook import WorkerShare, make_rook_scheme, rook_encode_share
from rookbench.sim import FaultModel, SimConfig, run_simulation


def reference_rook_share(scheme, inputs, worker_id, counter=None):
    pair = scheme.pair
    x = scheme.eval_points[worker_id]
    field = scheme.field
    p = field.modulus
    a_tilde = mat_lincombs(field, [[pow(x, e, p) for e in pair.p]], [a for a, _ in inputs], counter)[0]
    b_tilde = mat_lincombs(field, [[pow(x, e, p) for e in pair.q]], [b for _, b in inputs], counter)[0]
    if counter is not None:
        counter.mul_count += scheme.delta
    return WorkerShare(worker_id=worker_id, x=x, a_tilde=a_tilde, b_tilde=b_tilde)


def reference_lcc_share(scheme, inputs, worker_id, counter=None):
    field = scheme.field
    x = scheme.eval_points[worker_id]
    basis = _lagrange_basis(field, scheme.z, x, counter)
    a = mat_lincombs(field, [basis], [a for a, _ in inputs], counter)[0]
    b = mat_lincombs(field, [basis], [b for _, b in inputs], counter)[0]
    return WorkerShare(worker_id=worker_id, x=x, a_tilde=a, b_tilde=b)


def reference_csa_share(scheme, inputs, worker_id, counter=None):
    field = scheme.field
    p = field.modulus
    x = scheme.eval_points[worker_id]
    invs = [pow((zi - x) % p, -1, p) for zi in scheme.z]
    f = (scheme.z[0] - x) % p
    for zi in scheme.z[1:]:
        f = f * (zi - x) % p
    if counter is not None:
        counter.mul_count += 2 * scheme.n - 1
        counter.inv_count += scheme.n
    a = mat_lincombs(field, [[f * c % p for c in invs]], [a for a, _ in inputs], counter)[0]
    b = mat_lincombs(field, [invs], [b for _, b in inputs], counter)[0]
    return WorkerShare(worker_id=worker_id, x=x, a_tilde=a, b_tilde=b)


def reference_replication_share(scheme, inputs, worker_id, counter=None):
    i = scheme.assignment(worker_id)
    a, b = inputs[i]
    return WorkerShare(worker_id=worker_id, x=i, a_tilde=a, b_tilde=b)


def worker_lists(m, r):
    """Every worker in shuffled order, a partial shuffled list, one worker
    and none."""
    everyone = list(range(m))
    r.shuffle(everyone)
    return [everyone, r.sample(range(m), m // 2), [m - 1], []]


def random_inputs(field, n, dims, r):
    rows, inner, cols = dims
    return [(mat_random(field, rows, inner, r), mat_random(field, inner, cols, r)) for _ in range(n)]


def assert_batch_matches(batched, reference, scheme, inputs, workers):
    ctr = OpCounter()
    got = batched(scheme, inputs, workers, ctr)
    want_ctr = OpCounter()
    want = [reference(scheme, inputs, w, want_ctr) for w in workers]
    assert got == want
    assert (ctr.mul_count, ctr.inv_count) == (want_ctr.mul_count, want_ctr.inv_count)
    return ctr


# 2x2x2 blocks keep every generator-matrix product below NUMPY_MIN_MULS;
# 4x4x4 with 20-odd workers puts it on the numpy path.
DIMS = [(2, 2, 2), (4, 4, 4), (3, 2, 5)]
MODULI = [M61, 257, 18446744073709551557]


@pytest.mark.parametrize("modulus", MODULI)
@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("maker", [poly_code_exponents, base3_exponents, behrend_exponents])
def test_rook_batched_encode_matches_per_share(maker, dims, modulus):
    field = PrimeField(modulus)
    r = rng(modulus % 1000 + dims[0])
    pair = maker(4)
    scheme = make_rook_scheme(pair, field, 24, rng=r)
    inputs = random_inputs(field, pair.n, dims, r)
    for workers in worker_lists(24, r):
        ctr = assert_batch_matches(rook_encode_share, reference_rook_share, scheme, inputs, workers)
        rows, inner, cols = dims
        assert ctr.mul_count == len(workers) * (scheme.delta + (rows + cols) * inner * pair.n)
        assert ctr.inv_count == 0
        assert scheme.encode(inputs, workers) == rook_encode_share(scheme, inputs, workers)


@pytest.mark.parametrize("scheme_name, tables", [("rook-base3", 1), ("rook-behrend", 1), ("rook-poly", 2)])
def test_rook_encode_builds_one_power_table_when_q_equals_p(scheme_name, tables, monkeypatch):
    # A bound pair is normalized into new tuples, so base3's and behrend's
    # Q equals P by value only; their shares are those of two tables.
    field = PrimeField(M61)
    r = rng(61)
    scheme = bind_scheme(SchemeDescriptor(scheme=scheme_name, n=4), field, 24, r)
    pair = scheme.pair
    assert pair.q is not pair.p and (pair.q == pair.p) == (tables == 1)
    inputs = random_inputs(field, pair.n, (2, 3, 2), r)
    calls = []
    original = rook.power_table

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rook, "power_table", counted)
    for workers in worker_lists(24, r):
        xs = [scheme.eval_points[w] for w in workers]
        rows_a, rows_b = power_table(M61, pair.p, xs), power_table(M61, pair.q, xs)
        want = rook.generator_shares(field, workers, xs, rows_a, rows_b, inputs)
        calls.clear()
        assert rook_encode_share(scheme, inputs, workers) == want
        assert len(calls) == tables


@pytest.mark.parametrize("modulus", MODULI)
@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize(
    "make, batched, reference",
    [(make_lcc_scheme, lcc_encode, reference_lcc_share), (make_csa_scheme, csa_encode, reference_csa_share)],
    ids=["lcc", "csa"],
)
def test_baseline_batched_encode_matches_per_share(make, batched, reference, dims, modulus):
    field = PrimeField(modulus)
    r = rng(modulus % 1000 + dims[2])
    for n in (1, 4):
        scheme = make(n, field, 22, rng=r)
        inputs = random_inputs(field, n, dims, r)
        for workers in worker_lists(22, r):
            assert_batch_matches(batched, reference, scheme, inputs, workers)
            assert scheme.encode(inputs, workers) == batched(scheme, inputs, workers)


def test_replication_batched_encode_matches_per_share():
    field = PrimeField(101)
    r = rng(40)
    scheme = ReplicationScheme(n=3, lam=2)
    inputs = random_inputs(field, 3, (2, 2, 2), r)
    for workers in worker_lists(scheme.m, r):
        ctr = assert_batch_matches(
            ReplicationScheme.encode, reference_replication_share, scheme, inputs, workers
        )
        assert (ctr.mul_count, ctr.inv_count) == (0, 0)


@pytest.mark.parametrize("modulus", MODULI)
@pytest.mark.parametrize("dims", DIMS)
def test_csa_folded_rows_give_the_rescaled_shares(dims, modulus):
    # The unfolded form: the sum of A_i/(z_i - x), then the whole matrix
    # times f(x).  Values only; the counts differ by design.
    field = PrimeField(modulus)
    p = field.modulus
    r = rng(modulus % 1000 + dims[1])
    for n in (1, 2, 4):
        scheme = make_csa_scheme(n, field, 22, rng=r)
        inputs = random_inputs(field, n, dims, r)
        for share in csa_encode(scheme, inputs, range(22)):
            invs = [pow(zi - share.x, -1, p) for zi in scheme.z]
            f = math.prod(zi - share.x for zi in scheme.z) % p
            sums = mat_lincombs(field, [invs], [a for a, _ in inputs])[0]
            assert share.a_tilde == mat_lincombs(field, [[f]], [sums])[0]
            assert share.b_tilde == mat_lincombs(field, [invs], [b for _, b in inputs])[0]


@pytest.mark.parametrize("modulus", [257, M61], ids=["p257", "m61"])
@pytest.mark.parametrize("encode_at", ["master", "workers"])
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (4, 3, 2)])
@pytest.mark.parametrize("scheme", ["lcc", "csa"])
def test_baseline_encode_count_identities(scheme, dims, encode_at, modulus):
    # rows * inner is below, equal to and above n = 4 across the three
    # shapes.  Per share: LCC's Lagrange bases cost n(2n - 1) muls, CSA's
    # f(x) and its A row 2n - 1; both pay n inversions, plus the two
    # generator-matrix products, n * inner * (rows + cols).
    rows, inner, cols = dims
    fault = FaultModel(fail_prob=0.3, straggle_mean=1.0)
    encoded = []
    for n in (1, 2, 4, 8):
        desc = SchemeDescriptor(scheme=scheme, n=n)
        m = scheme_threshold(desc) + 2
        config = SimConfig(desc, m, dims, seed=n, encode_at=encode_at, fault=fault, modulus=modulus)
        report = run_simulation(config)
        shares = m if encode_at == "master" else m - len(report.failed_workers)
        scalar = n * (2 * n - 1) if scheme == "lcc" else 2 * n - 1
        assert report.encode_muls == shares * (scalar + n * inner * (rows + cols)), n
        assert report.encode_invs == shares * n, n
        encoded.append(shares < m)
    # When workers encode, failed workers are charged nothing.
    assert any(encoded) == (encode_at == "workers")


@pytest.mark.parametrize(
    "make",
    [
        lambda field, r: make_rook_scheme(base3_exponents(4), field, 22, rng=r),
        lambda field, r: make_lcc_scheme(4, field, 22, rng=r),
        lambda field, r: make_csa_scheme(4, field, 22, rng=r),
    ],
    ids=["rook", "lcc", "csa"],
)
def test_each_coded_encoder_makes_one_product_per_side(make, monkeypatch):
    field = PrimeField(M61)
    r = rng(53)
    scheme = make(field, r)
    inputs = random_inputs(field, 4, (2, 2, 2), r)
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for module, name in [
        (rook, "generator_shares"),
        (rook, "mat_lincombs"),
        (baselines, "generator_shares"),
        (baselines, "mat_lincombs"),
    ]:
        spy(module, name)
    for workers in worker_lists(22, r):
        calls.clear()
        scheme.encode(inputs, workers)
        # generator_shares, looked up in the encoder's module, then its two
        # products; no encoder makes a product of its own.
        assert len(calls) == 3 and calls[0].endswith(".generator_shares"), calls
        assert calls[1:] == ["rookbench.rook.mat_lincombs"] * 2, calls
