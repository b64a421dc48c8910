"""Batched encoders against per-share reference encoders.

Each scheme encodes all the shares of an op in one call.  The references
below encode one worker's share at a time, one mat_lincomb per side; the
batched encoders must give the same shares, in the order of the worker
list, and the same op counts.
"""

from __future__ import annotations

import pytest

from conftest import rng
from rookbench.baselines import (
    ReplicationScheme,
    _lagrange_basis,
    csa_encode,
    lcc_encode,
    make_csa_scheme,
    make_lcc_scheme,
)
from rookbench.exponents import base3_exponents, behrend_exponents, poly_code_exponents
from rookbench.field import M61, OpCounter, PrimeField, mat_lincomb, mat_random
from rookbench.rook import WorkerShare, make_rook_scheme, rook_encode_share


def reference_rook_share(scheme, inputs, worker_id, counter=None):
    pair = scheme.pair
    x = scheme.eval_points[worker_id]
    field = scheme.field
    p = field.modulus
    a_tilde = mat_lincomb(field, [pow(x, e, p) for e in pair.p], [a for a, _ in inputs], counter)
    b_tilde = mat_lincomb(field, [pow(x, e, p) for e in pair.q], [b for _, b in inputs], counter)
    if counter is not None:
        counter.mul_count += scheme.delta
    return WorkerShare(worker_id=worker_id, x=x, a_tilde=a_tilde, b_tilde=b_tilde)


def reference_lcc_share(scheme, inputs, worker_id, counter=None):
    field = scheme.field
    x = scheme.eval_points[worker_id]
    basis = _lagrange_basis(field, scheme.z, x, counter)
    a = mat_lincomb(field, basis, [a for a, _ in inputs], counter)
    b = mat_lincomb(field, basis, [b for _, b in inputs], counter)
    return WorkerShare(worker_id=worker_id, x=x, a_tilde=a, b_tilde=b)


def reference_csa_share(scheme, inputs, worker_id, counter=None):
    field = scheme.field
    p = field.modulus
    x = scheme.eval_points[worker_id]
    invs = [field.inv((zi - x) % p, counter) for zi in scheme.z]
    f = (scheme.z[0] - x) % p
    for zi in scheme.z[1:]:
        f = f * (zi - x) % p
    if counter is not None:
        counter.mul_count += scheme.n - 1
    a = mat_lincomb(field, invs, [a for a, _ in inputs], counter)
    b = mat_lincomb(field, invs, [b for _, b in inputs], counter)
    a = mat_lincomb(field, [f], [a], counter)
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
