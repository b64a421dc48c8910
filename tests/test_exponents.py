from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from conftest import naive_min_recovery, rng
from rookbench import exponents
from rookbench.baselines import SchemeDescriptor, rook_exponents_for
from rookbench.exponents import (
    ExponentPair,
    ParameterSearchExhausted,
    SearchBudgetExceeded,
    base3_exponents,
    behrend_exponents,
    is_3ap_free,
    is_decodable,
    min_recovery_bruteforce,
    poly_code_exponents,
    sum_support,
)
from rookbench.exponents import _first_viable, _smallest_shell_values, _sumset, _ways_table


# --- oracles ----------------------------------------------------------------


def decodable_triple_loop(pair: ExponentPair) -> bool:
    """Literal statement of the decodability property, O(n^3)."""
    n = pair.n
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if pair.p[k] + pair.q[k] == pair.p[i] + pair.q[j] and (i, j) != (k, k):
                    return False
    return True


def support_bruteforce(pair: ExponentPair):
    return sorted({pi + qj for pi in pair.p for qj in pair.q})


@lru_cache(maxsize=None)
def shell_sizes(d: int, length: int) -> tuple:
    """counts[k] = number of vectors in {0..d-1}^length with sum of squares k."""
    squares = [v * v for v in range(d)]
    counts = [1]
    for _ in range(length):
        nxt = [0] * (len(counts) + squares[-1])
        for r, c in enumerate(counts):
            if c:
                for s in squares:
                    nxt[r + s] += c
        counts = nxt
    return tuple(counts)


@lru_cache(maxsize=None)
def largest_shell(d: int, length: int) -> tuple:
    """(norm, size) of the largest shell; ties keep the smallest norm."""
    sizes = shell_sizes(d, length)
    return sizes.index(max(sizes)), max(sizes)


@lru_cache(maxsize=None)
def shell_values(d: int, length: int, norm: int) -> list:
    """Base-(2d-1) values of all norm-`norm` vectors of {0..d-1}^length, sorted."""
    base = 2 * d - 1
    return sorted(
        sum(digit * base**pos for pos, digit in enumerate(vec))
        for vec in product(range(d), repeat=length)
        if sum(digit * digit for digit in vec) == norm
    )


def behrend_linear_scan(n: int):
    """The digit-shell search as a walk over every d from d_lo, in pure Python.

    Same bounds and score as behrend_exponents, or None where it finds no
    candidate; the shell is enumerated by brute force.  The shell helpers are
    cached across calls, which changes no result.
    """
    best = None
    log2n = math.log2(n) if n > 1 else 1.0
    max_len = max(math.ceil(2 * math.sqrt(log2n)) + 2, math.ceil(log2n) + 4)
    for ell in range(2, max_len + 1):
        d_lo = max(2, math.ceil(n ** (1.0 / ell)))
        d_hi = max(d_lo, int((2e7 / (ell * ell)) ** (1.0 / 3.0)))
        for d in range(d_lo, d_hi + 1):
            if (2 * d - 1) ** ell - 1 > exponents._VALUE_CAP:
                break
            norm, size = largest_shell(d, ell)
            if size < n:
                continue
            vals = shell_values(d, ell, norm)[:n]
            key = (len({a + b for a in vals for b in vals}), vals[-1], ell, d)
            if best is None or key < best[0]:
                best = (key, vals)
            break
    return None if best is None else tuple(best[1])


def greedy_3ap_free_subset(universe, size, r: random.Random):
    out: list = []
    members: set = set()
    for v in sorted(universe, key=lambda _: r.random()):
        ok = True
        for a in out:
            if (a + v) % 2 == 0 and (a + v) // 2 in members:
                ok = False
                break
            if 2 * a - v in members or 2 * v - a in members:
                ok = False
                break
        if ok:
            out.append(v)
            members.add(v)
        if len(out) == size:
            break
    return sorted(out)


# --- generators ---------------------------------------------------------------


def test_poly_code_examples():
    p1 = poly_code_exponents(1)
    assert (p1.p, p1.q) == ((0,), (0,))
    assert sum_support(p1).L == 1
    p3 = poly_code_exponents(3)
    assert p3.p == (0, 1, 2) and p3.q == (0, 3, 6)
    assert sum_support(p3).L == 9
    assert sum_support(poly_code_exponents(4)).L == 16


def test_poly_threshold_is_n_squared():
    for n in (1, 2, 3, 5, 8, 16, 33):
        assert sum_support(poly_code_exponents(n)).L == n * n


def test_base3_examples():
    b2 = base3_exponents(2)
    assert b2.p == b2.q == (0, 1)
    assert sum_support(b2).L == 3
    b4 = base3_exponents(4)
    assert b4.p == (0, 1, 3, 4)
    assert sum_support(b4).L == 9
    assert sum_support(base3_exponents(8)).L == 27


def test_base3_powers_of_two_threshold():
    for ell in range(1, 8):
        n = 1 << ell
        assert sum_support(base3_exponents(n)).L == 3**ell


def test_base3_non_power_of_two():
    b3 = base3_exponents(3)
    assert b3.p == (0, 1, 3)
    assert is_decodable(b3)
    for n in (5, 6, 7, 11, 23):
        pair = base3_exponents(n)
        assert len(pair.p) == n
        assert is_decodable(pair)


def test_behrend_pinned_parameters():
    b2 = behrend_exponents(2, digit_range=2, length=2)
    assert b2.p == (1, 3)  # norm-1 shell of {0,1}^2 in base 3
    b4 = behrend_exponents(4, digit_range=3, length=3)
    assert b4.p == (7, 11, 27, 35)  # norm-5 shell of {0,1,2}^3 in base 5
    full_shell = behrend_exponents(6, digit_range=3, length=3)
    assert full_shell.p == (7, 11, 27, 35, 51, 55)


def test_behrend_search_small_goldens():
    assert behrend_exponents(1).n == 1
    assert behrend_exponents(2).p == (1, 3)
    # weight-2 vectors of {0,1}^4 in base 3: 4, 10, 12, 28 beat the d=3 shell
    assert behrend_exponents(4).p == (4, 10, 12, 28)


def test_behrend_outputs_are_3ap_free_and_decodable():
    for n in (1, 2, 3, 4, 7, 16, 40, 64):
        pair = behrend_exponents(n)
        assert pair.p == pair.q
        assert len(pair.p) == n
        assert is_3ap_free(pair.p)
        assert is_decodable(pair)
        assert all(v > 0 for v in pair.p)


def test_shell_table_matches_counts_and_largest_shell_grows_with_d():
    for length in range(1, 6):
        largest = [max(shell_sizes(d, length)) for d in range(1, 13)]
        assert largest == sorted(largest)
        for d in range(1, 13):
            for j, row in enumerate(_ways_table(d, length).tolist()):
                sizes = list(shell_sizes(d, j))
                assert row == sizes + [0] * (len(row) - len(sizes))


def test_first_viable_matches_linear_walk():
    for ell in range(2, 6):
        for n in range(1, 121):
            d_lo = max(2, math.ceil(n ** (1.0 / ell)))
            for d_top in (d_lo, d_lo + 5, d_lo + 20):
                walk = (d for d in range(d_lo, d_top + 1) if largest_shell(d, ell)[1] >= n)
                want = next(walk, None)
                found = _first_viable(n, ell, d_lo, d_top)
                assert (found and found[0]) == want, (n, ell, d_top)
                if found:
                    assert found[1].tolist() == _ways_table(want, ell).tolist()


@pytest.mark.parametrize("d,length", [(4, 32), (2, 64), (3, 40)])
def test_object_shell_table_matches_pure_python_convolution(d, length):
    # d^length >= 2^63, so every entry must be an exact Python int.
    ways = _ways_table(d, length)
    assert ways.dtype == object
    assert all(type(v) is int for v in ways.ravel())
    for j, row in enumerate(ways.tolist()):
        sizes = list(shell_sizes(d, j))
        assert row == sizes + [0] * (len(row) - len(sizes)), j


def test_behrend_pinned_parameters_past_int64_table():
    # The (4, 32) table is object dtype; the values are base-7 digit vectors
    # of the largest shell, whose norm the pure-Python counts give.
    p = behrend_exponents(5, digit_range=4, length=32).p
    assert p == (226403912073, 228098763567, 228340885209, 228375474015, 228380415273)
    norm = largest_shell(4, 32)[0]
    for v in p:
        digits = [v // 7**pos % 7 for pos in range(32)]
        assert max(digits) < 4 and sum(x * x for x in digits) == norm


def test_two_dimensional_shell_is_a_sidon_set():
    # The l = 2 candidate realizes n(n+1)/2 distinct pair sums, the most any
    # n-set can, which is why the search may skip it once another candidate
    # realizes fewer.  No 2-D shell within the bounds holds more than 16.
    with_candidate = []
    for n in range(1, 65):
        d_lo = max(2, math.ceil(n ** 0.5))
        d_top = max(d_lo, int((2e7 / 4) ** (1.0 / 3.0)))
        found = _first_viable(n, 2, d_lo, d_top)
        if found is None:
            continue
        with_candidate.append(n)
        vals = _smallest_shell_values(found[1], found[0], n)
        assert len(vals) == n
        assert len({a + b for a in vals for b in vals}) == n * (n + 1) // 2, n
    assert with_candidate == list(range(1, 17))


def test_behrend_search_scans_two_dimensional_shell_only_for_n_up_to_4(monkeypatch):
    lengths = []

    def recording(n, length, d_lo, d_top):
        lengths.append(length)
        return _first_viable(n, length, d_lo, d_top)

    monkeypatch.setattr(exponents, "_first_viable", recording)
    for n in range(1, 65):
        lengths.clear()
        behrend_exponents(n)
        assert (2 in lengths) == (n <= 4), n


# A cap of 5000 changes the answer for 36 of these n and leaves 29 with none.
@pytest.mark.parametrize("cap", [exponents._VALUE_CAP, 5000], ids=["value-cap", "cap-5000"])
def test_behrend_search_matches_linear_scan(cap, monkeypatch):
    monkeypatch.setattr(exponents, "_VALUE_CAP", cap)
    for n in range(1, 65):
        try:
            got = behrend_exponents(n).p
        except ParameterSearchExhausted:
            got = None
        assert got == behrend_linear_scan(n), n


def test_behrend_search_exhaustion():
    with pytest.raises(ParameterSearchExhausted):
        behrend_exponents(4, digit_range=2, length=2)  # largest shell has 2


def test_behrend_requires_both_parameters():
    with pytest.raises(ValueError):
        behrend_exponents(4, digit_range=3)


def test_behrend_deterministic():
    assert behrend_exponents(37).p == behrend_exponents(37).p


def test_behrend_generator_stays_uncached(monkeypatch):
    # Binding caches rook pairs, but the generator itself searches on
    # every call, warm bind cache or not.
    rook_exponents_for(SchemeDescriptor(scheme="rook-behrend", n=8))
    calls = []

    def recording(*args):
        calls.append(args)
        return _first_viable(*args)

    monkeypatch.setattr(exponents, "_first_viable", recording)
    first = behrend_exponents(8)
    searched = len(calls)
    assert searched > 0
    assert behrend_exponents(8) == first
    assert calls == calls[:searched] * 2


# --- checks -------------------------------------------------------------------


def test_is_decodable_examples():
    assert is_decodable(ExponentPair(2, (0, 1), (0, 1)))
    assert not is_decodable(ExponentPair(3, (0, 1, 2), (0, 1, 2)))
    assert is_decodable(ExponentPair(3, (0, 1, 2), (0, 3, 6)))


def test_is_decodable_matches_triple_loop_oracle():
    r = rng(21)
    for _ in range(60):
        n = r.randrange(1, 6)
        p = tuple(sorted(r.sample(range(12), n)))
        q = tuple(sorted(r.sample(range(12), n)))
        pair = ExponentPair(n, p, q)
        assert is_decodable(pair) == decodable_triple_loop(pair)
    # Spread out, the sums are sorted as int64 (scale 2^40) or as Python
    # ints (offset 2^62); a few small steps keep collisions common.
    for scale, offset in ((1 << 40, 0), (1, 1 << 62), (1 << 40, 1 << 62)):
        for _ in range(40):
            n = r.randrange(1, 6)
            p = tuple(offset + scale * v for v in sorted(r.sample(range(12), n)))
            q = p if r.random() < 0.3 else tuple(offset + scale * v for v in sorted(r.sample(range(12), n)))
            pair = ExponentPair(n, p, q)
            assert is_decodable(pair) == decodable_triple_loop(pair)


def test_is_decodable_numpy_path_matches_oracle():
    pair = base3_exponents(200)  # a larger pair, on the table path
    assert is_decodable(pair) == decodable_triple_loop(pair)
    bad = ExponentPair(200, tuple(range(200)), tuple(range(200)))
    assert not is_decodable(bad)


def test_sumset_paths_match_bruteforce():
    near = 1 << 62  # sums of two such exponents pass int64
    pairs = [
        ExponentPair(4, (0, 1, 3, 7), (0, 2, 3, 9)),  # sums fit a small table
        ExponentPair(3, (0, 5, 1 << 40), (1, 1 << 41, 3 << 41)),  # sorted as int64
        ExponentPair(3, (0, near, near + 3), (1, near + 1, near + 2)),  # Python ints
        ExponentPair(3, (near, near + 1, near + 2), (near, near + 1, near + 2)),
        ExponentPair(3, (near, near + 1, near + 3), (near, near + 1, near + 3)),
        # not decodable, one per path that lacked one
        ExponentPair(3, (0, 1, 3), (0, 2, 3)),  # table, 0 + 3 = 1 + 2
        ExponentPair(3, (0, 1 << 40, 1 << 41), (0, 1 << 40, 1 << 41)),  # sorted as int64, P = Q
        ExponentPair(3, (0, 1 << 40, 2 << 40), (0, 1 << 40, 3 << 40)),  # sorted as int64
    ]
    for pair in pairs:
        s = sum_support(pair)
        assert list(s.support) == support_bruteforce(pair)
        assert [s.support[i] for i in s.diag_index] == [a + b for a, b in zip(pair.p, pair.q)]
        assert is_decodable(pair) == decodable_triple_loop(pair)
        counts = Counter(a + b for a in pair.p for b in pair.q)
        decodable = _sumset(pair.p, pair.q)[2]
        assert type(decodable) is bool
        assert decodable == all(counts[a + b] == 1 for a, b in zip(pair.p, pair.q))
    assert not is_decodable(pairs[3]) and is_decodable(pairs[4])
    assert not any(is_decodable(pair) for pair in pairs[5:])
    assert not is_3ap_free(pairs[3].p) and is_3ap_free(pairs[4].p)


def test_sum_support_examples():
    s = sum_support(ExponentPair(3, (0, 1, 3), (0, 1, 3)))
    assert s.support == (0, 1, 2, 3, 4, 6)
    assert s.L == 6
    s2 = sum_support(ExponentPair(2, (0, 1), (0, 1)))
    assert s2.support == (0, 1, 2)
    assert s2.diag_index == (0, 2)
    assert sum_support(ExponentPair(1, (0,), (0,))).L == 1


def test_sum_support_matches_bruteforce():
    r = rng(22)
    for _ in range(40):
        n = r.randrange(1, 7)
        pair = ExponentPair(
            n,
            tuple(sorted(r.sample(range(30), n))),
            tuple(sorted(r.sample(range(30), n))),
        )
        s = sum_support(pair)
        assert list(s.support) == support_bruteforce(pair)
        for k in range(n):
            assert s.support[s.diag_index[k]] == pair.p[k] + pair.q[k]
    big = base3_exponents(256)
    assert list(sum_support(big).support) == support_bruteforce(big)


def test_diag_index_distinct_when_decodable():
    for pair in (poly_code_exponents(5), base3_exponents(6), behrend_exponents(8)):
        s = sum_support(pair)
        assert len(set(s.diag_index)) == pair.n


def test_is_3ap_free_examples():
    assert not is_3ap_free([0, 1, 2])
    assert is_3ap_free([1, 2, 4, 5])
    assert is_3ap_free([1, 3])
    assert is_3ap_free([])
    assert not is_3ap_free([2, -1, -4])
    assert is_3ap_free([-5, -4, -2])
    with pytest.raises(ValueError):
        is_3ap_free([1, 1, 2])


def test_is_3ap_free_numpy_path():
    vals = list(base3_exponents(200).p)
    assert is_3ap_free(vals)
    spoiled = sorted(set(vals) | {vals[10] + 1, vals[10] + 2})
    if is_3ap_free([vals[10], vals[10] + 1, vals[10] + 2]):
        pytest.fail("sanity: consecutive run is a 3-AP")
    assert not is_3ap_free(spoiled)


def test_3ap_free_implies_decodable():
    r = rng(23)
    for trial in range(20):
        size = r.randrange(2, 10)
        a = greedy_3ap_free_subset(range(200), size, r)
        assert is_3ap_free(a)
        pair = ExponentPair(len(a), tuple(a), tuple(a))
        assert is_decodable(pair)


def test_is_decodable_peaks_no_higher_than_sum_support():
    # Decodability is read from the support pass itself, with no second table.
    pair = behrend_exponents(1024)

    def peak(check):
        tracemalloc.start()
        try:
            check(pair)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(is_decodable) <= peak(sum_support)


def test_sumset_lower_bound_on_decodable_pairs():
    pairs = [poly_code_exponents(n) for n in range(1, 20)]
    pairs += [base3_exponents(n) for n in range(1, 20)]
    pairs += [behrend_exponents(n) for n in (1, 2, 4, 8, 16)]
    for pair in pairs:
        assert sum_support(pair).L >= 2 * pair.n - 1


def test_generators_stay_decodable_at_n_1024():
    poly = poly_code_exponents(1024)
    assert is_decodable(poly)
    assert sum_support(poly).L == 1024 * 1024
    b3 = base3_exponents(1024)
    assert is_decodable(b3)
    assert sum_support(b3).L == 3**10
    bh = behrend_exponents(1024)
    assert is_decodable(bh)
    assert is_3ap_free(bh.p)


# --- brute-force minimum ------------------------------------------------------


def test_min_recovery_examples():
    assert min_recovery_bruteforce(1, 4)[0] == 1
    l2, w2 = min_recovery_bruteforce(2, 4)
    assert l2 == 3
    assert (w2.p, w2.q) == ((0, 1), (0, 1))
    assert min_recovery_bruteforce(3, 8)[0] == 6


def test_min_recovery_witness_is_decodable_and_within_budget():
    l, w = min_recovery_bruteforce(3, 8)
    assert is_decodable(w)
    assert w.max_exponent <= 8
    assert 0 in w.p and 0 in w.q
    assert sum_support(w).L == l


def test_min_recovery_non_increasing_in_budget():
    vals = [min_recovery_bruteforce(3, m)[0] for m in (4, 6, 8, 10)]
    assert vals == sorted(vals, reverse=True)


def test_min_recovery_matches_naive_enumerator():
    for n in range(1, 5):
        for cap in range(n - 1, 9):
            l, w = min_recovery_bruteforce(n, cap)
            assert l == naive_min_recovery(n, cap), (n, cap)
            if w is not None:
                assert is_decodable(w) and sum_support(w).L == l and w.p <= w.q, (n, cap)
    w = min_recovery_bruteforce(4, 8)[1]
    assert (w.p, w.q) == ((0, 1, 3, 4), (0, 1, 3, 4))


def test_min_recovery_guards():
    with pytest.raises(SearchBudgetExceeded):
        min_recovery_bruteforce(5, 8)
    with pytest.raises(SearchBudgetExceeded):
        min_recovery_bruteforce(2, 13)
    with pytest.raises(ValueError):
        min_recovery_bruteforce(4, 2)


# --- plumbing -----------------------------------------------------------------


def test_exponent_pair_validation():
    with pytest.raises(ValueError):
        ExponentPair(2, (1, 1), (0, 1))
    with pytest.raises(ValueError):
        ExponentPair(2, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        ExponentPair(2, (0, 1), (0, -1))
    with pytest.raises(ValueError):
        ExponentPair(3, (0, 1), (0, 1))


def test_exponent_pair_json_roundtrip():
    pair = ExponentPair(2, (0, 1 << 60), (0, 5))
    d = pair.to_json_dict()
    assert isinstance(d["p"][1], str)  # beyond 2^53: decimal string
    assert isinstance(d["q"][1], int)
    assert ExponentPair.from_json_dict(d) == pair


def test_normalized_shifts_both_sides_and_divides_by_one_joint_gcd():
    # P's gaps have gcd 6 and Q's 3; one shared divisor, 3, keeps the sums affine.
    assert ExponentPair(2, (3, 9), (1, 4)).normalized() == ExponentPair(2, (0, 2), (0, 1))
    assert ExponentPair(1, (7,), (5,)).normalized() == ExponentPair(1, (0,), (0,))


@pytest.mark.parametrize("generator", [poly_code_exponents, base3_exponents, behrend_exponents])
def test_normalized_generator_pairs_keep_their_support_shape(generator):
    # Every pair starts at 0 on both sides with joint gap gcd 1 (0 when n = 1
    # has no gap), L and the diagonal's places in the support are unchanged,
    # and poly and base3 pairs come back as they are.
    for n in range(1, 129):
        pair = generator(n)
        norm = pair.normalized()
        assert norm.p[0] == norm.q[0] == 0, n
        assert math.gcd(*norm.p, *norm.q) == (1 if n > 1 else 0), n
        assert sum_support(norm).L == sum_support(pair).L, n
        assert sum_support(norm).diag_index == sum_support(pair).diag_index, n
        assert norm.max_exponent <= pair.max_exponent, n
        if generator is not behrend_exponents:
            assert norm == pair, n
