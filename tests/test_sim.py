from __future__ import annotations

import json
import math

import numpy as np
import pytest

from rookbench import baselines, rook, sim
from rookbench.baselines import SchemeDescriptor, bind_scheme, scheme_threshold
from rookbench.exponents import ExponentPair, behrend_exponents, sum_support
from rookbench.field import FieldMatrix, OpCounter, PrimeField, SingularMatrix, mat_mul, mat_random, solve_linear
from rookbench.sim import (
    SWEEP_COLUMNS,
    ConfigInvalid,
    FaultModel,
    SimConfig,
    _worker_fates,
    run_simulation,
    stream,
    sweep,
    sweep_to_csv,
)


def cfg(scheme="rook-base3", n=2, m=5, seed=7, **kw):
    lam = kw.pop("lam", None)
    desc = SchemeDescriptor(scheme=scheme, n=n, lam=lam)
    return SimConfig(descriptor=desc, m=m, seed=seed, **kw)


def test_no_faults_uses_exactly_threshold():
    rep = run_simulation(cfg())
    assert rep.success and rep.verified
    assert rep.threshold == 3
    assert rep.responses_used == 3
    assert rep.responses_received == 5
    assert rep.failed_workers == []
    assert rep.error is None


def test_all_workers_fail():
    rep = run_simulation(cfg(fault=FaultModel(fail_prob=1.0)))
    assert not rep.success
    assert rep.error == "InsufficientWorkers"
    assert rep.responses_received == 0
    assert len(rep.failed_workers) == 5
    assert not rep.verified


def test_byte_identical_reports_for_same_config():
    c = cfg(seed=123, fault=FaultModel(fail_prob=0.3, straggle_mean=2.0))
    assert run_simulation(c).to_json() == run_simulation(c).to_json()


def test_different_seeds_change_outcome_details():
    a = run_simulation(cfg(seed=1, fault=FaultModel(fail_prob=0.4)))
    b = run_simulation(cfg(seed=2, fault=FaultModel(fail_prob=0.4)))
    assert a.to_json() != b.to_json()


def test_stream_is_keyed_and_stable():
    assert stream(1, "worker", 0).random() == stream(1, "worker", 0).random()
    assert stream(1, "worker", 0).random() != stream(1, "worker", 1).random()
    assert stream(1, "worker", 0).random() != stream(2, "worker", 0).random()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_worker_fates_do_not_depend_on_m(seed):
    # Worker w's draws are numbers 2w and 2w + 1 of the "workers" stream,
    # taken whatever its fate, so seven more workers change nothing for
    # workers 0..m-1: not who fails, not when or in which order they arrive.
    fault = FaultModel(fail_prob=0.3, straggle_mean=2.0)
    small = run_simulation(cfg(m=6, seed=seed, fault=fault))
    large = run_simulation(cfg(m=13, seed=seed, fault=fault))
    assert small.failed_workers == [w for w in large.failed_workers if w < 6]
    arrivals, failed = _worker_fates(seed, 6, fault, 8)
    more_arrivals, more_failed = _worker_fates(seed, 13, fault, 8)
    assert failed == small.failed_workers and more_failed == large.failed_workers
    assert arrivals == [(t, w) for t, w in more_arrivals if w < 6]
    draws = stream(seed, "workers")
    u = [draws.random() for _ in range(2 * 13)]
    assert more_failed == [w for w in range(13) if u[2 * w] < 0.3]
    survivors = [w for w in range(13) if w not in more_failed]
    assert sorted(more_arrivals) == sorted((8 + 2.0 * -math.log(1 - u[2 * w + 1]), w) for w in survivors)


def test_worker_fates_follow_the_fault_model():
    # 2,000 seeds x 8 workers: the fail share and the mean straggle of the
    # survivors lie within 4 sigma of fail_prob and straggle_mean.
    fault = FaultModel(fail_prob=0.3, straggle_mean=2.5, base_delay=0.5)
    workers, work_units = 8, 8
    fails, straggles = 0, []
    for seed in range(2000):
        arrivals, failed = _worker_fates(seed, workers, fault, work_units)
        fails += len(failed)
        straggles += [t - fault.base_delay * work_units for t, _ in arrivals]
    draws = 2000 * workers
    sigma = math.sqrt(fault.fail_prob * (1 - fault.fail_prob) / draws)
    assert abs(fails / draws - fault.fail_prob) < 4 * sigma
    assert min(straggles) >= 0
    sigma = fault.straggle_mean / math.sqrt(len(straggles))  # an exponential's sd is its mean
    assert abs(sum(straggles) / len(straggles) - fault.straggle_mean) < 4 * sigma


def test_without_straggle_every_survivor_arrives_at_the_base_delay():
    arrivals, failed = _worker_fates(3, 20, FaultModel(fail_prob=0.5, base_delay=0.25), 8)
    assert failed and arrivals
    assert arrivals == [(2.0, w) for w in range(20) if w not in failed]


def test_inputs_are_rejection_draws_of_one_stream_in_order(monkeypatch):
    # Over GF(257) about half the 9-bit draws are rejected.  The inputs
    # A_0, B_0, A_1, B_1 are the accepted draws of stream(seed, "inputs")
    # in that order, through both mat_random paths (A: 32 x 16 entries, at
    # NUMPY_MIN_MULS; B: 16 x 24, below it), and their entries are uniform
    # on [0, 257) by a chi-square bound.
    drawn = []

    def recording(*args):
        drawn.append(mat_random(*args))
        return drawn[-1]

    monkeypatch.setattr(sim, "mat_random", recording)
    counts = np.zeros(257, dtype=np.int64)
    rejected = 0
    for seed in range(8):
        drawn.clear()
        rep = run_simulation(cfg(scheme="rook-poly", n=2, m=6, seed=seed, dims=(32, 16, 24), modulus=257))
        assert rep.success and rep.verified
        assert [(a.rows, a.cols) for a in drawn] == [(32, 16), (16, 24)] * 2
        entries = [e for a in drawn for e in a.entries]
        assert max(entries) < 257
        counts += np.bincount(entries, minlength=257)
        raw, accepted, consumed = stream(seed, "inputs"), [], 0
        while len(accepted) < len(entries):
            draw = raw.getrandbits(9)
            consumed += 1
            if draw < 257:
                accepted.append(draw)
        assert accepted == entries
        rejected += consumed - len(entries)
    assert rejected > 0
    expected = counts.sum() / 257
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 256 + 4 * math.sqrt(2 * 256), chi2  # 256 degrees of freedom


@pytest.mark.parametrize("scheme", ["rook-poly", "rook-base3", "rook-behrend", "lcc", "csa"])
def test_coded_schemes_survive_heavy_faults(scheme):
    # Enough spare workers that survivors almost surely reach the threshold.
    from rookbench.baselines import scheme_threshold

    desc = SchemeDescriptor(scheme=scheme, n=4)
    thr = scheme_threshold(desc)
    for seed in range(5):
        c = SimConfig(
            descriptor=desc,
            m=thr + 12,
            seed=seed,
            fault=FaultModel(fail_prob=0.25, straggle_mean=3.0),
        )
        rep = run_simulation(c)
        if rep.responses_received >= thr:
            assert rep.success and rep.verified
            assert rep.responses_used == thr


def test_rook_behrend_gf257_decodes_once_responses_determine_products():
    # rook-behrend binds normalized exponents, so over GF(257) n = 8 has no
    # x, -x collision and decodes at L.  n = 4 over GF(29), with all 28
    # nonzero points as workers, still meets singular first-L systems, so
    # some seeds decode only after a failed call.  Every seed's full system
    # has rank L, and the decoder counts every response it consumed.
    for n, m, modulus in ((8, 60, 257), (4, 28, 29)):
        desc = SchemeDescriptor(scheme="rook-behrend", n=n)
        used = set()
        for seed in range(50):
            rep = run_simulation(SimConfig(descriptor=desc, m=m, seed=seed, modulus=modulus))
            assert rep.success and rep.verified, (modulus, seed)
            assert rep.threshold <= rep.responses_used <= rep.responses_received
            used.add(rep.responses_used)
        if modulus == 29:
            assert max(used) > rep.threshold  # a decode failed before one succeeded


@pytest.mark.parametrize("n", [6, 8])
def test_rook_behrend_gf257_first_L_responses_decode(n):
    # The bound pair is normalized, so its gaps have gcd 1 and x, -x no
    # longer always give equal rows: L responses decode for nearly every
    # draw of points.
    field = PrimeField(257)
    desc = SchemeDescriptor(scheme="rook-behrend", n=n)
    L = scheme_threshold(desc)
    nonsingular = 0
    for seed in range(200):
        r = stream(seed, "first-L", n)
        scheme = bind_scheme(desc, field, L, r)
        inputs = [(mat_random(field, 1, 1, r), mat_random(field, 1, 1, r)) for _ in range(n)]
        nonsingular += _decodes(scheme, [rook.rook_worker(field, share) for share in scheme.encode(inputs, range(L))])
    assert nonsingular >= 199, nonsingular


def test_rook_behrend_n8_binds_and_decodes_over_gf101():
    # Normalized, behrend n = 8's largest product exponent is 80, below 100.
    for seed in range(5):
        rep = run_simulation(cfg(scheme="rook-behrend", n=8, m=40, seed=seed, modulus=101))
        assert rep.success and rep.verified, seed


def _decodes(scheme, products):
    """Whether a from-scratch decode (one solve_linear over every row)
    succeeds on these products."""
    try:
        scheme.decode(products)
    except rook.SingularAfterRetry:
        return False
    return True


def _first_full_rank(scheme, products):
    """The first prefix length whose evaluation rows, x^e over the scheme's
    support (0..L-1 for LCC and CSA), have rank L over GF(p), else None:
    pure-Python elimination, row by row, independent of the decoders."""
    p = scheme.field.modulus
    exps = scheme.support.support if isinstance(scheme, rook.RookScheme) else range(scheme.threshold)
    pivots = {}  # column -> reduced row whose first nonzero entry is a 1 there
    for t, pr in enumerate(products, 1):
        row = [pow(pr.x, e, p) for e in exps]
        for c in range(len(exps)):
            if not row[c]:
                continue
            if c not in pivots:
                inv = pow(row[c], -1, p)
                pivots[c] = [a * inv % p for a in row]
                break
            f = row[c]
            row = [(a - f * b) % p for a, b in zip(row, pivots[c])]
        if len(pivots) == len(exps):
            return t
    return None


@pytest.mark.parametrize("p", [7, 101, 257])
def test_decode_succeeds_at_the_first_arrival_of_full_rank(p):
    # Responses arrive one by one, each decode call given all of them so
    # far, as the simulator gives them.  The decoder raises
    # NotEnoughProducts below L, SingularAfterRetry before the first prefix
    # whose rows have rank L (_first_full_rank), and at that arrival
    # decodes the direct products.  Over GF(7) only n = 2 binds, whose
    # rows are Vandermonde or Cauchy ones, so a rook pair with support
    # {0, 1, 3, 4} (x^3 is +-1 there) joins the five codes to make retries.
    # Over GF(257) the bound codes rarely retry, so the raw behrend_exponents(8)
    # pair joins them: its exponents are all even, so x and -x give equal rows.
    field = PrimeField(p)
    raw = {None: ExponentPair(n=2, p=(0, 1), q=(0, 3))}  # pairs bound as given, by stream label
    if p == 257:
        raw["raw-behrend"] = behrend_exponents(8)
    cases = [
        SchemeDescriptor(scheme=name, n=n)
        for name in ("rook-poly", "rook-base3", "rook-behrend", "lcc", "csa")
        for n in ((2, 3, 4, 8) if p == 257 else (2, 3, 4))
    ]
    outcomes = {"first": 0, "later": 0, "never": 0}
    for desc in cases + list(raw):
        bound = isinstance(desc, SchemeDescriptor)
        n, L = (desc.n, scheme_threshold(desc)) if bound else (raw[desc].n, sum_support(raw[desc]).L)
        m = min(L + 8, p - 1 - (n if bound and desc.scheme in ("lcc", "csa") else 0))
        if m < L:
            continue  # GF(p) has too few points for L responses
        for seed in range(8 if n == 8 else 20):
            r = stream(seed, p, n, desc.scheme if bound else desc)
            try:
                scheme = bind_scheme(desc, field, m, r) if bound else rook.make_rook_scheme(raw[desc], field, m, r)
            except ConfigInvalid:
                break  # an exponent too large for GF(p)
            inputs = [(mat_random(field, 1, 2, r), mat_random(field, 2, 1, r)) for _ in range(n)]
            products = [rook.rook_worker(field, share) for share in scheme.encode(inputs, range(m))]
            r.shuffle(products)
            first = _first_full_rank(scheme, products)
            for t in range(1, (first or m) + 1):
                if t < L:
                    with pytest.raises(rook.NotEnoughProducts):
                        scheme.decode(products[:t])
                elif t != first:
                    with pytest.raises(rook.SingularAfterRetry):
                        scheme.decode(products[:t])
                else:
                    assert scheme.decode(products[:t]) == [mat_mul(field, a, b) for a, b in inputs]
            outcomes["never" if first is None else "first" if first == L else "later"] += 1
    assert outcomes["first"] and outcomes["later"], outcomes


@pytest.mark.parametrize("seed, used", [(0, 11), (1, 10), (2, 10), (3, 10), (4, 14)])
def test_each_decode_call_is_charged_a_solve_of_every_response_so_far(seed, used, monkeypatch):
    # The retrying subjects of the golden retry reports: rook-behrend n = 4
    # over GF(29) on all 28 nonzero points, whose support is not an
    # interval.  Seeds 0 and 4 fail a decode before one succeeds.  Each
    # call is charged what power_rows and solve_linear charge for every
    # product received so far, from scratch, the report's decode charge is
    # the sum over the calls, and responses_used is the golden's.
    calls = []
    decode = rook.rook_decode

    def recorded(products, scheme, counter):
        before = (counter.mul_count, counter.inv_count)
        try:
            return decode(products, scheme, counter)
        finally:
            calls.append((list(products), scheme, counter.mul_count - before[0], counter.inv_count - before[1]))

    monkeypatch.setattr(rook, "rook_decode", recorded)
    fault = FaultModel(fail_prob=0.0, straggle_mean=2.0)
    rep = run_simulation(cfg(scheme="rook-behrend", n=4, m=28, seed=seed, fault=fault, modulus=29))
    assert rep.success and rep.verified and rep.responses_used == used
    assert rep.threshold == 10
    assert [len(products) for products, *_ in calls] == list(range(rep.threshold, used + 1))
    for products, scheme, muls, invs in calls:
        support = scheme.support
        assert support.support[-1] != support.L - 1  # eliminates
        ctr = OpCounter()
        rows = rook.power_rows(scheme.field, support.support, [pr.x for pr in products], ctr)
        try:
            solve_linear(scheme.field, FieldMatrix(*rows.shape, rows), [pr.e for pr in products], ctr)
        except SingularMatrix:
            pass
        assert (muls, invs) == (ctr.mul_count, ctr.inv_count)
    assert (rep.decode_muls, rep.decode_invs) == tuple(map(sum, zip(*[c[2:] for c in calls])))


def test_only_rook_supports_that_are_not_intervals_eliminate(monkeypatch):
    # LCC, CSA and rook codes whose support is the interval 0..L-1 decode by
    # interpolation, so they decode and verify with the solve refused; a
    # rook support with gaps reaches it.
    class Solved(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Solved

    monkeypatch.setattr(rook, "solve_linear", refuse)
    interpolating = [(s, n) for s in ("lcc", "csa", "rook-poly") for n in (1, 2, 3, 4)]
    interpolating += [("rook-base3", 2), ("rook-base3", 4), ("rook-behrend", 2)]
    fault = FaultModel(straggle_mean=2.0)
    for scheme, n in interpolating:
        m = scheme_threshold(SchemeDescriptor(scheme=scheme, n=n)) + 2
        for seed in range(3):
            rep = run_simulation(cfg(scheme=scheme, n=n, m=m, seed=seed, fault=fault))
            assert rep.success and rep.verified and rep.decode_invs == rep.threshold, (scheme, n, seed)
    for scheme, n in (("rook-behrend", 4), ("rook-base3", 3)):
        m = scheme_threshold(SchemeDescriptor(scheme=scheme, n=n)) + 2
        with pytest.raises(Solved):
            run_simulation(cfg(scheme=scheme, n=n, m=m, fault=fault))


def test_straggle_reorders_arrivals():
    c = cfg(m=8, seed=5, fault=FaultModel(straggle_mean=10.0))
    rep = run_simulation(c)
    assert rep.success and rep.verified
    assert rep.wallclock_sim_units > 8.0  # base delay (2*2*2) plus straggle


def test_encode_side_selection():
    no_fault = dict(m=6, seed=9)
    master = run_simulation(cfg(encode_at="master", **no_fault))
    workers = run_simulation(cfg(encode_at="workers", **no_fault))
    # With no failures every worker encodes its own share: same totals.
    assert master.encode_muls == workers.encode_muls
    faulty = dict(m=6, seed=11, fault=FaultModel(fail_prob=0.5))
    master_f = run_simulation(cfg(encode_at="master", **faulty))
    workers_f = run_simulation(cfg(encode_at="workers", **faulty))
    assert master_f.failed_workers  # seed 11 kills at least one worker
    assert master_f.failed_workers == workers_f.failed_workers
    # Failed workers never encode, so delegation shrinks the encode bill.
    assert workers_f.encode_muls < master_f.encode_muls


@pytest.mark.parametrize("scheme", baselines.ALL_SCHEMES)
def test_workers_encode_nothing_when_every_worker_fails(scheme, monkeypatch):
    # With encoding delegated and no survivor, the op's one encode call
    # gets an empty worker list: no share is encoded and nothing is counted.
    calls = []

    def recording(encode):
        def record(owner, inputs, workers, counter=None):
            calls.append(list(workers))
            return encode(owner, inputs, workers, counter)

        return record

    for owner, name in (
        (rook, "rook_encode_share"),
        (baselines, "lcc_encode"),
        (baselines, "csa_encode"),
        (baselines.ReplicationScheme, "encode"),
    ):
        monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
    rep = run_simulation(cfg(scheme=scheme, m=4, lam=2, encode_at="workers", fault=FaultModel(fail_prob=1.0)))
    assert calls == [[]]
    assert len(rep.failed_workers) == 4 and not rep.success
    assert (rep.encode_muls, rep.encode_invs) == (0, 0)


def test_rook_sim_records_zero_encode_inversions():
    rep = run_simulation(cfg(scheme="rook-base3", n=4, m=12, seed=3))
    assert rep.encode_invs == 0
    lcc = run_simulation(cfg(scheme="lcc", n=4, m=10, seed=3))
    assert lcc.encode_invs >= 3


def test_replication_sim_success_and_coverage():
    rep = run_simulation(cfg(scheme="replication", n=2, m=4, lam=2, seed=13))
    assert rep.success and rep.verified
    assert rep.responses_used >= 2
    assert rep.threshold == 3


def test_replication_sim_uncovered_pair():
    # Find a seed where faults orphan one pair but responses still arrive.
    for seed in range(200):
        rep = run_simulation(
            cfg(scheme="replication", n=2, m=4, lam=2, seed=seed,
                fault=FaultModel(fail_prob=0.5))
        )
        if not rep.success and rep.error == "UncoveredPair":
            assert rep.responses_received > 0
            return
    pytest.fail("no seed produced the uncovered-pair outcome")


def test_replication_sim_requires_matching_m():
    with pytest.raises(ConfigInvalid):
        run_simulation(cfg(scheme="replication", n=2, m=5, lam=2))


_CONFIG_ERRORS = [
    (SchemeDescriptor(scheme=s, n=8), 257, "cannot draw 300 distinct nonzero points")
    for s in ("lcc", "csa", "rook-poly", "rook-behrend")
] + [
    (SchemeDescriptor(scheme="rook-poly", n=17), 257, "too large for modulus 257"),
    (SchemeDescriptor(scheme="replication", n=2, lam=2), 257, "replication needs m"),
    (SchemeDescriptor(scheme="lcc", n=2), 100, "modulus 100 is not prime"),
    (SchemeDescriptor(scheme="lcc", n=2), 1 << 64, "does not fit in 64 bits"),
]


@pytest.mark.parametrize(
    "desc, modulus, message",
    _CONFIG_ERRORS,
    # ids name the descriptor and the message, as for the first six cases
    ids=[f"desc{i}-{message}" for i, (_, _, message) in enumerate(_CONFIG_ERRORS)],
)
def test_bind_errors_are_config_invalid(desc, modulus, message):
    with pytest.raises(ConfigInvalid, match=message):
        run_simulation(SimConfig(descriptor=desc, m=300, modulus=modulus))


def test_rook_exponents_generated_once_per_simulation(monkeypatch):
    # The bind cache looks a generator up on a miss only, so it is cleared
    # for the replaced one to be called.
    calls = []
    original = baselines.behrend_exponents

    def counted(n, *args, **kwargs):
        calls.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(baselines, "behrend_exponents", counted)
    baselines._rook_pair.cache_clear()
    for seed in (7, 8):
        rep = run_simulation(cfg(scheme="rook-behrend", n=4, m=14, seed=seed))
        assert rep.success and rep.verified
    assert calls == [4]


def test_warm_rook_pair_still_meets_field_checks():
    desc = SchemeDescriptor(scheme="rook-poly", n=12)
    small = SimConfig(descriptor=desc, m=20, modulus=101)
    baselines._rook_pair.cache_clear()
    with pytest.raises(ConfigInvalid, match="too large for modulus 101") as cold:
        run_simulation(small)
    baselines._rook_pair.cache_clear()
    bind_scheme(desc, PrimeField((1 << 61) - 1), 150, stream(0, "scheme"))
    with pytest.raises(ConfigInvalid) as warm:
        run_simulation(small)
    assert baselines._rook_pair.cache_info().hits == 1
    assert str(warm.value) == str(cold.value)


@pytest.mark.parametrize("scheme", baselines.ROOK_SCHEMES)
def test_warm_cache_report_matches_cold(scheme):
    n = 4
    m = scheme_threshold(SchemeDescriptor(scheme=scheme, n=n)) + 6
    config = cfg(scheme=scheme, n=n, m=m, seed=31, fault=FaultModel(fail_prob=0.2, straggle_mean=1.0))
    baselines._rook_pair.cache_clear()
    cold = run_simulation(config).to_json()
    hits = baselines._rook_pair.cache_info().hits
    assert run_simulation(config).to_json() == cold
    assert baselines._rook_pair.cache_info().hits > hits


def test_insufficient_workers_is_recorded_not_raised():
    rep = run_simulation(cfg(m=2))  # threshold is 3
    assert not rep.success
    assert rep.error == "InsufficientWorkers"


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        run_simulation(cfg(m=0))
    with pytest.raises(ConfigInvalid):
        run_simulation(cfg(dims=(0, 1, 1)))
    with pytest.raises(ConfigInvalid):
        run_simulation(cfg(fault=FaultModel(fail_prob=1.5)))
    with pytest.raises(ConfigInvalid):
        run_simulation(cfg(encode_at="nowhere"))


_NON_INTEGERS = {
    "dims": lambda: run_simulation(cfg(dims=(2.0, 2, 2))),
    "m": lambda: run_simulation(cfg(m=5.0)),
    "m-bool": lambda: run_simulation(cfg(m=True)),
    "seed": lambda: run_simulation(cfg(seed=1.5)),
    "modulus": lambda: run_simulation(cfg(modulus=257.0)),
    "trials": lambda: sweep(["lcc"], [2], trials=1.5),
    "extra_workers": lambda: sweep(["lcc"], [2], extra_workers=1.5),
    "n_values": lambda: sweep(["lcc"], [2.0]),
    "sweep-seed": lambda: sweep(["lcc"], [2], seed=2.5),
    "sweep-lam": lambda: sweep(["replication"], [2], lam=2.0),
    "descriptor-n": lambda: SchemeDescriptor(scheme="lcc", n=2.0),
    "descriptor-n-bool": lambda: SchemeDescriptor(scheme="lcc", n=True),
}


@pytest.mark.parametrize("case", _NON_INTEGERS)
def test_non_integer_counts_and_seeds_are_rejected(case):
    # A count or seed is what operator.index takes, bool aside: 2.0 is not
    # read as 2, nor 1.5 as seed 1.  The descriptor raises ValueError, which
    # the simulator's callers turn into ConfigInvalid.
    error = ValueError if case.startswith("descriptor") else ConfigInvalid
    with pytest.raises(error, match="must be an integer"):
        _NON_INTEGERS[case]()


def test_numpy_integer_counts_and_seeds_are_accepted():
    desc = SchemeDescriptor(scheme="rook-base3", n=np.int64(2))
    c = SimConfig(descriptor=desc, m=np.int32(5), dims=tuple(np.int64(d) for d in (2, 3, 2)), seed=np.uint16(7))
    rep = run_simulation(c)
    assert rep.to_json() == run_simulation(cfg(m=5, dims=(2, 3, 2), seed=7)).to_json()
    assert sweep(["lcc"], [np.int64(2)], trials=np.int8(1), seed=np.int64(3)) == sweep(["lcc"], [2], seed=3)


@pytest.mark.parametrize(
    "fault", [FaultModel(straggle_mean=float("inf")), FaultModel(base_delay=float("nan"))]
)
def test_non_finite_fault_parameters_rejected(fault):
    with pytest.raises(ConfigInvalid, match="finite"):
        run_simulation(cfg(fault=fault))


def test_sweep_rejects_negative_trials():
    with pytest.raises(ConfigInvalid, match="trials must be >= 0"):
        sweep(schemes=["lcc"], n_values=[2], trials=-1)
    assert sweep(schemes=["lcc"], n_values=[2], trials=0) == []


@pytest.mark.parametrize(
    "schemes, n_values, lam, message",
    [
        (["lcc"], [0], 2, "n must be >= 1"),
        (["replication"], [2], 0, "replication needs lambda >= 1"),
        (["nope"], [2], 2, "unknown scheme 'nope'"),
    ],
)
def test_sweep_raises_config_invalid_for_a_bad_descriptor(schemes, n_values, lam, message):
    # The descriptor is built per group, before its first trial, so zero
    # trials reject it too.
    for trials in (0, 1):
        with pytest.raises(ConfigInvalid, match=message):
            sweep(schemes=schemes, n_values=n_values, trials=trials, lam=lam)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"dims": (0, 2, 2)}, "dims must be three positive integers"),
        ({"encode_at": "nowhere"}, "encode_at must be master or workers"),
        ({"fault": FaultModel(fail_prob=7)}, "outside"),
        ({"modulus": 100}, "not prime"),
    ],
)
def test_sweep_checks_its_settings_before_the_first_trial(kwargs, message):
    for schemes, trials in ((["lcc"], 0), ([], 1)):
        with pytest.raises(ConfigInvalid, match=message):
            sweep(schemes=schemes, n_values=[2], trials=trials, **kwargs)


_MALFORMED_SETTINGS = {
    "dims-int": ({"dims": 5}, "dims must be three positive integers"),
    "fail_prob-str": ({"fault": FaultModel(fail_prob="0.1")}, "fail_prob must be a real number"),
    "straggle_mean-str": ({"fault": FaultModel(straggle_mean="1")}, "straggle_mean must be a real number"),
    "base_delay-none": ({"fault": FaultModel(base_delay=None)}, "base_delay must be a real number"),
    "fault-float": ({"fault": 0.1}, "fault must be a FaultModel"),
    "fault-zero": ({"fault": 0}, "fault must be a FaultModel"),
}


@pytest.mark.parametrize(
    "entry, kwargs, message",
    [
        pytest.param(entry, kwargs, message, id=f"{entry}-{case}")
        for entry in ("run_simulation", "sweep")
        for case, (kwargs, message) in _MALFORMED_SETTINGS.items()
    ]
    # sweep reads fault=None as the default model; run_simulation has none.
    + [pytest.param("run_simulation", {"fault": None}, "fault must be a FaultModel", id="run_simulation-fault-none")],
)
def test_malformed_settings_are_config_invalid(entry, kwargs, message):
    # Settings of the wrong type raise ConfigInvalid, not a stray TypeError
    # or AttributeError, from the one check both entry points share.
    with pytest.raises(ConfigInvalid, match=message):
        if entry == "sweep":
            sweep(schemes=["lcc"], n_values=[2], **kwargs)
        else:
            run_simulation(cfg(**kwargs))


def test_report_json_shape():
    rep = run_simulation(cfg(seed=21))
    d = json.loads(rep.to_json())
    for key in (
        "success",
        "responses_received",
        "responses_used",
        "failed_workers",
        "threshold",
        "encode_muls",
        "encode_invs",
        "worker_muls",
        "decode_muls",
        "decode_invs",
        "wallclock_sim_units",
        "verified",
    ):
        assert key in d


def test_small_field_simulation():
    rep = run_simulation(cfg(m=5, seed=2, modulus=101))
    assert rep.success and rep.verified


def test_sweep_rows_and_thresholds():
    rows = sweep(
        schemes=["rook-poly", "rook-base3", "lcc"],
        n_values=[8],
        trials=2,
        dims=(1, 1, 1),
        seed=17,
    )
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row["scheme"], []).append(row)
    assert {r["threshold"] for r in by_scheme["rook-poly"]} == {64}
    assert {r["threshold"] for r in by_scheme["rook-base3"]} == {27}
    assert {r["threshold"] for r in by_scheme["lcc"]} == {15}
    for group in by_scheme.values():
        assert len(group) == 3  # two trials plus the mean row
        assert group[-1]["trial"] == "mean"
        assert all(r["verified"] for r in group[:-1])


def test_sweep_csv_format():
    rows = sweep(schemes=["rook-base3"], n_values=[2], trials=1, seed=19)
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    empty = sweep_to_csv(sweep(schemes=["rook-base3"], n_values=[], trials=1))
    assert empty.strip() == ",".join(SWEEP_COLUMNS)


def test_sweep_replication_uses_lambda_times_n_workers():
    rows = sweep(schemes=["replication"], n_values=[2], trials=1, seed=23, lam=3)
    assert rows[0]["threshold"] == 4  # 3*2 - 3 + 1
    assert rows[0]["success"] == 1


def test_sweep_deterministic():
    kw = dict(schemes=["rook-base3", "csa"], n_values=[2, 4], trials=2, seed=29)
    assert sweep(**kw) == sweep(**kw)
