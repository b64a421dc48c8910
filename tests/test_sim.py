from __future__ import annotations

import json

import pytest

from rookbench import baselines, rook
from rookbench.baselines import SchemeDescriptor
from rookbench.sim import (
    SWEEP_COLUMNS,
    ConfigInvalid,
    FaultModel,
    SimConfig,
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
    # Every support exponent of behrend_exponents(8) is even, so x and -x
    # give equal rows and the first L responses are often singular; every
    # seed's full system has rank L, and the decoder uses every response.
    desc = SchemeDescriptor(scheme="rook-behrend", n=8)
    used = set()
    for seed in range(50):
        rep = run_simulation(SimConfig(descriptor=desc, m=60, seed=seed, modulus=257))
        assert rep.success and rep.verified, seed
        assert rep.threshold <= rep.responses_used <= rep.responses_received
        used.add(rep.responses_used)
    assert max(used) > rep.threshold  # counts every response the decode consumed


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
    calls = []
    original = baselines.behrend_exponents

    def counted(n, *args, **kwargs):
        calls.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(baselines, "behrend_exponents", counted)
    rep = run_simulation(cfg(scheme="rook-behrend", n=4, m=14))
    assert rep.success and rep.verified
    assert calls == [4]


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
