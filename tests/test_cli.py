from __future__ import annotations

import argparse
import json
import subprocess
import sys

import pytest

from rookbench.baselines import SchemeDescriptor, rook_exponents_for
from rookbench.cli import build_parser, main
from rookbench.rook import encode_delta


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_base3(tmp_path, capsys):
    out_file = tmp_path / "pair.json"
    code, out, _ = run_cli(["gen", "--scheme", "base3", "--n", "4", "--out", str(out_file)], capsys)
    assert code == 0
    assert out.strip() == "L=9 decodable=true"
    data = json.loads(out_file.read_text())
    assert data["p"] == [0, 1, 3, 4]
    assert data["q"] == [0, 1, 3, 4]


def test_gen_poly(capsys):
    code, out, _ = run_cli(["gen", "--scheme", "poly", "--n", "3"], capsys)
    assert code == 0
    assert "L=9" in out


def test_gen_behrend_singleton(capsys):
    code, out, _ = run_cli(["gen", "--scheme", "behrend", "--n", "1"], capsys)
    assert code == 0
    assert "L=1 decodable=true" in out


def test_gen_modulus_too_small(capsys):
    code, _, err = run_cli(["gen", "--scheme", "poly", "--n", "11", "--modulus", "101"], capsys)
    assert code == 2
    assert "too large" in err


def test_gen_modulus_bounds_the_largest_product_exponent(capsys):
    # base3 n=8 has max input exponent 13 but product exponent 26, which
    # GF(17) cannot bind; gen must reject what simulate would reject.
    code, out, err = run_cli(["gen", "--scheme", "base3", "--n", "8", "--modulus", "17"], capsys)
    assert (code, out) == (2, "")
    assert "exponent 26 too large" in err
    code, _, err = run_cli(
        ["simulate", "--scheme", "rook-base3", "--n", "8", "--modulus", "17", "--workers", "12"],
        capsys,
    )
    assert code == 2 and "exponent 26 too large" in err
    code, out, _ = run_cli(["gen", "--scheme", "base3", "--n", "8", "--modulus", "29"], capsys)
    assert (code, out.strip()) == (0, "L=27 decodable=true")


def test_gen_modulus_checks_the_normalized_pair_that_simulate_binds(capsys):
    # behrend n = 8 binds normalized: its largest product exponent is 80,
    # not the raw pair's 168, so GF(101) takes it and GF(79) does not.
    for command in (["gen", "--scheme", "behrend"], ["simulate", "--scheme", "rook-behrend", "--seed", "1"]):
        code, _, err = run_cli(command + ["--n", "8", "--modulus", "101"], capsys)
        assert code == 0, (command, err)
        code, out, err = run_cli(command + ["--n", "8", "--modulus", "79"], capsys)
        assert (code, out) == (2, ""), command
        assert "exponent 80 too large" in err, command


def test_check_decodable_file(tmp_path, capsys):
    f = tmp_path / "good.json"
    f.write_text(json.dumps({"n": 3, "p": [0, 1, 3], "q": [0, 1, 3]}))
    code, out, _ = run_cli(["check", "--exponents", str(f)], capsys)
    assert code == 0
    assert "decodable=true" in out and "L=6" in out and "3ap_free=true" in out


def test_check_non_decodable_exit_one(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": 3, "p": [0, 1, 2], "q": [0, 1, 2]}))
    code, out, _ = run_cli(["check", "--exponents", str(f)], capsys)
    assert code == 1
    assert "decodable=false" in out


def test_check_malformed_file(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code, _, err = run_cli(["check", "--exponents", str(f)], capsys)
    assert code == 2
    assert "cannot parse" in err


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "p": [0, 1.9], "q": [0, 1]},  # a float exponent
        {"n": 2, "p": [0, True], "q": [0, 1]},  # a bool exponent
        {"n": 2.9, "p": [0, 1], "q": [0, 1]},  # a float n
        {"n": 2, "p": [0, " 1"], "q": [0, 1]},  # a padded decimal string
        {"n": 2, "p": "01", "q": [0, 1]},  # a string in place of a list
    ],
    ids=["float", "bool", "float-n", "padded-string", "string-list"],
)
def test_check_rejects_values_it_would_have_to_change(tmp_path, capsys, data):
    # Each of these used to be read as a nearby integer pair and checked.
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(data))
    code, out, err = run_cli(["check", "--exponents", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse exponent file")


def test_check_missing_file(capsys):
    code, _, err = run_cli(["check", "--exponents", "/nonexistent/x.json"], capsys)
    assert code == 2


def test_gen_check_roundtrip(tmp_path, capsys):
    f = tmp_path / "behrend.json"
    assert run_cli(["gen", "--scheme", "behrend", "--n", "16", "--out", str(f)], capsys)[0] == 0
    code, out, _ = run_cli(["check", "--exponents", str(f)], capsys)
    assert code == 0
    assert "3ap_free=true" in out


def test_minsearch(capsys):
    code, out, _ = run_cli(["minsearch", "--n", "2", "--max-exponent", "4"], capsys)
    assert code == 0
    assert out.startswith("Lmin=3")
    code, out, _ = run_cli(["minsearch", "--n", "1", "--max-exponent", "4"], capsys)
    assert "Lmin=1" in out
    code, out, _ = run_cli(["minsearch", "--n", "3", "--max-exponent", "8"], capsys)
    assert "Lmin=6" in out
    # No decodable pair fits: a one-line negative result, exit 1.
    for n, top in ((3, 2), (4, 3)):
        code, out, err = run_cli(["minsearch", "--n", str(n), "--max-exponent", str(top)], capsys)
        assert (code, err) == (1, "")
        assert out == f"Lmin=none: no decodable pair of {n} exponents up to {top}\n"


def test_minsearch_budget_exceeded(capsys):
    code, _, err = run_cli(["minsearch", "--n", "7", "--max-exponent", "4"], capsys)
    assert code == 2


def test_bench_delta(tmp_path, capsys):
    f = tmp_path / "delta.csv"
    code, out, _ = run_cli(["bench-delta", "--n-list", "16,64", "--out", str(f)], capsys)
    assert code == 0
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "n,delta_muls,ratio"
    assert len(lines) == 3
    assert lines[1].startswith("16,")


def test_bench_delta_is_what_a_rook_behrend_share_is_charged(capsys):
    code, out, _ = run_cli(["bench-delta", "--n-list", "16,64"], capsys)
    assert code == 0
    rows = [line.split(",")[:2] for line in out.strip().split("\n")[1:]]
    assert rows == [
        [str(n), str(encode_delta(rook_exponents_for(SchemeDescriptor(scheme="rook-behrend", n=n))))]
        for n in (16, 64)
    ]


def test_bench_delta_degenerate_n(capsys):
    code, out, _ = run_cli(["bench-delta", "--n-list", "1"], capsys)
    assert code == 0
    n, delta, ratio = out.strip().split("\n")[1].split(",")
    assert n == "1"
    assert float(ratio) == float(delta)  # log2(1) = 0: raw count reported


def test_bench_delta_empty_list(capsys):
    code, out, _ = run_cli(["bench-delta", "--n-list", ""], capsys)
    assert code == 0
    assert out.strip() == "n,delta_muls,ratio"


def test_simulate_success(tmp_path, capsys):
    f = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["simulate", "--scheme", "rook-base3", "--n", "2", "--workers", "5",
         "--seed", "42", "--out", str(f)],
        capsys,
    )
    assert code == 0
    report = json.loads(f.read_text())
    assert report["success"] is True
    assert report["verified"] is True
    assert report["responses_used"] == 3
    assert json.loads(out) == report


def test_simulate_failure_exit_one(capsys):
    code, out, _ = run_cli(
        ["simulate", "--scheme", "rook-base3", "--n", "2", "--workers", "5",
         "--fail-prob", "1.0"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["error"] == "InsufficientWorkers"


def test_simulate_replication_defaults_to_lambda_n_workers(capsys):
    code, out, _ = run_cli(["simulate", "--scheme", "replication", "--n", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["m"] == 4 and report["success"] is True


def test_simulate_replication_rejects_lambda_zero(capsys):
    code, out, err = run_cli(["simulate", "--scheme", "replication", "--n", "2", "--lambda", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "replication needs lambda >= 1" in err


def test_simulate_deterministic_given_seed(capsys):
    argv = ["simulate", "--scheme", "csa", "--n", "3", "--seed", "5",
            "--straggle-mean", "2.0", "--fail-prob", "0.2"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert (code1, out1) == (code2, out2)


def test_simulate_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("ROOKBENCH_SEED", "42")
    argv = ["simulate", "--scheme", "rook-base3", "--n", "2", "--workers", "5"]
    _, out_env, _ = run_cli(argv, capsys)
    monkeypatch.delenv("ROOKBENCH_SEED")
    _, out_default, _ = run_cli(argv + ["--seed", "42"], capsys)
    assert json.loads(out_env) == json.loads(out_default)


def test_bad_env_seed_is_read_only_where_a_seed_is_taken(monkeypatch, capsys):
    monkeypatch.setenv("ROOKBENCH_SEED", "abc")
    code, out, _ = run_cli(["gen", "--scheme", "poly", "--n", "2"], capsys)
    assert (code, out.strip()) == (0, "L=4 decodable=true")
    code, out, err = run_cli(["simulate", "--scheme", "rook-base3", "--n", "2", "--workers", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: ROOKBENCH_SEED must be an integer, got 'abc'\n"
    code, _, _ = run_cli(["simulate", "--scheme", "rook-base3", "--n", "2", "--workers", "5", "--seed", "1"], capsys)
    assert code == 0


def test_sweep_csv(tmp_path, capsys):
    f = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        ["sweep", "--schemes", "rook-base3,lcc", "--n-list", "2,4",
         "--trials", "1", "--seed", "3", "--out", str(f)],
        capsys,
    )
    assert code == 0
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "scheme,n,trial,threshold,responses_used,encode_muls,encode_invs,worker_muls,decode_time,success,verified"
    assert len(lines) == 1 + 2 * 2 * 2  # per-trial row + mean row per (scheme, n)


def test_sweep_rejects_unknown_scheme(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--schemes", "rook-base3,nope", "--n-list", "2"])
    assert exc.value.code == 2


def test_sweep_rejects_negative_workers_before_any_trial(capsys):
    # m = threshold + extra_workers is checked per group, so the error does
    # not wait for a trial to run.
    errors = []
    for trials in ("0", "1"):
        argv = ["sweep", "--schemes", "lcc", "--n-list", "2", "--trials", trials, "--workers", "-10"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        errors.append(err)
    assert errors[0] == errors[1] == "error: m must be >= 1\n"


def test_sweep_bad_descriptor_exits_two_with_its_message(capsys):
    for argv, message in (
        (["--schemes", "lcc", "--n-list", "0"], "n must be >= 1"),
        (["--schemes", "replication", "--n-list", "2", "--lambda", "0"], "replication needs lambda >= 1"),
    ):
        for trials in ("0", "1"):
            code, out, err = run_cli(["sweep"] + argv + ["--trials", trials], capsys)
            assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--scheme", "poly", "--n", "3", "--frobnicate"])
    assert exc.value.code == 2


def test_invalid_modulus_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scheme", "lcc", "--n", "2", "--modulus", "100"])
    assert exc.value.code == 2


def test_simulate_modulus_too_small_for_scheme(capsys):
    code, _, err = run_cli(
        ["simulate", "--scheme", "rook-poly", "--n", "11", "--modulus", "101"], capsys
    )
    assert code == 2
    assert "error:" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rookbench.cli", "gen", "--scheme", "base3", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "L=3 decodable=true"


# One input error per case, keyed by subcommand; every subcommand has a case.
INPUT_ERRORS = {
    "gen": [
        ["--scheme", "poly", "--n", "0"],
        ["--scheme", "poly", "--n", "2", "--out", "/nonexistent/dir/x"],
    ],
    "check": [["--exponents", "/nonexistent/x.json"]],
    "minsearch": [["--n", "0", "--max-exponent", "4"], ["--n", "3", "--max-exponent", "1"]],
    "bench-delta": [["--n-list", "0"]],
    "simulate": [["--scheme", "lcc", "--n", "2", "--straggle-mean", "inf"]],
    "sweep": [
        ["--schemes", "lcc", "--n-list", "2", "--trials", "-1"],
        # checked before the first trial, so zero trials still reject it
        ["--schemes", "lcc", "--n-list", "2", "--trials", "0", "--rows", "0", "--fail-prob", "7"],
    ],
}


def test_input_error_table_covers_every_subcommand():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(INPUT_ERRORS) == set(sub.choices)


@pytest.mark.parametrize(
    "argv", [[cmd] + args for cmd, cases in INPUT_ERRORS.items() for args in cases], ids=" ".join
)
def test_input_errors_exit_two_with_one_error_line(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
