"""Exit-code contract, serialization, and determinism of the command line."""

import errno
import json
import sys

import pytest

from gammacross import acceptance, cli, gconv
from gammacross.counterexample import build_counterexample
from gammacross.errors import ConvergenceError


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_determinate_exit_zero(self, capsys):
        code, out, _ = run(capsys, ["check", "--alpha", "1.0",
                                    "--theta", "1,4", "--eta", "2,3"])
        assert code == 0
        assert "classification: SINGLE_CROSSING_BELOW" in out
        assert "direction -+" in out
        assert "near-zero sign: -" in out
        assert "tail sign: +" in out
        assert "eta_majorized_by_theta: True" in out

    def test_undecided_exit_two(self, capsys):
        code, out, _ = run(capsys, ["check", "--alpha", "1",
                                    "--theta", "0.5,3.0003", "--eta", "1.5,3.0"])
        assert code == 2
        assert "UNDECIDED" in out

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        code, out, _ = run(capsys, ["check", "--alpha", "1.0", "--theta", "1,4",
                                    "--eta", "2,3", "--out", str(path)])
        assert code == 0
        assert f"report written to {path}" in out
        payload = json.loads(path.read_text())
        assert payload["classification"] == "SINGLE_CROSSING_BELOW"
        assert payload["alpha"] == (1.0).hex()
        assert payload["decimal"]["alpha"] == 1.0
        assert payload["crossings"][0]["x"].startswith("0x")
        assert sorted(payload["orders"]) == [
            "eta_majorized_by_theta", "eta_st_below_theta",
            "log_eta_majorized_by_log_theta", "log_theta_majorized_by_log_eta",
            "theta_majorized_by_eta", "theta_st_below_eta",
            "v_witness_theta_over_eta",
        ]
        assert payload["orders"]["eta_majorized_by_theta"] is True
        assert payload["orders"]["theta_st_below_eta"] is False

    def test_hex_fields_match_decimal_mirror(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        assert run(capsys, ["check", "--alpha", "1.0", "--theta", "1,4",
                            "--eta", "2,3", "--out", str(path)])[0] == 0
        payload = json.loads(path.read_text())

        def same(hexed, dec):
            if isinstance(dec, float):
                return hexed == dec.hex()
            if isinstance(dec, list):
                return len(hexed) == len(dec) and all(map(same, hexed, dec))
            if isinstance(dec, dict):
                return hexed.keys() == dec.keys() and all(same(hexed[k], dec[k]) for k in dec)
            return hexed == dec

        mirror = payload["decimal"]
        assert sorted(mirror) == ["alpha", "crossings", "error_estimate", "eta",
                                  "theta", "window"]
        for key, dec in mirror.items():
            assert same(payload[key], dec), key

    def test_order_predicates_computed_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = cli.st_dominates

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "st_dominates", counting)
        code, _, _ = run(capsys, ["check", "--alpha", "1.0", "--theta", "1,4",
                                  "--eta", "2,3", "--out", str(tmp_path / "rep.json")])
        assert code == 0
        # one stochastic-order test each way, shared by stdout and the report
        assert len(calls) == 2

    def test_hex_float_tokens(self, capsys):
        code_h, out_h, _ = run(capsys, ["check", "--alpha", "0x1p0",
                                        "--theta", "0x1p0,0x1p2", "--eta", "2,3"])
        code_d, out_d, _ = run(capsys, ["check", "--alpha", "1",
                                        "--theta", "1,4", "--eta", "2,3"])
        assert code_h == code_d == 0
        assert out_h == out_d

    def test_usage_and_domain_errors(self, capsys):
        assert run(capsys, [])[0] == 1
        assert run(capsys, ["frobnicate"])[0] == 1
        assert run(capsys, ["check", "--alpha", "1", "--theta", "1,4",
                            "--eta", "2,3", "--bogus"])[0] == 1
        code, _, err = run(capsys, ["check", "--alpha", "-1",
                                    "--theta", "1,4", "--eta", "2,3"])
        assert code == 1 and "invalid input" in err
        code, _, err = run(capsys, ["check", "--alpha", "1",
                                    "--theta", "1,nope", "--eta", "2,3"])
        assert code == 1 and "cannot parse number" in err

    def test_underflow_names_the_leading_weight(self, capsys):
        # the scale ratio is only 2; alpha * sum(log p_j) is what passes -700
        code, _, err = run(capsys, ["check", "--alpha", "1e6",
                                    "--theta", "1,2", "--eta", "1.5,1.5"])
        assert code == 1
        assert "leading series weight" in err and "-700" in err
        assert "scale ratios" not in err

    def test_closed_stdout_is_a_write_error(self, capsys, monkeypatch):
        # `gammacross check ... | head -1`: no file is named, so none is reported
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.main(["check", "--alpha", "1", "--theta", "1,4", "--eta", "2,3"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot write output: Broken pipe" in err and "None" not in err


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    path.write_text(build_counterexample(0.5).to_json())
    return path


class TestCounterexampleVerify:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(capsys, ["counterexample", "--alpha", "0.5",
                                    "--out", str(path)])
        assert code == 0
        assert "classification MULTI(" in out
        code, out, _ = run(capsys, ["verify", "--cert", str(path)])
        assert code == 0
        assert "overall: PASS" in out

    def test_tampered_certificate_exit_two(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        assert run(capsys, ["counterexample", "--alpha", "0.5",
                            "--out", str(path)])[0] == 0
        raw = json.loads(path.read_text())
        raw["theta"], raw["eta"] = raw["eta"], raw["theta"]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(raw))
        code, out, _ = run(capsys, ["verify", "--cert", str(bad)])
        assert code == 2
        assert "overall: FAIL" in out

    def test_alpha_at_least_one_rejected(self, capsys):
        code, _, err = run(capsys, ["counterexample", "--alpha", "1.5"])
        assert code == 1
        assert "shape below 1" in err

    @pytest.mark.parametrize("field,index,value,clause", [
        ("lambda", None, 0, "eps_delta"),
        ("lambda", None, "-0x0p+0", "eps_delta"),
        ("theta", 0, "0x0p+0", "product_inequality"),
        ("eta", 0, "0x0p+0", "product_inequality"),
        ("theta", 0, "-0x1p-7", "vector_algebra"),
        ("theta", 1, "inf", "vector_algebra"),
        ("eta", 2, None, "vector_algebra"),
        ("theta", None, ["0x0p+0"] * 3, "vector_algebra"),
        ("x0", None, 0.6, "lambda_matches"),
        ("x0", None, -0.125, "lambda_matches"),
        ("tolerances", "tol", "nan", "recount_classification"),
        ("tolerances", "tol", 2, "recount_classification"),
        ("tolerances", "grid_size", 10, "recount_classification"),
    ], ids=["lambda_zero", "lambda_negative_zero", "theta_zero_entry", "eta_zero_entry",
            "theta_negative_entry", "theta_infinite_entry", "eta_two_entries",
            "theta_all_zero",             "x0_above_mode", "x0_negative",
            "tol_nan", "tol_two", "grid_size_ten"])
    def test_degenerate_field_fails_its_clause(self, capsys, cert_path, tmp_path, field,
                                               index, value, clause):
        # a report with a FAIL clause and exit 2, not a traceback or an
        # "invalid input" exit 1
        raw = json.loads(cert_path.read_text())
        if index is None:
            raw[field] = value
        elif value is None:  # cut the vector before this entry
            del raw[field][index:]
        else:
            raw[field][index] = value
        bad = tmp_path / "degenerate.json"
        bad.write_text(json.dumps(raw))
        code, out, _ = run(capsys, ["verify", "--cert", str(bad)])
        assert code == 2
        assert f"[FAIL] {clause}:" in out and "overall: FAIL" in out

    def test_missing_certificate(self, capsys, tmp_path):
        code, _, err = run(capsys, ["verify", "--cert", str(tmp_path / "no.json")])
        assert code == 1
        assert "file not found" in err

    @pytest.mark.parametrize("extra,message", [
        (["--grid-factor", "0"], "grid_factor must be at least 1"),
        (["--grid-factor", "-3"], "grid_factor must be at least 1"),
        (["--tol-factor", "4"], "tol_factor must be in (0, 1]"),
        (["--tol-factor", "0"], "tol_factor must be in (0, 1]"),
        # 2048 * 10**6 points: rejected before the scan allocates anything
        (["--grid-factor", "1000000"], "grid_size must be at most 1048576"),
    ], ids=["grid_factor_0", "grid_factor_negative", "tol_factor_4", "tol_factor_0",
            "grid_factor_1e6"])
    def test_scan_settings_out_of_range(self, capsys, cert_path, extra, message):
        # the re-check may be finer than the certificate, never coarser
        code, out, err = run(capsys, ["verify", "--cert", str(cert_path)] + extra)
        assert code == 1 and out == ""
        assert message in err

    def test_certificate_path_is_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, ["verify", "--cert", str(tmp_path)])
        assert code == 1
        assert "Is a directory" in err

    def test_undecodable_certificate(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, ["verify", "--cert", str(path)])
        assert code == 1
        assert "malformed certificate" in err


class TestSweep:
    ARGS = ["sweep", "--alpha", "1.0", "--n", "2,3", "--trials", "2", "--seed", "99"]

    def test_csv_shape_and_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code, _, err = run(capsys, self.ARGS + ["--out", str(p1)])
        assert code == 0
        assert "sweep: 4 rows, seed=99" in err
        assert run(capsys, self.ARGS + ["--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().split("\n")
        assert lines[0] == "id,alpha,n,theta,eta,classification,k,crossings,margins,seed"
        assert len(lines) == 5
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2", "3"]
        # floats ship as hex strings in the data columns
        assert all(row.split(",")[1].startswith("0x") for row in lines[1:])

    def test_zero_trials_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["sweep", "--alpha", "1.0", "--n", "2",
                                    "--trials", "0", "--seed", "1"])
        assert code == 1
        assert "positive trial count" in err

    def test_unparsable_counts_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["sweep", "--alpha", "1.0", "--n", "x",
                                      "--trials", "1", "--seed", "1"])
        assert code == 1 and out == ""
        assert "cannot parse component counts" in err

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["sweep", "--alpha", "1.0", "--n", "2",
                                      "--trials", "1", "--seed", "-1"])
        assert code == 1 and out == ""
        assert "seed must be nonnegative" in err

    def test_invalid_scan_settings_rejected_like_check(self, capsys):
        # check and sweep reject the same values, before any row is written
        for extra, message in ((["--grid-size", "8"], "grid_size must be at least 64"),
                               (["--grid-size", "1048577"], "grid_size must be at most"),
                               (["--tol", "2"], "tol must be in (0, 1)"),
                               (["--alpha", "-1"], "alpha must be positive")):
            for argv in (["check", "--alpha", "1", "--theta", "1,4", "--eta", "2,3"],
                         ["sweep", "--alpha", "1.0", "--n", "2", "--trials", "2",
                          "--seed", "1"]):
                code, out, err = run(capsys, argv + extra)
                assert code == 1 and message in err, (argv, extra)
                if argv[0] == "sweep":
                    assert out == ""

    def test_near_counterexample_hits_multi(self, capsys, tmp_path):
        path = tmp_path / "near.csv"
        code, _, _ = run(capsys, ["sweep", "--alpha", "0.5", "--n", "3",
                                  "--trials", "3", "--seed", "5",
                                  "--near-counterexample", "--out", str(path)])
        assert code == 0
        labels = [row.split(",")[5] for row in path.read_text().strip().split("\n")[1:]]
        assert len(labels) == 3
        assert any(lab.startswith("MULTI") for lab in labels)

    def test_near_counterexample_guards(self, capsys):
        code, _, err = run(capsys, ["sweep", "--alpha", "1.5", "--n", "3",
                                    "--trials", "1", "--seed", "1",
                                    "--near-counterexample"])
        assert code == 1 and "single alpha below 1" in err
        code, _, err = run(capsys, ["sweep", "--alpha", "0.5", "--n", "2",
                                    "--trials", "1", "--seed", "1",
                                    "--near-counterexample"])
        assert code == 1 and "3-component" in err


class TestSelftestFaultInjection:
    def test_corrupted_engine_exits_four(self, capsys, monkeypatch):
        real = gconv.gammaln
        monkeypatch.setattr("gammacross.gconv.gammaln",
                            lambda a: real(a) + 0.05)
        code, out, _ = run(capsys, ["selftest", "--fast"])
        assert code == 4
        assert "selftest: FAIL" in out
        # the closed-form agreement criterion must be among the failures
        assert any(line.startswith("[FAIL]") and "criterion 6" in line
                   for line in out.splitlines())


class TestSelftestRunner:
    def test_fast_runs_exactly_the_fast_criteria(self, capsys):
        assert acceptance.run_selftest(fast=True) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines[:-1]] == [
            f"[PASS] criterion {n}" for n in (1, 5, 6, 7, 10)]
        assert lines[-1] == "selftest: PASS (5 criteria)"

    def test_raising_criterion_fails_under_its_own_name(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ConvergenceError("injected")
        monkeypatch.setattr(acceptance, "sign_profile", broken)
        res = acceptance.run_criterion(1)
        assert not res.passed
        assert res.line.startswith("[FAIL] criterion 1 (no-crossing dominance instance): "
                                   "raised ConvergenceError: injected [")

    def test_over_budget_fails(self, monkeypatch):
        name, _, fn = acceptance._CRITERIA[1]
        monkeypatch.setitem(acceptance._CRITERIA, 1, (name, 0.0, fn))
        res = acceptance.run_criterion(1)
        assert not res.passed
        assert res.detail.startswith("classification=NO_CROSSING dominance=True; over budget (")
