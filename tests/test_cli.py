"""Exit-code contract, serialization, and determinism of the command line."""

import json

import pytest

from gammacross import cli, gconv


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

    def test_missing_certificate(self, capsys, tmp_path):
        code, _, err = run(capsys, ["verify", "--cert", str(tmp_path / "no.json")])
        assert code == 1
        assert "file not found" in err

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
