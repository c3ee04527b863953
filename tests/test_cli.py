import csv
import io
import json
import math

import pytest

from evlab.cli import build_parser, main

GOLDEN_TRP_N10 = 0.3380399306382021


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return header, [dict(zip(header, row)) for row in rows[1:]]


class TestCompute:
    def test_balanced_outcome_sticks_at_zero(self, capsys):
        status, out = run_cli(
            capsys, "compute", "--n", "10", "--k", "5", "--null", "0.5",
            "--kinds", "neglogp,logmlr",
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header == ["kind", "n", "k", "value"]
        assert [r["value"] for r in rows] == ["0", "0"]

    def test_no_data_bayes_factor_is_zero(self, capsys):
        status, out = run_cli(
            capsys, "compute", "--n", "0", "--k", "0", "--bf", "uniform", "--null", "0.5"
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert rows == [{"kind": "logbf", "n": "0", "k": "0", "value": "0"}]

    def test_all_heads_p_value(self, capsys):
        status, out = run_cli(
            capsys, "compute", "--n", "10", "--k", "10", "--null", "0.5",
            "--kinds", "pvalue",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[0]["value"] == "0.001953125"

    def test_bayes_factor_kinds(self, capsys):
        status, out = run_cli(
            capsys, "compute", "--n", "10", "--k", "5", "--bf", "uniform",
            "--kinds", "logbf,abslogbf,bf",
        )
        assert status == 0
        _, rows = parse_csv(out)
        values = {r["kind"]: float(r["value"]) for r in rows}
        assert values["logbf"] == pytest.approx(-0.995852554710, abs=1e-9)
        assert values["abslogbf"] == pytest.approx(0.995852554710, abs=1e-9)
        assert values["bf"] == pytest.approx(math.exp(-0.995852554710), abs=1e-9)

    def test_slr_uses_theta_pair(self, capsys):
        status, out = run_cli(
            capsys, "compute", "--n", "1", "--k", "1",
            "--theta1", "0.25", "--theta2", "0.75", "--kinds", "logslr",
        )
        assert status == 0
        _, rows = parse_csv(out)
        # values render with 12 significant digits
        assert float(rows[0]["value"]) == pytest.approx(math.log(1.0 / 3.0), rel=1e-11)

    def test_continuous_mode(self, capsys):
        status, out = run_cli(
            capsys, "compute", "--n", "2.5", "--k", "1.25", "--mode", "continuous",
            "--kinds", "logmlr",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == 0.0

    def test_ratio_overflow_prints_inf(self, capsys):
        argv = ["compute", "--n", "5000", "--k", "1000", "--kinds", "mlr,logmlr"]
        status, out = run_cli(capsys, *argv)
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[0]["value"] == "inf"
        assert float(rows[1]["value"]) > 710.0
        status, out = run_cli(capsys, *argv, "--format", "jsonl")
        assert status == 0
        assert '"value":Infinity' in out.splitlines()[0]

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "4", "--k", "2", "--kinds", "entropy"])
        assert exc.value.code == 2
        assert "entropy" in capsys.readouterr().err

    def test_bad_null_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "4", "--k", "2", "--null", "1.5"])
        assert exc.value.code == 2
        assert "--null" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, names", [
        (["--n", "10", "--k", "11"], "--n 10 --k 11: require 0 <= k <= n"),
        (["--n", "10.5", "--k", "3"], "--n 10.5 --k 3: exact mode requires integer"),
        (["--n", "-1", "--k", "0"], "--n -1 --k 0: trial count must be nonnegative"),
        (["--n", "10", "--k", "3", "--support", "0.5,0.2", "--kinds", "logbf"],
         "--support 0.5,0.2: support must be a positive-width subinterval"),
    ])
    def test_invalid_data_is_usage_error(self, capsys, flags, names):
        with pytest.raises(SystemExit) as exc:
            main(["compute", *flags])
        assert exc.value.code == 2
        assert names in capsys.readouterr().err

    def test_support_is_checked_only_for_bf_kinds(self, capsys):
        status, _ = run_cli(capsys, "compute", "--n", "10", "--k", "3", "--support", "0.5,0.2")
        assert status == 0

    def test_computation_error_exits_one(self, capsys):
        # p-value needs integer data: continuous mode fails at compute time
        status = main(["compute", "--n", "2.5", "--k", "1.0", "--mode", "continuous",
                       "--kinds", "pvalue"])
        assert status == 1
        assert "error" in capsys.readouterr().err


class TestFigure1:
    def test_variant_a_row_contract(self, capsys):
        status, out = run_cli(capsys, "figure1", "a", "--n", "10", "--grid", "3")
        assert status == 0
        header, rows = parse_csv(out)
        assert header == ["variant", "n", "y", "log_es", "abs_log_es", "side", "row_type"]
        assert len(rows) == 4
        assert [r["row_type"] for r in rows] == ["curve", "curve", "curve", "trp"]

    def test_variant_a_touches_zero_at_half(self, capsys):
        _, out = run_cli(capsys, "figure1", "a", "--n", "10,100")
        _, rows = parse_csv(out)
        for row in rows:
            if row["row_type"] == "trp":
                assert row["y"] == "0.5"
                assert abs(float(row["abs_log_es"])) <= 1e-10
                assert row["side"] == "transition point"

    def test_variant_a_sides(self, capsys):
        _, out = run_cli(capsys, "figure1", "a", "--n", "10", "--grid", "5")
        _, rows = parse_csv(out)
        curve = [r for r in rows if r["row_type"] == "curve"]
        assert curve[0]["side"] == "supports H1"
        assert curve[-1]["side"] == "supports H2"

    def test_variant_b_trp_drifts_right(self, capsys):
        status, out = run_cli(capsys, "figure1", "b", "--n", "10,100", "--grid", "9")
        assert status == 0
        _, rows = parse_csv(out)
        markers = [float(r["y"]) for r in rows if r["row_type"] == "trp"]
        assert len(markers) == 2
        assert markers[0] == pytest.approx(GOLDEN_TRP_N10, abs=1e-9)
        assert markers[0] < markers[1] < 0.5


class TestTrp:
    def test_simple_setup_constant_half(self, capsys):
        status, out = run_cli(capsys, "trp", "--setup", "simple", "--n", "1,10,100")
        assert status == 0
        _, rows = parse_csv(out)
        assert [r["trp_y"] for r in rows] == ["0.5", "0.5", "0.5"]
        assert all(float(r["residual"]) < 1e-8 for r in rows)

    def test_one_sided_golden(self, capsys):
        status, out = run_cli(capsys, "trp", "--setup", "one-sided", "--n", "10,100,1000")
        assert status == 0
        _, rows = parse_csv(out)
        values = [float(r["trp_y"]) for r in rows]
        assert values[0] == pytest.approx(GOLDEN_TRP_N10, abs=1e-9)
        assert values[0] < values[1] < values[2] < 0.5
        assert all(float(r["residual"]) < 1e-8 for r in rows)

    def test_two_sided_pair(self, capsys):
        status, out = run_cli(
            capsys, "trp", "--setup", "two-sided", "--support", "0,1", "--n", "10"
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert [r["side"] for r in rows] == ["lower", "upper"]
        assert float(rows[0]["trp_y"]) < 0.5 < float(rows[1]["trp_y"])

    def test_no_sign_change_rows_exit_one(self, capsys):
        status = main(["trp", "--setup", "two-sided", "--support", "0,1", "--n", "1"])
        out = capsys.readouterr().out
        assert status == 1
        _, rows = parse_csv(out)
        assert rows[0]["trp_y"] == ""
        assert "sign" in rows[0]["error"]

    def test_partial_failure_still_succeeds(self, capsys):
        status, out = run_cli(
            capsys, "trp", "--setup", "two-sided", "--support", "0,1", "--n", "1,10"
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3  # one failure row at n=1, two roots at n=10

    def test_one_sided_large_n(self, capsys):
        # needs more continued-fraction iterations than the former fixed cap of 300
        status, out = run_cli(capsys, "trp", "--setup", "one-sided", "--n", "1000000")
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[0]["error"] == ""
        assert 0.49 < float(rows[0]["trp_y"]) < 0.5

    @pytest.mark.parametrize("command", [["figure1", "b"], ["trp"], ["zero-paths", "ride-trp"]])
    @pytest.mark.parametrize("tol", ["0", "-1e-12", "nan"])
    def test_non_positive_tol_is_usage_error(self, capsys, command, tol):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--tol", tol])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestZeroPaths:
    def test_shrink_n_monotone(self, capsys):
        status, out = run_cli(capsys, "zero-paths", "shrink-n", "--y", "0.9")
        assert status == 0
        _, rows = parse_csv(out)
        magnitudes = [abs(float(r["log_bf"])) for r in rows]
        assert all(m2 < m1 for m1, m2 in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] < 0.05

    def test_ride_trp_single_row(self, capsys):
        status, out = run_cli(capsys, "zero-paths", "ride-trp", "--n", "10")
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert abs(float(rows[0]["log_bf"])) < 1e-8

    def test_both_traces(self, capsys):
        status, out = run_cli(capsys, "zero-paths", "--both")
        assert status == 0
        _, rows = parse_csv(out)
        paths = [r["path"] for r in rows]
        assert paths == ["shrink-n"] * 6 + ["ride-trp"] * 3
        shrink_final = [r for r in rows if r["path"] == "shrink-n"][-1]
        ride_final = [r for r in rows if r["path"] == "ride-trp"][-1]
        assert float(shrink_final["against_both"]) < 0.01
        assert float(ride_final["against_both"]) > 100.0

    def test_path_and_both_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zero-paths", "shrink-n", "--both"])
        assert exc.value.code == 2

    def test_missing_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zero-paths"])
        assert exc.value.code == 2


class TestAudit:
    def test_transform_log_distortion(self, capsys):
        status, out = run_cli(
            capsys, "audit", "transform", "--f", "log", "--interval", "49,100"
        )
        assert status == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["order_preserving"] == "true"
        assert row["affine"] == "false"
        assert 2.0 <= float(row["unit_distortion"]) <= 2.02

    def test_transform_default_is_the_rubber_scale(self, capsys):
        status, out = run_cli(capsys, "audit", "transform")
        assert status == 0
        _, rows = parse_csv(out)
        assert (rows[0]["transform"], rows[0]["lo"], rows[0]["hi"]) == ("log", "49", "100")
        assert 2.0 <= float(rows[0]["unit_distortion"]) <= 2.02

    @pytest.mark.parametrize("flags, names", [
        (["--grid", "3"], "transform log on --interval 49,100"),
        (["--unit", "0"], "transform log on --interval 49,100"),
        (["--interval", "50,50"], "transform log on --interval 50,50"),
        (["--interval=-5,10"], "transform log on --interval -5,10"),
        (["--f", "exp", "--interval", "0,1000"], "transform exp on --interval 0,1000"),
    ])
    def test_transform_domain_failures_are_usage_errors(self, capsys, flags, names):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "transform", *flags])
        assert exc.value.code == 2
        assert names in capsys.readouterr().err

    def test_transform_affine(self, capsys):
        status, out = run_cli(capsys, "audit", "transform", "--f", "affine:2,0")
        assert status == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["affine"] == "true"
        assert row["positive_scalar"] == "true"
        assert row["unit_distortion"] == "1"

    def test_transform_degrees(self, capsys):
        status, out = run_cli(capsys, "audit", "transform", "--f", "f2c")
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[0]["affine"] == "true"
        assert rows[0]["positive_scalar"] == "false"

    def test_agreement_finds_witnesses(self, capsys):
        status, out = run_cli(
            capsys, "audit", "agreement", "--max-n", "12", "--kinds", "neglogp,abslogbf"
        )
        assert status == 0
        _, rows = parse_csv(out)
        tau_rows = [r for r in rows if r["row_type"] == "tau"]
        witness_rows = [r for r in rows if r["row_type"] == "discordant"]
        assert len(tau_rows) == 3
        assert len(witness_rows) >= 1
        first = witness_rows[0]
        assert (first["n_a"], first["k_a"], first["n_b"], first["k_b"]) == ("2", "0", "2", "1")

    def test_agreement_witness_cap(self, capsys):
        _, out = run_cli(
            capsys, "audit", "agreement", "--max-n", "12", "--max-witnesses", "3"
        )
        _, rows = parse_csv(out)
        assert len([r for r in rows if r["row_type"] == "discordant"]) == 3

    def test_agreement_negative_witness_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "agreement", "--max-n", "12", "--max-witnesses", "-3"])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [["--max-n", "1"], ["--min-n", "12", "--max-n", "10"]])
    def test_agreement_empty_grid_is_usage_error(self, capsys, bounds):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "agreement", *bounds])
        assert exc.value.code == 2
        assert "empty outcome grid" in capsys.readouterr().err

    def test_agreement_cap_bounds_a_large_grid(self, capsys):
        status, out = run_cli(
            capsys, "audit", "agreement", "--max-n", "100", "--max-witnesses", "10"
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert len([r for r in rows if r["row_type"] == "discordant"]) == 10

    def test_agreement_rows_can_be_read_twice(self):
        args = build_parser().parse_args(["audit", "agreement", "--max-n", "8"])
        _, rows, _ = args.handler(args)
        first = list(rows)
        assert any(row["row_type"] == "discordant" for row in first)
        assert list(rows) == first

    def test_difference_demo(self, capsys):
        status, out = run_cli(capsys, "audit", "difference")
        assert status == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["raw_diff_12"]) == pytest.approx(0.01)
        assert float(row["neglog_diff_23"]) == pytest.approx(3.68888, abs=1e-4)


class TestOutputOptions:
    def test_jsonl_matches_csv_header(self, capsys):
        _, out = run_cli(
            capsys, "compute", "--n", "10", "--k", "5", "--kinds", "neglogp",
            "--format", "jsonl",
        )
        obj = json.loads(out.strip())
        assert obj == {"kind": "neglogp", "n": 10.0, "k": 5.0, "value": 0.0}

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        status, out = run_cli(
            capsys, "compute", "--n", "10", "--k", "5", "--kinds", "pvalue",
            "--out", str(path),
        )
        assert status == 0
        assert out == ""
        text = path.read_text(encoding="utf-8")
        assert text == "kind,n,k,value\npvalue,10,5,1\n"

    def test_log_base_rescales_log_columns_only(self, capsys):
        _, base_e = run_cli(capsys, "compute", "--n", "10", "--k", "10",
                            "--kinds", "neglogp,pvalue")
        _, base_10 = run_cli(capsys, "compute", "--n", "10", "--k", "10",
                             "--kinds", "neglogp,pvalue", "--log-base", "10")
        _, rows_e = parse_csv(base_e)
        _, rows_10 = parse_csv(base_10)
        scaled = float(rows_e[0]["value"]) / math.log(10.0)
        assert float(rows_10[0]["value"]) == pytest.approx(scaled, rel=1e-11)
        assert rows_10[1]["value"] == rows_e[1]["value"]  # p-value untouched

    def test_log_base_leaves_roots_unchanged(self, capsys):
        _, base_e = run_cli(capsys, "trp", "--setup", "one-sided", "--n", "10")
        _, base_2 = run_cli(capsys, "trp", "--setup", "one-sided", "--n", "10",
                            "--log-base", "2")
        _, rows_e = parse_csv(base_e)
        _, rows_2 = parse_csv(base_2)
        assert rows_e[0]["trp_y"] == rows_2[0]["trp_y"]

    def test_bad_log_base_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "2", "--k", "1", "--log-base", "1"])
        assert exc.value.code == 2

    def test_repeat_runs_identical(self, capsys):
        _, first = run_cli(capsys, "figure1", "b", "--n", "10", "--grid", "7")
        _, second = run_cli(capsys, "figure1", "b", "--n", "10", "--grid", "7")
        assert first == second
