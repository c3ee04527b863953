import contextlib
import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from evlab.cli import build_parser, main
from evlab.evidence import LOG_SCALE_KINDS
from evlab.transition import RESIDUAL_LIMIT

from test_readme import _examples as readme_examples

GOLDEN_TRP_N10 = 0.3380399306382021


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return header, [dict(zip(header, row)) for row in rows[1:]]


def _number(cell):
    """A CSV cell as a float where it is one."""
    try:
        return float(cell)
    except ValueError:
        return cell


def run_quietly(argv):
    """(exit status, stdout) of one command, a usage error included."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


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

    @pytest.mark.parametrize("argv, value", [
        # p is subnormal: -ln p would keep only the bits p has left (740.913711397)
        (["--n", "1080", "--k", "1", "--kinds", "neglogp"], "740.920166007"),
        # the posterior mass on [1/2, 1] is an upper tail that 1 - I would cancel
        (["--n", "146", "--k", "0", "--bf", "uniform", "--support", "0.5,1"], "-4.99043258678"),
    ])
    def test_full_precision_at_the_edges(self, capsys, argv, value):
        status, out = run_cli(capsys, "compute", *argv)
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[0]["value"] == value

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
         "argument --support: support must be a positive-width subinterval"),
        (["--n", "10", "--k", "3", "--bf", "beta:0,1"],
         "argument --bf: prior shapes must be positive and finite, got a=0.0, b=1.0"),
    ])
    def test_invalid_data_is_usage_error(self, capsys, flags, names):
        with pytest.raises(SystemExit) as exc:
            main(["compute", *flags])
        assert exc.value.code == 2
        assert names in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["compute", "--n", "10", "--k", "3", "--kinds", "pvalue"],
        ["compute", "--n", "10", "--k", "3", "--kinds", "logbf"],
        ["figure1", "b"],
        ["trp", "--setup", "simple"],
        ["trp", "--setup", "one-sided"],
        ["trp", "--setup", "two-sided"],
        ["zero-paths", "ride-trp"],
    ])
    def test_bad_support_is_usage_error_wherever_it_is_taken(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--support", "0.5,0.2"])
        assert exc.value.code == 2
        assert "--support" in capsys.readouterr().err

    def test_computation_error_exits_one(self, capsys):
        # p-value needs integer data: continuous mode fails at compute time
        status = main(["compute", "--n", "2.5", "--k", "1.0", "--mode", "continuous",
                       "--kinds", "pvalue"])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_huge_n_log_bf_is_finite(self, capsys):
        # the deviance form takes no log-gamma: ln BF = n ln 2 - ln(n + 1)
        status, out = run_cli(capsys, "compute", "--n", "1e306", "--k", "0", "--mode",
                              "continuous", "--bf", "uniform", "--kinds", "logbf")
        assert status == 0
        assert out == "kind,n,k,value\nlogbf,1e+306,0,6.9314718056e+305\n"

    def test_tiny_prior_shape_keeps_its_mass(self, capsys):
        # I_0.9(3, 1e-20) is about 1e-20, which 1 - I_0.1(1e-20, 3) rounds to 0;
        # mpmath quadrature of the two marginal likelihoods gives 49.7483666108
        status, out = run_cli(capsys, "compute", "--mode", "continuous", "--n", "100", "--k",
                              "0", "--bf", "beta:3,1e-20", "--support", "0.1,0.9",
                              "--kinds", "logbf")
        assert status == 0
        assert out == "kind,n,k,value\nlogbf,100,0,49.7483666108\n"

    def test_huge_n_names_the_shapes_the_fraction_cannot_take(self, capsys):
        # past shapes of about 1e154 the continued fraction's products overflow;
        # it stops at its iteration bound and names the inputs
        assert main(["figure1", "b", "--n", "1e306", "--grid", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "evlab: error: incomplete beta continued fraction did not converge for "
            "a=9.9e+305, b=1.0000000000000001e+304, x=0.5 within 1048576 iterations\n")


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

    @pytest.mark.parametrize("n, grid", [("1500", "50"), ("2000", "99"), ("100000", "200")])
    def test_variant_b_where_the_posterior_mass_underflows(self, capsys, n, grid):
        # from n = 1166 the posterior mass on [0, 1/2] at y = 0.99 is below the
        # smallest double; its log is not
        status, out = run_cli(capsys, "figure1", "b", "--n", n, "--grid", grid)
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == int(grid) + 1
        assert all(math.isfinite(float(r["log_es"])) for r in rows)


class TestTrp:
    @pytest.mark.parametrize("n_list, n_rows", [
        ("1,10,100", ["1", "10", "100"]),
        ("10,1,10", ["1", "10"]),  # sorted and de-duplicated, as for the other setups
    ])
    def test_simple_setup_constant_half(self, capsys, n_list, n_rows):
        status, out = run_cli(capsys, "trp", "--setup", "simple", "--n", n_list)
        assert status == 0
        _, rows = parse_csv(out)
        assert [r["n"] for r in rows] == n_rows
        assert all(r["trp_y"] == "0.5" for r in rows)
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

    @pytest.mark.parametrize("setup, support, named", [
        ("one-sided", "0.5,0.5000005", "support (0.5, 0.5000005) "),
        ("two-sided", "0.4999995,1", "support (0.4999995, 1.0) "),
    ])
    def test_too_narrow_support_names_the_support(self, capsys, setup, support, named):
        status, out = run_cli(capsys, "trp", "--setup", setup, "--support", support, "--n", "10")
        assert status == 1
        _, rows = parse_csv(out)
        assert rows[0]["error"].startswith(named)
        assert "null 0.5" in rows[0]["error"] and "bracket" not in rows[0]["error"]

    def test_one_sided_large_n(self, capsys):
        # needs more continued-fraction iterations than the former fixed cap of 300
        status, out = run_cli(capsys, "trp", "--setup", "one-sided", "--n", "1000000")
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[0]["error"] == ""
        assert 0.49 < float(rows[0]["trp_y"]) < 0.5

    @pytest.mark.parametrize("flags", [
        ["--n", "10000000"],
        ["--setup", "two-sided", "--support", "0.1,0.9", "--n", "10000000"],
    ])
    def test_roots_at_ten_million_trials(self, capsys, flags):
        # log BF near these roots is right to about 1e-15, so the root
        # residual is that of bisection alone, under RESIDUAL_LIMIT
        status, out = run_cli(capsys, "trp", *flags)
        assert status == 0
        _, rows = parse_csv(out)
        assert rows and all(r["error"] == "" for r in rows)
        assert all(float(r["residual"]) <= RESIDUAL_LIMIT for r in rows)

    @pytest.mark.parametrize("command", [["figure1", "b"], ["trp"], ["zero-paths", "ride-trp"]])
    @pytest.mark.parametrize("tol", ["0", "-1e-12", "nan"])
    def test_non_positive_tol_is_usage_error(self, capsys, command, tol):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--tol", tol])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["figure1", "b", "--n", "10", "--grid", "3"],
                                         ["trp", "--n", "10"], ["zero-paths", "ride-trp"]])
    def test_tol_below_the_double_spacing_finds_the_root(self, capsys, command):
        # the bracket stops at adjacent doubles, on the root of the default tol
        status, out = run_cli(capsys, *command, "--tol", "1e-20")
        assert status == 0
        _, rows = parse_csv(out)
        y = {"figure1": "y", "trp": "trp_y", "zero-paths": "y"}[command[0]]
        assert float(rows[-1 if command[0] == "figure1" else 0][y]) == pytest.approx(
            GOLDEN_TRP_N10, abs=1e-12)

    def test_bracket_width_is_the_width_reached(self, capsys):
        _, rows = parse_csv(run_cli(capsys, "trp", "--n", "10")[1])
        assert 0.0 < float(rows[0]["bracket_width"]) < 1e-12
        # below the double spacing the bracket stops at adjacent doubles
        _, rows = parse_csv(run_cli(capsys, "trp", "--n", "10", "--tol", "1e-20")[1])
        assert float(rows[0]["bracket_width"]) == pytest.approx(
            math.ulp(float(rows[0]["trp_y"])), rel=1e-9)
        _, rows = parse_csv(run_cli(capsys, "trp", "--setup", "simple", "--n", "10")[1])
        assert float(rows[0]["bracket_width"]) == 0.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ["compute", "--n", "nan", "--k", "0", "--mode", "continuous", "--kinds", "logmlr"],
        ["compute", "--n", "inf", "--k", "0", "--mode", "continuous"],
        ["compute", "--n", "10", "--k=-inf", "--mode", "continuous"],
        ["compute", "--n", "10", "--k", "3", "--support", "0,nan", "--bf", "uniform"],
        ["compute", "--n", "10", "--k", "3", "--bf", "beta:inf,1"],
        ["compute", "--n", "10", "--k", "3", "--log-base", "nan"],
        ["compute", "--n", "10", "--k", "3", "--log-base", "inf"],
        ["figure1", "a", "--n", "nan"],
        ["figure1", "a", "--grid", "0"],
        ["figure1", "a", "--grid", "-3"],
        ["trp", "--n", "nan"],
        ["trp", "--n", "10,inf"],
        ["trp", "--tol", "inf"],
        ["zero-paths", "ride-trp", "--n", "10,nan"],
        ["zero-paths", "shrink-n", "--against", "0.25,nan"],
        ["audit", "transform", "--unit", "nan"],
        ["audit", "transform", "--unit", "inf"],
        ["audit", "transform", "--interval", "nan,5"],
        ["audit", "transform", "--f", "affine:nan,1"],
        ["audit", "transform", "--grid", "0"],
        ["audit", "difference", "--p-values", "0.05,nan,0.001"],
        ["audit", "agreement", "--min-n", "-5", "--max-n", "3"],
        ["audit", "agreement", "--max-n", "nan"],
        ["audit", "agreement", "--min-n", "1.5"],
        ["trp", "--n", ","],  # an empty list: no n at all
        ["figure1", "a", "--n", ","],
        ["zero-paths", "ride-trp", "--n", ","],
    ])
    def test_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "got '" in err
        # the message names a flag that was given
        assert re.search(r"argument (--[a-z-]+):", err).group(1) in [
            token.partition("=")[0] for token in argv]

    def test_one_grid_point_is_enough_for_figure1(self, capsys):
        status, out = run_cli(capsys, "figure1", "a", "--n", "10", "--grid", "1")
        assert status == 0
        _, rows = parse_csv(out)
        assert [r["row_type"] for r in rows] == ["curve", "trp"]


class TestHandlerUsageError:
    @pytest.mark.parametrize("argv, message", [
        (["compute", "--n", "10", "--k", "11"], "--n 10 --k 11: require 0 <= k <= n"),
        (["audit", "transform", "--grid", "3"], "transform log on --interval 49,100: grid"),
        (["audit", "difference", "--p-values", "0,0.5,0.1"], "--p-values 0,0.5,0.1: p-values"),
        (["audit", "agreement", "--max-n", "1"],
         "--min-n 2 --max-n 1: agreement requires a nonempty outcome grid"),
    ])
    def test_names_its_subcommand(self, capsys, argv, message):
        # as an argparse type error does, with the usage of the subcommand
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        command = "evlab " + " ".join(argv[:2 if argv[0] == "audit" else 1])
        assert err.startswith(f"usage: {command} ")
        assert f"\n{command}: error: {message}" in err


class TestZeroPaths:
    def test_shrink_n_monotone(self, capsys):
        status, out = run_cli(capsys, "zero-paths", "shrink-n", "--y", "0.9")
        assert status == 0
        _, rows = parse_csv(out)
        magnitudes = [abs(float(r["log_bf"])) for r in rows]
        assert all(m2 < m1 for m1, m2 in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] < 0.05

    def test_ride_trp_to_ten_million_trials(self, capsys):
        status, out = run_cli(capsys, "zero-paths", "ride-trp", "--n", "1000000,10000000")
        assert status == 0
        _, rows = parse_csv(out)
        assert [float(r["n"]) for r in rows] == [1e6, 1e7]
        assert all(abs(float(r["log_bf"])) <= RESIDUAL_LIMIT for r in rows)

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

    def test_too_narrow_support_names_the_support(self, capsys):
        status = main(["zero-paths", "ride-trp", "--support", "0.5,0.5000005"])
        assert status == 1
        err = capsys.readouterr().err
        assert "support (0.5, 0.5000005)" in err and "bracket" not in err

    def test_path_and_both_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zero-paths", "shrink-n", "--both"])
        assert exc.value.code == 2
        assert "--both" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zero-paths"])
        assert exc.value.code == 2
        assert "--both" in capsys.readouterr().err

    def test_both_honours_the_path_flags(self, capsys):
        status, out = run_cli(capsys, "zero-paths", "--both", "--y", "0.5")
        assert status == 0
        _, rows = parse_csv(out)
        assert [r["y"] for r in rows if r["path"] == "shrink-n"] == ["0.5"] * 6

    @settings(max_examples=60, deadline=None)
    @given(
        y=st.sampled_from(["0.1", "0.5", "0.9"]),
        n=st.sampled_from(["", "50", "8,2,0.5", "10,100"]),
        support=st.sampled_from(["", "0,0.5", "0.5,1", "0.2,0.45", "0,1"]),
        null=st.sampled_from(["0.5", "0.3"]),
        against=st.sampled_from(["", "0.1,0.6"]),
        tol=st.sampled_from(["", "1e-9", "1e-20"]),
    )
    def test_both_prints_the_two_single_paths(self, y, n, support, null, against, tol):
        flags = ["--y", y, "--null", null]
        for flag, value in (("--n", n), ("--support", support), ("--against", against),
                            ("--tol", tol)):
            if value:
                flags += [flag, value]
        status, out = run_quietly(["zero-paths", "--both", *flags])
        singles = [run_quietly(["zero-paths", path, *flags]) for path in ("shrink-n", "ride-trp")]
        failed = [single for single in singles if single[0] != 0]
        if failed:
            # a flag that one path cannot take fails as it does on that path alone
            assert (status, out) == failed[0]
        else:
            shrink, ride = (single[1].splitlines(keepends=True) for single in singles)
            assert (status, out) == (0, "".join(shrink + ride[1:]))


class TestAudit:
    @pytest.mark.parametrize("flags", [["--f", "log", "--interval", "49,100"],
                                       ["--f", "exp", "--interval", "0,1", "--unit", "0.25"]])
    @pytest.mark.parametrize("grid", ["38970", "100000"])
    def test_transform_curve_is_not_affine_on_a_fine_grid(self, capsys, flags, grid):
        status, out = run_cli(capsys, "audit", "transform", *flags, "--grid", grid)
        assert status == 0
        _, rows = parse_csv(out)
        assert (rows[0]["affine"], rows[0]["positive_scalar"]) == ("false", "false")

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

    @pytest.mark.parametrize("argv, names", [
        (["transform", "--grid", "3"], "transform log on --interval 49,100"),
        (["transform", "--unit", "0"], "transform log on --interval 49,100"),
        (["transform", "--interval", "50,50"], "transform log on --interval 50,50"),
        (["transform", "--interval=-5,10"], "transform log on --interval -5,10"),
        (["transform", "--f", "exp", "--interval", "0,1000"],
         "transform exp on --interval 0,1000"),
        (["difference", "--p-values", "0,0.5,0.1"],
         "--p-values 0,0.5,0.1: p-values must lie in (0,1]"),
    ])
    def test_domain_failures_are_usage_errors(self, capsys, argv, names):
        with pytest.raises(SystemExit) as exc:
            main(["audit", *argv])
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

    def test_transform_degrees_on_a_narrow_interval(self, capsys):
        # the values are 1e7 times their range, so rounding exceeds 1e-9 of it
        status, out = run_cli(capsys, "audit", "transform", "--f", "f2c",
                              "--interval", "98.6,98.600001", "--unit", "1e-8")
        assert status == 0
        _, rows = parse_csv(out)
        assert (rows[0]["affine"], rows[0]["positive_scalar"]) == ("true", "false")

    @pytest.mark.parametrize("flags, verdicts", [
        # rounding leaves these values flat, but an affine map still preserves order
        (["--f", "affine:0.01,0", "--interval", "1000,1000.00000000001", "--unit", "1e-12"],
         ("true", "true", "true")),
        # a zero intercept 500 units from a grid 0.01 wide
        (["--f", "affine:0.7,0", "--interval", "500,500.01", "--unit", "0.001"],
         ("true", "true", "true")),
        (["--f", "affine:0.7,1", "--interval", "500,500.01", "--unit", "0.001"],
         ("true", "true", "false")),
        (["--f", "f2c", "--interval", "500,500.01", "--unit", "0.001"],
         ("true", "true", "false")),
        # a grid too narrow to resolve the chord's intercept: f(0) decides
        (["--f", "affine:0.01,1", "--interval", "1000,1000.00000000001", "--unit", "1e-12"],
         ("true", "true", "false")),
        (["--f", "f2c", "--interval", "1000,1000.00000000001", "--unit", "1e-12"],
         ("true", "true", "false")),
    ])
    def test_transform_verdicts_nest_far_from_zero(self, capsys, flags, verdicts):
        status, out = run_cli(capsys, "audit", "transform", *flags)
        assert status == 0
        _, rows = parse_csv(out)
        assert tuple(rows[0][c] for c in ("order_preserving", "affine", "positive_scalar")) == (
            verdicts)

    def test_transform_decreasing_map_is_inf_with_nothing_on_stderr(self):
        # a fresh interpreter shows a Python warning, which pytest would capture
        proc = subprocess.run([sys.executable, "-m", "evlab", "audit", "transform",
                               "--f", "affine:-1,0", "--interval", "1,5"],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, rows = parse_csv(proc.stdout)
        assert (rows[0]["order_preserving"], rows[0]["unit_distortion"]) == ("false", "inf")

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

    @pytest.mark.parametrize("argv, tau, witnesses", [
        # taus and counts as tau_b and discordant_count of _oracles give them
        # on the exact rationals (mlr_fraction, bf_fraction, p_value_fraction)
        (["--max-n", "30", "--kinds", "neglogp,abslogbf"], "0.633067205409", 21902),
        (["--min-n", "5", "--max-n", "8", "--kinds", "logmlr,abslogbf"], "0.386174290989", 128),
        # mlr is ranked by logmlr, so its outcomes printed as inf stay ordered
        (["--min-n", "1095", "--max-n", "1100", "--kinds", "mlr,logmlr"], "1", 0),
    ])
    def test_agreement_ranks_exact_ties(self, capsys, argv, tau, witnesses):
        status, out = run_cli(capsys, "audit", "agreement", *argv)
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[1]["row_type"] == "tau" and rows[1]["tau"] == tau
        assert len([r for r in rows if r["row_type"] == "discordant"]) == witnesses

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

    @pytest.mark.parametrize("line", [
        *readme_examples(),
        "evlab compute --n 5000 --k 1000 --kinds mlr,logmlr",  # mlr is inf
        "evlab compute --n 10 --k 5 --kinds neglogp,pvalue --log-base 0.5",  # -0.0
    ])
    def test_jsonl_carries_the_csv_numbers(self, capsys, tmp_path, monkeypatch, line):
        monkeypatch.chdir(tmp_path)
        argv = shlex.split(line, comments=True)[1:]

        def output(fmt):
            assert main([*argv, "--format", fmt]) == 0
            out = capsys.readouterr().out
            if "--out" in argv:
                out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            return out

        header, csv_rows = parse_csv(output("csv"))
        json_rows = [json.loads(text) for text in output("jsonl").splitlines()]
        assert [list(obj) for obj in json_rows] == [header] * len(csv_rows)
        for csv_row, obj in zip(csv_rows, json_rows):
            for col, value in obj.items():
                cell = csv_row[col]
                if isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                elif isinstance(value, (int, float)):
                    # equal numbers, and equal signs so that -0.0 cannot pass for 0
                    assert value == float(cell) or math.isnan(value) and math.isnan(float(cell))
                    assert math.copysign(1.0, value) == math.copysign(1.0, float(cell))
                else:
                    assert cell == ("" if value is None else value)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_closed_pipe_exits_one_quietly(self, fmt):
        # a reader that stops early, as `| head -1` does
        with subprocess.Popen([sys.executable, "-m", "evlab", "audit", "agreement",
                               "--max-n", "30", "--format", fmt],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(), stderr) == (1, b"")

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

    def test_out_file_that_cannot_be_opened_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "missing" / "rows.csv"
        assert main(["compute", "--n", "10", "--k", "2", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"evlab: error: [Errno 2] No such file or directory: '{path}'\n"

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

    @pytest.mark.parametrize("line", [
        *readme_examples(),
        "evlab compute --n 10 --k 3 --bf beta:2,3 "
        "--kinds pvalue,neglogp,mlr,logmlr,slr,logslr,bf,logbf,abslogbf",
        "evlab audit agreement --max-n 8 --kinds pvalue,neglogp,mlr,logbf --max-witnesses 60",
    ])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_log_base_rescales_exactly_the_log_columns(self, tmp_path, monkeypatch, line, fmt):
        # the README's list of log-valued columns
        always = {"log_es", "abs_log_es", "log_bf", "against_both",
                  "neglog_diff_12", "neglog_diff_23"}
        by_kind = {"value": "kind", "x_a": "kind_x", "x_b": "kind_x",
                   "y_a": "kind_y", "y_b": "kind_y"}
        monkeypatch.chdir(tmp_path)
        argv = shlex.split(line, comments=True)[1:]

        def rows(*extra):
            status, out = run_quietly([*argv, "--format", fmt, *extra])
            assert status == 0
            if "--out" in argv:
                out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            if fmt == "jsonl":
                return [json.loads(text) for text in out.splitlines()]
            return [{col: _number(cell) for col, cell in row.items()} for row in parse_csv(out)[1]]

        natural, base_10 = rows(), rows("--log-base", "10")
        assert len(natural) == len(base_10) > 0
        scaled = 0
        for row_e, row_10 in zip(natural, base_10):
            assert list(row_e) == list(row_10)
            for col, value in row_e.items():
                is_log = col in always or col in by_kind and row_e[by_kind[col]] in LOG_SCALE_KINDS
                if is_log and value not in (None, ""):
                    assert row_10[col] == pytest.approx(value / math.log(10.0), rel=1e-11,
                                                        abs=1e-300), (col, row_e)
                    scaled += 1
                else:
                    assert row_10[col] == value, (col, row_e)
        if any(col in always or col in by_kind for col in natural[0]):
            assert scaled > 0

    def test_bad_log_base_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "2", "--k", "1", "--log-base", "1"])
        assert exc.value.code == 2

    def test_repeat_runs_identical(self, capsys):
        _, first = run_cli(capsys, "figure1", "b", "--n", "10", "--grid", "7")
        _, second = run_cli(capsys, "figure1", "b", "--n", "10", "--grid", "7")
        assert first == second
