import argparse
import contextlib
import csv
import io
import json
import math
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from evlab import cli
from evlab._flags import _TRANSFORMS
from evlab.cli import build_parser, main
from evlab.evidence import (
    CONTINUOUS, EVIDENCE_KINDS, EXACT, LOG_SCALE_KINDS, BinomialOutcome, CompositeHypothesis,
    PointHypothesis, log_bf)
from evlab.transition import BRACKET_MARGIN, RESIDUAL_LIMIT

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

    def test_a_repeated_kind_is_a_row_per_query(self, capsys):
        # each row is an independent query, unlike audit agreement's kinds
        status, out = run_cli(capsys, "compute", "--n", "10", "--k", "10",
                              "--kinds", "pvalue,pvalue")
        assert status == 0
        assert out == "kind,n,k,value\n" + "pvalue,10,10,0.001953125\n" * 2

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

    def test_a_log_ratio_past_the_largest_double_stays_finite(self, capsys):
        # 0.9 / 5e-324 overflows; ln 0.9 - ln 5e-324 does not (it printed inf)
        status, out = run_cli(capsys, "compute", "--n", "5", "--k", "3", "--kinds", "logslr",
                              "--theta1", "0.9", "--theta2", "5e-324")
        assert status == 0
        assert out == "kind,n,k,value\nlogslr,5,3,2228.39896403\n"

    def test_log_slr_terms_that_overflow_with_opposite_signs_are_an_error(self, capsys):
        # k ln 9 overflows to inf and (n - k) ln(1/9) to -inf: it printed nan twice
        assert main(["compute", "--mode", "continuous", "--n", "1.7e308", "--k", "8.5e307",
                     "--theta1", "0.9", "--theta2", "0.1", "--kinds", "logslr,slr"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "evlab: error: the log SLR's two terms overflow with opposite signs at "
            "n=1.7e+308, k=8.5e+307, theta1=0.9, theta2=0.1\n")

    @pytest.mark.parametrize("k, rows", [
        ("2", "pvalue,1e+300,2,0\nneglogp,1e+300,2,6.9314718056e+299\n"),
        ("5e299", "pvalue,1e+300,5e+299,1\nneglogp,1e+300,5e+299,0\n"),
    ])
    def test_p_value_at_huge_n_builds_no_two_to_the_n(self, k, rows):
        # 2**n has 1e300 bits: in a 1 GiB address space both commands ended in a
        # MemoryError, and with no cap they grow until the machine runs out of memory
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS,
                               (2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))

        proc = subprocess.run([sys.executable, "-m", "evlab", "compute", "--n", "1e300",
                               "--k", k, "--kinds", "pvalue,neglogp"],
                              capture_output=True, text=True, timeout=60,
                              preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "kind,n,k,value\n" + rows

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
        (["--n", "10", "--k", "3", "--bf", "foo"],
         "argument --bf: expected 'uniform' or 'beta:a,b', got 'foo'"),
        (["--n", "10", "--k", "3", "--kinds", ","],
         "argument --kinds: at least one statistic kind is required"),
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

    def test_posterior_mass_below_double_precision_is_an_error(self, capsys):
        # the support is one double spacing wide: the prior keeps its mass there,
        # the posterior at n = 100, k = 0 does not
        status = main(["compute", "--n", "100", "--k", "0", "--bf", "uniform", "--support",
                       "0.2,0.20000000000000004", "--kinds", "logbf"])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "evlab: error: posterior mass is zero to double precision for n=100.0, k=0.0 "
            "on support [0.2, 0.20000000000000004]\n")

    @pytest.mark.parametrize("argv, inputs", [
        ("--mode continuous --n 1.7e308 --k 1.7e308 --bf beta:1e308,1",
         "n=1.7e+308, k=1.7e+308, a=1e+308, b=1.0"),
        ("--mode continuous --n 1e308 --k 1e308 --bf beta:1.7e308,1",
         "n=1e+308, k=1e+308, a=1.7e+308, b=1.0"),
        ("--n 10 --k 5 --bf beta:1e308,1e308", "n=10.0, k=5.0, a=1e+308, b=1e+308"),
    ])
    def test_a_shape_sum_past_the_largest_double_is_an_error(self, capsys, argv, inputs):
        # each printed a log BF of nan and exited 0
        assert main(["compute", *argv.split(), "--kinds", "logbf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"evlab: error: the shape sum n + a + b overflows a double at {inputs}\n")

    def test_subnormal_prior_shapes_have_a_value(self, capsys):
        # BF is about a / 2 = 2.5e-324; h / a overflowed at a = 5e-324 and log BF read -inf
        status, out = run_cli(capsys, "compute", "--n", "10", "--k", "2", "--bf",
                              "beta:5e-324,5e-324", "--support", "0,5e-324", "--null", "5e-324",
                              "--kinds", "logbf")
        assert status == 0
        assert out == "kind,n,k,value\nlogbf,10,2,-745.133219102\n"

    def test_the_largest_finite_shape_sum_has_a_value(self, capsys):
        status, out = run_cli(capsys, "compute", "--n", "1e308", "--k", "1e308", "--bf", "uniform")
        assert status == 0
        assert out == "kind,n,k,value\nlogbf,1e+308,1e+308,6.9314718056e+307\n"

    def test_huge_n_names_the_shapes_the_fraction_cannot_take(self, capsys):
        # past shapes of about 1e154 the continued fraction's products overflow;
        # it stops at the first iteration whose convergent is lost and names the inputs
        assert main(["figure1", "b", "--n", "1e306", "--grid", "5"]) == 1
        captured = capsys.readouterr()
        # rows are written as they are made, so the header is out before the failure
        assert captured.out == "variant,n,y,log_es,abs_log_es,side,row_type\n"
        assert captured.err == (
            "evlab: error: incomplete beta continued fraction did not converge for "
            "a=9.9e+305, b=1.0000000000000001e+304, x=0.5: its convergent is nan at "
            "iteration 1\n")


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

    def test_variant_a_stops_where_log_slr_is_not_a_number(self, capsys):
        # at y = 0.5 the two terms overflow with opposite signs: the row read nan,
        # labelled "transition point", and the command exited 0
        assert main(["figure1", "a", "--n", "1.7e308", "--grid", "3", "--theta1", "0.9",
                     "--theta2", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ("variant,n,y,log_es,abs_log_es,side,row_type\n"
                                "a,1.7e+308,0.01,-inf,inf,supports H2,curve\n")
        assert captured.err == (
            "evlab: error: the log SLR's two terms overflow with opposite signs at "
            "n=1.7e+308, k=8.5e+307, theta1=0.9, theta2=0.1\n")

    def test_variant_b_trp_drifts_right(self, capsys):
        status, out = run_cli(capsys, "figure1", "b", "--n", "10,100", "--grid", "9")
        assert status == 0
        _, rows = parse_csv(out)
        markers = [float(r["y"]) for r in rows if r["row_type"] == "trp"]
        assert len(markers) == 2
        assert markers[0] == pytest.approx(GOLDEN_TRP_N10, abs=1e-9)
        assert markers[0] < markers[1] < 0.5

    def test_rows_are_not_held_in_memory(self, tmp_path):
        # each row is written as it is made; holding the 40,002 rows took about 13 MB
        path = tmp_path / "f.csv"
        tracemalloc.start()
        try:
            status = main(["figure1", "a", "--n", "10,100", "--grid", "20000",
                           "--out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peak < 5 * 2**20
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + 2 * 20001

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

    @pytest.mark.parametrize("n", ["10", "1e6"])
    def test_simple_setup_where_a_ratio_overflows(self, capsys, n):
        # 0.9 / 5e-324 overflowed, and the root read 0.0 ("must be in (0,1)")
        status, out = run_cli(capsys, "trp", "--setup", "simple", "--theta1", "0.9",
                              "--theta2", "5e-324", "--n", n)
        assert status == 0
        _, rows = parse_csv(out)
        assert (rows[0]["trp_y"], rows[0]["residual"]) == ("0.00308394062792", "0")

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
        # --tol is gone: any value of it is an unknown flag of the subcommand
        with pytest.raises(SystemExit) as exc:
            main([*command, "--tol", tol])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"evlab {command[0]}: error: unrecognized arguments: --tol {tol}\n")

    @pytest.mark.parametrize("command", [["figure1", "b", "--n", "10", "--grid", "3"],
                                         ["trp", "--n", "10"], ["zero-paths", "ride-trp"]])
    def test_roots_are_within_tol_of_a_bisection_to_adjacent_doubles(self, capsys, command):
        # the default one-sided root at n = 10, bisected here until no double lies
        # between the ends; each command's root is within 1e-12 of it
        h1, h2 = CompositeHypothesis((0.0, 0.5)), PointHypothesis(0.5)
        g = lambda y: log_bf(BinomialOutcome(10.0, 10.0 * y, CONTINUOUS), h1, h2)
        lo, hi = BRACKET_MARGIN, 0.5 - BRACKET_MARGIN
        g_lo = g(lo)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if (g(mid) < 0.0) == (g_lo < 0.0) else (lo, mid)
        assert math.nextafter(lo, 1.0) == hi
        assert lo == pytest.approx(GOLDEN_TRP_N10, abs=1e-15)
        status, out = run_cli(capsys, *command)
        assert status == 0
        _, rows = parse_csv(out)
        y = {"figure1": "y", "trp": "trp_y", "zero-paths": "y"}[command[0]]
        assert float(rows[-1 if command[0] == "figure1" else 0][y]) == pytest.approx(lo, abs=1e-12)

    def test_bracket_width_is_the_width_reached(self, capsys):
        # bisection halves [1e-6, 0.5 - 1e-6] to the first width at most 1e-12
        _, rows = parse_csv(run_cli(capsys, "trp", "--n", "10")[1])
        assert rows[0]["bracket_width"] == "9.09494701773e-13"
        assert float(rows[0]["bracket_width"]) == pytest.approx(2.0 ** -40, rel=1e-11)
        _, rows = parse_csv(run_cli(capsys, "trp", "--setup", "simple", "--n", "10")[1])
        assert float(rows[0]["bracket_width"]) == 0.0


class TestTinyTheta:
    """1 - 1e-300 and 1 - 5e-324 both round to 1, and ln((1-t1)/(1-t2)) read 0."""

    TINY = ("--theta1", "1e-300", "--theta2", "5e-324")

    @staticmethod
    def _expected():
        """(the TrP, the log SLR at k = 0 of n = 10), from 60-digit mpmath."""
        t1, t2 = mpmath.mpf(1e-300), mpmath.mpf(5e-324)
        with mpmath.workdps(60):
            comp = mpmath.log1p(-t1) - mpmath.log1p(-t2)
            return float(-comp / (mpmath.log(t1 / t2) - comp)), float(10 * comp)

    def test_trp(self, capsys):
        # it exited 1 with "transition point must be in (0,1), got 0.0"
        status, out = run_cli(capsys, "trp", "--setup", "simple", *self.TINY, "--n", "10")
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[0]["trp_y"] == "1.86342774024e-302"
        assert float(rows[0]["trp_y"]) == pytest.approx(self._expected()[0], rel=1e-11, abs=0)

    def test_figure1_a_trp_rows(self, capsys):
        # each trp row sat at y = 0
        status, out = run_cli(capsys, "figure1", "a", *self.TINY)
        assert status == 0
        _, rows = parse_csv(out)
        trp = [float(r["y"]) for r in rows if r["row_type"] == "trp"]
        assert trp and trp == pytest.approx([self._expected()[0]] * len(trp), rel=1e-11, abs=0)

    def test_compute_logslr(self, capsys):
        # it printed 0
        status, out = run_cli(capsys, "compute", "--n", "10", "--k", "0", *self.TINY,
                              "--kinds", "logslr")
        assert status == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(self._expected()[1], rel=1e-11, abs=0)


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
        ["trp", "--null", "inf"],
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

    @pytest.mark.parametrize("argv", [
        ["figure1", "a", "--n", "10", "--grid", "100000000"],
        ["audit", "transform", "--grid", "9007199254740993"],  # 2**53 + 1
    ])
    def test_grid_above_a_million_points_is_a_usage_error(self, capsys, monkeypatch, argv):
        # rejected as the arguments are parsed, before any point is built
        monkeypatch.setattr(cli, "linspace", None)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument --grid: expected an integer from 1 to 1000000, got '{argv[-1]}'" in (
            capsys.readouterr().err)


class TestHandlerUsageError:
    @pytest.mark.parametrize("argv, message", [
        (["compute", "--n", "10", "--k", "11"], "--n 10 --k 11: require 0 <= k <= n"),
        (["audit", "transform", "--grid", "3"], "transform log on --interval 49,100: grid"),
        (["audit", "difference", "--p-values", "0,0.5,0.1"], "--p-values 0,0.5,0.1: p-values"),
        (["audit", "agreement", "--max-n", "1"],
         "--min-n 2 --max-n 1: agreement requires a nonempty outcome grid"),
        # a repeated kind would print its tau rows and every witness again; the
        # message names --kinds, and an empty grid is still blamed on its window
        (["audit", "agreement", "--max-n", "6", "--kinds", "neglogp,abslogbf,neglogp"],
         "--kinds neglogp,abslogbf,neglogp: agreement requires distinct kinds, "
         "got 'neglogp' more than once\n"),
        (["audit", "agreement", "--min-n", "12", "--max-n", "10", "--kinds", "pvalue,pvalue"],
         "--min-n 12 --max-n 10: agreement requires a nonempty outcome grid\n"),
        # the library's rejection, through an argument type, names its flag
        (["compute", "--n", "10", "--k", "3", "--support", "0.5,0.2", "--kinds", "logbf"],
         "argument --support: support must be a positive-width subinterval of [0,1], "
         "got (0.5, 0.2)\n"),
        (["compute", "--n", "10", "--k", "3", "--bf", "beta:0,1"],
         "argument --bf: prior shapes must be positive and finite, got a=0.0, b=1.0\n"),
        (["zero-paths", "shrink-n", "--against", "2,3"],
         "argument --against: point hypothesis requires theta0 in (0,1), got 2.0\n"),
        # exp overflows on the interval: the library names the x where it does
        (["audit", "transform", "--f", "exp", "--interval", "0,1000"],
         "transform exp on --interval 0,1000: f fails at x=714.2857142857143: "
         "math range error\n"),
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

    @pytest.mark.parametrize("route, against, got", [
        (["shrink-n"], "2,3", "2.0"),
        (["ride-trp"], "0.25,1", "1.0"),
        (["--both"], "0,0.5", "0.0"),
    ])
    def test_against_outside_the_unit_interval_is_usage_error(self, capsys, route, against, got):
        # a usage error, as --null 1.5 is: PointHypothesis's rule, checked as the flag is read
        with pytest.raises(SystemExit) as exc:
            main(["zero-paths", *route, "--against", against])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: evlab zero-paths ")
        assert err.endswith("evlab zero-paths: error: argument --against: "
                            f"point hypothesis requires theta0 in (0,1), got {got}\n")

    @pytest.mark.parametrize("route", [["shrink-n"], ["--both"]])
    def test_identical_against_pair_is_a_computation_failure(self, capsys, route):
        assert main(["zero-paths", *route, "--against", "0.5,0.5"]) == 1
        err = capsys.readouterr().err
        assert err == "evlab: error: against_both requires distinct hypotheses\n"

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
    )
    def test_both_prints_the_two_single_paths(self, y, n, support, null, against):
        flags = ["--y", y, "--null", null]
        for flag, value in (("--n", n), ("--support", support), ("--against", against)):
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
        (["transform", "--interval", "1,2,3"],
         "argument --interval: expected two comma-separated numbers, got '1,2,3'"),
        (["transform", "--f", "foo"],
         "argument --f: unknown transform 'foo'; choose log, exp, f2c, c2f or affine:"),
        # 1e300 x overflows to inf without raising
        (["transform", "--f", "affine:1e300,1", "--interval", "1e7,1e9"],
         "transform affine:1e300,1 on --interval 1e+07,1e+09: f is not finite at x="),
        (["transform", "--f", "affine:1e300,1", "--interval", "1e300,1.7e308"],
         "transform affine:1e300,1 on --interval 1e+300,1.7e+308: f is not finite at x="),
        (["transform", "--f", "affine:1,0", "--interval", "1e17,1e18"],
         "transform affine:1,0 on --interval 1e+17,1e+18: "
         "unit 1 is below the double spacing on (1e+17, 1e+18)"),
        (["transform", "--f", "c2f", "--interval", "1e16,2e16"],
         "transform c2f on --interval 1e+16,2e+16: "
         "unit 1 is below the double spacing on (1e+16, 2e+16)"),
        (["transform", "--f", "affine:1,0", "--interval=-1e308,1e308"],
         "transform affine:1,0 on --interval -1e+308,1e+308: "
         "the width of [-1e+308, 1e+308] overflows a double"),
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

    def test_degree_transforms_convert_fahrenheit_and_celsius(self):
        # every audit verdict is the same for any positive slope, so the maps are pinned here
        f2c, c2f = _TRANSFORMS["f2c"], _TRANSFORMS["c2f"]
        assert (f2c(212.0), f2c(32.0), f2c(-40.0)) == (100.0, 0.0, -40.0)
        assert (c2f(100.0), c2f(0.0), c2f(-40.0)) == (212.0, 32.0, -40.0)

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

    def test_agreement_reports_its_exclusions_on_stderr(self, capsys):
        line = ("evlab audit agreement: 1 outcomes excluded; first n=0, k=0: "
                "p-value requires n >= 1, got n=0\n")
        assert main(["audit", "agreement", "--min-n", "0", "--max-n", "0"]) == 0
        out, err = capsys.readouterr()
        assert err == line
        assert {row["tau"] for row in parse_csv(out)[1]} == {"nan"}
        # the rows are those of the grid without the excluded outcome
        assert main(["audit", "agreement", "--min-n", "0", "--max-n", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == line
        assert main(["audit", "agreement", "--min-n", "1", "--max-n", "3"]) == 0
        assert capsys.readouterr() == (out, "")

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


class TestRowsFitTheHeader:
    @pytest.mark.parametrize("line", readme_examples())
    def test_readme_example(self, line):
        # a row key outside the header would be dropped without a sound
        args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
        header, rows, _ = args.handler(args)
        filled = set()
        for row in rows:
            assert set(row) <= set(header)
            filled.update(row)
        assert set(header) - {"error"} <= filled

    def test_readme_examples_reach_every_handler(self):
        handlers = {build_parser().parse_args(shlex.split(line, comments=True)[1:]).handler
                    for line in readme_examples()}
        assert len(handlers) == 7


class TestOutputOptions:
    def test_jsonl_matches_csv_header(self, capsys):
        _, out = run_cli(
            capsys, "compute", "--n", "10", "--k", "5", "--kinds", "neglogp",
            "--format", "jsonl",
        )
        obj = json.loads(out.strip())
        assert obj == {"kind": "neglogp", "n": 10.0, "k": 5.0, "value": 0.0}

    def test_a_negative_zero_prints_as_zero(self, capsys):
        # -ln P = 0.0 at k = n/2, which base 0.5 turns into -0.0
        status, out = run_cli(capsys, "compute", "--n", "10", "--k", "5", "--kinds", "neglogp",
                              "--log-base", "0.5")
        assert (status, out) == (0, "kind,n,k,value\nneglogp,10,5,0\n")
        assert [cli._fmt_cell(value) for value in (-0.0, -1.0, 1.0)] == ["0", "-1", "1"]

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

    def test_a_row_that_fails_while_written_is_one_error_line(self, capsys, monkeypatch):
        def rows():
            yield {"p1": 0.5}
            raise ValueError("the second row cannot be made")

        # build_parser reads the handler when main calls it
        monkeypatch.setattr(cli, "cmd_audit_difference", lambda args: (["p1"], rows(), 0))
        assert main(["audit", "difference"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "p1\n0.5\n"
        assert captured.err == "evlab: error: the second row cannot be made\n"

    def test_an_out_file_whose_row_fails_keeps_the_rows_before_it(
            self, capsys, monkeypatch, tmp_path):
        # the file is closed on the failure: the ResourceWarning filter fails a leaked one
        def rows():
            yield {"p1": 0.5}
            raise ValueError("the second row cannot be made")

        monkeypatch.setattr(cli, "cmd_audit_difference", lambda args: (["p1"], rows(), 0))
        path = tmp_path / "rows.csv"
        assert main(["audit", "difference", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "evlab: error: the second row cannot be made\n")
        assert path.read_text(encoding="utf-8") == "p1\n0.5\n"

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


def _subparsers(parser):
    """The parser's subcommand action, or None for a leaf."""
    return next((a for a in parser._actions if isinstance(a.choices, dict)), None)


def _parsers(parser, prefix=()):
    """(argv prefix, parser) of parser and of every subcommand under it, in order."""
    yield prefix, parser
    if (action := _subparsers(parser)) is not None:
        for name, sub in action.choices.items():
            yield from _parsers(sub, (*prefix, name))


def _action_table(parser):
    """Each action as (option strings, dest, nargs, default, metavar, choices,
    required, help), with a subcommand action's choices as {name: help}."""
    table = []
    for a in parser._actions:
        choices = a.choices if a.choices is None else tuple(a.choices)
        if isinstance(a.choices, dict):
            choices = {sub.dest: sub.help for sub in a._get_subactions()}
        table.append((tuple(a.option_strings), a.dest, a.nargs, a.default, a.metavar,
                      choices, a.required, a.help))
    return table


_HELP = (("-h", "--help"), "help", 0, argparse.SUPPRESS, None, None, False,
         "show this help message and exit")
_THETAS = [
    (("--theta1",), "theta1", None, 0.25, None, None, False,
     "point H1 of slr/logslr, figure1 a and trp --setup simple (default %(default)g)"),
    (("--theta2",), "theta2", None, 0.75, None, None, False,
     "point H2 of slr/logslr, figure1 a and trp --setup simple (default %(default)g)"),
]
_NULL = (("--null",), "null", None, 0.5, None, None, False,
         "point null success probability (default %(default)g)")
_OUTPUT = [
    (("--format",), "format", None, "csv", None, ("csv", "jsonl"), False,
     "output format (default csv)"),
    (("--out",), "out", None, None, "PATH", None, False,
     "write to PATH instead of standard output"),
    (("--log-base",), "log_base", None, math.e, "B", None, False,
     "display base for log-valued columns (default e)"),
]
# Every parser's actions in order, as argparse holds them on any Python
# version; the help layout is argparse's own.
_ACTIONS = {
    (): [_HELP, ((), "command", "A...", None, None, {
        "compute": "evidence statistics for one observed outcome",
        "figure1": "log evidence curves over the observed proportion",
        "trp": "transition points of the log Bayes factor",
        "zero-paths": "trace the two routes to log BF = 0",
        "audit": "measurement-scale audits",
    }, True, None)],
    ("compute",): [
        _HELP,
        (("--n",), "n", None, None, None, None, True, "trial count"),
        (("--k",), "k", None, None, None, None, True, "success count"),
        (("--mode",), "mode", None, "exact", None, ("exact", "continuous"), False, None),
        _NULL, *_THETAS,
        (("--bf",), "bf", None, None, "PRIOR", None, False,
         "composite prior for bf kinds: 'uniform' or 'beta:a,b'"),
        (("--support",), "support", None, (0.0, 1.0), "LO,HI", None, False,
         "support of the composite prior (default 0,1)"),
        (("--kinds",), "kinds", None, None, "K1,K2,...", None, False,
         "statistics to emit, from: pvalue,neglogp,mlr,logmlr,slr,logslr,bf,logbf,abslogbf"),
        *_OUTPUT,
    ],
    ("figure1",): [
        _HELP,
        ((), "variant", None, None, None, ("a", "b"), True,
         "a: two point hypotheses; b: one-sided composite vs point null"),
        (("--n",), "n", None, [10.0, 100.0], "N1,N2,...", None, False, None),
        (("--grid",), "grid", None, 99, None, None, False, "curve points per n (default 99)"),
        *_THETAS,
        (("--support",), "support", None, (0.0, 0.5), "LO,HI", None, False, None),
        _NULL, *_OUTPUT,
    ],
    ("trp",): [
        _HELP,
        (("--setup",), "setup", None, "one-sided", None, ("simple", "one-sided", "two-sided"),
         False, None),
        (("--n",), "n", None, [10.0, 100.0, 1000.0], "N1,N2,...", None, False, None),
        *_THETAS,
        (("--support",), "support", None, (0.0, 0.5), "LO,HI", None, False, None),
        _NULL, *_OUTPUT,
    ],
    ("zero-paths",): [
        _HELP,
        ((), "path", "?", None, None, ("shrink-n", "ride-trp"), False, None),
        (("--both",), "both", 0, False, None, None, False,
         "emit both traces, shrink-n then ride-trp"),
        (("--y",), "y", None, 0.9, None, None, False,
         "fixed observed proportion for shrink-n (default 0.9)"),
        (("--n",), "n", None, None, "N1,N2,...", None, False, None),
        (("--support",), "support", None, None, "LO,HI", None, False, None),
        _NULL,
        (("--against",), "against", None, (0.25, 0.75), "T1,T2", None, False,
         "point pair for the contradiction proxy (default 0.25,0.75)"),
        *_OUTPUT,
    ],
    ("audit",): [_HELP, ((), "audit_command", "A...", None, None, {
        "transform": "classify a scalar transformation",
        "agreement": "rank-order agreement between statistics",
        "difference": "difference comparison before/after -log",
    }, True, None)],
    ("audit", "transform"): [
        _HELP,
        (("--f",), "f", None, ("log", math.log), "SPEC", None, False,
         "log, exp, f2c, c2f or affine:slope,intercept"),
        (("--interval",), "interval", None, (49.0, 100.0), "LO,HI", None, False, None),
        (("--unit",), "unit", None, 1.0, None, None, False, None),
        (("--grid",), "grid", None, 64, None, None, False,
         "classification grid size (default 64)"),
        *_OUTPUT,
    ],
    ("audit", "agreement"): [
        _HELP,
        (("--min-n",), "min_n", None, 2, None, None, False, None),
        (("--max-n",), "max_n", None, 30, None, None, False, None),
        (("--kinds",), "kinds", None, ["neglogp", "abslogbf"], "K1,K2,...", None, False, None),
        (("--max-witnesses",), "max_witnesses", None, None, None, None, False,
         "cap on emitted discordant-pair rows (default: all)"),
        *_OUTPUT,
    ],
    ("audit", "difference"): [
        _HELP,
        (("--p-values",), "p_values", None, (0.05, 0.04, 0.001), "P1,P2,P3", None, False, None),
        *_OUTPUT,
    ],
}


class TestParser:
    def test_every_parser_and_action_in_order(self):
        parsers = dict(_parsers(build_parser()))
        assert list(parsers) == list(_ACTIONS)
        for prefix, parser in parsers.items():
            assert _action_table(parser) == _ACTIONS[prefix], prefix

    def test_each_leaf_reports_usage_as_itself(self):
        for prefix, parser in _parsers(build_parser()):
            leaf = _subparsers(parser) is None
            assert (parser.get_default("parser") is parser) == leaf, prefix
            assert (parser.get_default("handler") is not None) == leaf, prefix


# The leaf subcommands, and the arguments each requires.
_LEAVES = [(prefix, parser) for prefix, parser in _parsers(build_parser())
           if _subparsers(parser) is None]
_REQUIRED = {("compute",): ["--n", "10", "--k", "5"], ("figure1",): ["a"],
             ("zero-paths",): ["shrink-n"]}


# The README's contract, over argv drawn from the parser's own actions.
_EDGE_NUMBERS = ("0", "5e-324", "1e-300", "1e7", "-1", "nan", "inf",
                 "0.3", "0.30000000000000004", "0.5", "2", "10")


def _numbers(low, high=None):
    return st.lists(st.sampled_from(_EDGE_NUMBERS), min_size=low,
                    max_size=high or low).map(",".join)


def _prefixed(words, prefix):
    return st.one_of(st.sampled_from(words), _numbers(2).map(prefix.__add__))


# A value of the shape each metavar names; the numbers come from the edge pool.
_VALUES = {
    None: _numbers(1), "B": _numbers(1), "LO,HI": _numbers(2), "T1,T2": _numbers(2),
    "P1,P2,P3": _numbers(3), "N1,N2,...": _numbers(1, 3),
    "K1,K2,...": st.lists(st.sampled_from(EVIDENCE_KINDS), min_size=1, max_size=2).map(",".join),
    "PRIOR": _prefixed(("uniform",), "beta:"),
    "SPEC": _prefixed(("log", "exp", "f2c", "c2f"), "affine:"),
}


def _above(text, limit, convert):
    """Whether text reads, as its flag's type reads it, as a finite number above limit."""
    try:
        return limit < convert(text) < math.inf
    except ValueError:
        return False


def _left_out(argv):
    """The only inputs the contract property does not run, both for their cost:
    an exact p-value past n = 1e4 sums over n-bit integers, and a --grid above
    1e5 builds that many points (no value in the pool reaches it)."""
    given = dict(token.partition("=")[::2] for token in argv if token.startswith("--"))
    if _above(given.get("--grid", "0"), 1e5, int):
        return True
    kinds = given.get("--kinds", "" if "--bf" in given else "pvalue").split(",")
    return (argv[0] == "compute" and given.get("--mode", EXACT) == EXACT
            and _above(given.get("--n", "0"), 1e4, float)
            and bool({"pvalue", "neglogp"} & set(kinds)))


def _has_error_cell(text, argv):
    if "--format=jsonl" in argv:
        rows = [json.loads(line) for line in text.splitlines()]
    else:
        rows = parse_csv(text)[1] if text else []
    return any(row.get("error") for row in rows)


class TestContract:
    @pytest.mark.parametrize("prefix", [prefix for prefix, _ in _LEAVES], ids=" ".join)
    def test_an_unknown_flag_is_a_usage_error_of_its_subcommand(self, capsys, prefix):
        # no subcommand takes --tol: bisection stops by one fixed rule
        argv = [*prefix, *_REQUIRED.get(prefix, []), "--tol", "1e-9"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        command = "evlab " + " ".join(prefix)
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {command} "), err
        assert err.endswith(f"\n{command}: error: unrecognized arguments: --tol 1e-9\n"), err

    @pytest.mark.parametrize("argv", [
        ["--foo", "compute", "--n", "1", "--k", "1"],
        ["-x", "trp"],
    ], ids=" ".join)
    def test_a_token_before_the_subcommand_is_a_usage_error_of_evlab(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: evlab [-h] "), lines
        assert lines[-1] == f"evlab: error: unrecognized arguments: {argv[0]}", lines

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_argv_exits_zero_one_or_two_as_the_readme_says(self, data, tmp_path_factory):
        prefix, leaf = data.draw(st.sampled_from(_LEAVES))
        out_dir = tmp_path_factory.mktemp("out")
        paths = [out_dir / "rows.csv", out_dir, out_dir / "missing" / "rows.csv"]
        argv = list(prefix)
        for action in leaf._actions:
            if not action.option_strings and (action.required or data.draw(st.booleans())):
                argv.append(data.draw(st.sampled_from(action.choices)))
        optional = [a for a in leaf._actions if a.option_strings and not a.required]
        chosen = data.draw(st.lists(st.sampled_from(optional), max_size=3, unique=True))
        for action in [a for a in leaf._actions if a.required and a.option_strings] + chosen:
            flag = action.option_strings[-1]
            if action.nargs == 0:
                argv.append(flag)
                continue
            values = (st.sampled_from(action.choices) if action.choices
                      else st.sampled_from(paths).map(str) if action.metavar == "PATH"
                      else _VALUES[action.metavar])
            argv.append(f"{flag}={data.draw(values)}")
        assume(not _left_out(argv))

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # no other exception may leave main
                status = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert status in (0, 1, 2), argv
        if status == 2:
            assert err.startswith(f"usage: evlab {' '.join(prefix)} "), (argv, err)
        elif status == 1:
            file = paths[0]
            written = file.read_text(encoding="utf-8") if file.is_file() else out
            error_lines = [line for line in err.splitlines() if line.startswith("evlab: error:")]
            assert len(error_lines) == 1 or _has_error_cell(written, argv), (argv, err)
