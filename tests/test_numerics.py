import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from evlab import numerics
from evlab.numerics import (
    DEFAULT_TOL,
    RESIDUAL_LIMIT,
    ConvergenceError,
    InvalidBracketError,
    find_root,
    linspace,
    regularized_incomplete_beta,
    _bd0,
    _beta_continued_fraction,
    _log_beta_front,
    _log_quotient,
    _stirlerr,
)

from _contract import EXTREME_DOUBLES, NONNEGATIVE, UNIT, check_contract
from _oracles import beta_fraction, incomplete_beta_fraction, log_fraction


def _stirlerr_80_digits(n: float) -> float:
    with mpmath.workdps(80):
        x = mpmath.mpf(n)
        return float(mpmath.loggamma(x + 1) - (x + 0.5) * mpmath.log(x) + x
                     - mpmath.log(mpmath.sqrt(2 * mpmath.pi)))


class TestStirlerr:
    @pytest.mark.parametrize("n", [0.5, 1.0, 7.5, 15.0, 0.01, 2.3, 14.99, 15.01, 20.0,
                                   35.5, 36.0, 80.5, 81.0, 500.0, 501.0, 1e4, 1e7, 1e20])
    def test_matches_mpmath(self, n):
        # Loader's table at half-integers, his series past 15, and log-gamma between
        # half-integers up to 15, where rounding near ln 16! leaves about 3e-15
        assert _stirlerr(n) == pytest.approx(_stirlerr_80_digits(n), rel=1e-13, abs=5e-15)

    @pytest.mark.parametrize("n", [35.0, 80.0, 500.0])
    def test_each_switch_point_takes_the_longer_series(self, n):
        # the shorter series is off by 4e-15 to 2e-13 of the value there, which
        # the absolute tolerance above lets pass
        assert _stirlerr(n) == pytest.approx(_stirlerr_80_digits(n), rel=1e-15, abs=0.0)

    def test_every_tabled_half_integer_is_the_rounded_value(self):
        for n in (j / 2 for j in range(1, 31)):
            assert _stirlerr(n) == _stirlerr_80_digits(n), n


class TestBd0:
    @pytest.mark.parametrize("x, n, p", [
        (5e-324, 1e200, 0.3), (1e-310, 1.0, 0.5), (2e-320, 3.0, 0.25),  # x/n/p underflows
        (0.5, 1.0, 1e-310), (3.0, 3.0, 5e-324),  # x/n/p overflows
    ])
    def test_ratio_outside_the_normal_range_matches_mpmath(self, x, n, p):
        # x ln(x/m) + m - x at m = n p, with ln(x/m) taken from the three logs
        with mpmath.workdps(60):
            xm, m = mpmath.mpf(x), mpmath.mpf(n) * mpmath.mpf(p)
            expected = xm * mpmath.log(xm / m) + m - xm
        assert _bd0(x, n, p) == pytest.approx(float(expected), rel=1e-14)


class TestLogBetaFront:
    # ln[x^a (1-x)^b / B(a, b)], the deviance-form kernel of every log BF and
    # incomplete beta

    @pytest.mark.parametrize("x, max_n", [(0.5, 60), (1.0 / 3.0, 15)])
    def test_integer_shapes_match_exact_rationals(self, x, max_n):
        t = Fraction(x)  # the double x, exactly
        for n in range(2, max_n + 1):
            for a in range(1, n):
                exact = log_fraction(t**a * (1 - t) ** (n - a) / beta_fraction(a, n - a))
                assert math.isclose(_log_beta_front(x, a, n - a), exact,
                                    rel_tol=1e-13, abs_tol=1e-14), (n, a)

    @pytest.mark.parametrize("n, k, x", [
        (7.5, 2.25, 0.3), (0.3, 0.12, 0.5), (1e7, 4_999_000.5, 0.5), (1e7, 3.5, 1e-6),
        (2e6, 1_999_990.0, 0.999),
    ])
    def test_real_shapes_match_mpmath(self, n, k, x):
        a, b = k, n - k
        with mpmath.workdps(50):
            am, bm, xm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
            expected = (mpmath.loggamma(am + bm) - mpmath.loggamma(am) - mpmath.loggamma(bm)
                        + am * mpmath.log(xm) + bm * mpmath.log(1 - xm))
        assert _log_beta_front(x, a, b) == pytest.approx(float(expected), rel=1e-13, abs=1e-13)

    def test_hand_computed_values(self):
        # B(1, 1) = 1, B(2, 2) = 1/6 and B(5, 5) = 1/630, free of the oracles
        assert _log_beta_front(0.5, 1, 1) == pytest.approx(math.log(0.25), abs=1e-13)
        assert math.isclose(_log_beta_front(0.5, 2, 2), math.log(6 / 16), rel_tol=1e-12)
        assert math.isclose(_log_beta_front(0.5, 5, 5), math.log(630 / 1024), rel_tol=1e-12)

    @pytest.mark.parametrize("a, b", [
        (3, 7), (4_999_000, 5_001_000), (1, 12344), (2.25, 5.25), (0.12, 0.18),
        (3.5, 9_999_996.5),
    ])
    def test_swapped_shapes_tie_exactly_at_one_half(self, a, b):
        # the agreement audit's ties between k and n - k rest on this, and the
        # continuous mode's on the same tie at real shapes
        assert _log_beta_front(0.5, a, b) == _log_beta_front(0.5, b, a)


class TestLogQuotient:
    @pytest.mark.parametrize("t1, t2", [
        (1e-300, 5e-324), (5e-324, 1e-300), (1e-17, 2e-17),  # each complement rounds to 1
        (1e-16, 5e-324),  # one complement rounds, the other is exactly 1
        (0.3, 0.30000000000000004),  # two complements round to one double
        (0.25, 0.75), (0.9, 5e-324), (0.5, 1.0 - 2.0**-53),
    ])
    def test_complements_match_mpmath(self, t1, t2):
        with mpmath.workdps(60):
            expected = float(mpmath.log1p(-t1) - mpmath.log1p(-t2))
        got = _log_quotient(1.0 - t1, 1.0 - t2, t2 - t1)
        assert got == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("a, b", [
        (0.3, 0.30000000000000004),  # a / b rounds to 1 - 2**-53, whose log read -2.2e-16
        (1.0 - 2.0**-52, 1.0 - 2.0**-53), (5e-324, 1e-323), (0.5, 1.0), (2.0, 1.0),
        (0.25, 0.75), (0.9, 5e-324), (5e-324, 0.9),
    ])
    def test_quotients_match_mpmath(self, a, b):
        with mpmath.workdps(60):
            expected = float(mpmath.log(mpmath.mpf(a) / mpmath.mpf(b)))
        assert _log_quotient(a, b, a - b) == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("theta", [5e-324, 1e-300, 0.3, 1.0 - 2.0**-53])
    def test_equal_operands_give_exactly_zero(self, theta):
        assert _log_quotient(theta, theta, 0.0) == 0.0
        assert _log_quotient(1.0 - theta, 1.0 - theta, 0.0) == 0.0


class TestIncompleteBeta:
    def test_boundaries_exact(self):
        assert regularized_incomplete_beta(0.0, 2.3, 4.5) == 0.0
        assert regularized_incomplete_beta(1.0, 2.3, 4.5) == 1.0

    def test_symmetric_midpoint(self):
        assert regularized_incomplete_beta(0.5, 3.0, 3.0) == pytest.approx(0.5, abs=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = float(rng.uniform(0.1, 50.0))
            b = float(rng.uniform(0.1, 50.0))
            x = float(rng.uniform(0.0, 1.0))
            assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                float(special.betainc(a, b, x)), abs=1e-12
            ), (x, a, b)

    def test_reflection_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = float(rng.uniform(0.2, 20.0))
            b = float(rng.uniform(0.2, 20.0))
            x = float(rng.uniform(0.0, 1.0))
            total = regularized_incomplete_beta(x, a, b) + regularized_incomplete_beta(
                1.0 - x, b, a
            )
            assert abs(total - 1.0) <= 1e-10

    def test_monotone_in_x(self):
        for a, b in ((0.5, 2.0), (3.0, 3.0), (10.0, 2.5)):
            values = [regularized_incomplete_beta(x, a, b) for x in linspace(0.0, 1.0, 101)]
            assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("half", [5e5, 5e6])
    def test_large_shapes_converge(self, half):
        # near x = a/(a+b) these need more than 300 continued-fraction iterations;
        # the deviance-form prefactor keeps every digit the fraction has
        assert regularized_incomplete_beta(0.5, half + 2.0, half) == pytest.approx(
            float(special.betainc(half + 2.0, half, 0.5)), abs=1e-12
        )

    def test_log_ends(self):
        assert regularized_incomplete_beta(0.0, 2.3, 4.5, log=True) == -math.inf
        assert regularized_incomplete_beta(1.0, 2.3, 4.5, log=True) == 0.0

    def test_log_matches_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            a = float(rng.uniform(0.1, 50.0))
            b = float(rng.uniform(0.1, 50.0))
            x = float(rng.uniform(1e-6, 1.0 - 1e-6))
            got = regularized_incomplete_beta(x, a, b, log=True)
            assert got == pytest.approx(math.log(special.betainc(a, b, x)), rel=1e-12,
                                        abs=1e-14), (x, a, b)

    @pytest.mark.parametrize("x, a, b", [
        (0.5, 1000, 1), (0.5, 4951, 51), (1e-6, 200, 200), (0.25, 2000, 1000), (0.3, 1, 1),
        (2.0**-10, 5, 2000),
    ])
    def test_log_matches_the_binomial_tail_sum(self, x, a, b):
        # I_x(a, b) = P(Bin(a+b-1, x) >= a) for integer shapes, summed exactly; the
        # second to fourth values (about e^-3189, e^-2490, e^-1156) underflow a
        # double, their logs do not
        expected = log_fraction(incomplete_beta_fraction(x, a, b))
        got = regularized_incomplete_beta(x, float(a), float(b), log=True)
        assert got == pytest.approx(expected, rel=1e-13)
        assert regularized_incomplete_beta(x, float(a), float(b)) == pytest.approx(
            math.exp(expected), rel=1e-12)

    def test_tiny_second_shape_above_the_switch_point(self):
        # Above x = (a+1)/(a+b+2) I_x is 1 minus its complement, which rounds to
        # 1 for a tiny b; below 2**-26 the direct fraction is taken instead
        assert regularized_incomplete_beta(0.9, 3.0, 1e-20, log=True) == pytest.approx(
            math.log(special.betainc(3.0, 1e-20, 0.9)), rel=1e-13)
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(300):
            a, b = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-30, 2)
            x = float(rng.uniform((a + 1.0) / (a + b + 2.0), 0.999))
            expected = math.log(special.betainc(a, b, x))
            if expected < math.log(2.0**-26):
                checked += 1
                got = regularized_incomplete_beta(x, a, b, log=True)
                assert got == pytest.approx(expected, rel=1e-13), (x, a, b)
        assert checked > 150

    def test_direct_fraction_past_its_cap_keeps_the_complement(self):
        # near x = 1 with a tiny b the direct fraction does not converge, so the
        # complement's value stands; it is a log probability, whatever its digits
        assert regularized_incomplete_beta(0.9995, 3.0, 1e-24, log=True) <= 0.0

    def test_overflowed_terms_stop_the_fraction_at_once(self):
        # a + b near 1e306: the products of the first terms overflow and h is nan,
        # which no later iteration can mend; the fraction used to run to its
        # cap of 2**20 iterations, a second or more
        with pytest.raises(ConvergenceError) as info:
            regularized_incomplete_beta(0.5, 9.9e305, 1e304)
        message = str(info.value)
        assert "a=9.9e+305, b=1e+304, x=0.5" in message
        assert int(re.search(r"at iteration ([0-9]+)$", message).group(1)) < 10
        assert "within" not in message

    def test_a_convergent_that_loses_its_sign_stops_the_fraction(self):
        # x on the switch point (a+1)/(a+b+2) at shapes near 1e50: the first term
        # cancels to -2**52, and the steps after it already look converged;
        # ln(h / a) raised a bare "math domain error"
        with pytest.raises(ConvergenceError,
                           match=r"its convergent is -4503599627370496\.0 at iteration 1$"):
            regularized_incomplete_beta(0.37946016899647433, 4.5467466683721065e49,
                                        7.435398072659597e49, log=True)

    def test_iteration_cap_is_reported(self):
        # far above the mean a/(a+b) the raw continued fraction does not converge;
        # the message names the cap that was used, 300 + floor(sqrt(max(a, b)))
        with pytest.raises(ConvergenceError, match=r"within 400 iterations"):
            _beta_continued_fraction(0.5, 1e4, 0.5)

    def test_the_cap_counts_iterations(self, monkeypatch):
        # the fraction at a = 0.25, b = 0.5, x = 0.5 converges at iteration 10;
        # sqrt(max(a, b)) adds nothing to the floor, so the floor is the cap
        a, b, x = 0.25, 0.5, 0.5
        monkeypatch.setattr(numerics, "_BETACF_MIN_ITER", 9)
        with pytest.raises(ConvergenceError, match=r"within 9 iterations$"):
            _beta_continued_fraction(a, b, x)
        monkeypatch.setattr(numerics, "_BETACF_MIN_ITER", 10)
        with mpmath.workdps(40):
            expected = float(mpmath.log(mpmath.betainc(a, b, 0, x, regularized=True)
                                        * mpmath.beta(a, b) / (x**a * (1 - x) ** b)))
        assert _beta_continued_fraction(a, b, x) == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        for x in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match=re.escape(f"got x={x}")):
                regularized_incomplete_beta(x, 1.0, 1.0)
        for a, b in ((0.0, 1.0), (1.0, 0.0), (-0.5, 1.0), (1.0, -0.5)):
            with pytest.raises(ValueError, match=re.escape(f"got a={a}, b={b}")):
                regularized_incomplete_beta(0.5, a, b)

    @pytest.mark.parametrize("x", [5e-324, 0.5, 1.0 - 2.0**-53])
    def test_subnormal_shapes(self, x):
        # Beta(e, e) has half its mass at each end as e -> 0, so I_x is 1/2 on (0, 1);
        # h / a overflowed at a = 5e-324, and ln I_x read inf
        assert regularized_incomplete_beta(x, 5e-324, 5e-324, log=True) == pytest.approx(
            -math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("a, b", [
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1e308, 1e308),
    ])
    def test_shapes_need_a_finite_sum(self, a, b):
        # an infinite shape reached int() in the iteration cap, an OverflowError
        with pytest.raises(ValueError, match=re.escape(f"got a={a}, b={b}")):
            regularized_incomplete_beta(0.5, a, b)

    @settings(max_examples=60, deadline=None)
    @given(x=st.one_of(EXTREME_DOUBLES, UNIT), a=st.one_of(EXTREME_DOUBLES, NONNEGATIVE),
           b=st.one_of(EXTREME_DOUBLES, NONNEGATIVE), log=st.booleans())
    def test_error_contract_over_extreme_doubles(self, x, a, b, log):
        check_contract(lambda: regularized_incomplete_beta(x, a, b, log))


class TestFindRoot:
    def test_linear(self):
        root, _, _ = find_root(lambda x: x - 0.5, 0.0, 1.0)
        assert root == pytest.approx(0.5, abs=DEFAULT_TOL)

    def test_sqrt_two(self):
        root, _, _ = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=DEFAULT_TOL)

    def test_asymmetric_bracket(self):
        root, _, _ = find_root(lambda x: x, -1.0, 2.0)
        assert root == pytest.approx(0.0, abs=DEFAULT_TOL)

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x, 0.0, 1.0), (lambda x: -x, 0.0, 1.0),
        (lambda x: x, -1.0, 0.0), (lambda x: -x, -1.0, 0.0),
    ])
    def test_a_zero_at_an_end_is_no_strict_sign_change(self, f, lo, hi):
        with pytest.raises(InvalidBracketError):
            find_root(f, lo, hi)

    @pytest.mark.parametrize("f, message", [
        (lambda x: math.nan if x == 0.0 else -1.0, "f(0.0)=nan, f(1.0)=-1.0"),
        (lambda x: -1.0 if x < 0.5 else math.nan, "f(0.0)=-1.0, f(1.0)=nan"),
        (lambda x: math.nan if x == 0.0 else 1.0, "f(0.0)=nan, f(1.0)=1.0"),
    ])
    def test_a_nan_at_an_end_is_no_sign_change(self, f, message):
        with pytest.raises(InvalidBracketError, match=f"{re.escape(message)}$"):
            find_root(f, 0.0, 1.0)

    def test_a_nan_inside_the_bracket_names_x(self):
        def f(x):
            return -1.0 if x < 0.25 else 1.0 if x > 0.75 else math.nan

        with pytest.raises(ValueError, match=r"^f is nan at x=0\.5$") as info:
            find_root(f, 0.0, 1.0)
        assert type(info.value) is ValueError

    def test_a_bracket_whose_sum_overflows(self):
        # lo + hi is inf here, so the midpoint halves each end before adding
        assert find_root(lambda x: x - 1.5e308, 1e308, 1.7e308) == (1.5e308, 0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(square=st.floats(0.01, 0.99), steepness=st.floats(1.0, 1e30))
    @example(square=0.5, steepness=1.0)
    @example(square=0.3, steepness=1e30)
    def test_every_root_meets_the_stopping_rule(self, square, steepness):
        # a steep f misses RESIDUAL_LIMIT at DEFAULT_TOL, so its bracket goes on
        # halving to adjacent doubles
        f = lambda x: steepness * (x * x - square)
        root, value, width = find_root(f, 0.0, 1.0)
        step = max(DEFAULT_TOL, 2.0 * math.ulp(root))
        assert 0.0 < root < 1.0
        assert 0.0 <= width <= step  # the width reached
        assert value == f(root)  # f at the root returned, bit for bit
        # the residual meets the limit unless the bracket reached adjacent doubles
        assert abs(value) <= RESIDUAL_LIMIT or width in (
            math.nextafter(root, 1.0) - root, root - math.nextafter(root, 0.0))
        assert f(root) == 0.0 or f(max(0.0, root - step)) <= 0.0 <= f(min(1.0, root + step))

    def test_a_steep_f_stops_at_adjacent_doubles(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1e20 * (x * x - 2.0)  # |f| near 1e8 at a bracket width of 1e-12

        root, _, width = find_root(f, 1.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= math.ulp(root)
        assert width == math.ulp(1.0)  # the spacing of the doubles in [1, 2)
        assert len(calls) <= 2 + 53  # two ends, then one halving per bit

    def test_adjacent_doubles_give_the_end_the_midpoint_rounds_to(self):
        up, down = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
        # 0.5 * 1.0 + 0.5 * up rounds down to the lower end ...
        assert find_root(lambda x: 1.0 if x > 1.0 else -1.0, 1.0, up) == (1.0, -1.0, up - 1.0)
        # ... and 0.5 * down + 0.5 * 1.0 up to the upper end
        assert find_root(lambda x: 1.0 if x >= 1.0 else -1.0, down, 1.0) == (1.0, 1.0, 1.0 - down)

    @pytest.mark.parametrize("lo, hi, message", [
        (1.0, 0.0, "bracket requires finite lo < hi, got [1.0, 0.0]"),
        (0.0, 0.0, "bracket requires finite lo < hi, got [0.0, 0.0]"),
        (0.0, math.inf, "bracket requires finite lo < hi, got [0.0, inf]"),
        (-math.inf, 0.0, "bracket requires finite lo < hi, got [-inf, 0.0]"),
        (-math.inf, math.inf, "bracket requires finite lo < hi, got [-inf, inf]"),
        (math.nan, 1.0, "bracket requires finite lo < hi, got [nan, 1.0]"),
        (0.0, math.nan, "bracket requires finite lo < hi, got [0.0, nan]"),
    ])
    def test_bracket_validation(self, lo, hi, message):
        # a plain ValueError, checked before f is called: not a missing sign change
        def f(x):
            raise AssertionError("f called on a rejected bracket")

        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            find_root(f, lo, hi)
        assert type(info.value) is ValueError

    def test_default_tol(self):
        _, _, width = find_root(lambda x: x - 1.0 / 3.0, 0.0, 1.0)
        assert 0.5 * DEFAULT_TOL < width <= DEFAULT_TOL

    @settings(max_examples=300, deadline=None)
    @given(c=EXTREME_DOUBLES, lo=EXTREME_DOUBLES, hi=EXTREME_DOUBLES)
    @example(c=0.3, lo=0.0, hi=math.inf)  # an infinite end
    @example(c=1.5e308, lo=1e308, hi=1.7e308)  # lo + hi overflows
    def test_a_shifted_identity_over_extreme_doubles(self, c, lo, hi):
        # every bracket either is rejected or gives a root that the bracket
        # holds, not nan, found to the tolerance or to adjacent doubles
        try:
            root, value, width = find_root(lambda x: x - c, lo, hi)
        except ValueError:
            return
        assert lo <= root <= hi
        assert not math.isnan(value)
        assert 0.0 <= width <= max(DEFAULT_TOL, 2.0 * math.ulp(root))


def test_linspace():
    assert linspace(0.0, 1.0, 5) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert linspace(2.0, 2.0, 1) == [2.0]
    with pytest.raises(ValueError):
        linspace(0.0, 1.0, 0)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7e308, 0.5e308)])
def test_linspace_width_that_overflows_is_an_error(lo, hi):
    # hi - lo is inf, and the grid would hold inf and nan
    with pytest.raises(ValueError, match=r"the width of \[.*\] overflows a double"):
        linspace(lo, hi, 3)
