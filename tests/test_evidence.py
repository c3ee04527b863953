import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, stats

from evlab.evidence import (
    CONTINUOUS,
    EVIDENCE_KINDS,
    MODES,
    BinomialOutcome,
    CompositeHypothesis,
    DegeneratePriorError,
    PointHypothesis,
    compute_evidence,
    log_bf,
    log_mlr,
    log_slr,
    neg_log_p,
    p_value_two_sided,
    support_label,
    _EXACT_BF_BITS,
    _exact_log_bf,
    _over_power_of_two,
)
from evlab.scale import AgreementConfig, outcome_grid

from _contract import EXTREME_DOUBLES, NONNEGATIVE, UNIT, check_contract
from _oracles import (
    beta_fraction,
    bf_fraction,
    incomplete_beta_fraction,
    log_fraction,
    mlr_fraction,
    p_value_fraction,
    quad_log_bf,
    slr_fraction,
)

FAIR = PointHypothesis(0.5)
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestBinomialOutcome:
    def test_exact_mode_requires_integers(self):
        BinomialOutcome(10, 5)
        with pytest.raises(ValueError):
            BinomialOutcome(10.5, 5)
        with pytest.raises(ValueError):
            BinomialOutcome(10, 4.5)

    def test_continuous_mode_accepts_reals(self):
        assert BinomialOutcome(0.3, 0.12, CONTINUOUS) == (0.3, 0.12, CONTINUOUS)

    def test_bounds(self):
        with pytest.raises(ValueError):
            BinomialOutcome(-1, 0)
        with pytest.raises(ValueError):
            BinomialOutcome(5, 6)
        with pytest.raises(ValueError):
            BinomialOutcome(5, -1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            BinomialOutcome(5, 2, "fuzzy")


class TestHypotheses:
    def test_point_domain(self):
        with pytest.raises(ValueError):
            PointHypothesis(0.0)
        with pytest.raises(ValueError):
            PointHypothesis(1.0)

    def test_composite_validation(self):
        with pytest.raises(ValueError):
            CompositeHypothesis(support=(0.5, 0.5))
        with pytest.raises(ValueError):
            CompositeHypothesis(support=(-0.1, 0.5))
        with pytest.raises(ValueError):
            CompositeHypothesis(support=(0.0, 1.0), a=0.0)

    @pytest.mark.parametrize(
        "hypothesis",
        [
            CompositeHypothesis(),
            CompositeHypothesis((0.0, 0.5)),
            CompositeHypothesis(support=(0.2, 0.9), a=2.5, b=1.5),
            CompositeHypothesis(support=(0.1, 0.4), a=0.7, b=3.0),
        ],
    )
    def test_prior_normalizes_to_one(self, hypothesis):
        # the truncated, renormalized prior density integrates to 1
        from evlab.evidence import _log_truncated_beta_mass

        lo, hi = hypothesis.support
        a, b = hypothesis.a, hypothesis.b
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        log_mass = log_beta + _log_truncated_beta_mass(a, b, lo, hi)

        def density(t):
            return math.exp(
                (hypothesis.a - 1.0) * math.log(t)
                + (hypothesis.b - 1.0) * math.log(1.0 - t)
                - log_mass
            )

        total, _ = integrate.quad(density, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=300)
        assert abs(total - 1.0) <= 1e-10


class TestPValue:
    def test_balanced_is_one(self):
        assert p_value_two_sided(BinomialOutcome(2, 1), FAIR) == 1.0
        assert p_value_two_sided(BinomialOutcome(10, 5), FAIR) == 1.0

    def test_all_heads(self):
        assert p_value_two_sided(BinomialOutcome(10, 10), FAIR) == 2.0 / 1024.0

    def test_matches_enumeration_oracle(self):
        for n in range(1, 16):
            for k in range(n + 1):
                expected = float(p_value_fraction(n, k))
                assert p_value_two_sided(BinomialOutcome(n, k), FAIR) == expected, (n, k)

    @pytest.mark.parametrize("n", [599, 600])
    def test_matches_enumeration_oracle_at_larger_n(self, n):
        for k in (0, 1, 137, n // 2 - 1, n // 2, (n + 1) // 2, n - 5, n):
            expected = float(p_value_fraction(n, k))
            assert p_value_two_sided(BinomialOutcome(n, k), FAIR) == expected, (n, k)

    def test_large_n_in_one_pass(self):
        got = p_value_two_sided(BinomialOutcome(20000, 9800), FAIR)
        assert got == pytest.approx(2.0 * stats.binom.cdf(9800, 20000, 0.5), rel=1e-10)

    def test_monotone_in_distance(self):
        for n in (17, 20):
            by_distance = sorted(range(n + 1), key=lambda k: abs(2 * k - n))
            values = [p_value_two_sided(BinomialOutcome(n, k), FAIR) for k in by_distance]
            assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    def test_asymmetric_null_rejected(self):
        with pytest.raises(ValueError, match="only defined here for theta0 = 1/2"):
            p_value_two_sided(BinomialOutcome(10, 5), PointHypothesis(0.3))

    def test_requires_exact_mode(self):
        with pytest.raises(ValueError):
            p_value_two_sided(BinomialOutcome(10.0, 5.5, CONTINUOUS), FAIR)

    def test_requires_data(self):
        with pytest.raises(ValueError):
            p_value_two_sided(BinomialOutcome(0, 0), FAIR)

    @pytest.mark.parametrize("n, count, p", [
        (1074, 1, 5e-324), (1075, 1, 0.0),  # 2**-1075 is a tie, rounded to even
        (1076, 3, 5e-324), (1077, 3, 0.0), (1100, 2**25 - 1, 0.0), (1100, 2**25 + 1, 5e-324),
    ])
    def test_the_quotient_skips_two_to_the_n_only_where_it_rounds_to_zero(self, n, count, p):
        assert _over_power_of_two(n, count) == count / 2**n == p


class TestNegLogP:
    def test_exact_zero_at_balance(self):
        assert neg_log_p(BinomialOutcome(10, 5), FAIR) == 0.0
        assert neg_log_p(BinomialOutcome(2, 1), FAIR) == 0.0

    def test_all_heads(self):
        expected = -math.log(2.0 / 1024.0)
        assert neg_log_p(BinomialOutcome(10, 10), FAIR) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(6.238, abs=5e-4)

    @pytest.mark.parametrize("n, k", [(3000, 10), (5000, 0)])
    def test_finite_where_p_underflows(self, n, k):
        assert p_value_two_sided(BinomialOutcome(n, k), FAIR) == 0.0
        mpmath.mp.dps = 50
        p = sum(mpmath.binomial(n, j) for j in range(n + 1) if abs(2 * j - n) >= abs(2 * k - n))
        expected = float(-mpmath.log(p / mpmath.mpf(2) ** n))
        assert neg_log_p(BinomialOutcome(n, k), FAIR) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n, k", [(1080, 1), (1074, 0), (1070, 4)])
    def test_full_precision_where_p_is_subnormal(self, n, k):
        assert 0.0 < p_value_two_sided(BinomialOutcome(n, k), FAIR) < sys.float_info.min
        mpmath.mp.dps = 50
        count = 2 * sum(mpmath.binomial(n, j) for j in range(min(k, n - k) + 1))
        expected = float(n * mpmath.log(2) - mpmath.log(count))
        assert neg_log_p(BinomialOutcome(n, k), FAIR) == pytest.approx(expected, rel=1e-14)


class TestLogMlr:
    def test_stuck_at_zero_for_balanced_data(self):
        for n in range(2, 101, 2):
            assert log_mlr(BinomialOutcome(n, n // 2), FAIR) == 0.0, n

    def test_all_heads(self):
        assert log_mlr(BinomialOutcome(10, 10), FAIR) == pytest.approx(
            10.0 * math.log(2.0), rel=1e-12
        )

    def test_direct_substitution(self):
        expected = 3 * math.log(3.0 / 4.0) + math.log(1.0 / 4.0) + 4 * math.log(2.0)
        assert log_mlr(BinomialOutcome(4, 3), FAIR) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, n + 1))
            theta0 = float(rng.uniform(0.05, 0.95))
            assert log_mlr(BinomialOutcome(n, k), PointHypothesis(theta0)) >= 0.0

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            log_mlr(BinomialOutcome(0, 0), FAIR)

    @settings(max_examples=200, deadline=None)
    @given(n=NONNEGATIVE, share=UNIT, theta0=st.one_of(UNIT, EXTREME_DOUBLES),
           mode=st.sampled_from(MODES))
    def test_error_contract_over_extreme_doubles(self, n, share, theta0, mode):
        check_contract(lambda: log_mlr(BinomialOutcome(n, share * n, mode),
                                       PointHypothesis(theta0)))

    @pytest.mark.parametrize("n, k", [(10**6, 500100), (10**7, 5000100), (10**7, 4999999)])
    def test_full_precision_near_the_null_at_large_n(self, n, k):
        # each of k ln(k/n) and k ln(1/2) is about n ln 2 here; their difference is tiny
        with mpmath.workdps(50):
            expected = float(k * mpmath.log(mpmath.mpf(2 * k) / n)
                             + (n - k) * mpmath.log(mpmath.mpf(2 * (n - k)) / n))
        assert log_mlr(BinomialOutcome(n, k), FAIR) == pytest.approx(expected, rel=1e-14)

    def test_matches_the_divergence_for_any_null(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(10 ** rng.uniform(0.0, 7.0))
            k = int(rng.integers(0, n + 1))
            theta0 = float(rng.uniform(0.01, 0.99))
            with mpmath.workdps(50):
                t = mpmath.mpf(theta0)
                expected = float(
                    (k * mpmath.log(mpmath.mpf(k) / (n * t)) if k else 0)
                    + (mpmath.mpf(n - k) * mpmath.log((n - k) / (n * (1 - t))) if n - k else 0))
            # the rounding of n theta0 alone can move a value near the null by about
            # 2 eps n theta0 / |k - n theta0| of itself; these draws keep that far below 1e-12
            got = log_mlr(BinomialOutcome(n, k), PointHypothesis(theta0))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300), (n, k, theta0)

    @pytest.mark.parametrize("n, k, theta0, expected", [
        # n theta0 underflows to 0; the value is k ln(1/theta0)
        (1e-300, 1e-300, 1e-30, 1e-300 * 30 * math.log(10.0)),
        # k + n theta0 overflows a double; the value does not
        (1.7e308, 1.7e308, 0.5, 1.7e308 * math.log(2.0)),
        (1.7e308, 1.5e308, 0.5, 1.5e308 * math.log(1.5 / 0.85) + 0.2e308 * math.log(0.2 / 0.85)),
    ])
    def test_finite_at_the_ends_of_the_double_range(self, n, k, theta0, expected):
        got = log_mlr(BinomialOutcome(n, k, CONTINUOUS), PointHypothesis(theta0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_mirrored_data_tie_exactly(self):
        for n, k in [(7, 2), (1001, 400), (10**7, 5000100)]:
            assert log_mlr(BinomialOutcome(n, k), FAIR) == log_mlr(BinomialOutcome(n, n - k), FAIR)


class TestLogSlr:
    H1 = PointHypothesis(0.25)
    H2 = PointHypothesis(0.75)

    def test_balanced_is_tiny(self):
        for n in (2, 10, 100, 1000):
            data = BinomialOutcome(n, n // 2)
            assert abs(log_slr(data, self.H1, self.H2)) <= 1e-12

    def test_no_data_is_zero(self):
        assert log_slr(BinomialOutcome(0, 0), self.H1, self.H2) == 0.0

    def test_single_toss(self):
        got = log_slr(BinomialOutcome(1, 1), self.H1, self.H2)
        assert got == pytest.approx(math.log(1.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("n, k, t1, t2", [
        (5, 3, 0.9, 5e-324),  # 0.9 / 5e-324 overflows, and the value read inf
        (1, 1, 5e-324, 0.9),  # 5e-324 / 0.9 rounds to the one subnormal 5e-324
    ])
    def test_a_ratio_outside_the_normal_doubles_keeps_its_log(self, n, k, t1, t2):
        expected = (k * (math.log(t1) - math.log(t2))
                    + (n - k) * (math.log(1.0 - t1) - math.log(1.0 - t2)))
        got = log_slr(BinomialOutcome(n, k), PointHypothesis(t1), PointHypothesis(t2))
        assert got == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("n, k, t1, t2", [
        (10, 0, 1e-300, 5e-324),  # 1 - 1e-300 and 1 - 5e-324 both round to 1: it read 0.0
        (10, 10, 0.3, 0.30000000000000004),  # 0.3 / 0.30000000000000004 rounds near 1
    ])
    def test_tiny_and_close_thetas_match_mpmath(self, n, k, t1, t2):
        got = log_slr(BinomialOutcome(n, k), PointHypothesis(t1), PointHypothesis(t2))
        t1, t2 = mpmath.mpf(t1), mpmath.mpf(t2)
        with mpmath.workdps(60):
            expected = float(k * mpmath.log(t1 / t2)
                             + (n - k) * (mpmath.log1p(-t1) - mpmath.log1p(-t2)))
        assert got == pytest.approx(expected, rel=1e-15, abs=0)

    def test_a_mirrored_pair_at_half_is_exactly_zero(self):
        # a log1p of the complements everywhere read -2.2e-16 here
        assert log_slr(BinomialOutcome(2, 1), self.H1, self.H2) == 0.0

    def test_terms_that_overflow_with_opposite_signs_name_the_inputs(self):
        with pytest.raises(ValueError, match=r"at n=1\.7e\+308, k=8\.5e\+307, theta1=0\.9, "
                                             r"theta2=0\.1$"):
            log_slr(BinomialOutcome(1.7e308, 8.5e307, CONTINUOUS), PointHypothesis(0.9),
                    PointHypothesis(0.1))

    @settings(max_examples=200, deadline=None)
    @given(n=NONNEGATIVE, share=UNIT, t1=UNIT, t2=UNIT, mode=st.sampled_from(MODES))
    @example(n=1.7e308, share=0.5, t1=0.9, t2=0.1, mode=CONTINUOUS)  # inf - inf
    def test_error_contract_over_extreme_doubles(self, n, share, t1, t2, mode):
        check_contract(lambda: log_slr(BinomialOutcome(n, share * n, mode),
                                       PointHypothesis(t1), PointHypothesis(t2)))

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), t1=OPEN_UNIT, t2=OPEN_UNIT)
    def test_additive_in_batches(self, data, t1, t2):
        n1, n2 = data.draw(st.integers(1, 10**7)), data.draw(st.integers(1, 10**7))
        k1, k2 = data.draw(st.integers(0, n1)), data.draw(st.integers(0, n2))
        h1, h2 = PointHypothesis(t1), PointHypothesis(t2)
        combined = log_slr(BinomialOutcome(n1 + n2, k1 + k2), h1, h2)
        split = log_slr(BinomialOutcome(n1, k1), h1, h2) + log_slr(
            BinomialOutcome(n2, k2), h1, h2
        )
        # rounding is relative to the size of the terms, which can cancel; each log is
        # taken so that no quotient overflows or rounds to 1 and reads as size 0
        terms = sum(count * size for count, size in (
            (k1 + k2, abs(math.log(t1) - math.log(t2))),
            (n1 + n2 - k1 - k2, abs(math.log1p((t2 - t1) / (1.0 - t2))))) if count)
        assert combined == split or abs(combined - split) <= 1e-13 * terms


class TestLogBf:
    def test_no_data_exactly_zero(self):
        assert log_bf(BinomialOutcome(0, 0), CompositeHypothesis(), FAIR) == 0.0
        assert log_bf(BinomialOutcome(0, 0), CompositeHypothesis((0.0, 0.5)), FAIR) == 0.0

    def test_uniform_closed_form_examples(self):
        # marginal likelihood under the uniform prior is B(k+1, n-k+1)
        b66 = float(Fraction(math.factorial(5) ** 2, math.factorial(11)))
        got = log_bf(BinomialOutcome(10, 5), CompositeHypothesis(), FAIR)
        assert got == pytest.approx(math.log(b66 * 2**10), rel=1e-12)
        assert got == pytest.approx(-0.9959, abs=5e-4)

        b39 = float(Fraction(math.factorial(2) * math.factorial(8), math.factorial(11)))
        got = log_bf(BinomialOutcome(10, 2), CompositeHypothesis(), FAIR)
        assert got == pytest.approx(math.log(b39 * 2**10), rel=1e-12)

    def test_matches_quadrature_oracle(self):
        for support in ((0.0, 1.0), (0.0, 0.5)):
            h1 = CompositeHypothesis(support)
            for n in range(0, 13):
                for k in range(n + 1):
                    got = log_bf(BinomialOutcome(n, k), h1, FAIR)
                    expected = quad_log_bf(n, k, support, 0.5)
                    assert abs(got - expected) <= 1e-9, (support, n, k)

    def test_nonuniform_prior_matches_oracle(self):
        h1 = CompositeHypothesis(support=(0.1, 0.8), a=2.0, b=3.0)
        for n, k in ((5, 2), (12, 9), (20, 3)):
            got = log_bf(BinomialOutcome(n, k), h1, FAIR)
            expected = quad_log_bf(n, k, (0.1, 0.8), 0.5, a=2.0, b=3.0)
            assert abs(got - expected) <= 1e-9

    @pytest.mark.parametrize("n", [146, 400, 1000])
    def test_upper_tail_mass_does_not_cancel(self, n):
        # the marginal likelihood on [1/2, 1] is 2 * 2**-(n+1) / (n+1)
        got = log_bf(BinomialOutcome(n, 0), CompositeHypothesis((0.5, 1.0)), FAIR)
        assert got == pytest.approx(-math.log(n + 1), rel=1e-13)

    def test_point_point_dispatches_to_slr(self):
        h1 = PointHypothesis(0.25)
        h2 = PointHypothesis(0.75)
        data = BinomialOutcome(9, 2)
        assert log_bf(data, h1, h2) == log_slr(data, h1, h2)

    def test_far_tail_prior_mass_is_finite(self):
        # Beta(200, 200) on [0, 1e-6] has mass about e^-2490; in log space it is
        # finite, and log BF at (2, 1) is the exact rational's log
        from evlab.evidence import _log_truncated_beta_mass

        x = 1e-6
        prior = incomplete_beta_fraction(x, 200, 200)
        assert _log_truncated_beta_mass(200.0, 200.0, 0.0, x) == pytest.approx(
            log_fraction(prior), rel=1e-13)
        posterior = incomplete_beta_fraction(x, 201, 201)
        bf = (beta_fraction(201, 201) * posterior) / (beta_fraction(200, 200) * prior) * 4
        h1 = CompositeHypothesis(support=(0.0, x), a=200.0, b=200.0)
        assert log_bf(BinomialOutcome(2, 1), h1, FAIR) == pytest.approx(
            log_fraction(bf), rel=1e-13)

    def test_far_tail_posterior_mass_is_finite(self):
        # the posterior Beta(4951, 51) has mass about e^-3189 on [0, 1/2]
        data = BinomialOutcome(5000.0, 4950.0, CONTINUOUS)
        posterior = incomplete_beta_fraction(0.5, 4951, 51)
        bf = beta_fraction(4951, 51) * posterior / Fraction(1, 2) * 2**5000
        assert log_bf(data, CompositeHypothesis((0.0, 0.5)), FAIR) == pytest.approx(
            log_fraction(bf), rel=1e-13)

    @pytest.mark.parametrize("n, k, a, b", [
        (1.7e308, 1.7e308, 1e308, 1.0), (1e308, 1e308, 1.7e308, 1.0), (10.0, 5.0, 1e308, 1e308),
    ])
    def test_a_shape_sum_past_the_largest_double_is_an_error(self, n, k, a, b):
        # k + a, n - k + b or the prior's a + b overflows, where log BF was nan
        h1 = CompositeHypothesis((0.0, 1.0), a, b)
        for data in (BinomialOutcome(n, k), BinomialOutcome(n, k, CONTINUOUS)):
            with pytest.raises(ValueError) as err:
                log_bf(data, h1, FAIR)
            assert f"n={n}, k={k}, a={a}, b={b}" in str(err.value)

    def test_log_densities_at_theta0_that_both_overflow_are_an_error(self):
        # b ln(1 - theta0) is about -3.7e308: both log densities at theta0 are
        # -inf, and their difference was nan
        h1 = CompositeHypothesis((0.0, 5e-324), 5e-324, 1e307)
        with pytest.raises(ValueError, match="both overflow a double at n=0, k=0"):
            log_bf(BinomialOutcome(0, 0), h1, PointHypothesis(1.0 - 2.0**-53))

    def test_the_largest_shape_sums_are_finite(self):
        # BF = 2**n / (n + 1) under the uniform prior at k = n
        got = log_bf(BinomialOutcome(1e308, 1e308), CompositeHypothesis(), FAIR)
        assert got == pytest.approx(1e308 * math.log(2.0), rel=1e-15)
        largest = sys.float_info.max
        h1 = CompositeHypothesis((0.0, 1.0), largest / 2, largest / 2)
        assert math.isfinite(log_bf(BinomialOutcome(0, 0), h1, FAIR))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(MODES))
    def test_error_contract_over_extreme_doubles(self, data, mode):
        """Every argument is one of the extreme doubles, inside the bounds its
        record checks, so that most draws reach log_bf itself."""
        n = data.draw(NONNEGATIVE)
        k = data.draw(st.one_of(st.just(n), UNIT.map(lambda u: u * n)))
        support = tuple(sorted((data.draw(UNIT), data.draw(UNIT))))
        a, b, theta0 = data.draw(NONNEGATIVE), data.draw(NONNEGATIVE), data.draw(UNIT)
        check_contract(lambda: log_bf(BinomialOutcome(n, k, mode),
                                      CompositeHypothesis(support, a, b), PointHypothesis(theta0)))

    @settings(max_examples=200, deadline=None)
    @given(n=EXTREME_DOUBLES, k=EXTREME_DOUBLES, lo=EXTREME_DOUBLES, hi=EXTREME_DOUBLES,
           a=EXTREME_DOUBLES, b=EXTREME_DOUBLES, theta0=EXTREME_DOUBLES,
           mode=st.sampled_from(MODES))
    def test_error_contract_over_every_extreme_double(self, n, k, lo, hi, a, b, theta0, mode):
        check_contract(lambda: log_bf(BinomialOutcome(n, k, mode),
                                      CompositeHypothesis((lo, hi), a, b), PointHypothesis(theta0)))

    def test_mass_below_double_resolution_raises(self):
        # a support one double wide at 0.3, where ln I_U and ln I_L round equal
        lo = 0.3
        h1 = CompositeHypothesis((lo, math.nextafter(lo, 1.0)))
        with pytest.raises(DegeneratePriorError, match="zero to double precision"):
            log_bf(BinomialOutcome(2, 1), h1, FAIR)


class TestExactLogBf:
    """Exact-mode Bayes factors with integer prior shapes on (0, 1) are
    rationals, computed exactly and rounded once within _EXACT_BF_BITS."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), a=st.integers(1, 5), b=st.integers(1, 5), bits=st.integers(1, 12))
    def test_agrees_with_the_float_path(self, data, a, b, bits):
        # theta0 = t / 2**bits with t odd, so q = 2**bits
        theta0 = (2 * data.draw(st.integers(0, 2 ** (bits - 1) - 1)) + 1) / 2**bits
        n = data.draw(st.integers(0, (_EXACT_BF_BITS - a - b) // (bits + 1)))
        k = data.draw(st.integers(0, n))
        h1, h2 = CompositeHypothesis((0.0, 1.0), a, b), PointHypothesis(theta0)
        exact = _exact_log_bf(BinomialOutcome(n, k), h1, theta0)
        assert exact is not None
        assert exact == log_bf(BinomialOutcome(n, k), h1, h2)
        float_path = log_bf(BinomialOutcome(n, k, CONTINUOUS), h1, h2)
        assert abs(exact - float_path) <= 1e-12 * max(1.0, abs(exact))

    def test_ties_across_n_are_exact(self):
        # BF(2m+1, m) = BF(2m, m) = BF(2m+1, m+1) under the uniform prior at 1/2
        n_max = (_EXACT_BF_BITS - 2) // 2
        assert n_max == 511
        for m in range(n_max // 2 + 1):
            odd_low = log_bf(BinomialOutcome(2 * m + 1, m), CompositeHypothesis(), FAIR)
            even = log_bf(BinomialOutcome(2 * m, m), CompositeHypothesis(), FAIR)
            odd_high = log_bf(BinomialOutcome(2 * m + 1, m + 1), CompositeHypothesis(), FAIR)
            assert odd_low == even == odd_high, m

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), a=st.integers(1, 5))
    def test_mirror_symmetry_is_exact(self, data, a):
        # the exact path's range, and past it the float path up to n = 1e7
        n = data.draw(st.integers(0, (_EXACT_BF_BITS - 2 * a) // 2) | st.integers(0, 10**7))
        k = data.draw(st.integers(0, n))
        h1 = CompositeHypothesis((0.0, 1.0), a, a)
        mirrored = log_bf(BinomialOutcome(n, n - k), h1, FAIR)
        assert log_bf(BinomialOutcome(n, k), h1, FAIR) == mirrored

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), a=st.integers(1, 5), lo=st.floats(0.0, 0.45))
    def test_mirror_symmetry_on_truncated_supports(self, data, a, lo):
        """A Beta(a, a) prior on [lo, 1 - lo] against 1/2, float path, n up to 1e7.
        The two sides fail together where the posterior mass underflows. On
        supports much narrower than 0.1 the mass I_U - I_L cancels, and the
        sides part by more than rounding (ROADMAP item 3)."""
        n = data.draw(st.integers(0, 10**7))
        k = data.draw(st.integers(0, n))
        h1 = CompositeHypothesis((lo, 1.0 - lo), a, a)

        def side(successes):
            try:
                return log_bf(BinomialOutcome(n, successes), h1, FAIR)
            except DegeneratePriorError:
                return None

        value, mirrored = side(k), side(n - k)
        if value is None or mirrored is None:
            assert value is mirrored is None
        else:
            assert abs(value - mirrored) <= 1e-12 * max(1.0, abs(value))

    @pytest.mark.parametrize("n, k, theta0, a, b", [
        (10, 2, 0.5, 1, 1), (511, 255, 0.5, 1, 1), (300, 17, 0.25, 2, 5),
        (15, 14, 0.1, 3, 1), (80, 0, 2.0**-10, 1, 4),
    ])
    def test_matches_the_rational_oracle(self, n, k, theta0, a, b):
        h1 = CompositeHypothesis((0.0, 1.0), a, b)
        got = log_bf(BinomialOutcome(n, k), h1, PointHypothesis(theta0))
        assert _exact_log_bf(BinomialOutcome(n, k), h1, theta0) == got
        bf = bf_fraction(n, k, theta0, a, b)
        mpmath.mp.dps = 50
        expected = float(mpmath.log(mpmath.mpf(bf.numerator) / bf.denominator))
        assert got == pytest.approx(expected, rel=1e-15, abs=1e-15)

    def test_tiny_theta0_takes_the_exact_path(self):
        # BF = 1 / (n+1) / 2**-(60n) = 2**896 at theta0 = 2**-60, about 5.3e269
        theta0 = 2.0**-60
        got = log_bf(BinomialOutcome(15, 15), CompositeHypothesis(), PointHypothesis(theta0))
        assert _exact_log_bf(BinomialOutcome(15, 15), CompositeHypothesis(), theta0) == got
        assert got == pytest.approx(15 * 60 * math.log(2.0) - math.log(16), rel=1e-15)

    @pytest.mark.parametrize("n, a, b, theta0, expected", [
        # the smallest prior moment the budget admits, e^-488.8, against 1/2
        (283, 1, 457, 0.5, -292.6176612321842),
        # the largest q the budget admits: BF = 2**1021 / 2 = 2**1020
        (1, 1, 1, 2.0**-1021, 707.0101241711442),
    ])
    def test_corners_of_the_budget(self, n, a, b, theta0, expected):
        h1, h2 = CompositeHypothesis((0.0, 1.0), a, b), PointHypothesis(theta0)
        assert n * Fraction(theta0).denominator.bit_length() + a + b == _EXACT_BF_BITS
        got = log_bf(BinomialOutcome(n, n), h1, h2)
        assert got == _exact_log_bf(BinomialOutcome(n, n), h1, theta0) == expected
        assert got == log_fraction(bf_fraction(n, n, theta0, a, b))
        float_path = log_bf(BinomialOutcome(n, n, CONTINUOUS), h1, h2)
        assert abs(got - float_path) <= 1e-12 * abs(got)

    @pytest.mark.parametrize("data, h1", [
        (BinomialOutcome(10.0, 3.0, CONTINUOUS), CompositeHypothesis()),
        (BinomialOutcome(10, 3), CompositeHypothesis((0.0, 0.5))),
        (BinomialOutcome(10, 3), CompositeHypothesis((0.0, 1.0), 1.5, 1.0)),
        (BinomialOutcome(512, 3), CompositeHypothesis()),
    ])
    def test_float_path_elsewhere(self, data, h1):
        assert _exact_log_bf(data, h1, 0.5) is None


# The six ranked kinds of an agreement audit and keys from exact rationals
# that order the outcomes as the kinds do (neglogp reverses the p-value).
EXACT_ORDER_KEYS = {
    "pvalue": lambda n, k: p_value_fraction(n, k),
    "neglogp": lambda n, k: -p_value_fraction(n, k),
    "logmlr": lambda n, k: mlr_fraction(n, k, 0.5),
    "logslr": lambda n, k: slr_fraction(n, k, 0.25, 0.5),
    "logbf": lambda n, k: bf_fraction(n, k, 0.5),
    "abslogbf": lambda n, k: max(bf_fraction(n, k, 0.5), 1 / bf_fraction(n, k, 0.5)),
}


@pytest.mark.parametrize("kind", list(EXACT_ORDER_KEYS))
def test_values_keep_the_exact_order(kind):
    """Every pairwise order on the n <= 60 grid is the exact one: with the
    outcomes sorted by the exact key, equal keys have equal values and each
    step to a larger key is a strictly larger value."""
    config = AgreementConfig()
    outcomes = sorted(outcome_grid(60), key=lambda o: EXACT_ORDER_KEYS[kind](o.n, o.k))
    keys = [EXACT_ORDER_KEYS[kind](o.n, o.k) for o in outcomes]
    values = [
        compute_evidence(kind, o, null=config.null, alternative=config.alternative_for(kind)).value
        for o in outcomes
    ]
    broken = [
        (outcomes[i], outcomes[i + 1])
        for i in range(len(outcomes) - 1)
        if (values[i] == values[i + 1]) != (keys[i] == keys[i + 1])
        or values[i] > values[i + 1]
    ]
    assert broken == []


class TestAbsLogBf:
    def test_values(self):
        def abs_log_bf(data):
            return compute_evidence("abslogbf", data, null=FAIR, alternative=CompositeHypothesis()).value

        assert abs_log_bf(BinomialOutcome(0, 0)) == 0.0
        got = abs_log_bf(BinomialOutcome(10, 5))
        assert got == pytest.approx(0.9959, abs=5e-4)

    def test_side_labels(self):
        assert support_label(0.7) == "supports H1"
        assert support_label(-0.7) == "supports H2"
        assert support_label(0.0) == "transition point"

    def test_a_nan_favors_no_side(self):
        # it read "transition point"
        with pytest.raises(ValueError, match="a log Bayes factor of nan favors no hypothesis"):
            support_label(math.nan)


class TestComputeEvidence:
    def test_each_kind_dispatches(self):
        data = BinomialOutcome(10, 8)
        alt = CompositeHypothesis()
        slr_alt = PointHypothesis(0.25)
        expected = {
            "pvalue": p_value_two_sided(data, FAIR),
            "neglogp": neg_log_p(data, FAIR),
            "mlr": math.exp(log_mlr(data, FAIR)),
            "logmlr": log_mlr(data, FAIR),
            "slr": math.exp(log_slr(data, slr_alt, FAIR)),
            "logslr": log_slr(data, slr_alt, FAIR),
            "bf": math.exp(log_bf(data, alt, FAIR)),
            "logbf": log_bf(data, alt, FAIR),
            "abslogbf": abs(log_bf(data, alt, FAIR)),
        }
        for kind in EVIDENCE_KINDS:
            alternative = slr_alt if kind in ("slr", "logslr") else alt
            ev = compute_evidence(kind, data, null=FAIR, alternative=alternative)
            assert ev == (kind, expected[kind]), kind

    def test_value_range_invariants(self):
        alt = CompositeHypothesis()
        for n in range(1, 21):
            for k in range(n + 1):
                data = BinomialOutcome(n, k)
                assert 0.0 <= compute_evidence("pvalue", data, null=FAIR).value <= 1.0
                assert compute_evidence("neglogp", data, null=FAIR).value >= 0.0
                assert compute_evidence("mlr", data, null=FAIR).value >= 1.0
                assert compute_evidence("logmlr", data, null=FAIR).value >= 0.0
                assert compute_evidence("bf", data, null=FAIR, alternative=alt).value > 0.0
                assert (
                    compute_evidence("abslogbf", data, null=FAIR, alternative=alt).value >= 0.0
                )

    def test_missing_pieces_rejected(self):
        data = BinomialOutcome(4, 2)
        with pytest.raises(TypeError):  # the null is a required keyword
            compute_evidence("pvalue", data)
        with pytest.raises(ValueError):
            compute_evidence("logbf", data, null=FAIR)
        with pytest.raises(ValueError):
            compute_evidence("slr", data, null=FAIR, alternative=CompositeHypothesis())
        with pytest.raises(ValueError):
            compute_evidence("entropy", data, null=FAIR)

    @pytest.mark.parametrize(
        "kind, data, null, alternative",
        [
            ("mlr", BinomialOutcome(2000, 0), FAIR, None),
            ("slr", BinomialOutcome(5000, 100), PointHypothesis(0.75), PointHypothesis(0.25)),
            ("bf", BinomialOutcome(100000, 40000), FAIR, CompositeHypothesis()),
        ],
    )
    def test_ratio_kinds_overflow_to_inf(self, kind, data, null, alternative):
        # the log value is far past ln(DBL_MAX) ~ 709.78, so the ratio is inf, not an error
        log_value = compute_evidence("log" + kind, data, null=null, alternative=alternative)
        assert log_value.value > 710.0
        ev = compute_evidence(kind, data, null=null, alternative=alternative)
        assert ev.value == math.inf
