import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from evlab import transition
from evlab.evidence import (
    CONTINUOUS,
    BinomialOutcome,
    CompositeHypothesis,
    PointHypothesis,
    log_bf,
    log_slr,
)
from evlab.numerics import DEFAULT_TOL, InvalidBracketError, find_root
from evlab.transition import (
    RESIDUAL_LIMIT,
    RIDE_TRP,
    SHRINK_N,
    TrPResult,
    against_both,
    trp_composite,
    trp_composite_two_sided,
    trp_simple,
    zero_path,
)

from _oracles import quad_trp

FAIR = PointHypothesis(0.5)
ONE_SIDED = CompositeHypothesis((0.0, 0.5))

# Transition point of the one-sided setup at n=10, from bisection of the
# quadrature-oracle log Bayes factor.
GOLDEN_TRP_N10 = 0.3380399306382021


class TestTrpSimple:
    def test_quarter_vs_three_quarters_is_exactly_half(self):
        assert trp_simple(0.25, 0.75) == 0.5

    def test_mirrored_pairs_sit_at_half(self):
        for theta in (0.1, 0.2, 0.35, 0.45):
            assert trp_simple(theta, 1.0 - theta) == pytest.approx(0.5, abs=1e-15)

    def test_matches_bisection_of_log_slr(self):
        h1, h2 = PointHypothesis(0.1), PointHypothesis(0.5)
        f = lambda y: log_slr(BinomialOutcome(1.0, y, CONTINUOUS), h1, h2)
        numeric, _, _ = find_root(f, 0.1, 0.5)
        assert trp_simple(0.1, 0.5) == pytest.approx(numeric, abs=1e-10)
        assert 0.1 < trp_simple(0.1, 0.5) < 0.5

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            t1, t2 = sorted(rng.uniform(0.02, 0.98, size=2))
            if t1 == t2:
                continue
            assert trp_simple(1.0 - t2, 1.0 - t1) == pytest.approx(
                1.0 - trp_simple(t1, t2), abs=1e-12
            )

    def test_zero_log_slr_at_trp_for_any_n(self):
        y_star = trp_simple(0.25, 0.75)
        h1, h2 = PointHypothesis(0.25), PointHypothesis(0.75)
        for n in (1, 10, 100, 1000):
            data = BinomialOutcome(float(n), y_star * n, CONTINUOUS)
            assert abs(log_slr(data, h1, h2)) <= 1e-12

    def test_degenerate(self):
        with pytest.raises(ValueError):
            trp_simple(0.3, 0.3)
        with pytest.raises(ValueError, match="must lie in"):  # not math's bare message
            trp_simple(0.0, 0.5)

    def test_zero_second_hypothesis_is_a_value_error(self):
        with pytest.raises(ValueError, match="must lie in"):
            trp_simple(0.25, 0.0)


class TestTrpComposite:
    def test_golden_value_at_n10(self):
        result = trp_composite(10.0, ONE_SIDED, FAIR)
        assert result.trp_y == pytest.approx(GOLDEN_TRP_N10, abs=1e-9)
        assert result.residual < 1e-8
        assert 0.0 < result.trp_y < 0.5

    def test_matches_quadrature_oracle(self):
        for n in (10.0, 40.0):
            got = trp_composite(n, ONE_SIDED, FAIR).trp_y
            expected = quad_trp(n, (0.0, 0.5), 0.5, 1e-6, 0.5 - 1e-6)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_drifts_up_with_n(self):
        previous = 0.0
        for n in (10.0, 20.0, 40.0, 80.0, 160.0):
            result = trp_composite(n, ONE_SIDED, FAIR)
            assert result.trp_y > previous
            assert result.trp_y < 0.5
            assert result.residual < 1e-8
            previous = result.trp_y

    @settings(max_examples=200, deadline=None)
    @given(support=st.sampled_from([(0.0, 0.5), (0.5, 1.0), (0.2, 0.5), (0.5, 0.9)]),
           exponents=st.lists(st.floats(0.0, 7.0), min_size=2, max_size=2).map(sorted))
    def test_drifts_toward_the_null_up_to_ten_million(self, support, exponents):
        h1 = CompositeHypothesis(support)
        first, second = (trp_composite(10.0 ** e, h1, FAIR) for e in exponents)
        for root in (first, second):
            assert support[0] < root.trp_y < support[1]
            assert (root.trp_y < 0.5) == (support[1] == 0.5)
        assert abs(second.trp_y - 0.5) <= (abs(first.trp_y - 0.5)
                                           + first.bracket_width + second.bracket_width)

    @pytest.mark.parametrize("support", [(0.0, 0.5), (0.1, 0.9)])
    def test_log_bf_at_the_roots_for_ten_million_trials(self, support):
        # against scipy's masses and a 50-digit ln B(k+1, n-k+1) + n ln 2
        n, h1 = 1e7, CompositeHypothesis(support)
        if support[0] == 0.0:
            roots = [trp_composite(n, h1, FAIR)]
        else:
            roots = list(trp_composite_two_sided(n, h1, FAIR))
        for root in roots:
            k = root.trp_y * n
            a, b = k + 1.0, n - k + 1.0
            with mpmath.workdps(50):
                point = float(mpmath.log(mpmath.beta(a, b)) + n * mpmath.log(2))
            mass = special.betainc(a, b, support[1]) - special.betainc(a, b, support[0])
            expected = point + math.log(mass) - math.log(support[1] - support[0])
            got = log_bf(BinomialOutcome(n, k, CONTINUOUS), h1, FAIR)
            assert got == pytest.approx(expected, abs=1e-11), root

    def test_one_bisection_per_root(self, monkeypatch):
        # at this n the midpoint at width DEFAULT_TOL passes the residual limit
        calls = []

        def counted(*args):
            calls.append(args)
            return log_bf(*args)

        monkeypatch.setattr(transition, "log_bf", counted)
        result = trp_composite(10 ** 6.970428763319813, ONE_SIDED, FAIR)
        assert len(calls) <= 45
        assert result.residual <= RESIDUAL_LIMIT and result.bracket_width <= DEFAULT_TOL

    def test_support_above_null_is_mirrored(self):
        mirrored = trp_composite(10.0, CompositeHypothesis((0.5, 1.0)), FAIR)
        assert mirrored.trp_y == pytest.approx(1.0 - GOLDEN_TRP_N10, abs=1e-9)

    def test_straddling_support_rejected(self):
        with pytest.raises(ValueError, match="straddles"):
            trp_composite(10.0, CompositeHypothesis((0.0, 1.0)), FAIR)

    @pytest.mark.parametrize("solve, h1", [
        (trp_composite, ONE_SIDED),
        (trp_composite_two_sided, CompositeHypothesis()),
    ], ids=["one-sided", "two-sided"])
    def test_requires_positive_n(self, solve, h1):
        with pytest.raises(ValueError, match="trial count must be positive, got n=0.0"):
            solve(0.0, h1, FAIR)

    @pytest.mark.parametrize("support", [(0.5, 0.5000015), (0.4999985, 0.5)])
    def test_support_too_narrow_for_the_margin(self, support):
        with pytest.raises(ValueError, match=re.escape(f"support {support} leaves no room")) as info:
            trp_composite(10.0, CompositeHypothesis(support), FAIR)
        assert "null 0.5" in str(info.value)


class TestTrpCompositeTwoSided:
    def test_pair_brackets_the_null(self):
        lower, upper = trp_composite_two_sided(10.0, CompositeHypothesis(), FAIR)
        assert lower.trp_y == pytest.approx(0.2692132873, abs=1e-8)
        assert upper.trp_y == pytest.approx(0.7307867127, abs=1e-8)
        assert lower.trp_y < 0.5 < upper.trp_y
        assert lower.residual < 1e-8 and upper.residual < 1e-8

    def test_symmetric_about_half(self):
        for n in (10.0, 20.0, 40.0):
            lower, upper = trp_composite_two_sided(n, CompositeHypothesis(), FAIR)
            assert lower.trp_y == pytest.approx(1.0 - upper.trp_y, abs=1e-9)

    def test_roots_approach_the_null(self):
        previous = 0.0
        for n in (10.0, 20.0, 40.0):
            lower, _ = trp_composite_two_sided(n, CompositeHypothesis(), FAIR)
            assert lower.trp_y > previous
            previous = lower.trp_y

    def test_requires_straddling_support(self):
        with pytest.raises(ValueError):
            trp_composite_two_sided(10.0, ONE_SIDED, FAIR)

    def test_support_too_narrow_for_the_margin(self):
        with pytest.raises(ValueError, match=re.escape("support (0.4999995, 1.0) leaves no room")):
            trp_composite_two_sided(10.0, CompositeHypothesis((0.4999995, 1.0)), FAIR)

    def test_no_roots_for_tiny_n(self):
        with pytest.raises(InvalidBracketError, match="does not change sign"):
            trp_composite_two_sided(1.0, CompositeHypothesis(), FAIR)


class TestAgainstBoth:
    def test_zero_when_data_sit_on_a_hypothesis(self):
        assert against_both(BinomialOutcome(8, 2), 0.25, 0.75) == 0.0
        assert against_both(BinomialOutcome(8, 6), 0.25, 0.75) == 0.0

    def test_balanced_rate(self):
        expected_rate = 0.5 * math.log(4.0 / 3.0)
        got = against_both(BinomialOutcome(2, 1), 0.25, 0.75)
        assert got == pytest.approx(2 * expected_rate, rel=1e-12)
        assert got == pytest.approx(0.1438 * 2, abs=2e-4)
        big = against_both(BinomialOutcome(100, 50), 0.25, 0.75)
        assert big == pytest.approx(50 * got, rel=1e-12)
        assert big == pytest.approx(14.38, abs=5e-3)

    def test_exactly_linear_in_n(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            y = float(rng.uniform(0.3, 0.7))
            n = float(rng.uniform(1.0, 500.0))
            single = against_both(BinomialOutcome(n, y * n, CONTINUOUS), 0.25, 0.75)
            double = against_both(BinomialOutcome(2 * n, y * (2 * n), CONTINUOUS), 0.25, 0.75)
            assert abs(double - 2.0 * single) <= 1e-10 * max(1.0, abs(double))

    def test_full_precision_near_a_hypothesis(self):
        n, k = 10**7, 5000100
        with mpmath.workdps(50):
            expected = float(k * mpmath.log(mpmath.mpf(2 * k) / n)
                             + (n - k) * mpmath.log(mpmath.mpf(2 * (n - k)) / n))
        got = against_both(BinomialOutcome(n, k), 0.5, 0.75)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            against_both(BinomialOutcome(0, 0), 0.25, 0.75)
        with pytest.raises(ValueError):
            against_both(BinomialOutcome(4, 2), 0.3, 0.3)
        with pytest.raises(ValueError, match="theta0 in"):
            against_both(BinomialOutcome(4, 2), 0.25, 1.5)


class TestZeroPath:
    def test_shrink_n_defaults(self):
        trace = zero_path(SHRINK_N)
        assert [p.n for p in trace] == [8.0, 4.0, 2.0, 1.0, 0.5, 0.1]
        assert all(p.y == 0.9 for p in trace)
        magnitudes = [abs(p.log_bf) for p in trace]
        assert all(m2 < m1 for m1, m2 in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] < 0.05
        proxies = [p.against_both for p in trace]
        assert all(a2 < a1 for a1, a2 in zip(proxies, proxies[1:]))
        assert proxies[-1] < 0.01

    @settings(max_examples=200, deadline=None)
    @given(y=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), n0=st.floats(1.0, 1e5))
    def test_shrink_n_goes_to_zero_for_every_y(self, y, n0):
        # Near n = 0, log BF is about n (2y ln 2 - 1) for the uniform prior on
        # [1/2, 1], and against_both is n times a divergence of at most ln(4/3).
        # The trace halves n0 40 times, and past n0 = 1000 until it is below
        # 1e-9, so 2n at its end stays far above the rounding of log BF's
        # terms of size 1 (about 3e-15).
        halvings = max(40, math.ceil(math.log2(n0 / 1e-9)))
        trace = zero_path(SHRINK_N, y_fixed=y,
                          n_values=tuple(n0 / 2**j for j in range(halvings + 1)))
        assert all(point.against_both <= point.n for point in trace)
        last = trace[-1]
        assert last.n < 1e-9
        assert abs(last.log_bf) <= 2.0 * last.n

    @settings(max_examples=25, deadline=None)
    @given(exponent=st.floats(1.0, 7.0))
    @example(exponent=7.0)
    @example(exponent=6.964008427231405)  # a 1e-12-wide bracket left residual 1.03e-8
    def test_ride_trp_stays_at_zero_up_to_ten_million(self, exponent):
        n = 10.0**exponent
        (point,) = zero_path(RIDE_TRP, n_values=(n,))
        assert abs(point.log_bf) <= RESIDUAL_LIMIT

    @settings(max_examples=200, deadline=None)
    @given(width=st.floats(0.1, 0.5), above=st.booleans(), exponent=st.floats(0.0, 5.0))
    def test_ride_trp_stays_at_zero_on_one_sided_supports(self, width, above, exponent):
        # The trp-sweep benchmark's domain: one support edge on the null 1/2,
        # the other 0.1 to 0.5 away on either side, n log-uniform in [1, 1e5].
        support = (0.5, 0.5 + width) if above else (0.5 - width, 0.5)
        (point,) = zero_path(RIDE_TRP, h1=CompositeHypothesis(support),
                             n_values=(10.0**exponent,))
        assert abs(point.log_bf) <= RESIDUAL_LIMIT
        assert (point.y > 0.5) if above else (point.y < 0.5)

    @settings(max_examples=25, deadline=None)
    @given(exponent=st.floats(1.0, 7.0))
    @example(exponent=7.0)
    @example(exponent=6.964008427231405)  # a 1e-12-wide bracket left residual 1.03e-8
    def test_log_bf_changes_sign_across_each_trp(self, exponent):
        n = 10.0**exponent
        roots = [(ONE_SIDED, trp_composite(n, ONE_SIDED, FAIR))]
        wide = CompositeHypothesis((0.1, 0.9))
        roots += [(wide, root) for root in trp_composite_two_sided(n, wide, FAIR)]
        for h1, root in roots:
            below, above = (log_bf(BinomialOutcome(n, (root.trp_y + step) * n, CONTINUOUS),
                                   h1, FAIR) for step in (-1e-6, 1e-6))
            assert below * above < 0.0, (h1, root)

    def test_shrink_n_golden_trace(self):
        golden = [2.282933309, 1.076476708, 0.518136073, 0.253532856, 0.125319850, 0.024826631]
        for point, expected in zip(zero_path(SHRINK_N), golden):
            assert point.log_bf == pytest.approx(expected, abs=1e-8)

    def test_ride_trp_defaults(self):
        trace = zero_path(RIDE_TRP)
        assert [p.n for p in trace] == [10.0, 100.0, 1000.0]
        assert all(abs(p.log_bf) <= 1e-8 for p in trace)
        proxies = [p.against_both for p in trace]
        assert all(a2 > a1 for a1, a2 in zip(proxies, proxies[1:]))
        assert proxies[-1] >= 10.0 * proxies[0]
        assert proxies[0] == pytest.approx(0.1933009, abs=1e-6)
        assert proxies[-1] == pytest.approx(107.1773, abs=1e-3)

    def test_paths_split_at_the_same_zero(self):
        # both traces end at log BF ~ 0, but only shrink-n also sends the
        # contradiction proxy to 0
        shrink = zero_path(SHRINK_N)
        ride = zero_path(RIDE_TRP)
        assert abs(ride[-1].log_bf) <= 1e-8
        assert abs(shrink[-1].log_bf) < 0.05
        assert shrink[-1].against_both < 0.01
        assert ride[-1].against_both > 100.0

    def test_single_row_trace(self):
        trace = zero_path(SHRINK_N, h1=CompositeHypothesis((0.5, 1.0)), y_fixed=0.9,
                          n_values=(2.0,))
        assert len(trace) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            zero_path("sideways")
        with pytest.raises(ValueError):
            zero_path("sideways", h1=CompositeHypothesis((0.5, 1.0)), n_values=(8.0, 4.0))
        with pytest.raises(ValueError):
            zero_path(SHRINK_N, h1=CompositeHypothesis(), n_values=(1.0, 2.0))
        with pytest.raises(ValueError):
            zero_path(RIDE_TRP, h1=ONE_SIDED, n_values=(10.0, 5.0))
        with pytest.raises(ValueError):
            zero_path(SHRINK_N, h1=CompositeHypothesis(), n_values=())
        for y in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=re.escape(f"fixed y must be in (0,1), got {y}")):
                zero_path(SHRINK_N, h1=CompositeHypothesis(), y_fixed=y, n_values=(2.0, 1.0))

    def test_shrink_n_rejects_a_repeated_n(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            zero_path(SHRINK_N, n_values=(4.0, 4.0))

    def test_ride_trace_log_bf_is_root_residual(self):
        for point in zero_path(RIDE_TRP):
            recomputed = log_bf(
                BinomialOutcome(point.n, point.y * point.n, CONTINUOUS),
                ONE_SIDED,
                FAIR,
            )
            assert point.log_bf == recomputed

    def test_settings_left_out_keep_the_path_defaults(self):
        changed = zero_path(SHRINK_N, y_fixed=0.8, n_values=(2.0, 1.0))
        assert [(p.n, p.y) for p in changed] == [(2.0, 0.8), (1.0, 0.8)]
        assert changed == zero_path(
            SHRINK_N, h1=CompositeHypothesis((0.5, 1.0)), h2=FAIR, n_values=(2.0, 1.0),
            y_fixed=0.8, against_pair=(0.25, 0.75))

    def test_path_defaults(self):
        # each path's default prior is the one its trace is computed under
        for kind, support in ((SHRINK_N, (0.5, 1.0)), (RIDE_TRP, (0.0, 0.5))):
            assert zero_path(kind) == zero_path(kind, h1=CompositeHypothesis(support))
        assert all(point.y == 0.9 for point in zero_path(SHRINK_N))
        with pytest.raises(ValueError, match="path kind must be one of"):
            zero_path("sideways")


class TestTrPResultInvariants:
    def test_residual_limit_enforced(self):
        with pytest.raises(ValueError):
            TrPResult(n=10.0, trp_y=0.3, residual=1e-6, bracket_width=0.0)

    def test_trp_y_domain_enforced(self):
        with pytest.raises(ValueError):
            TrPResult(n=10.0, trp_y=0.0, residual=0.0, bracket_width=0.0)
        with pytest.raises(ValueError):
            TrPResult(n=10.0, trp_y=1.0, residual=0.0, bracket_width=0.0)

    def test_a_point_pair_residual_past_the_limit_names_n_and_the_hypotheses(self):
        # at n = 1e7 the closed form's rounding leaves |log SLR| above the limit
        message = ("transition point of PointHypothesis(theta0=0.0001) against "
                   "PointHypothesis(theta0=0.99) at n=10000000.0: root residual "
                   "1.4901161193847656e-08 exceeds the limit 1e-08")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            transition.trp_point_pair(1e7, PointHypothesis(0.0001), PointHypothesis(0.99))

    def test_a_solved_residual_past_the_limit_names_n_and_the_hypotheses(self, monkeypatch):
        monkeypatch.setattr(transition, "find_root", lambda f, lo, hi: (0.3, -1e-6, 0.0))
        message = (f"transition point of {ONE_SIDED} against {FAIR} at n=10.0: "
                   f"root residual 1e-06 exceeds the limit 1e-08")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trp_composite(10.0, ONE_SIDED, FAIR)
