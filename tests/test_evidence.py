import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from evlab.evidence import (
    CONTINUOUS,
    EVIDENCE_KINDS,
    BinomialOutcome,
    CompositeHypothesis,
    DegeneratePriorError,
    PointHypothesis,
    UnsupportedNullError,
    abs_log_bf,
    binomial_log_pmf,
    compute_evidence,
    log_bf,
    log_bf_irrelevant_data,
    log_mlr,
    log_slr,
    neg_log_p,
    p_value_two_sided,
    support_label,
    uniform_prior,
)

from _oracles import p_value_fraction, pascal_row, quad_log_bf

FAIR = PointHypothesis(0.5)


class TestBinomialOutcome:
    def test_exact_mode_requires_integers(self):
        BinomialOutcome(10, 5)
        with pytest.raises(ValueError):
            BinomialOutcome(10.5, 5)
        with pytest.raises(ValueError):
            BinomialOutcome(10, 4.5)

    def test_continuous_mode_accepts_reals(self):
        data = BinomialOutcome(0.3, 0.12, CONTINUOUS)
        assert data.y == pytest.approx(0.4)

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

    def test_y_undefined_at_zero(self):
        with pytest.raises(ValueError):
            BinomialOutcome(0, 0).y


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
            uniform_prior(),
            uniform_prior(0.0, 0.5),
            CompositeHypothesis(support=(0.2, 0.9), a=2.5, b=1.5),
            CompositeHypothesis(support=(0.1, 0.4), a=0.7, b=3.0),
        ],
    )
    def test_prior_normalizes_to_one(self, hypothesis):
        # the truncated, renormalized prior density integrates to 1
        from evlab.evidence import _log_truncated_beta_mass

        lo, hi = hypothesis.support
        log_mass = _log_truncated_beta_mass(hypothesis.a, hypothesis.b, lo, hi)

        def density(t):
            return math.exp(
                (hypothesis.a - 1.0) * math.log(t)
                + (hypothesis.b - 1.0) * math.log(1.0 - t)
                - log_mass
            )

        total, _ = integrate.quad(density, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=300)
        assert abs(total - 1.0) <= 1e-10


class TestBinomialLogPmf:
    def test_single_fair_toss(self):
        data = BinomialOutcome(1, 1)
        assert binomial_log_pmf(data, 0.5) == pytest.approx(math.log(0.5), abs=1e-13)

    def test_two_tosses(self):
        data = BinomialOutcome(2, 1)
        assert binomial_log_pmf(data, 0.5) == pytest.approx(math.log(0.5), abs=1e-13)

    def test_matches_exact_enumeration(self):
        for n in range(1, 16):
            row = pascal_row(n)
            for k in range(n + 1):
                exact = Fraction(row[k]) * Fraction(1, 3) ** k * Fraction(2, 3) ** (n - k)
                got = binomial_log_pmf(BinomialOutcome(n, k), 1.0 / 3.0)
                assert math.isclose(got, math.log(float(exact)), rel_tol=1e-11), (n, k)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            binomial_log_pmf(BinomialOutcome(2, 1), 0.0)
        with pytest.raises(ValueError):
            binomial_log_pmf(BinomialOutcome(2, 1), 1.0)


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

    def test_monotone_in_distance(self):
        for n in (17, 20):
            by_distance = sorted(range(n + 1), key=lambda k: abs(2 * k - n))
            values = [p_value_two_sided(BinomialOutcome(n, k), FAIR) for k in by_distance]
            assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    def test_asymmetric_null_rejected(self):
        with pytest.raises(UnsupportedNullError):
            p_value_two_sided(BinomialOutcome(10, 5), PointHypothesis(0.3))

    def test_requires_exact_mode(self):
        with pytest.raises(ValueError):
            p_value_two_sided(BinomialOutcome(10.0, 5.5, CONTINUOUS), FAIR)

    def test_requires_data(self):
        with pytest.raises(ValueError):
            p_value_two_sided(BinomialOutcome(0, 0), FAIR)


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

    def test_additive_in_batches(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n1, n2 = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            k1 = int(rng.integers(0, n1 + 1))
            k2 = int(rng.integers(0, n2 + 1))
            t1 = float(rng.uniform(0.05, 0.95))
            t2 = float(rng.uniform(0.05, 0.95))
            h1, h2 = PointHypothesis(t1), PointHypothesis(t2)
            combined = log_slr(BinomialOutcome(n1 + n2, k1 + k2), h1, h2)
            split = log_slr(BinomialOutcome(n1, k1), h1, h2) + log_slr(
                BinomialOutcome(n2, k2), h1, h2
            )
            assert combined == pytest.approx(split, abs=1e-10)


class TestLogBf:
    def test_no_data_exactly_zero(self):
        assert log_bf(BinomialOutcome(0, 0), uniform_prior(), FAIR) == 0.0
        assert log_bf(BinomialOutcome(0, 0), uniform_prior(0.0, 0.5), FAIR) == 0.0

    def test_uniform_closed_form_examples(self):
        # marginal likelihood under the uniform prior is B(k+1, n-k+1)
        b66 = float(Fraction(math.factorial(5) ** 2, math.factorial(11)))
        got = log_bf(BinomialOutcome(10, 5), uniform_prior(), FAIR)
        assert got == pytest.approx(math.log(b66 * 2**10), rel=1e-12)
        assert got == pytest.approx(-0.9959, abs=5e-4)

        b39 = float(Fraction(math.factorial(2) * math.factorial(8), math.factorial(11)))
        got = log_bf(BinomialOutcome(10, 2), uniform_prior(), FAIR)
        assert got == pytest.approx(math.log(b39 * 2**10), rel=1e-12)

    def test_matches_quadrature_oracle(self):
        for support in ((0.0, 1.0), (0.0, 0.5)):
            h1 = uniform_prior(*support)
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

    def test_point_point_dispatches_to_slr(self):
        h1 = PointHypothesis(0.25)
        h2 = PointHypothesis(0.75)
        data = BinomialOutcome(9, 2)
        assert log_bf(data, h1, h2) == log_slr(data, h1, h2)

    def test_degenerate_prior_raises(self):
        h1 = CompositeHypothesis(support=(0.0, 1e-6), a=200.0, b=200.0)
        with pytest.raises(DegeneratePriorError):
            log_bf(BinomialOutcome(2, 1), h1, FAIR)

    def test_posterior_underflow_raises(self):
        h1 = uniform_prior(0.0, 0.5)
        data = BinomialOutcome(5000.0, 4950.0, CONTINUOUS)
        with pytest.raises(DegeneratePriorError):
            log_bf(data, h1, FAIR)


class TestAbsLogBf:
    def test_values(self):
        assert abs_log_bf(BinomialOutcome(0, 0), uniform_prior(), FAIR) == 0.0
        got = abs_log_bf(BinomialOutcome(10, 5), uniform_prior(), FAIR)
        assert got == pytest.approx(0.9959, abs=5e-4)

    def test_side_labels(self):
        assert support_label(0.7) == "supports H1"
        assert support_label(-0.7) == "supports H2"
        assert support_label(0.0) == "transition point"


class TestIrrelevantData:
    def test_always_zero(self):
        for m in (0, 1, 100, 10**6):
            assert log_bf_irrelevant_data(m) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_bf_irrelevant_data(-1)


class TestComputeEvidence:
    def test_each_kind_dispatches(self):
        data = BinomialOutcome(10, 8)
        alt = uniform_prior()
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
            "abslogbf": abs_log_bf(data, alt, FAIR),
        }
        for kind in EVIDENCE_KINDS:
            alternative = slr_alt if kind in ("slr", "logslr") else alt
            ev = compute_evidence(kind, data, null=FAIR, alternative=alternative)
            assert ev.value == expected[kind], kind
            assert ev.kind == kind
            assert ev.data is data

    def test_value_range_invariants(self):
        alt = uniform_prior()
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
        with pytest.raises(ValueError):
            compute_evidence("pvalue", data)
        with pytest.raises(ValueError):
            compute_evidence("logbf", data, null=FAIR)
        with pytest.raises(ValueError):
            compute_evidence("slr", data, null=FAIR, alternative=uniform_prior())
        with pytest.raises(ValueError):
            compute_evidence("entropy", data, null=FAIR)

    @pytest.mark.parametrize(
        "kind, data, null, alternative",
        [
            ("mlr", BinomialOutcome(2000, 0), FAIR, None),
            ("slr", BinomialOutcome(5000, 100), PointHypothesis(0.75), PointHypothesis(0.25)),
            ("bf", BinomialOutcome(100000, 40000), FAIR, uniform_prior()),
        ],
    )
    def test_ratio_kinds_overflow_to_inf(self, kind, data, null, alternative):
        # the log value is far past ln(DBL_MAX) ~ 709.78, so the ratio is inf, not an error
        log_value = compute_evidence("log" + kind, data, null=null, alternative=alternative)
        assert log_value.value > 710.0
        ev = compute_evidence(kind, data, null=null, alternative=alternative)
        assert ev.value == math.inf
