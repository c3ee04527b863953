import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from evlab.evidence import EVIDENCE_KINDS, RATIO_LOG_KINDS, BinomialOutcome, compute_evidence
from evlab.scale import (
    AgreementConfig,
    DiscordantPair,
    classify_transformation,
    difference_comparison_demo,
    outcome_grid,
    rank_order_agreement,
    unit_distortion,
    _count_swaps,
    _kendall_tau_b,
)
from evlab.numerics import linspace
from evlab._flags import _TRANSFORMS

from _contract import EXTREME_DOUBLES, NONNEGATIVE, UNIT, check_contract
from _oracles import discordant_count, pair_signs, tau_b


# Few distinct values, so ties are common, among any floats but NaN.
TAU_VALUES = st.sampled_from([-math.inf, -2.5, -0.0, 0.0, 1.0, 3.0, math.inf]) | st.floats(
    allow_nan=False
)


# The maps `audit transform --f` takes: the named ones, and affine:slope,intercept
# with any doubles.
TRANSFORMS = st.one_of(
    st.sampled_from(sorted(_TRANSFORMS)).map(_TRANSFORMS.get),
    st.builds(lambda slope, intercept: lambda x: slope * x + intercept,
              EXTREME_DOUBLES, EXTREME_DOUBLES),
)


def fahrenheit_to_celsius(x):
    return (x - 32.0) * 5.0 / 9.0


class TestClassifyTransformation:
    GRID = [float(x) for x in range(1, 11)]

    def test_positive_scaling(self):
        audit = classify_transformation(lambda x: 2.0 * x, self.GRID)
        assert audit.order_preserving
        assert audit.affine
        assert audit.positive_scalar

    def test_degree_conversion_is_affine_not_scaling(self):
        audit = classify_transformation(fahrenheit_to_celsius, linspace(0.0, 100.0, 64))
        assert audit.order_preserving
        assert audit.affine
        assert not audit.positive_scalar

    def test_log_is_only_order_preserving(self):
        audit = classify_transformation(math.log, linspace(40.0, 110.0, 64))
        assert audit.order_preserving
        assert not audit.affine
        assert not audit.positive_scalar

    def test_decreasing_map_is_not_order_preserving(self):
        audit = classify_transformation(lambda x: -x, self.GRID)
        assert not audit.order_preserving
        assert not audit.affine
        assert not audit.positive_scalar

    def test_degenerate_grids(self):
        with pytest.raises(ValueError, match="at least 4 points"):
            classify_transformation(math.log, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            classify_transformation(math.log, [1.0, 2.0, 2.0, 3.0])

    def test_nesting_invariant(self):
        rng = np.random.default_rng(29)
        transforms = [math.log, math.exp, lambda x: x**2, lambda x: x**3 - x]
        for _ in range(50):
            slope = float(rng.uniform(0.1, 5.0))
            intercept = float(rng.uniform(-10.0, 10.0))
            transforms.append(lambda x, s=slope, c=intercept: s * x + c)
        for f in transforms:
            audit = classify_transformation(f, linspace(0.5, 9.5, 32))
            if audit.positive_scalar:
                assert audit.affine
            if audit.affine:
                assert audit.order_preserving
                assert unit_distortion(f, (0.5, 9.5), 0.5) == pytest.approx(1.0, abs=1e-9)

    # Grid sizes from 4 to 200,000, drawn log-uniformly. With second differences
    # as the affine test, log on [49, 100] read as affine from 38,970 points up
    # and exp on [0, 1] from 39,775 up.
    GRID_SIZES = st.floats(math.log(4.0), math.log(2e5)).map(lambda u: round(math.exp(u)))

    @settings(max_examples=40, deadline=None)
    @given(size=GRID_SIZES)
    @example(size=4)
    @example(size=38_970)
    @example(size=39_775)
    @example(size=200_000)
    def test_curved_maps_are_never_affine(self, size):
        for f, lo, hi in ((math.log, 49.0, 100.0), (math.exp, 0.0, 1.0),
                          (math.sqrt, 49.0, 100.0)):
            audit = classify_transformation(f, linspace(lo, hi, size))
            assert (audit.order_preserving, audit.affine, audit.positive_scalar) == (
                True, False, False), (f.__name__, size)

    @settings(max_examples=40, deadline=None)
    @given(size=GRID_SIZES, slope=st.floats(1e-2, 1e2),
           intercept=st.one_of(st.just(0.0), st.floats(1.0, 100.0), st.floats(-100.0, -1.0)))
    @example(size=38_970, slope=2.0, intercept=0.0)
    @example(size=200_000, slope=5.0 / 9.0, intercept=-160.0 / 9.0)
    def test_positive_affine_maps_are_affine(self, size, slope, intercept):
        audit = classify_transformation(lambda x: slope * x + intercept,
                                        linspace(49.0, 100.0, size))
        assert (audit.order_preserving, audit.affine, audit.positive_scalar) == (
            True, True, intercept == 0.0)

    # Widths from 1e-12 to 1e3 anywhere in [-1e3, 1e3]: with a tolerance of
    # 1e-9 of the range alone, f2c on 98.6..98.600001 read as not affine.
    @settings(max_examples=200, deadline=None)
    @given(size=GRID_SIZES, lo=st.floats(-1e3, 1e3), log_width=st.floats(-12.0, 3.0),
           f=st.sampled_from([fahrenheit_to_celsius, lambda x: x * 9.0 / 5.0 + 32.0])
           | st.builds(lambda s, c: lambda x: s * x + c,
                       st.floats(1e-3, 1e3), st.one_of(st.just(0.0), st.floats(-100.0, 100.0))))
    @example(size=64, lo=98.6, log_width=-6.0, f=fahrenheit_to_celsius)
    @example(size=64, lo=1000.0, log_width=-11.0, f=lambda x: 0.01 * x)
    def test_positive_affine_maps_are_affine_at_any_width(self, size, lo, log_width, f):
        # affine implies order preserving even where rounding leaves values flat
        hi = lo + 10.0 ** log_width
        assume(hi > lo and f(hi) != f(lo))
        grid = linspace(lo, hi, size)
        assume(all(b > a for a, b in zip(grid, grid[1:])))
        audit = classify_transformation(f, grid)
        assert audit.affine and audit.order_preserving

    # The chord's slope is known to about tol / width, so on a narrow interval
    # far from 0 its intercept is known only to tol (1 + max|x| / width).
    @settings(max_examples=200, deadline=None)
    @given(size=GRID_SIZES, lo=st.floats(-1e3, 1e3), log_width=st.floats(-12.0, 3.0),
           slope=st.floats(1e-3, 1e3))
    @example(size=64, lo=500.0, log_width=-2.0, slope=0.7)
    def test_zero_intercepts_are_positive_scalars_at_any_width(self, size, lo, log_width, slope):
        hi = lo + 10.0 ** log_width
        assume(hi > lo and slope * hi != slope * lo)
        grid = linspace(lo, hi, size)
        assume(all(b > a for a, b in zip(grid, grid[1:])))
        assert classify_transformation(lambda x: slope * x, grid).positive_scalar

    # Where f(0) is defined it decides, however narrow the grid: the chord
    # alone cannot tell an intercept of 0.1 from 0 on 1000..1000 + 1e-11. The
    # tolerance is at most 1e-9 of a value range of 1e6 here, below 0.01.
    @settings(max_examples=100, deadline=None)
    @given(size=GRID_SIZES, lo=st.floats(-1e3, 1e3), log_width=st.floats(-12.0, 3.0),
           slope=st.floats(1e-3, 1e3), intercept=st.floats(0.01, 100.0),
           sign=st.sampled_from([-1, 1]))
    @example(size=64, lo=1000.0, log_width=-11.0, slope=0.01, intercept=1.0, sign=1)
    @example(size=64, lo=1000.0, log_width=-11.0, slope=0.01, intercept=0.1, sign=1)
    def test_nonzero_intercepts_are_not_positive_scalars_at_any_width(
            self, size, lo, log_width, slope, intercept, sign):
        hi = lo + 10.0 ** log_width
        assume(hi > lo)
        grid = linspace(lo, hi, size)
        assume(all(b > a for a, b in zip(grid, grid[1:])))
        assert not classify_transformation(lambda x: slope * x + sign * intercept,
                                           grid).positive_scalar

    def test_chord_decides_where_f_is_undefined_at_zero(self):
        def scaled(x):
            if x <= 0.0:
                raise ValueError("math domain error")
            return 3.0 * x

        assert classify_transformation(scaled, linspace(1.0, 2.0, 16)).positive_scalar
        assert not classify_transformation(lambda x: scaled(x) + 1.0,
                                           linspace(1.0, 2.0, 16)).positive_scalar

    def test_chord_intercept_on_a_grid_away_from_one(self):
        # 3 x to rounding, and log raises at 0: the chord's intercept decides
        f = lambda x: math.exp(math.log(x) + math.log(3.0))
        grid = linspace(2.0, 5.0, 8)
        audit = classify_transformation(f, grid)
        assert audit.affine and audit.positive_scalar
        assert not classify_transformation(lambda x: f(x) + 1.0, grid).positive_scalar

    @pytest.mark.parametrize("f, grid", [
        # 1e300 x overflows to inf without raising, past x = 1.8e8
        (lambda x: 1e300 * x + 1.0, linspace(1e7, 1e9, 64)),
        (lambda x: math.nan, linspace(0.0, 1.0, 8)),
    ])
    def test_a_value_that_is_not_finite_is_an_error(self, f, grid):
        with pytest.raises(ValueError, match="f is not finite at x="):
            classify_transformation(f, grid)

    @pytest.mark.parametrize("f, grid, x", [
        (math.log, [-1.0, 1.0, 2.0, 3.0], "-1.0"),  # math domain error
        (math.exp, [0.0, 1.0, 2.0, 1000.0], "1000.0"),  # math range error, an OverflowError
        (lambda x: 1.0 / x, [-1.0, 0.0, 1.0, 2.0], "0.0"),  # a ZeroDivisionError
    ])
    def test_an_f_that_raises_is_a_value_error_naming_x(self, f, grid, x):
        with pytest.raises(ValueError, match=f"^f fails at x={re.escape(x)}: ") as info:
            classify_transformation(f, grid)
        assert type(info.value) is ValueError

    @settings(max_examples=200, deadline=None)
    @given(f=TRANSFORMS, grid=st.lists(EXTREME_DOUBLES, min_size=3, max_size=8).map(sorted))
    def test_error_contract_over_extreme_doubles(self, f, grid):
        check_contract(lambda: classify_transformation(f, grid))


class TestUnitDistortion:
    def test_affine_is_one(self):
        assert unit_distortion(lambda x: 3.0 * x + 7.0, (0.0, 100.0), 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_random_affine_is_one(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            slope = float(rng.uniform(0.01, 20.0))
            intercept = float(rng.uniform(-50.0, 50.0))
            got = unit_distortion(
                lambda x, s=slope, c=intercept: s * x + c, (0.0, 50.0), 1.0
            )
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_log_doubles_the_unit_over_49_to_100(self):
        got = unit_distortion(math.log, (49.0, 100.0), 1.0)
        assert 2.0 <= got <= 2.02
        expected = (math.log(50.0) - math.log(49.0)) / (math.log(100.0) - math.log(99.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_distortion_grows_with_range(self):
        narrow = unit_distortion(math.log, (49.0, 100.0), 1.0)
        wide = unit_distortion(math.log, (49.0, 1000.0), 1.0)
        assert wide > narrow

    def test_monotone_in_range_ratio(self):
        values = [unit_distortion(math.log, (10.0, 10.0 * r), 1.0) for r in (3, 9, 27, 81)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))

    def test_non_monotone_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = unit_distortion(lambda x: (x - 50.0) ** 2, (0.0, 100.0), 1.0)
        assert math.isinf(got)

    def test_a_step_that_is_not_finite_is_an_error(self):
        # inf - inf is nan and inf - finite is inf: neither is a step
        with pytest.raises(ValueError, match="a unit step of f is not finite"):
            unit_distortion(lambda x: 1e300 * x, (1e7, 1e9), 1.0)

    @pytest.mark.parametrize("f, interval", [
        (lambda x: x, (1e17, 1e18)),  # the spacing is 16 to 128 there
        (lambda x: x * 9.0 / 5.0 + 32.0, (1e16, 2e16)),  # 2 to 4: x + 1 rounds to x at ties
    ])
    def test_a_unit_below_the_double_spacing_is_an_error(self, f, interval):
        # every step x + 1 - x would be 0 or a multiple of the spacing, not the unit
        with pytest.raises(ValueError, match=r"unit 1 is below the double spacing on \("):
            unit_distortion(f, interval, 1.0)

    def test_an_interval_of_exactly_two_units_is_enough(self):
        assert unit_distortion(lambda x: 2.0 * x, (10.0, 12.0), 1.0) == 1.0

    @pytest.mark.parametrize("interval, unit, message", [
        ((10.0, 11.0), 1.0, "interval (10.0, 11.0) must span at least two units of 1.0"),
        ((10.0, 20.0), 0.0, "unit must be positive, got 0.0"),
        # a nan is named as the input it is, not as a width that overflows
        ((10.0, 20.0), math.nan, "unit must be positive, got nan"),
        # an infinite unit is named as such, not as the nan of hi - unit
        ((-math.inf, math.inf), math.inf, "unit must be finite, got inf"),
        ((math.nan, 20.0), 1.0, "interval (nan, 20.0) must span at least two units of 1.0"),
        ((10.0, math.nan), 1.0, "interval (10.0, nan) must span at least two units of 1.0"),
    ])
    def test_interval_too_small(self, interval, unit, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            unit_distortion(math.log, interval, unit)

    @pytest.mark.parametrize("f, interval, x", [
        (math.log, (-1.0, 5.0), "0.0"),  # f(x + unit) comes first, at x = -1
        (math.exp, (0.0, 1000.0), "710.1094284318515"),  # the first step past 709.78
    ])
    def test_an_f_that_raises_is_a_value_error_naming_x(self, f, interval, x):
        with pytest.raises(ValueError, match=f"^f fails at x={re.escape(x)}: math ") as info:
            unit_distortion(f, interval, 1.0)
        assert type(info.value) is ValueError

    @settings(max_examples=200, deadline=None)
    @given(f=TRANSFORMS, interval=st.lists(EXTREME_DOUBLES, min_size=2, max_size=2).map(sorted),
           unit=st.one_of(EXTREME_DOUBLES, NONNEGATIVE))
    def test_error_contract_over_extreme_doubles(self, f, interval, unit):
        check_contract(lambda: unit_distortion(f, tuple(interval), unit))


class TestPermissible:
    def test_table(self):
        ln_audit = classify_transformation(math.log, linspace(40.0, 110.0, 32))
        scaling_audit = classify_transformation(lambda x: 2.0 * x, linspace(1.0, 10.0, 32))
        degrees_audit = classify_transformation(fahrenheit_to_celsius, linspace(0.0, 100.0, 32))

        # the three verdicts license a map on an ordinal, interval and ratio scale
        assert ln_audit == (True, False, False)
        assert scaling_audit == (True, True, True)
        assert degrees_audit.affine and not degrees_audit.positive_scalar


class TestRankOrderAgreement:
    def test_self_agreement(self):
        report = rank_order_agreement(outcome_grid(8), ["neglogp"])
        assert report.kendall_tau == {("neglogp", "neglogp"): 1.0}
        assert len(report.discordant_pairs) == 0

    @pytest.mark.parametrize("kinds", [["neglogp", "neglogp"],
                                       ["neglogp", "abslogbf", "neglogp"]])
    def test_repeated_kind_rejected(self, kinds):
        # a repeated kind would repeat its tau rows and every witness
        with pytest.raises(ValueError, match="distinct kinds, got 'neglogp' more than once"):
            rank_order_agreement(outcome_grid(6), kinds)

    @pytest.mark.parametrize("kinds", [["neglogp", "bogus"], ["bogus", "bogus"]])
    def test_unknown_kind_rejected(self, kinds):
        # checked up front, since computing it would exclude every outcome
        with pytest.raises(ValueError, match=r"^unknown evidence kind 'bogus'; expected one of \("):
            rank_order_agreement(outcome_grid(4), kinds)

    def test_p_value_vs_bayes_factor_disagree(self):
        report = rank_order_agreement(outcome_grid(30), ["neglogp", "abslogbf"])
        assert len(report.discordant_pairs) == 21902
        assert repr(report.discordant_pairs) == "<21902 discordant pairs>"
        tau = report.kendall_tau[("neglogp", "abslogbf")]
        assert -1.0 <= tau < 1.0

    def test_first_witness_is_the_tiny_coin_pair(self):
        report = rank_order_agreement(outcome_grid(30), ["neglogp", "abslogbf"])
        first = next(iter(report.discordant_pairs))
        assert (first.outcome_a.n, first.outcome_a.k) == (2, 0)
        assert (first.outcome_b.n, first.outcome_b.k) == (2, 1)
        # -log P ranks (2,0) above (2,1); |log BF| ranks it below
        assert first.x_values[0] > first.x_values[1]
        assert first.y_values[0] < first.y_values[1]

    def test_mlr_and_p_agree_at_fixed_n(self):
        grid = [BinomialOutcome(20, k) for k in range(21)]
        report = rank_order_agreement(grid, ["logmlr", "neglogp"])
        assert report.kendall_tau[("logmlr", "neglogp")] == pytest.approx(1.0, abs=1e-12)
        assert len(report.discordant_pairs) == 0

    def test_tau_matrix_symmetric_unit_diagonal(self):
        report = rank_order_agreement(outcome_grid(10), ["neglogp", "abslogbf", "logmlr"])
        for kx in report.statistic_kinds:
            assert report.kendall_tau[(kx, kx)] == 1.0
            for ky in report.statistic_kinds:
                assert report.kendall_tau[(kx, ky)] == report.kendall_tau[(ky, kx)]

    def test_matches_scipy_tau_b(self):
        grid = outcome_grid(12)
        kinds = ["neglogp", "abslogbf"]
        report = rank_order_agreement(grid, kinds)
        from evlab.evidence import CompositeHypothesis, PointHypothesis, compute_evidence

        null = PointHypothesis(0.5)
        alt = CompositeHypothesis()
        xs = [compute_evidence("neglogp", o, null=null).value for o in grid]
        ys = [compute_evidence("abslogbf", o, null=null, alternative=alt).value for o in grid]
        expected = stats.kendalltau(xs, ys, variant="b").statistic
        assert report.kendall_tau[("neglogp", "abslogbf")] == pytest.approx(
            float(expected), abs=1e-12
        )

    def test_discordant_pairs_revalidate(self):
        from evlab.evidence import CompositeHypothesis, PointHypothesis, compute_evidence

        null = PointHypothesis(0.5)
        alt = CompositeHypothesis()
        report = rank_order_agreement(outcome_grid(15), ["neglogp", "abslogbf"])
        assert report.discordant_pairs
        for pair in report.discordant_pairs:
            xa = compute_evidence(pair.kind_x, pair.outcome_a, null=null).value
            xb = compute_evidence(pair.kind_x, pair.outcome_b, null=null).value
            ya = compute_evidence(pair.kind_y, pair.outcome_a, null=null, alternative=alt).value
            yb = compute_evidence(pair.kind_y, pair.outcome_b, null=null, alternative=alt).value
            assert (xa, xb) == pair.x_values
            assert (ya, yb) == pair.y_values
            assert (xa > xb and ya < yb) or (xa < xb and ya > yb)

    def test_monotone_transform_leaves_ranking_unchanged(self):
        # tau is a rank statistic: any strictly increasing rescaling of one
        # statistic leaves every tau against the others untouched
        grid = outcome_grid(10)
        report = rank_order_agreement(grid, ["neglogp", "abslogbf"])
        from evlab.evidence import CompositeHypothesis, PointHypothesis, compute_evidence

        null = PointHypothesis(0.5)
        alt = CompositeHypothesis()
        xs = [compute_evidence("neglogp", o, null=null).value for o in grid]
        ys = [compute_evidence("abslogbf", o, null=null, alternative=alt).value for o in grid]
        sy = pair_signs(ys)
        for transform in (lambda v: 3.0 * v + 1.0, math.exp, lambda v: v**3):
            sx = pair_signs([transform(v) for v in xs])
            assert tau_b(sx, sy) == pytest.approx(
                report.kendall_tau[("neglogp", "abslogbf")], abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(min_n=st.integers(0, 20), width=st.integers(0, 4),
           kinds=st.lists(st.sampled_from(EVIDENCE_KINDS), min_size=2, max_size=4, unique=True))
    def test_matches_pairwise_reference_exactly(self, min_n, width, kinds):
        # taus, discordant counts and the witnesses in order, against a sign
        # for every outcome pair of the ranked values (a ratio kind's log)
        report = rank_order_agreement(outcome_grid(min_n + width, min_n), kinds)
        config = AgreementConfig()
        outcomes = report.dataset_grid

        def values(kind):
            return [compute_evidence(kind, o, null=config.null,
                                     alternative=config.alternative_for(kind)).value
                    for o in outcomes]

        shown = {kind: values(kind) for kind in kinds}
        signs = {kind: pair_signs(values(RATIO_LOG_KINDS.get(kind, kind))) for kind in kinds}
        index_pairs = list(itertools.combinations(range(len(outcomes)), 2))
        expected = []
        for xi, kx in enumerate(kinds):
            for ky in kinds[xi:]:
                assert repr(report.kendall_tau[(kx, ky)]) == repr(tau_b(signs[kx], signs[ky]))
            for ky in kinds[xi + 1:]:
                expected.extend(
                    DiscordantPair(outcomes[i], outcomes[j], kx, ky,
                                   (shown[kx][i], shown[kx][j]), (shown[ky][i], shown[ky][j]))
                    for (i, j), sx, sy in zip(index_pairs, signs[kx], signs[ky]) if sx * sy < 0
                )
        pairs = report.discordant_pairs
        assert len(pairs) == len(expected)
        assert list(pairs) == expected
        # a prefix stops the scan where it ends, and a cap past the end reads all
        for cap in (0, 1, len(expected) // 2, len(expected), len(expected) + 1):
            assert list(itertools.islice(pairs, cap)) == expected[:cap]

    def test_reading_a_few_witnesses_holds_no_pool_of_pairs(self):
        # 11,473 outcomes and 4,485,216 witnesses: the first 10 cost memory for
        # themselves, not for a copy of the columns or a list of index pairs
        pairs = rank_order_agreement(outcome_grid(150), ["neglogp", "abslogbf"]).discordant_pairs
        assert len(pairs) == 4_485_216
        tracemalloc.start()
        try:
            first = list(itertools.islice(pairs, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) == 10
        assert peak < 64 * 1024

    def test_discordant_pairs_is_a_sized_reiterable_stream(self):
        pairs = rank_order_agreement(outcome_grid(9), ["neglogp", "abslogbf", "logmlr"]).discordant_pairs
        everything = tuple(pairs)
        assert tuple(pairs) == everything  # iterable more than once
        assert len(pairs) == len(everything) > 5
        assert tuple(itertools.islice(pairs, 2, 5)) == everything[2:5]
        # no indexing, so nothing walks the stream once per element
        with pytest.raises(TypeError):
            pairs[0]
        with pytest.raises(TypeError):
            reversed(pairs)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_knight_tau_b_matches_pairwise_reference(self, data):
        # Ties in x, in y and joint ties are common; signed zeros and
        # infinities tie as the pairwise signs see them.
        m = data.draw(st.integers(0, 40))
        xs = data.draw(st.lists(TAU_VALUES, min_size=m, max_size=m))
        ys = data.draw(st.lists(TAU_VALUES, min_size=m, max_size=m))
        tau, discordant = _kendall_tau_b(xs, ys)
        sx, sy = pair_signs(xs), pair_signs(ys)
        assert discordant == discordant_count(sx, sy)
        assert repr(tau) == repr(tau_b(sx, sy))

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.data())
    def test_knight_tau_b_matches_pairwise_reference_past_one_run(self, data):
        # past 64 values the swap count merges insertion-sorted runs
        m = data.draw(st.integers(65, 300))
        xs = data.draw(st.lists(TAU_VALUES, min_size=m, max_size=m))
        ys = data.draw(st.lists(TAU_VALUES, min_size=m, max_size=m))
        tau, discordant = _kendall_tau_b(xs, ys)
        sx, sy = pair_signs(xs), pair_signs(ys)
        assert discordant == discordant_count(sx, sy)
        assert repr(tau) == repr(tau_b(sx, sy))

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(TAU_VALUES, max_size=300))
    def test_swap_count_is_the_inversion_count(self, values):
        assert _count_swaps(list(values)) == sum(
            values[i] > values[j] for i in range(len(values)) for j in range(i + 1, len(values)))

    @pytest.mark.parametrize("max_n", [10, 30, 60])
    def test_a_strictly_monotone_map_leaves_tau_at_one(self, max_n):
        # each ratio kind is exp of its log kind, and -ln p falls as p rises
        kinds = ["mlr", "logmlr", "slr", "logslr", "bf", "logbf", "pvalue", "neglogp"]
        tau = rank_order_agreement(outcome_grid(max_n), kinds).kendall_tau
        assert tau[("mlr", "logmlr")] == tau[("slr", "logslr")] == tau[("bf", "logbf")] == 1.0
        assert tau[("pvalue", "neglogp")] == -1.0

    def test_uncomputable_outcomes_are_excluded_and_reported(self):
        grid = [BinomialOutcome(0, 0), BinomialOutcome(4, 1), BinomialOutcome(4, 3)]
        report = rank_order_agreement(grid, ["neglogp", "abslogbf"])
        assert len(report.excluded) == 1
        assert report.excluded[0][0] == BinomialOutcome(0, 0)
        assert len(report.dataset_grid) == 2

    def test_overflowing_ratio_kind_is_ranked_as_inf(self):
        # mlr at n = 1100 passes the largest double for the most lopsided outcomes
        report = rank_order_agreement(outcome_grid(1100, 1100), ["mlr", "logmlr"])
        assert report.excluded == ()
        assert len(report.dataset_grid) == 1101
        assert report.kendall_tau[("mlr", "mlr")] == 1.0
        # mlr is ranked by its log column, so the outcomes it reports as inf
        # are ordered as logmlr orders them
        assert report.kendall_tau[("mlr", "logmlr")] == 1.0

    def test_ratio_witnesses_show_the_ratio(self):
        # above n/2, mlr grows with k and logslr (1/4 against 1/2) falls;
        # mlr is inf from k = 1091
        def ratio(log_value):
            try:
                return math.exp(log_value)
            except OverflowError:
                return math.inf

        grid = [BinomialOutcome(1100, k) for k in range(1060, 1101)]
        pairs = list(rank_order_agreement(grid, ["mlr", "logslr"]).discordant_pairs)
        logs = rank_order_agreement(grid, ["logmlr", "logslr"]).discordant_pairs
        assert len(pairs) == len(logs) == 41 * 40 // 2
        for pair, log_pair in zip(pairs, logs):
            assert pair.outcome_a == log_pair.outcome_a and pair.outcome_b == log_pair.outcome_b
            assert pair.x_values == tuple(map(ratio, log_pair.x_values))
            assert pair.y_values == log_pair.y_values
        assert (math.inf, math.inf) in {pair.x_values for pair in pairs}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            rank_order_agreement([], ["neglogp"])

    def test_default_config(self):
        config = AgreementConfig()
        assert config.null.theta0 == 0.5
        assert config.alternative.support == (0.0, 1.0)
        report = rank_order_agreement(outcome_grid(6), ["logslr", "logmlr"])
        assert ("logslr", "logmlr") in report.kendall_tau


class TestDifferenceComparison:
    def test_headline_numbers(self):
        demo = difference_comparison_demo((0.05, 0.04, 0.001))
        assert demo.raw[0] == pytest.approx(0.01, abs=1e-15)
        assert demo.raw[1] == pytest.approx(0.039, abs=1e-15)
        assert demo.neg_log[0] == pytest.approx(0.223, abs=5e-4)
        assert demo.neg_log[1] == pytest.approx(3.689, abs=5e-4)
        # the raw scale makes the first gap look smaller; -log flips nothing
        # here but wildly stretches the second gap
        assert demo.raw[0] < demo.raw[1]
        assert demo.neg_log[1] / demo.neg_log[0] > 4 * (demo.raw[1] / demo.raw[0])

    def test_equal_inputs(self):
        demo = difference_comparison_demo((0.2, 0.2, 0.2))
        assert demo.raw == (0.0, 0.0)
        assert demo.neg_log == (0.0, 0.0)

    def test_halving_sequence(self):
        demo = difference_comparison_demo((0.5, 0.25, 0.125))
        assert demo.neg_log[0] == demo.neg_log[1] == pytest.approx(math.log(2.0), rel=1e-15)
        assert demo.raw[0] != demo.raw[1]

    def test_domain(self):
        with pytest.raises(ValueError):
            difference_comparison_demo((0.5, 0.0, 0.1))
        with pytest.raises(ValueError):
            difference_comparison_demo((1.5, 0.5, 0.1))

    @settings(max_examples=200, deadline=None)
    @given(p_values=st.tuples(*[st.one_of(UNIT, EXTREME_DOUBLES)] * 3))
    def test_error_contract_over_extreme_doubles(self, p_values):
        check_contract(lambda: difference_comparison_demo(p_values))
