"""Measurement-scale audits for transformations and evidence statistics.

Scale types (ordinal, interval, ratio) are distinguished by which
transformations leave their meaning intact: anything order-preserving,
only order-preserving linear maps, or only multiplication by a positive
constant. The auditors here classify a concrete transformation against
those families, quantify how badly a non-linear map stretches the unit
("rubber scale" distortion), and measure how far different evidence
statistics agree about the rank-ordering of data sets.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .evidence import (
    BF_KINDS,
    EVIDENCE_KINDS,
    BinomialOutcome,
    CompositeHypothesis,
    Hypothesis,
    PointHypothesis,
    RATIO_LOG_KINDS,
    SLR_KINDS,
    _reported,
    compute_evidence,
)
from .numerics import linspace


AFFINE_TOL = 1e-9  # distance from the chord an affine map may keep, per unit of value range
DISTORTION_SAMPLES = 2048  # unit steps that unit_distortion compares


class TransformationAudit(NamedTuple):
    """Classification of a scalar transformation against the families scale types permit.

    order_preserving: strictly increasing on the probed grid, or affine.
        Licenses the map on an ordinal scale.
    affine: an order-preserving linear map x -> s*x + c with s > 0 (every
        value lies on the chord through the two end values, to rounding).
        Licenses the map on an interval scale.
    positive_scalar: affine with zero intercept.
        Licenses the map on a ratio scale, and on the magnitude of a signed
        ratio scale, whose sign convention lies outside the map.
    """

    order_preserving: bool
    affine: bool
    positive_scalar: bool


def classify_transformation(f: Callable[[float], float], grid: Sequence[float]) -> TransformationAudit:
    """Audit f on the grid as given, evaluating it once per point (and at 0
    for an affine f).

    f is affine when no value lies farther from the chord through the two
    end values than AFFINE_TOL times the range of the values, a test that
    does not depend on the number or spacing of the points, or than the
    rounding of the values and the chord, whichever is larger. A positive
    scalar is an affine f with |f(0)| within that tolerance; where f(0) is
    undefined, the chord's intercept must be within it, widened by how far
    0 lies from the grid. An affine f counts as order preserving even where
    rounding leaves its values flat. A value of f that is not finite, or an
    f that raises at a grid point, raises ValueError.
    """
    pts = [float(x) for x in grid]
    if len(pts) < 4:
        raise ValueError(f"grid needs at least 4 points, got {len(pts)}")
    if any(b <= a for a, b in itertools.pairwise(pts)):
        raise ValueError("grid must be strictly increasing")

    vals = [_at(f, x) for x in pts]
    for x, v in zip(pts, vals):
        if not math.isfinite(v):
            raise ValueError(f"f is not finite at x={x:g}, got {v}")
    x0, v0 = pts[0], vals[0]
    slope = (vals[-1] - v0) / (pts[-1] - x0)
    # Values far larger than their range round by more than AFFINE_TOL of it.
    rounding = 4.0 * sys.float_info.epsilon * (
        max(map(abs, vals)) + abs(slope) * max(abs(x0), abs(pts[-1])))
    tol = max(AFFINE_TOL * (max(vals) - min(vals)), rounding)
    off_chord = max(abs(v - (v0 + slope * (x - x0))) for x, v in zip(pts, vals))
    affine = off_chord <= tol and slope > 0.0
    return TransformationAudit(
        order_preserving=affine or all(b > a for a, b in itertools.pairwise(vals)),
        affine=affine,
        positive_scalar=affine and _zero_intercept(f, pts, v0, slope, tol),
    )


def _at(f: Callable[[float], float], x: float) -> float:
    """f(x), where a ValueError, OverflowError or ZeroDivisionError of f (math's
    bare "math domain error", say) becomes a ValueError naming x."""
    try:
        return f(x)
    except (ValueError, OverflowError, ZeroDivisionError) as err:
        raise ValueError(f"f fails at x={x!r}: {err}") from err


def _zero_intercept(f: Callable[[float], float], pts: list[float], v0: float,
                    slope: float, tol: float) -> bool:
    """Whether affine f has intercept 0: |f(0)| <= tol where 0 is in f's domain.

    Elsewhere the chord's intercept is tested instead. Its slope is known to
    about tol / width, so its value at 0, max|x| away from the grid, is known
    only to tol (1 + max|x| / width); a narrow grid far from 0 cannot tell a
    small intercept from none.
    """
    try:
        return abs(_at(f, 0.0)) <= tol
    except ValueError:
        x0, x1 = pts[0], pts[-1]
        return abs(v0 - slope * x0) <= tol * (1.0 + max(abs(x0), abs(x1)) / (x1 - x0))


def unit_distortion(f: Callable[[float], float], interval: tuple[float, float], unit: float) -> float:
    """How much the image of a fixed unit step varies across an interval.

    Returns max_x [f(x+unit) - f(x)] / min_x [f(x+unit) - f(x)] over
    DISTORTION_SAMPLES evenly spaced x on [lo, hi-unit]. Affine maps give 1
    (to rounding); larger values quantify rubber-scale stretching, e.g. the
    natural log maps a unit step near 50 to about twice the step near 100.
    A map that is not increasing somewhere gives inf; a unit that is not
    positive and finite, a unit that some x absorbs (x + unit == x), a step
    that is not finite, or an f that raises at some x, raises ValueError.
    """
    lo, hi = interval
    if not unit > 0.0:  # so that a nan is named here, not as a width that overflows
        raise ValueError(f"unit must be positive, got {unit}")
    if unit == math.inf:  # and so is an infinite one, not as the nan of hi - unit
        raise ValueError("unit must be finite, got inf")
    if not hi - lo >= 2.0 * unit:
        raise ValueError(
            f"interval ({lo}, {hi}) must span at least two units of {unit}"
        )
    xs = linspace(lo, hi - unit, DISTORTION_SAMPLES)
    if any(x + unit == x for x in xs):
        raise ValueError(f"unit {unit:g} is below the double spacing on ({lo:g}, {hi:g})")
    steps = [_at(f, x + unit) - _at(f, x) for x in xs]
    if not all(map(math.isfinite, steps)):
        raise ValueError(f"a unit step of f is not finite on ({lo}, {hi})")
    min_step = min(steps)
    if min_step <= 0.0:
        return math.inf
    return max(steps) / min_step


class DiscordantPair(NamedTuple):
    """Two outcomes whose rank order flips between two statistics."""

    outcome_a: BinomialOutcome
    outcome_b: BinomialOutcome
    kind_x: str
    kind_y: str
    x_values: tuple[float, float]
    y_values: tuple[float, float]


class AgreementConfig(NamedTuple):
    """Hypothesis setup under which every statistic kind is computed."""

    null: PointHypothesis = PointHypothesis(0.5)
    alternative: CompositeHypothesis = CompositeHypothesis()
    slr_alternative: PointHypothesis = PointHypothesis(0.25)

    def alternative_for(self, kind: str) -> Hypothesis | None:
        if kind in SLR_KINDS:
            return self.slr_alternative
        if kind in BF_KINDS:
            return self.alternative
        return None


class DiscordantPairs:
    """The discordant pairs of an agreement report, generated on demand.

    Holds the kept outcomes, the ranked value column of each statistic (a
    ratio kind's is its log column) and the discordant count of each
    compared kind pair, so its memory is linear in the number of outcomes
    however many pairs reverse. ``len`` is the total count; iteration,
    which may be repeated, yields the pairs in the report's order: kind
    pairs in the order of ``statistic_kinds``, then outcome index pairs
    i < j lexicographically. It is a stream, not a sequence: no indexing.
    """

    def __init__(
        self,
        outcomes: tuple[BinomialOutcome, ...],
        columns: dict[str, list[float]],
        counts: Sequence[tuple[str, str, int]],
    ) -> None:
        self._outcomes = outcomes
        self._columns = columns
        self._counts = tuple(counts)
        self._len = sum(count for _, _, count in self._counts)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[DiscordantPair]:
        outcomes = self._outcomes
        for kx, ky, count in self._counts:
            xs, ys = self._columns[kx], self._columns[ky]
            m = len(xs)
            witnesses = (DiscordantPair(outcomes[i], outcomes[j], kx, ky,
                                        (_reported(kx, xi), _reported(kx, xs[j])),
                                        (_reported(ky, yi), _reported(ky, ys[j])))
                         for i, (xi, yi) in enumerate(zip(xs, ys)) for j in range(i + 1, m)
                         if (xi > xs[j] and yi < ys[j]) or (xi < xs[j] and yi > ys[j]))
            # The count is known, so the scan stops at the last reversal.
            yield from itertools.islice(witnesses, count)

    def __repr__(self) -> str:
        return f"<{self._len} discordant pairs>"


class AgreementReport(NamedTuple):
    """Kendall tau-b between statistics over a data grid.

    ``discordant_pairs`` is a lazy, sized, re-iterable stream of the
    witnesses (DiscordantPairs): its length is the total discordant count
    from the tau computation, and no pair is built until it is read.
    """

    dataset_grid: tuple[BinomialOutcome, ...]
    statistic_kinds: tuple[str, ...]
    kendall_tau: dict[tuple[str, str], float]
    discordant_pairs: DiscordantPairs
    excluded: tuple[tuple[BinomialOutcome, str], ...] = ()


def outcome_grid(max_n: int, min_n: int = 2) -> list[BinomialOutcome]:
    """All (n, k) outcomes with min_n <= n <= max_n, in lexicographic order."""
    return [BinomialOutcome(n, k) for n in range(min_n, max_n + 1) for k in range(n + 1)]


def _tied_pairs(values: Iterable) -> int:
    """Pairs of equal items among values, in any order."""
    return sum(math.comb(count, 2) for count in Counter(values).values())


def _count_swaps(values: list[float]) -> int:
    """The number of pairs i < j with values[i] > values[j] (the swaps an
    exchange sort would make). Runs of 64 are insertion-sorted, each value
    passing the greater ones before it; the runs then merge pairwise, each
    right value passing the greater left ones."""
    runs, swaps = [], 0
    for start in range(0, len(values), 64):
        run: list[float] = []
        for before, value in enumerate(values[start:start + 64]):
            at = bisect_right(run, value)
            swaps += before - at
            run.insert(at, value)
        runs.append(run)
    while True:
        pairs = list(zip(runs[::2], runs[1::2]))
        for left, right in pairs:
            swaps += len(left) * len(right) - sum(map(bisect_right, itertools.repeat(left), right))
        if len(runs) <= 2:  # the last merge's sorted runs would go unread
            return swaps
        runs = [sorted(left + right) for left, right in pairs] + runs[2 * len(pairs):]


def _kendall_tau_b(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, int]:
    """Kendall tau-b of two value columns and their discordant-pair count.

    Knight's O(m log m) method (JASA 1966) with the tie correction: the x
    ties, y ties and joint ties are counted from the columns as given; once
    the points are sorted by (x, y), the swaps a stable sort of the y column
    makes are exactly the pairs that x orders one way and y strictly the
    other. The integer counts equal those of comparing every pair, so tau is
    the same double. Values must not be NaN.
    """
    ties_x = _tied_pairs(xs)
    ties_y = _tied_pairs(ys)
    ties_xy = _tied_pairs(zip(xs, ys))
    discordant = _count_swaps([y for _, y in sorted(zip(xs, ys))])
    total = math.comb(len(xs), 2)
    concordant = total - ties_x - ties_y + ties_xy - discordant
    denom = math.sqrt((total - ties_x) * (total - ties_y))
    if denom == 0.0:
        return math.nan, discordant
    return (concordant - discordant) / denom, discordant


def rank_order_agreement(grid: Sequence[BinomialOutcome], kinds: Sequence[str]) -> AgreementReport:
    """Compute every statistic on every outcome, under AgreementConfig(), and
    compare their rankings.

    Ties are handled with the tau-b correction, since grids of discrete
    outcomes produce exact ties (every balanced outcome has p = 1, for
    instance, and equal rational Bayes factors within the exact range of
    evidence.log_bf). The ratio kinds mlr, slr and bf are ranked by their
    logs; their witnesses show the ratio. Outcomes on which some statistic
    cannot be computed are excluded from all comparisons and reported. An
    empty grid, an unknown kind and a kind given more than once are ValueErrors.
    Deterministic given the grid order. Time is O(m log m) per kind pair
    and memory O(m) for m kept outcomes; the witnesses are generated only
    when read.
    """
    if not grid:
        raise ValueError("agreement requires a nonempty outcome grid")
    config = AgreementConfig()
    kinds = tuple(kinds)
    for i, kind in enumerate(kinds):
        if kind not in EVIDENCE_KINDS:
            raise ValueError(f"unknown evidence kind {kind!r}; expected one of {EVIDENCE_KINDS}")
        if kind in kinds[:i]:
            raise ValueError(f"agreement requires distinct kinds, got {kind!r} more than once")

    # One column per distinct ranked statistic: a ratio kind and its log kind
    # share one. Ranked by the log, the outcomes whose ratio overflows to inf
    # (log past about 709.78) do not tie.
    columns: dict[str, list[float]] = {RATIO_LOG_KINDS.get(k, k): [] for k in kinds}
    kept: list[BinomialOutcome] = []
    excluded: list[tuple[BinomialOutcome, str]] = []
    for outcome in grid:
        try:
            row = [
                compute_evidence(
                    kind, outcome, null=config.null, alternative=config.alternative_for(kind)
                ).value
                for kind in columns
            ]
        except (ValueError, RuntimeError) as err:
            excluded.append((outcome, str(err)))
            continue
        kept.append(outcome)
        for column, value in zip(columns.values(), row):
            column.append(value)
    ranked = {kind: columns[RATIO_LOG_KINDS.get(kind, kind)] for kind in kinds}

    taus: dict[tuple[str, str], float] = {}
    counts: list[tuple[str, str, int]] = []
    for kx, ky in itertools.combinations_with_replacement(kinds, 2):
        tau, discordant = _kendall_tau_b(ranked[kx], ranked[ky])
        taus[(kx, ky)] = taus[(ky, kx)] = tau
        if kx != ky:
            counts.append((kx, ky, discordant))

    outcomes = tuple(kept)
    return AgreementReport(
        dataset_grid=outcomes,
        statistic_kinds=kinds,
        kendall_tau=taus,
        discordant_pairs=DiscordantPairs(outcomes, ranked, counts),
        excluded=tuple(excluded),
    )


class DifferenceComparison(NamedTuple):
    """Successive differences of three p-values, raw and after -log transform.

    The transformed differences are ln(p1/p2) and ln(p2/p3): the -log map
    reshuffles which gap looks larger, which is exactly why difference
    comparisons on such a scale carry no meaning.
    """

    p_values: tuple[float, float, float]
    raw: tuple[float, float]
    neg_log: tuple[float, float]


def difference_comparison_demo(p_values: tuple[float, float, float]) -> DifferenceComparison:
    """Compare (p1-p2, p2-p3) against the same gaps on the -log scale."""
    p1, p2, p3 = p_values
    for p in (p1, p2, p3):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p-values must lie in (0,1], got {p}")
    return DifferenceComparison(
        p_values=(p1, p2, p3),
        raw=(p1 - p2, p2 - p3),
        neg_log=(math.log(p1 / p2), math.log(p2 / p3)),
    )
