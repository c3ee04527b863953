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
import warnings
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Sequence

from .evidence import (
    BinomialOutcome,
    CompositeHypothesis,
    Hypothesis,
    PointHypothesis,
    compute_evidence,
    uniform_prior,
)
from .numerics import linspace


class DegenerateGridError(ValueError):
    """A sample grid too short or not strictly increasing."""


class ScaleType(Enum):
    ORDINAL = "ordinal"
    INTERVAL = "interval"
    RATIO = "ratio"
    # Ratio-scale magnitude with a sign convention carrying direction.
    SIGNED_RATIO = "signed-ratio"


class TransformationAudit(NamedTuple):
    """Classification of a scalar transformation against the permissible families.

    order_preserving: strictly increasing on the probed grid.
    affine: an order-preserving linear map x -> s*x + c with s > 0
        (vanishing second differences on a uniform grid).
    positive_scalar: affine with zero intercept.
    unit_distortion: max/min ratio of first differences at the grid spacing;
        1 for affine maps, > 1 when the unit stretches across the range.
    """

    sample_grid: tuple[float, ...]
    order_preserving: bool
    affine: bool
    positive_scalar: bool
    unit_distortion: float


def classify_transformation(
    f: Callable[[float], float],
    grid: Sequence[float],
    tol: float = 1e-9,
) -> TransformationAudit:
    """Audit f on the range spanned by grid.

    Order preservation is checked on the grid as given; the affine and
    positive-scalar checks need equal spacing, so they are evaluated on a
    uniform grid over the same range with the same number of points.
    Tolerances are relative to the range of the transformed values.
    """
    pts = [float(x) for x in grid]
    if len(pts) < 4:
        raise DegenerateGridError(f"grid needs at least 4 points, got {len(pts)}")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise DegenerateGridError("grid must be strictly increasing")

    given_vals = [f(x) for x in pts]
    order_preserving = all(b > a for a, b in zip(given_vals, given_vals[1:]))

    uniform = linspace(pts[0], pts[-1], len(pts))
    vals = [f(x) for x in uniform]
    value_range = max(vals) - min(vals)
    scale = value_range if value_range > 0.0 else 1.0

    second_diffs = [vals[i + 2] - 2.0 * vals[i + 1] + vals[i] for i in range(len(vals) - 2)]
    step = uniform[1] - uniform[0]
    slope = (vals[1] - vals[0]) / step
    affine = max(abs(d) for d in second_diffs) <= tol * scale and slope > 0.0

    intercept = vals[0] - slope * uniform[0]
    positive_scalar = affine and abs(intercept) <= tol * scale

    first_diffs = [b - a for a, b in zip(vals, vals[1:])]
    min_diff = min(first_diffs)
    max_diff = max(first_diffs)
    distortion = max_diff / min_diff if min_diff > 0.0 else math.inf

    return TransformationAudit(
        sample_grid=tuple(pts),
        order_preserving=order_preserving,
        affine=affine,
        positive_scalar=positive_scalar,
        unit_distortion=distortion,
    )


def unit_distortion(
    f: Callable[[float], float],
    interval: tuple[float, float],
    unit: float,
    samples: int = 2048,
) -> float:
    """How much the image of a fixed unit step varies across an interval.

    Returns max_x [f(x+unit) - f(x)] / min_x [f(x+unit) - f(x)] with x
    sampled densely on [lo, hi-unit]. Affine maps give 1 (to rounding);
    larger values quantify rubber-scale stretching, e.g. the natural log
    maps a unit step near 50 to about twice the step near 100.
    """
    lo, hi = interval
    if unit <= 0.0:
        raise ValueError(f"unit must be positive, got {unit}")
    if hi - lo < 2.0 * unit:
        raise ValueError(
            f"interval ({lo}, {hi}) must span at least two units of {unit}"
        )
    steps = [f(x + unit) - f(x) for x in linspace(lo, hi - unit, samples)]
    min_step = min(steps)
    max_step = max(steps)
    if min_step <= 0.0:
        warnings.warn(
            "transformation is not increasing everywhere on the interval",
            stacklevel=2,
        )
        return math.inf
    return max_step / min_step


def permissible(scale: ScaleType, audit: TransformationAudit) -> bool:
    """Whether an audited transformation preserves meaning on the given scale type."""
    if scale is ScaleType.ORDINAL:
        return audit.order_preserving
    if scale is ScaleType.INTERVAL:
        return audit.affine
    # Ratio and signed-ratio magnitudes admit only positive rescaling; the
    # sign convention of a signed-ratio scale lives outside the magnitude map.
    return audit.positive_scalar


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
    alternative: CompositeHypothesis = uniform_prior()
    slr_alternative: PointHypothesis = PointHypothesis(0.25)

    def alternative_for(self, kind: str) -> Hypothesis | None:
        if kind in ("slr", "logslr"):
            return self.slr_alternative
        if kind in ("bf", "logbf", "abslogbf"):
            return self.alternative
        return None


class DiscordantPairs(Sequence[DiscordantPair]):
    """The discordant pairs of an agreement report, generated on demand.

    Holds the kept outcomes, one value column per statistic and the
    discordant count of each compared kind pair, so its memory is linear in
    the number of outcomes however many pairs reverse. ``len`` is the total
    count; iteration, which may be repeated, yields the pairs in the
    report's order: kind pairs in the order of ``statistic_kinds``, then
    outcome index pairs i < j lexicographically. Indexing walks to the
    requested pair, and a slice returns a tuple.
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
        for kx, ky, count in self._counts:
            yield from self._pairs(kx, ky, count)

    def _pairs(self, kx: str, ky: str, count: int) -> Iterator[DiscordantPair]:
        xs, ys, outcomes = self._columns[kx], self._columns[ky], self._outcomes
        m = len(outcomes)
        i = 0
        # The count is known, so the scan stops at the last reversal.
        while count:
            xi, yi = xs[i], ys[i]
            for j in range(i + 1, m):
                xj, yj = xs[j], ys[j]
                if (xi > xj and yi < yj) or (xi < xj and yi > yj):
                    yield DiscordantPair(outcomes[i], outcomes[j], kx, ky, (xi, xj), (yi, yj))
                    count -= 1
            i += 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            positions = range(self._len)[index]
            if positions.step < 0:
                return tuple(self)[index]
            return tuple(itertools.islice(self, positions.start, positions.stop, positions.step))
        position = range(self._len)[index]  # IndexError when out of range
        return next(itertools.islice(self, position, None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, DiscordantPairs)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<{self._len} discordant pairs>"


class AgreementReport(NamedTuple):
    """Kendall tau-b between statistics over a data grid.

    ``discordant_pairs`` is a lazy, re-iterable sequence of the witnesses
    (DiscordantPairs): its length is the total discordant count from the
    tau computation, and no pair is built until it is read.
    """

    dataset_grid: tuple[BinomialOutcome, ...]
    statistic_kinds: tuple[str, ...]
    kendall_tau: dict[tuple[str, str], float]
    discordant_pairs: DiscordantPairs
    excluded: tuple[tuple[BinomialOutcome, str], ...] = ()


def outcome_grid(max_n: int, min_n: int = 2) -> list[BinomialOutcome]:
    """All (n, k) outcomes with min_n <= n <= max_n, in lexicographic order."""
    return [BinomialOutcome(n, k) for n in range(min_n, max_n + 1) for k in range(n + 1)]


def _tied_pairs(ordered: Sequence) -> int:
    """Pairs of equal items in a sequence where equal items are adjacent."""
    total = 0
    for _, run in itertools.groupby(ordered):
        size = sum(1 for _ in run)
        total += size * (size - 1) // 2
    return total


def _sort_counting_swaps(values: list[float]) -> tuple[list[float], int]:
    """values in stable ascending order, and the number of pairs i < j with
    values[i] > values[j] (the swaps an exchange sort would make)."""
    if len(values) < 2:
        return values, 0
    mid = len(values) // 2
    left, swaps_left = _sort_counting_swaps(values[:mid])
    right, swaps_right = _sort_counting_swaps(values[mid:])
    merged: list[float] = []
    swaps = swaps_left + swaps_right
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            merged.append(right[j])
            j += 1
            swaps += len(left) - i
        else:
            merged.append(left[i])
            i += 1
    merged += left[i:]
    merged += right[j:]
    return merged, swaps


def _kendall_tau_b(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, int]:
    """Kendall tau-b of two value columns and their discordant-pair count.

    Knight's O(m log m) method (JASA 1966) with the tie correction: sort
    the points by (x, y) and count the x ties and joint ties in runs; a
    merge sort of the y column then counts its swaps, which are exactly the
    pairs that x orders one way and y strictly the other, and leaves the y
    ties in runs. The integer counts equal those of comparing every pair,
    so tau is the same double. Values must not be NaN.
    """
    m = len(xs)
    points = sorted(zip(xs, ys))
    ties_x = _tied_pairs([x for x, _ in points])
    ties_xy = _tied_pairs(points)
    sorted_y, discordant = _sort_counting_swaps([y for _, y in points])
    ties_y = _tied_pairs(sorted_y)
    total = m * (m - 1) // 2
    concordant = total - ties_x - ties_y + ties_xy - discordant
    denom = math.sqrt((total - ties_x) * (total - ties_y))
    if denom == 0.0:
        return math.nan, discordant
    return (concordant - discordant) / denom, discordant


def rank_order_agreement(
    grid: Sequence[BinomialOutcome],
    kinds: Sequence[str],
    config: AgreementConfig | None = None,
) -> AgreementReport:
    """Compute every statistic on every outcome and compare their rankings.

    Ties are handled with the tau-b correction, since grids of discrete
    outcomes produce exact ties (every balanced outcome has p = 1, for
    instance). Outcomes on which some statistic cannot be computed are
    excluded from all comparisons and reported. Deterministic given the
    grid order. Time is O(m log m) per kind pair and memory O(m) for m
    kept outcomes; the witnesses are generated only when read.
    """
    if not grid:
        raise ValueError("agreement requires a nonempty outcome grid")
    if config is None:
        config = AgreementConfig()
    kinds = tuple(kinds)

    # One column per distinct kind; a repeated kind shares its column.
    columns: dict[str, list[float]] = {k: [] for k in kinds}
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

    taus: dict[tuple[str, str], float] = {}
    counts: list[tuple[str, str, int]] = []
    for xi, kx in enumerate(kinds):
        for yi, ky in enumerate(kinds[xi:], start=xi):
            tau, discordant = _kendall_tau_b(columns[kx], columns[ky])
            taus[(kx, ky)] = taus[(ky, kx)] = tau
            if yi > xi:
                counts.append((kx, ky, discordant))

    outcomes = tuple(kept)
    return AgreementReport(
        dataset_grid=outcomes,
        statistic_kinds=kinds,
        kendall_tau=taus,
        discordant_pairs=DiscordantPairs(outcomes, columns, counts),
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
