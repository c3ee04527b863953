"""Transition points of log Bayes factors and the two routes to zero.

A transition point (TrP) is the observed proportion at which the log Bayes
factor between two hypotheses crosses 0: smaller proportions favor one
hypothesis, larger proportions the other. For two point hypotheses the TrP
has a closed form and does not depend on the trial count; for a one-sided
composite hypothesis against a point null it must be root-found and drifts
with n. This module also traces the two distinct ways the value 0 can be
reached (shrinking the trial count toward zero at fixed proportion, versus
riding the TrP as the trial count grows) along with a proxy for how
strongly the data contradict a pair of point hypotheses.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .evidence import (
    CONTINUOUS,
    BinomialOutcome,
    CompositeHypothesis,
    Hypothesis,
    PointHypothesis,
    log_bf,
    log_mlr,
    log_slr,
)
from .numerics import RESIDUAL_LIMIT, InvalidBracketError, _log_ratio, find_root

# Root brackets stay this far inside the support / away from the point null,
# since the log Bayes factor diverges toward the support edges.
BRACKET_MARGIN = 1e-6

SHRINK_N = "shrink-n"
RIDE_TRP = "ride-trp"
PATH_KINDS = (SHRINK_N, RIDE_TRP)


class _TrPResult(NamedTuple):
    n: float
    trp_y: float
    residual: float
    bracket_width: float


class TrPResult(_TrPResult):
    """A root of the log Bayes factor in the observed proportion, at fixed n.

    residual is |log BF| at trp_y, the value the root-finder stopped on.
    bracket_width is the width of the bracket bisection stopped at around
    trp_y: at most DEFAULT_TOL, less where |log BF| was still above
    RESIDUAL_LIMIT there, and one double spacing where neither rule was met
    sooner. It is 0 for a closed-form or exact root.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, n: float, trp_y: float, residual: float, bracket_width: float):
        if not 0.0 < trp_y < 1.0:
            raise ValueError(f"transition point must be in (0,1), got {trp_y}")
        if not 0.0 <= residual <= RESIDUAL_LIMIT:
            raise ValueError(f"root residual {residual} exceeds the limit {RESIDUAL_LIMIT}")
        if not bracket_width >= 0.0:
            raise ValueError(f"bracket width must be nonnegative, got {bracket_width}")
        return tuple.__new__(cls, (n, trp_y, residual, bracket_width))


def trp_simple(theta1: float, theta2: float) -> float:
    """Closed-form transition point between two point hypotheses.

    Solves k ln(t1/t2) + (n-k) ln((1-t1)/(1-t2)) = 0 for y = k/n:

        y* = ln((1-t2)/(1-t1)) / [ ln(t1/t2) + ln((1-t2)/(1-t1)) ]

    The trial count cancels, so the result holds for every n.
    """
    if not (0.0 < theta1 < 1.0 and 0.0 < theta2 < 1.0):
        raise ValueError(f"hypotheses must lie in (0,1), got {theta1}, {theta2}")
    if theta1 == theta2:
        raise ValueError("transition point is undefined for identical hypotheses")
    comp = _log_ratio(1.0 - theta2, 1.0 - theta1)
    return comp / (_log_ratio(theta1, theta2) + comp)


def trp_point_pair(n: float, h1: PointHypothesis, h2: PointHypothesis) -> TrPResult:
    """trp_simple as a TrPResult at n: the log-ratio residual there, bracket width 0."""
    y = trp_simple(h1.theta0, h2.theta0)
    residual = abs(log_slr(BinomialOutcome(n, y * n, CONTINUOUS), h1, h2))
    return _result(n, h1, h2, y, residual, 0.0)


def _result(n: float, h1: Hypothesis, h2: PointHypothesis, *fields: float) -> TrPResult:
    """TrPResult(n, *fields), or its ValueError re-raised naming n and the hypotheses."""
    try:
        return TrPResult(n, *fields)
    except ValueError as err:
        raise ValueError(f"transition point of {h1} against {h2} at n={n}: {err}") from err


def _solve_trp(n: float, h1: CompositeHypothesis, h2: PointHypothesis,
               a: float, b: float) -> TrPResult:
    """The root of log BF in y between the ends a and b, in either order, kept
    BRACKET_MARGIN inside each."""
    if n <= 0:
        raise ValueError(f"trial count must be positive, got n={n}")
    lo, hi = min(a, b) + BRACKET_MARGIN, max(a, b) - BRACKET_MARGIN
    if not lo < hi:
        raise ValueError(
            f"support {h1.support} leaves no room for a root more than {BRACKET_MARGIN} "
            f"inside it and away from the null {h2.theta0}"
        )

    def g(y: float) -> float:
        return log_bf(BinomialOutcome(n, y * n, CONTINUOUS), h1, h2)

    try:
        root, value, width = find_root(g, lo, hi)
    except InvalidBracketError as err:
        raise InvalidBracketError(
            f"log BF does not change sign on y in [{lo}, {hi}] at n={n}"
        ) from err
    return _result(n, h1, h2, root, abs(value), width)


def trp_composite(n: float, h1: CompositeHypothesis, h2: PointHypothesis) -> TrPResult:
    """Transition point for a one-sided composite hypothesis against a point null.

    The prior support must lie entirely on one side of the null value; the
    root is bracketed strictly between the support interior and the null.
    Unlike the two-point case, the location drifts with n.
    """
    lo, hi = h1.support
    theta0 = h2.theta0
    if lo < theta0 < hi:
        raise ValueError(
            f"support {h1.support} straddles the null {theta0}; "
            "use trp_composite_two_sided for that case"
        )
    return _solve_trp(n, h1, h2, lo if hi <= theta0 else hi, theta0)


def trp_composite_two_sided(
    n: float, h1: CompositeHypothesis, h2: PointHypothesis
) -> tuple[TrPResult, TrPResult]:
    """The pair of transition points when the support straddles the null.

    Returns (lower, upper) roots bracketing the null value, one on each side.
    """
    lo, hi = h1.support
    theta0 = h2.theta0
    if not lo < theta0 < hi:
        raise ValueError(
            f"two-sided case requires the support {h1.support} to straddle the null {theta0}"
        )
    return _solve_trp(n, h1, h2, lo, theta0), _solve_trp(n, h1, h2, theta0, hi)


def against_both(data: BinomialOutcome, theta1: float, theta2: float) -> float:
    """How strongly the data contradict the *better* of two point hypotheses.

    Defined as min_i [ log-likelihood at the MLE y minus log-likelihood at
    theta_i ]. It is 0 when the data sit exactly on one hypothesis and, for
    fixed y strictly between the two, grows linearly in the trial count.
    This is a proxy measure: each branch is log_mlr against theta_i, n times
    the KL divergence of y from theta_i.
    """
    if theta1 == theta2:
        raise ValueError("against_both requires distinct hypotheses")
    return min(log_mlr(data, PointHypothesis(theta1)), log_mlr(data, PointHypothesis(theta2)))


class ZeroPathPoint(NamedTuple):
    n: float
    y: float
    log_bf: float
    against_both: float


Y_FIXED = 0.9
AGAINST_PAIR = (0.25, 0.75)
# Each path's own prior and n values: shrink-n, uniform on [1/2, 1] with n
# falling geometrically toward 0; ride-trp, uniform on [0, 1/2] with n growing.
_PATH_DEFAULTS = {
    SHRINK_N: (CompositeHypothesis((0.5, 1.0)), (8.0, 4.0, 2.0, 1.0, 0.5, 0.1)),
    RIDE_TRP: (CompositeHypothesis((0.0, 0.5)), (10.0, 100.0, 1000.0)),
}


def zero_path(
    path_kind: str,
    *,
    h1: CompositeHypothesis | None = None,
    h2: PointHypothesis = PointHypothesis(0.5),
    n_values: Sequence[float] | None = None,
    y_fixed: float = Y_FIXED,
    against_pair: tuple[float, float] = AGAINST_PAIR,
) -> tuple[ZeroPathPoint, ...]:
    """Trace one of the two routes to log BF = 0; the last point is where it ends.

    shrink-n: hold y at y_fixed and walk n down toward 0; both the log Bayes
    factor and the contradiction proxy decay to 0.

    ride-trp: walk n up, setting y to the transition point at each step
    (root-found to DEFAULT_TOL); the log Bayes factor is pinned at 0 (within
    the root residual) while the contradiction proxy keeps growing. The two
    traces end at the same log BF but at very different states.

    h1/h2 define the Bayes factor being traced; against_pair is the pair of
    point hypotheses the contradiction proxy is evaluated against. An h1 or
    n_values left as None takes the path's own default.
    """
    if path_kind not in _PATH_DEFAULTS:
        raise ValueError(f"path kind must be one of {PATH_KINDS}, got {path_kind!r}")
    default_h1, default_ns = _PATH_DEFAULTS[path_kind]
    h1 = default_h1 if h1 is None else h1
    ns = default_ns if n_values is None else n_values
    if not ns:
        raise ValueError("zero path requires at least one n value")
    if path_kind == SHRINK_N:
        if any(b >= a for a, b in zip(ns, ns[1:])):
            raise ValueError(f"shrink-n requires strictly decreasing n values, got {list(ns)}")
        if not 0.0 < y_fixed < 1.0:
            raise ValueError(f"fixed y must be in (0,1), got {y_fixed}")
    elif any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"ride-trp requires strictly increasing n values, got {list(ns)}")

    t1, t2 = against_pair
    points = []
    for n in ns:
        y = y_fixed if path_kind == SHRINK_N else trp_composite(n, h1, h2).trp_y
        data = BinomialOutcome(n, y * n, CONTINUOUS)
        points.append(ZeroPathPoint(n=n, y=y, log_bf=log_bf(data, h1, h2),
                                    against_both=against_both(data, t1, t2)))
    return tuple(points)
