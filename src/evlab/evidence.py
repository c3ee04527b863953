"""Evidence statistics for binomial data.

Implements the p-value (and -log P), maximum likelihood ratio, simple
likelihood ratio, and Bayes factor families against point and composite
hypotheses about the success probability of a binomial model. All log
values are natural logs; display-base conversion is a presentation concern
handled by the command-line layer.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from .numerics import log_beta, log_binomial_coeff, regularized_incomplete_beta

EXACT = "exact"
CONTINUOUS = "continuous"
MODES = (EXACT, CONTINUOUS)

# Statistic identifiers, as spelled on the command line.
EVIDENCE_KINDS = (
    "pvalue",
    "neglogp",
    "mlr",
    "logmlr",
    "slr",
    "logslr",
    "bf",
    "logbf",
    "abslogbf",
)
# Kinds whose value lives on a log scale (subject to display-base rescaling).
LOG_SCALE_KINDS = frozenset({"neglogp", "logmlr", "logslr", "logbf", "abslogbf"})


class UnsupportedNullError(ValueError):
    """A null hypothesis outside the supported symmetric convention."""


class DegeneratePriorError(ValueError):
    """A composite prior whose mass on its support underflows to zero."""


class _BinomialOutcome(NamedTuple):
    n: float
    k: float
    mode: str


class BinomialOutcome(_BinomialOutcome):
    """Observed binomial data: k successes in n trials.

    In "exact" mode n and k must be integers. "continuous" mode relaxes
    both to nonnegative reals (the likelihood is extended through the
    gamma function), which is what the transition-point machinery uses to
    move along n smoothly.
    """

    __slots__ = ()

    def __new__(cls, n: float, k: float, mode: str = EXACT):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if n < 0:
            raise ValueError(f"trial count must be nonnegative, got n={n}")
        if k < 0 or k > n:
            raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
        if mode == EXACT:
            if not (float(n).is_integer() and float(k).is_integer()):
                raise ValueError(
                    f"exact mode requires integer n and k, got n={n}, k={k}"
                )
        return tuple.__new__(cls, (n, k, mode))

    @property
    def y(self) -> float:
        """Observed proportion k/n (undefined for n = 0)."""
        if self.n == 0:
            raise ValueError("observed proportion is undefined for n = 0")
        return self.k / self.n


class _PointHypothesis(NamedTuple):
    theta0: float


class PointHypothesis(_PointHypothesis):
    """A fully specified success probability, strictly inside (0, 1)."""

    __slots__ = ()

    def __new__(cls, theta0: float):
        if not 0.0 < theta0 < 1.0:
            raise ValueError(f"point hypothesis requires theta0 in (0,1), got {theta0}")
        return tuple.__new__(cls, (theta0,))


class _CompositeHypothesis(NamedTuple):
    support: tuple[float, float]
    a: float
    b: float


class CompositeHypothesis(_CompositeHypothesis):
    """An interval of success probabilities with a Beta(a, b) prior.

    The prior is the Beta(a, b) density truncated to `support` and
    renormalized, so it integrates to one over the support by construction.
    """

    __slots__ = ()

    def __new__(
        cls, support: tuple[float, float] = (0.0, 1.0), a: float = 1.0, b: float = 1.0
    ):
        lo, hi = support
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(
                f"support must be a positive-width subinterval of [0,1], got {support}"
            )
        if not (a > 0.0 and b > 0.0):
            raise ValueError(f"prior shapes must be positive, got a={a}, b={b}")
        return tuple.__new__(cls, (support, a, b))


Hypothesis = Union[PointHypothesis, CompositeHypothesis]


def uniform_prior(lo: float = 0.0, hi: float = 1.0) -> CompositeHypothesis:
    """Composite hypothesis with a uniform prior on [lo, hi]."""
    return CompositeHypothesis(support=(lo, hi), a=1.0, b=1.0)


class EvidenceValue(NamedTuple):
    """A named statistic value together with the inputs it was computed from."""

    kind: str
    value: float
    data: BinomialOutcome
    hypotheses: tuple[Hypothesis, ...]


def _xlogy(x: float, y: float) -> float:
    """x * ln(y) with the 0 * ln(0) = 0 convention."""
    if x == 0.0:
        return 0.0
    return x * math.log(y)


def binomial_log_pmf(data: BinomialOutcome, theta: float) -> float:
    """Log of the binomial mass C(n,k) theta^k (1-theta)^(n-k).

    theta must lie strictly inside (0, 1). Valid for real n, k in
    continuous mode through the gamma-extended binomial coefficient.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0,1), got {theta}")
    return (
        log_binomial_coeff(data.n, data.k)
        + _xlogy(data.k, theta)
        + _xlogy(data.n - data.k, 1.0 - theta)
    )


def _point_log_lik(data: BinomialOutcome, theta: float) -> float:
    """Log-likelihood kernel k ln(theta) + (n-k) ln(1-theta), no binomial coefficient."""
    return _xlogy(data.k, theta) + _xlogy(data.n - data.k, 1.0 - theta)


def _two_sided_count(data: BinomialOutcome, null: PointHypothesis) -> tuple[int, int]:
    """(n, c): the two-sided p-value is exactly c / 2**n."""
    if null.theta0 != 0.5:
        raise UnsupportedNullError(
            f"two-sided p-value is only defined here for theta0 = 1/2, got {null.theta0}"
        )
    if data.mode != EXACT:
        raise ValueError("p-value requires exact mode (integer n and k)")
    n = int(data.n)
    k = int(data.k)
    if n < 1:
        raise ValueError(f"p-value requires n >= 1, got n={n}")
    dist = abs(2 * k - n)  # twice the distance from n/2, kept integral
    return n, sum(math.comb(n, j) for j in range(n + 1) if abs(2 * j - n) >= dist)


def p_value_two_sided(data: BinomialOutcome, null: PointHypothesis) -> float:
    """Exact two-sided p-value P(|K - n/2| >= |k - n/2|) under Binomial(n, 1/2).

    Only the symmetric null theta0 = 1/2 is supported; for an asymmetric
    null there are several competing two-sided conventions, and none is
    silently adopted here. Summation is carried out in exact integer
    arithmetic, so the result is 1.0 exactly whenever k = n/2.
    """
    n, count = _two_sided_count(data, null)
    return count / 2**n


def neg_log_p(data: BinomialOutcome, null: PointHypothesis) -> float:
    """-ln of the two-sided p-value; exactly 0.0 when p = 1.

    When p underflows to 0.0 the value is n ln 2 - ln c, taken on the exact
    integer count c, so it stays finite for every n.
    """
    n, count = _two_sided_count(data, null)
    p = count / 2**n
    if p == 1.0:
        return 0.0
    if p == 0.0:
        return n * math.log(2.0) - math.log(count)
    return -math.log(p)


def log_mlr(data: BinomialOutcome, null: PointHypothesis) -> float:
    """Log maximum likelihood ratio of the unrestricted model against a point null.

    The numerator likelihood is maximized at the observed proportion
    y = k/n, so the value is always >= 0; it is exactly 0.0 when y equals
    theta0. Boundary data (k = 0 or k = n) use the 0 * ln(0) = 0 convention.
    """
    if data.n <= 0:
        raise ValueError(f"log_mlr requires n > 0, got n={data.n}")
    n, k = data.n, data.k
    max_term = _xlogy(k, k / n) + _xlogy(n - k, (n - k) / n)
    null_term = _point_log_lik(data, null.theta0)
    return max_term - null_term


def log_slr(data: BinomialOutcome, h1: PointHypothesis, h2: PointHypothesis) -> float:
    """Log simple likelihood ratio between two point hypotheses.

    Equals k ln(theta1/theta2) + (n-k) ln((1-theta1)/(1-theta2)): linear in
    k and in n-k, hence additive across independent batches of tosses.
    """
    t1, t2 = h1.theta0, h2.theta0
    return _xlogy(data.k, t1 / t2) + _xlogy(data.n - data.k, (1.0 - t1) / (1.0 - t2))


def _log_truncated_beta_mass(a: float, b: float, lo: float, hi: float) -> float:
    """ln of integral of t^(a-1) (1-t)^(b-1) over [lo, hi]."""
    delta = regularized_incomplete_beta(hi, a, b) - regularized_incomplete_beta(lo, a, b)
    if delta <= 0.0:
        raise DegeneratePriorError(
            f"Beta({a}, {b}) mass on [{lo}, {hi}] underflows to zero"
        )
    return log_beta(a, b) + math.log(delta)


def log_bf(data: BinomialOutcome, h1: Hypothesis, h2: PointHypothesis) -> float:
    """Log Bayes factor of h1 against the point hypothesis h2.

    For composite h1 with a truncated Beta(a, b) prior on [L, U], the
    marginal likelihood has the closed form

        B(k+a, n-k+b) * [I_U(k+a, n-k+b) - I_L(k+a, n-k+b)]
        ---------------------------------------------------
        B(a, b)       * [I_U(a, b)       - I_L(a, b)]

    (binomial coefficients cancel against the denominator likelihood).
    When h1 is itself a point hypothesis there are no free parameters to
    average over and the Bayes factor reduces to the simple likelihood
    ratio, so this dispatches to log_slr.
    """
    if isinstance(h1, PointHypothesis):
        return log_slr(data, h1, h2)
    lo, hi = h1.support
    log_prior_mass = _log_truncated_beta_mass(h1.a, h1.b, lo, hi)
    post_a = data.k + h1.a
    post_b = data.n - data.k + h1.b
    try:
        log_post_mass = _log_truncated_beta_mass(post_a, post_b, lo, hi)
    except DegeneratePriorError as err:
        raise DegeneratePriorError(
            f"posterior mass underflows for n={data.n}, k={data.k} on support [{lo}, {hi}]"
        ) from err
    log_marginal = log_post_mass - log_prior_mass
    return log_marginal - _point_log_lik(data, h2.theta0)


def abs_log_bf(data: BinomialOutcome, h1: Hypothesis, h2: PointHypothesis) -> float:
    """|log BF|; exactly 0.0 at a transition point."""
    return abs(log_bf(data, h1, h2))


def support_label(log_bf_value: float) -> str:
    """Which hypothesis a signed log Bayes factor favors."""
    if log_bf_value > 0.0:
        return "supports H1"
    if log_bf_value < 0.0:
        return "supports H2"
    return "transition point"


def log_bf_irrelevant_data(m: int) -> float:
    """Log Bayes factor contributed by m observations carrying no information
    about the success probability (e.g. counts of an unrelated die).

    Their likelihood is the same factor under either hypothesis, so it
    cancels between numerator and denominator: the result is 0 for every m.
    """
    if m < 0:
        raise ValueError(f"observation count must be nonnegative, got {m}")
    return 0.0


def compute_evidence(
    kind: str,
    data: BinomialOutcome,
    *,
    null: PointHypothesis | None = None,
    alternative: Hypothesis | None = None,
) -> EvidenceValue:
    """Compute one named statistic, returning it with its inputs attached.

    `null` is the point hypothesis in the denominator role; `alternative`
    is the numerator hypothesis for the likelihood-ratio and Bayes-factor
    families (a PointHypothesis for slr/logslr, a point or composite one
    for bf/logbf/abslogbf). The ratio kinds mlr, slr and bf are inf once
    their log value passes ln of the largest double (about 709.78).
    """
    if kind not in EVIDENCE_KINDS:
        raise ValueError(f"unknown evidence kind {kind!r}; expected one of {EVIDENCE_KINDS}")
    if null is None:
        raise ValueError(f"kind {kind!r} requires a null hypothesis")
    if kind == "pvalue":
        return EvidenceValue(kind, p_value_two_sided(data, null), data, (null,))
    if kind == "neglogp":
        return EvidenceValue(kind, neg_log_p(data, null), data, (null,))
    if kind in ("mlr", "logmlr"):
        value, hypotheses = log_mlr(data, null), (null,)
    elif alternative is None:
        raise ValueError(f"kind {kind!r} requires an alternative hypothesis")
    elif kind in ("slr", "logslr"):
        if not isinstance(alternative, PointHypothesis):
            raise ValueError("slr compares two point hypotheses")
        value, hypotheses = log_slr(data, alternative, null), (alternative, null)
    else:
        value, hypotheses = log_bf(data, alternative, null), (alternative, null)
    if kind in ("mlr", "slr", "bf"):
        try:
            value = math.exp(value)
        except OverflowError:
            value = math.inf
    elif kind == "abslogbf":
        value = abs(value)
    return EvidenceValue(kind, value, data, hypotheses)
