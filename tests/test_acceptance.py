"""Acceptance gate: every shipped claim at its stated tolerance.

Each criterion is one test that prints a PASS/FAIL line to the real
stdout (outside pytest's capture, so the ledger of criteria is always
visible) and then asserts. Run with `pytest tests/test_acceptance.py -v`.
"""

import math
import subprocess
import sys
import time

import pytest

from evlab.evidence import (
    CONTINUOUS,
    BinomialOutcome,
    PointHypothesis,
    compute_evidence,
    log_bf,
    log_mlr,
    log_slr,
    neg_log_p,
    p_value_two_sided,
    CompositeHypothesis,
)
from evlab.scale import outcome_grid, rank_order_agreement, unit_distortion
from evlab.transition import RIDE_TRP, SHRINK_N, trp_composite, trp_simple, zero_path

from _oracles import bf_fraction, log_fraction, p_value_fraction, quad_log_bf

FAIR = PointHypothesis(0.5)


@pytest.fixture
def report(capsys):
    def _report(number: int, description: str, ok: bool) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {description}: {verdict}")

    return _report


def test_criterion_01_stuck_at_zero_for_balanced_data(report):
    start = time.perf_counter()
    ok = True
    for n in range(2, 101, 2):
        data = BinomialOutcome(n, n // 2)
        ok = ok and neg_log_p(data, FAIR) == 0.0 and log_mlr(data, FAIR) == 0.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, "-logP and logMLR exactly 0 at k=n/2 for even n in [2,100]", ok)
    assert ok, f"elapsed={elapsed:.3f}s"


def test_criterion_02_log_distortion_numbers(report):
    step_hi = math.log(100.0) - math.log(99.0)
    step_lo = math.log(50.0) - math.log(49.0)
    distortion = unit_distortion(math.log, (49.0, 100.0), 1.0)
    ok = (
        abs(step_hi - 0.01) <= 5e-4
        and abs(step_lo - 0.02) <= 5e-4
        and 2.0 <= distortion <= 2.02
    )
    report(2, "log compresses a 1-unit step from 0.02 at 50 to 0.01 at 100", ok)
    assert ok, (step_hi, step_lo, distortion)


def test_criterion_03_two_point_transition_is_half_for_every_n(report):
    y_star = trp_simple(0.25, 0.75)
    h1, h2 = PointHypothesis(0.25), PointHypothesis(0.75)
    residuals = [
        abs(log_slr(BinomialOutcome(float(n), y_star * n, CONTINUOUS), h1, h2))
        for n in (1, 10, 100, 1000)
    ]
    ok = y_star == 0.5 and all(r <= 1e-12 for r in residuals)
    report(3, "transition point of 1/4 vs 3/4 is exactly 1/2, for every n", ok)
    assert ok, (y_star, residuals)


def test_criterion_04_one_sided_transition_drifts_toward_the_null(report):
    start = time.perf_counter()
    h1 = CompositeHypothesis((0.0, 0.5))
    results = [trp_composite(float(n), h1, FAIR) for n in (10, 20, 40, 80, 160)]
    elapsed = time.perf_counter() - start
    values = [r.trp_y for r in results]
    ok = (
        all(b > a for a, b in zip(values, values[1:]))
        and all(r.residual < 1e-8 for r in results)
        and all(v < 0.5 for v in values)
        and elapsed < 5.0
    )
    report(4, "one-sided transition point strictly increases with n, below 1/2", ok)
    assert ok, (values, [r.residual for r in results], elapsed)


def test_criterion_05_two_routes_to_zero_have_different_endpoints(report):
    shrink = zero_path(SHRINK_N)
    ride = zero_path(RIDE_TRP)
    shrink_mags = [abs(p.log_bf) for p in shrink]
    shrink_proxies = [p.against_both for p in shrink]
    ride_proxies = [p.against_both for p in ride]
    ok = (
        all(b < a for a, b in zip(shrink_mags, shrink_mags[1:]))
        and shrink_mags[-1] < 0.05
        and all(b < a for a, b in zip(shrink_proxies, shrink_proxies[1:]))
        and shrink_proxies[-1] < 0.01
        and all(abs(p.log_bf) < 1e-8 for p in ride)
        and all(b > a for a, b in zip(ride_proxies, ride_proxies[1:]))
        and ride_proxies[-1] >= 10.0 * ride_proxies[0]
    )
    report(5, "shrink-n and ride-trp both reach log BF 0 in different states", ok)
    assert ok, (shrink_mags, shrink_proxies, ride_proxies)


def test_criterion_06_closed_form_bayes_factor_matches_quadrature(report):
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for support in ((0.0, 1.0), (0.0, 0.5)):
        h1 = CompositeHypothesis(support)
        for n in range(0, 31):
            for k in range(n + 1):
                got = log_bf(BinomialOutcome(n, k), h1, FAIR)
                expected = quad_log_bf(n, k, support, 0.5)
                worst = max(worst, abs(got - expected))
                cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and cases >= 961 and elapsed < 30.0
    report(6, f"closed-form log BF within 1e-9 of quadrature on {cases} cases", ok)
    assert ok, (worst, cases, elapsed)


def test_criterion_07_p_value_matches_enumeration_and_mlr_at_least_one(report):
    ok = True
    for n in range(1, 26):
        for k in range(n + 1):
            data = BinomialOutcome(n, k)
            expected = float(p_value_fraction(n, k))
            ok = ok and p_value_two_sided(data, FAIR) == expected
            ok = ok and math.exp(log_mlr(data, FAIR)) >= 1.0
    report(7, "exact p-value equals full enumeration for n <= 25; MLR >= 1", ok)
    assert ok


def test_criterion_08_rank_order_disagreement_with_witnesses(report):
    agreement = rank_order_agreement(outcome_grid(30), ["neglogp", "abslogbf"])
    ok = len(agreement.discordant_pairs) >= 1
    null = PointHypothesis(0.5)
    alt = CompositeHypothesis()
    for pair in agreement.discordant_pairs:
        xa = compute_evidence("neglogp", pair.outcome_a, null=null).value
        xb = compute_evidence("neglogp", pair.outcome_b, null=null).value
        ya = compute_evidence("abslogbf", pair.outcome_a, null=null, alternative=alt).value
        yb = compute_evidence("abslogbf", pair.outcome_b, null=null, alternative=alt).value
        reversed_order = (xa > xb and ya < yb) or (xa < xb and ya > yb)
        if not reversed_order:
            ok = False
            break
    report(8, f"-logP and |logBF| reverse order on {len(agreement.discordant_pairs)} pairs", ok)
    assert ok


def test_criterion_09_irrelevant_observations_leave_the_bayes_factor_at_zero(report):
    # The order of the trials carries no information about theta: the count
    # likelihood is the sequence likelihood times C(n, k) under every theta. So
    # log BF from the counts must equal the log of the exact ratio of sequence
    # likelihoods, on the exact path (up to about n = 510 at theta0 = 1/2 and
    # n = 18 at 0.3) and on the float path past it.
    worst = 0.0
    cases = 0
    for theta0 in (0.5, 0.3):
        for a, b in ((1, 1), (2, 5)):
            h1, h2 = CompositeHypothesis((0.0, 1.0), a, b), PointHypothesis(theta0)
            for n in (0, 1, 7, 40, 200, 600):
                for k in sorted({0, n // 3, n}):
                    got = log_bf(BinomialOutcome(n, k), h1, h2)
                    expected = log_fraction(bf_fraction(n, k, theta0, a, b))
                    worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
                    cases += 1
    ok = worst <= 1e-12 and cases >= 60
    report(9, f"the order of the trials adds 0 to log BF: within 1e-12 of the exact "
              f"sequence-likelihood ratio on {cases} cases", ok)
    assert ok, (worst, cases)


CLI_INVOCATIONS = [
    ["compute", "--n", "10", "--k", "5", "--null", "0.5",
     "--kinds", "pvalue,neglogp,mlr,logmlr"],
    ["compute", "--n", "10", "--k", "2", "--bf", "uniform",
     "--kinds", "logbf,abslogbf,bf"],
    ["compute", "--n", "7", "--k", "6", "--kinds", "slr,logslr", "--format", "jsonl"],
    ["figure1", "a", "--n", "10,100", "--grid", "21"],
    ["figure1", "b", "--n", "10,20", "--grid", "11", "--log-base", "10"],
    ["trp", "--setup", "simple", "--n", "1,10,100"],
    ["trp", "--setup", "one-sided", "--n", "10,100"],
    ["trp", "--setup", "two-sided", "--support", "0,1", "--n", "10"],
    ["zero-paths", "--both"],
    ["audit", "transform", "--f", "log", "--interval", "49,100"],
    ["audit", "agreement", "--max-n", "10"],
    ["audit", "difference", "--p-values", "0.05,0.04,0.001"],
]


def test_criterion_10_cli_output_is_byte_identical_across_runs(report):
    ok = True
    for argv in CLI_INVOCATIONS:
        cmd = [sys.executable, "-m", "evlab", *argv]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        same = (
            first.returncode == second.returncode == 0
            and first.stdout == second.stdout
            and first.stdout
        )
        if not same:
            ok = False
            break
    report(10, f"{len(CLI_INVOCATIONS)} CLI invocations byte-identical across runs", ok)
    assert ok, argv
