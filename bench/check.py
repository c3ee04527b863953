"""Correctness check of a run's outputs against independent oracles.

Runs outside the timed region, on a seeded sample of the operations a run
timed. Each sampled operation is executed again here, its output must hash
to the digest the timed run recorded, and its values are then compared with
oracles that do not use evlab's numerics:

- exact p-values by rational enumeration (a single tail built with the
  ratio C(n, j+1) = C(n, j)(n-j)/(j+1), doubled by symmetry);
- likelihood ratios and -log P in 40-digit mpmath arithmetic;
- log Bayes factors from the closed form with ``scipy.special`` incomplete
  beta functions, taking complements where a difference would cancel;
- every reported transition point brackets a sign change of the oracle log
  Bayes factor and reports a residual no larger than ``RESIDUAL_LIMIT``;
- for an agreement audit, every value it ranks against the oracles above,
  then Kendall tau-b against ``scipy.stats.kendalltau`` and discordant-pair
  counts from a full sign matrix (21902 for the README agreement example).

``verify`` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import csv
import io
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
from scipy import special, stats

import workloads
import worker
from evlab import cli, scale
from evlab.evidence import compute_evidence
from evlab.transition import RESIDUAL_LIMIT

mpmath.mp.dps = 40

SAMPLE = {"point-queries": 40, "trp-sweep": 16, "agreement-grid": 4}
README_DISCORDANT = 21902
# Half-width of the interval around a reported root on which the oracle
# must change sign: well above the 12-digit rounding of the printed root
# and the solver tolerance, well below the distance between roots.
SIGN_STEP = 1e-9


class Mismatch(Exception):
    pass


def _close(value: float, expected: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(value - expected) <= abs_ + rel * abs(expected)


def _expect(value: float, expected: float, what: str,
            rel: float = 1e-9, abs_: float = 1e-12) -> None:
    if not _close(value, expected, rel, abs_):
        raise Mismatch(f"{what}: got {value!r}, oracle {float(expected)!r}")


def _rows(output: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output.decode())))


# -- oracles ----------------------------------------------------------------


def p_value(n: int, k: int) -> Fraction:
    """Two-sided P(|K - n/2| >= |k - n/2|) under Binomial(n, 1/2), exactly."""
    low = min(k, n - k)
    if 2 * low == n:
        return Fraction(1)
    tail, term = 0, 1
    for j in range(low + 1):
        tail += term
        term = term * (n - j) // (j + 1)
    return Fraction(2 * tail, 2**n)


def _xlogy(x, y):
    return mpmath.mpf(0) if x == 0 else x * mpmath.log(y)


def log_mlr(n, k, theta0):
    n, k = mpmath.mpf(n), mpmath.mpf(k)
    return (_xlogy(k, k / n) + _xlogy(n - k, (n - k) / n)
            - _xlogy(k, theta0) - _xlogy(n - k, 1 - mpmath.mpf(theta0)))


def log_slr(n, k, t1, t2):
    n, k, t1, t2 = (mpmath.mpf(v) for v in (n, k, t1, t2))
    return _xlogy(k, t1 / t2) + _xlogy(n - k, (1 - t1) / (1 - t2))


def _log_beta_mass(a: float, b: float, lo: float, hi: float) -> float:
    """ln of the integral of t^(a-1) (1-t)^(b-1) over [lo, hi]."""
    i_lo, i_hi = special.betainc(a, b, lo), special.betainc(a, b, hi)
    if i_hi <= 0.5:
        mass = i_hi - i_lo
    elif i_lo >= 0.5:
        mass = special.betaincc(a, b, lo) - special.betaincc(a, b, hi)
    else:
        mass = 1.0 - i_lo - special.betaincc(a, b, hi)
    return special.betaln(a, b) + math.log(mass)


def log_bf(n: float, k: float, support, a: float, b: float, theta0: float) -> float:
    lo, hi = support
    point = (k * math.log(theta0) if k else 0.0) + ((n - k) * math.log1p(-theta0) if n - k else 0.0)
    return _log_beta_mass(k + a, n - k + b, lo, hi) - _log_beta_mass(a, b, lo, hi) - point


def _check_root(n: float, y: float, support, theta0: float, residual: float, what: str) -> None:
    if not 0.0 <= residual <= RESIDUAL_LIMIT:
        raise Mismatch(f"{what}: residual {residual} outside [0, {RESIDUAL_LIMIT}]")
    below = log_bf(n, (y - SIGN_STEP) * n, support, 1.0, 1.0, theta0)
    above = log_bf(n, (y + SIGN_STEP) * n, support, 1.0, 1.0, theta0)
    if not below * above < 0.0:
        raise Mismatch(f"{what}: oracle log BF has no sign change around y={y} "
                       f"({below!r}, {above!r})")


# -- per-subcommand checks ----------------------------------------------------


def _check_compute(args, rows) -> None:
    n, k = args.n, args.k
    for row in rows:
        kind, value = row["kind"], float(row["value"])
        what = f"{kind} at n={n}, k={k}"
        if kind in ("pvalue", "neglogp"):
            p = p_value(int(n), int(k))
            if kind == "pvalue":
                _expect(value, float(p), what)
            else:
                neglogp = -(mpmath.log(p.numerator) - mpmath.log(p.denominator))
                _expect(value, float(neglogp), what, abs_=1e-11)
        elif kind in ("mlr", "logmlr"):
            lm = log_mlr(n, k, args.null)
            _expect(value, float(mpmath.exp(lm) if kind == "mlr" else lm), what, abs_=1e-11)
        elif kind in ("slr", "logslr"):
            ls = log_slr(n, k, args.theta1, args.theta2)
            _expect(value, float(mpmath.exp(ls) if kind == "slr" else ls), what, abs_=1e-11)
        else:
            a, b = args.bf or (1.0, 1.0)
            lb = log_bf(n, k, args.support, a, b, args.null)
            expected = {"logbf": lb, "abslogbf": abs(lb), "bf": math.exp(lb)}[kind]
            _expect(value, expected, what, rel=1e-8, abs_=1e-9)


def _check_figure1(args, rows) -> None:
    curves = [r for r in rows if r["row_type"] == "curve"]
    if len(curves) != len(args.n) * args.grid:
        raise Mismatch(f"figure1: {len(curves)} curve rows for {len(args.n)} n x grid {args.grid}")
    for row in rows:
        n, y, log_es = float(row["n"]), float(row["y"]), float(row["log_es"])
        what = f"figure1 {args.variant} at n={n}, y={y}"
        if args.variant == "a":
            expected = float(log_slr(n, y * n, args.theta1, args.theta2))
        elif row["row_type"] == "trp":
            _check_root(n, y, args.support, args.null, abs(log_es), what)
            continue
        else:
            expected = log_bf(n, y * n, args.support, 1.0, 1.0, args.null)
        # y is printed to 12 digits; the curve's slope in y is O(n).
        _expect(log_es, expected, what, rel=1e-9, abs_=1e-10 + 1e-11 * n)
        if not _close(float(row["abs_log_es"]), abs(log_es), 1e-12, 1e-15):
            raise Mismatch(f"{what}: abs_log_es is not |log_es|")


def _check_trp(args, rows) -> None:
    ns = sorted(set(args.n))
    per_n = 2 if args.setup == "two-sided" else 1
    if [float(r["n"]) for r in rows] != [n for n in ns for _ in range(per_n)]:
        raise Mismatch(f"trp rows {[r['n'] for r in rows]} do not cover n={ns}")
    for row in rows:
        n, y, residual = float(row["n"]), float(row["trp_y"]), float(row["residual"])
        what = f"trp {args.setup} {row['side']} at n={n}"
        if args.setup == "simple":
            t1, t2 = args.theta1, args.theta2
            comp = mpmath.log((1 - mpmath.mpf(t2)) / (1 - mpmath.mpf(t1)))
            _expect(y, float(comp / (mpmath.log(mpmath.mpf(t1) / t2) + comp)), what)
            continue
        _check_root(n, y, args.support, args.null, residual, what)
        side_ok = {"lower": y < args.null, "upper": y > args.null, "": True}[row["side"]]
        if not side_ok:
            raise Mismatch(f"{what}: root {y} on the wrong side of the null")


def _check_zero_paths(args, rows) -> None:
    t1, t2 = args.against
    for row in rows:
        n, y = float(row["n"]), float(row["y"])
        path = row["path"]
        if args.both or args.support is None:
            support = (0.5, 1.0) if path == "shrink-n" else (0.0, 0.5)
        else:
            support = args.support
        null = 0.5 if args.both else args.null
        what = f"zero-paths {path} at n={n}"
        k = y * n
        if path == "ride-trp":
            _check_root(n, y, support, null, abs(float(row["log_bf"])), what)
        else:
            _expect(float(row["log_bf"]), log_bf(n, k, support, 1.0, 1.0, null), what,
                    abs_=1e-10 + 1e-11 * n)
        branch = [
            (_xlogy(mpmath.mpf(k), (mpmath.mpf(k) / n) / th)
             + _xlogy(mpmath.mpf(n - k), ((n - mpmath.mpf(k)) / n) / (1 - mpmath.mpf(th))))
            for th in (t1, t2)
        ]
        _expect(float(row["against_both"]), float(min(branch)), what + " against_both",
                abs_=1e-10 + 1e-11 * n)


def _check_transform(args, rows) -> None:
    (row,) = rows
    name, f = args.f
    lo, hi = args.interval
    steps = [f(x + args.unit) - f(x) for x in np.linspace(lo, hi - args.unit, 2048)]
    _expect(float(row["unit_distortion"]), max(steps) / min(steps), f"{name} unit distortion",
            rel=1e-9)
    flags = {"log": (True, False, False), "exp": (True, False, False),
             "f2c": (True, True, False), "c2f": (True, True, False)}
    if name.startswith("affine:"):
        slope, intercept = (float(v) for v in name[len("affine:"):].split(","))
        expected = (slope > 0, slope > 0, slope > 0 and intercept == 0)
    else:
        expected = flags[name]
    got = tuple(row[c] == "true" for c in ("order_preserving", "affine", "positive_scalar"))
    if got != expected:
        raise Mismatch(f"{name}: scale flags {got}, expected {expected}")


def _check_difference(args, rows) -> None:
    (row,) = rows
    p1, p2, p3 = args.p_values
    for column, expected in (
        ("raw_diff_12", p1 - p2), ("raw_diff_23", p2 - p3),
        ("neglog_diff_12", math.log(p1 / p2)), ("neglog_diff_23", math.log(p2 / p3)),
    ):
        _expect(float(row[column]), expected, column)


def _agreement_value(kind: str, n: int, k: int) -> float:
    """A statistic as `audit agreement` defines it (null 1/2, slr against
    1/4, uniform prior on [0, 1]), from the oracles above."""
    if kind in ("pvalue", "neglogp"):
        p = p_value(n, k)
        if kind == "pvalue":
            return float(p)
        return float(-(mpmath.log(p.numerator) - mpmath.log(p.denominator)))
    if kind == "logmlr":
        return float(log_mlr(n, k, 0.5))
    if kind == "logslr":
        return float(log_slr(n, k, 0.25, 0.5))
    lb = log_bf(n, k, (0.0, 1.0), 1.0, 1.0, 0.5)
    return abs(lb) if kind == "abslogbf" else lb


def _check_agreement(args, rows, readme: bool) -> None:
    config = scale.AgreementConfig()
    kinds = args.kinds
    values = {kind: [] for kind in kinds}
    outcomes = []
    for outcome in scale.outcome_grid(args.max_n, args.min_n):
        try:
            row = [compute_evidence(kind, outcome, null=config.null,
                                    alternative=config.alternative_for(kind)).value
                   for kind in kinds]
        except (ValueError, RuntimeError):
            continue
        outcomes.append(outcome)
        for kind, value in zip(kinds, row):
            # Each value the audit ranks must match the oracle. Values equal
            # in exact arithmetic (log BF at k and n - k) differ in their last
            # bits, and how the audit orders those is the program's own.
            _expect(value, _agreement_value(kind, outcome.n, outcome.k),
                    f"{kind} at n={outcome.n}, k={outcome.k}", abs_=1e-11)
            values[kind].append(value)
    arrays = {kind: np.array(v) for kind, v in values.items()}
    signs = {kind: np.sign(a[:, None] - a[None, :]) for kind, a in arrays.items()}
    upper = np.triu(np.ones((len(outcomes), len(outcomes)), dtype=bool), 1)

    taus = [r for r in rows if r["row_type"] == "tau"]
    for row in taus:
        kx, ky = row["kind_x"], row["kind_y"]
        expected = stats.kendalltau(arrays[kx], arrays[ky]).statistic
        _expect(float(row["tau"]), float(expected), f"tau({kx}, {ky})", abs_=1e-11)
    if len(taus) != len(kinds) * (len(kinds) + 1) // 2:
        raise Mismatch(f"agreement: {len(taus)} tau rows for {len(kinds)} kinds")

    discordant = sum(
        int(np.count_nonzero((signs[kx] * signs[ky] < 0) & upper))
        for i, kx in enumerate(kinds) for ky in kinds[i + 1:]
    )
    witnesses = [r for r in rows if r["row_type"] == "discordant"]
    expected = discordant if args.max_witnesses is None else min(discordant, args.max_witnesses)
    if len(witnesses) != expected:
        raise Mismatch(f"agreement: {len(witnesses)} witness rows, expected {expected}")
    if readme and discordant != README_DISCORDANT:
        raise Mismatch(f"README agreement example: {discordant} discordant pairs, "
                       f"expected {README_DISCORDANT}")
    index = {(o.n, o.k): i for i, o in enumerate(outcomes)}
    for row in witnesses:
        a = index[(int(row["n_a"]), int(row["k_a"]))]
        b = index[(int(row["n_b"]), int(row["k_b"]))]
        for kind, first, second in ((row["kind_x"], "x_a", "x_b"), (row["kind_y"], "y_a", "y_b")):
            for i, column in ((a, first), (b, second)):
                _expect(float(row[column]), values[kind][i], f"witness {column}", abs_=1e-11)
        kx, ky = row["kind_x"], row["kind_y"]
        # Compared unrounded: printed to 12 digits, a pair may look tied.
        if not (values[kx][a] - values[kx][b]) * (values[ky][a] - values[ky][b]) < 0:
            raise Mismatch(f"witness {row} is not discordant")


_CHECKS = {
    "cmd_compute": _check_compute,
    "cmd_figure1": _check_figure1,
    "cmd_trp": _check_trp,
    "cmd_zero_paths": _check_zero_paths,
    "cmd_audit_transform": _check_transform,
    "cmd_audit_difference": _check_difference,
}


def check_output(op: workloads.Op, output: bytes) -> None:
    """Raise Mismatch if the output of a successful operation is wrong."""
    args = cli.build_parser().parse_args(list(op.argv))
    rows = _rows(output)
    handler = args.handler.__name__
    if handler == "cmd_audit_agreement":
        _check_agreement(args, rows, readme=op.kind == "readme")
    elif handler in _CHECKS:
        _CHECKS[handler](args, rows)
    else:
        raise Mismatch(f"no oracle for {handler}")


def sample(workload: str, seed: int, ops: list) -> list[tuple[workloads.Op, str]]:
    """The operations to check: each README example the run timed, plus a
    seeded sample of the others. `ops` holds [block, position, status,
    digest] for every timed operation."""
    blocks: dict[int, list[workloads.Op]] = {}
    readme, others = {}, []
    for block, position, _, digest in ops:
        if block not in blocks:
            blocks[block] = workloads.block(workload, seed, block)
        op = blocks[block][position]
        if op.kind == "readme":
            readme.setdefault(op.argv, (op, digest))
        else:
            others.append((op, digest))
    rng = random.Random(f"check/{workload}/{seed}")
    return list(readme.values()) + rng.sample(others, min(SAMPLE[workload], len(others)))


def verify(workload: str, seed: int, ops: list) -> list[str]:
    problems = []
    for op, digest in sample(workload, seed, ops):
        line = " ".join(op.argv)
        result = worker.execute(op)
        if worker.digest(result.output) != digest:
            problems.append(f"{line}: output differs from the timed run's")
            continue
        if result.failed(op.expect):
            continue  # the caller reports a failed timed operation on its own
        try:
            check_output(op, result.output)
        except Mismatch as err:
            problems.append(f"{line}: {err}")
        except (ArithmeticError, ValueError) as err:
            problems.append(f"{line}: the oracle could not evaluate this output: {err!r}")
    return problems
