"""Seeded operation generators for the benchmark workloads.

An operation is one ``evlab`` command line. Each workload is an endless
sequence of blocks; block ``i`` of a seed depends only on the workload, the
seed and ``i``, so a run that completes more blocks sees a longer prefix of
the same sequence. Every block has the same mix of operation kinds, and the
numeric inputs inside a block are stratified (one draw per equal-probability
stratum, paired in a random order), so that a block is a small but
representative sample and run-to-run differences come from the program, not
from the luck of the draw. The few strata that hold a workload's slowest
operations take fixed values, the same in every block and every seed: a
block's time and its slowest operations would otherwise depend on a handful
of draws.

The timed mix is drawn from inputs the program answers: statistics whose
value is representable as a double, roots that exist and the range of n that
``figure1 b`` handles. The inputs the program is known to fail on are the
probe set (``probes``), which runs untimed and is reported on its own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("point-queries", "trp-sweep", "agreement-grid")

# A statistic whose natural log exceeds this does not fit in a double
# (ln DBL_MAX is about 709.78); the margin keeps exp() and the matching
# p-value (>= e^-LOG_VALUE_LIMIT / (n+1)) clear of overflow and underflow.
LOG_VALUE_LIMIT = 700.0
# Largest n for which `figure1 b` answers on every y of its grid (the
# posterior mass on [0, 1/2] underflows at y = 0.99 from n = 1166).
FIGURE1_B_MAX_N = 1000

AGREEMENT_KINDS = ("pvalue", "neglogp", "logmlr", "logslr", "logbf", "abslogbf")
WITNESS_CAP = "100"


@dataclass(frozen=True)
class Op:
    """One command line. ``expect`` is what a correct program does with it:
    "ok" (exit 0, no row with an error) or "usage" (exit 2, usage message)."""

    kind: str
    argv: tuple[str, ...]
    expect: str = "ok"


def _op(kind: str, line: str, expect: str = "ok") -> Op:
    return Op(kind, tuple(line.split()), expect)


# Every example in the README's command-line section. `--out` is rewritten
# by the runner to a file in its own output directory.
README = {
    "point-queries": [
        _op("readme", "compute --n 10 --k 5 --null 0.5 --kinds neglogp,logmlr"),
        _op("readme", "compute --n 10 --k 2 --bf uniform --kinds logbf,abslogbf"),
        _op("readme", "compute --n 7 --k 6 --kinds slr,logslr"),
        _op("readme", "audit transform --f log --interval 49,100"),
        _op("readme", "audit transform --f affine:2,0"),
        _op("readme", "audit difference --p-values 0.05,0.04,0.001"),
    ],
    "trp-sweep": [
        _op("readme", "figure1 a --n 10,100"),
        _op("readme", "figure1 b --n 10,100 --grid 199 --out curves.csv"),
        _op("readme", "trp --setup simple --n 1,10,100"),
        _op("readme", "trp --setup one-sided --n 10,100,1000"),
        _op("readme", "trp --setup two-sided --support 0,1 --n 10"),
        _op("readme", "zero-paths --both"),
        _op("readme", "zero-paths shrink-n --y 0.9"),
        _op("readme", "zero-paths ride-trp --n 10,100,1000"),
    ],
    "agreement-grid": [
        _op("readme", "audit agreement --max-n 30 --kinds neglogp,abslogbf"),
    ],
}

# Known-defect probes. Each names the defect class it exposes; at the seed
# commit every "ok" probe below fails and every "usage" probe exits 1.
PROBES = {
    "point-queries": [
        _op("probe.neglogp-underflow", "compute --n 3000 --k 10"),
        _op("probe.mlr-range", "compute --n 5000 --k 1000 --kinds mlr"),
        _op("probe.bf-range", "compute --n 100000 --k 40000 --bf uniform --kinds bf"),
        _op("probe.slr-range", "compute --n 5000 --k 100 --kinds slr,logslr"),
        _op("probe.mass-cancellation", "compute --n 146 --k 0 --bf uniform --support 0.5,1"),
        _op("probe.transform-default", "audit transform"),
        _op("probe.bad-grid", "audit transform --f log --interval 49,100 --grid 3", "usage"),
    ],
    "trp-sweep": [
        _op("probe.figure1-underflow", "figure1 b --n 1500 --grid 50"),
        _op("probe.figure1-underflow", "figure1 b --n 2000 --grid 99"),
        _op("probe.figure1-underflow", "figure1 b --n 100000 --grid 200"),
        _op("probe.cf-cap", "trp --setup one-sided --n 1000000"),
        _op("probe.cf-cap", "trp --setup two-sided --support 0.1,0.9 --n 10000000"),
        _op("probe.cf-cap", "zero-paths ride-trp --n 1000000,10000000"),
        _op("probe.bad-tol", "trp --tol 0", "usage"),
    ],
    "agreement-grid": [
        _op("probe.empty-grid", "audit agreement --max-n 1", "usage"),
        _op("probe.empty-grid", "audit agreement --min-n 12 --max-n 10", "usage"),
    ],
}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # A string seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{index}")


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw from each of `count` equal strata of [0, 1), shuffled."""
    draws = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(draws)
    return draws


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _g(x: float) -> str:
    return format(x, ".6g")


def _log_mlr(n: int, k: int) -> float:
    """ln of the maximum likelihood ratio against theta0 = 1/2."""
    out = n * math.log(2.0)
    for c in (k, n - k):
        if c:
            out += c * math.log(c / n)
    return out


def _k_range(n: int) -> tuple[int, int]:
    """Successes k whose likelihood ratio against 1/2 fits in a double."""
    k = 0
    if _log_mlr(n, 0) > LOG_VALUE_LIMIT:
        lo, hi = 0, n // 2  # _log_mlr(n, lo) too large, _log_mlr(n, hi) small
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _log_mlr(n, mid) > LOG_VALUE_LIMIT else (lo, mid)
        k = hi
    return k, n - k


def _pick(u: float, lo: int, hi: int) -> int:
    """The integer in [lo, hi] at quantile u."""
    return min(hi, lo + int(u * (hi - lo + 1)))


def _n_lists(rng: random.Random, counts: list[int], lo: float, hi: float) -> list[str]:
    """Comma-separated n lists of the given lengths. The n values of all
    lists together are one stratified log-uniform sample of [lo, hi]."""
    values = [round(_log_uniform(u, lo, hi)) for u in _strata(rng, sum(counts))]
    lists, start = [], 0
    for count in counts:
        lists.append(",".join(str(v) for v in sorted(set(values[start:start + count]))))
        start += count
    return lists


# Default-kind queries per block, and the generator of the rank-1 lattice
# that pairs their n strata with k strata (29 is coprime to 48 and close to
# 48 / golden ratio). The p-value's cost grows steeply with n and with the
# length of its tail, so neighbouring n strata get well-separated k strata
# and every block has the same spread of costs.
DEFAULT_QUERIES = 48
LATTICE_STEP = 29
# The default-kind strata from this one up (n from about 440) hold the
# queries whose exact p-value takes from a few ms to half a second; they set
# a block's time and its 90th percentile. They take the centre of their n
# and k strata, so that this tail is the same in every block and every seed.
FIXED_FROM = 36


def _point_queries(rng: random.Random) -> list[Op]:
    ops = []
    # Default kinds: n log-uniform on [1, 3000], k uniform on the outcomes
    # whose statistics are finite.
    for i in range(DEFAULT_QUERIES):
        jn, jk = (0.5, 0.5) if i >= FIXED_FROM else (rng.random(), rng.random())
        un = (i + jn) / DEFAULT_QUERIES
        uk = ((i * LATTICE_STEP) % DEFAULT_QUERIES + jk) / DEFAULT_QUERIES
        n = round(_log_uniform(un, 1, 3000))
        k = _pick(uk, *_k_range(n))
        ops.append(_op("compute.default", f"compute --n {n} --k {k}"))
    # Composite Bayes factors, n up to 1e5, observed proportion inside the
    # prior support with a margin of several posterior standard deviations.
    for un, uk in zip(_strata(rng, 20), _strata(rng, 20)):
        n = round(_log_uniform(un, 1, 1e5))
        k = _pick(uk, *_k_range(n))
        y = k / n
        margin = 0.02 + 6.0 * math.sqrt(max(y * (1.0 - y), 1.0 / n) / n)
        lo = 0.0 if y - margin <= 0.0 else rng.uniform(0.0, y - margin)
        hi = 1.0 if y + margin >= 1.0 else rng.uniform(y + margin, 1.0)
        a, b = rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)
        ops.append(_op(
            "compute.bf",
            f"compute --n {n} --k {k} --bf beta:{_g(a)},{_g(b)} --support {_g(lo)},{_g(hi)} "
            "--kinds logbf,bf,abslogbf",
        ))
    # Simple likelihood ratios (0.25 vs 0.75): |n - 2k| ln 3 must fit.
    for un, uk in zip(_strata(rng, 8), _strata(rng, 8)):
        n = round(_log_uniform(un, 1, 3000))
        spread = min(n, int(LOG_VALUE_LIMIT / math.log(3.0)))
        lo = max(0, math.ceil((n - spread) / 2))
        k = _pick(uk, lo, n - lo)
        ops.append(_op("compute.slr", f"compute --n {n} --k {k} --kinds slr,logslr"))
    return ops


def _one_sided_support(rng: random.Random) -> str:
    # One edge sits on the null 1/2, as in the paper's setups: with a gap
    # between support and null the posterior mass on the support underflows
    # at large n for data near the null.
    width = rng.uniform(0.1, 0.5)
    if rng.random() < 0.5:
        return f"{_g(0.5 - width)},0.5"
    return f"0.5,{_g(0.5 + width)}"


def _two_sided_support(rng: random.Random) -> str:
    # Symmetric about the null, half-width >= 0.2: both roots exist from n = 7.
    half = rng.uniform(0.2, 0.5)
    return f"{_g(0.5 - half)},{_g(0.5 + half)}"


def _trp_sweep(rng: random.Random) -> list[Op]:
    # Each kind of operation has a fixed set of list lengths per block, and
    # the n values of a kind are stratified across the block, so every block
    # solves the same number of roots over the same spread of n.
    ops = []
    for n in _n_lists(rng, [1, 2, 3, 4, 5] * 2, 1, 1e5):
        ops.append(_op("trp.one-sided",
                       f"trp --setup one-sided --support {_one_sided_support(rng)} --n {n}"))
    for n in _n_lists(rng, [1, 2, 2, 3], 10, 1e5):
        ops.append(_op("trp.two-sided",
                       f"trp --setup two-sided --support {_two_sided_support(rng)} --n {n}"))
    for n in _n_lists(rng, [1, 3, 5], 1, 1e5):
        ops.append(_op("zero-paths.ride-trp",
                       f"zero-paths ride-trp --support {_one_sided_support(rng)} --n {n}"))
    grids = [50 + int(u * 151) for u in _strata(rng, 3)]
    for n, grid in zip(_n_lists(rng, [1, 2, 1], 1, FIGURE1_B_MAX_N), grids):
        ops.append(_op("figure1.b", f"figure1 b --n {n} --grid {grid}"))
    return ops


# Statistic pairs ordered by how often they disagree on the ranking of two
# outcomes (from 0.5% for neglogp/logmlr to 99% for pvalue/neglogp), which
# sets how many witnesses an operation builds and writes.
AGREEMENT_PAIRS = (
    ("neglogp", "logmlr"), ("logmlr", "logbf"), ("neglogp", "logbf"),
    ("neglogp", "abslogbf"), ("logmlr", "abslogbf"), ("logbf", "abslogbf"),
    ("logslr", "logbf"), ("neglogp", "logslr"), ("logmlr", "logslr"),
    ("logslr", "abslogbf"), ("pvalue", "logslr"), ("pvalue", "abslogbf"),
    ("pvalue", "logbf"), ("pvalue", "logmlr"), ("pvalue", "neglogp"),
)


# Stratum j of the window end b goes to kind set (j * AGREEMENT_STRIDE) mod
# 16, and kind sets alternate capped and uncapped in disagreement order, so
# a block's cost does not depend on which pair drew a wide window. The upper
# strata, from FIXED_STRATA_FROM, hold the slow operations (the pair loop is
# O(m^2) in a window's m outcomes); they take the centre of their stratum
# and a window of four trial counts, so that a block's slowest operations
# are the same in every block and every seed.
AGREEMENT_STRIDE = 3
FIXED_STRATA_FROM = 8


def _agreement_grid(rng: random.Random) -> list[Op]:
    # Every block has each statistic pair once and one triple. Windows end
    # at b, stratified over [8, 26], and span 3 to 5 trial counts.
    kind_sets = [list(pair) for pair in AGREEMENT_PAIRS] + [rng.sample(AGREEMENT_KINDS, 3)]
    count = len(kind_sets)
    ops = []
    for j in range(count):
        i = (j * AGREEMENT_STRIDE) % count
        if j >= FIXED_STRATA_FROM:
            b = _pick((j + 0.5) / count, 8, 26)
            a = b - 3
        else:
            b = _pick((j + rng.random()) / count, 8, 26)
            a = rng.randint(b - 4, b - 2)
        cap = i % 2 == 1
        flag = f" --max-witnesses {WITNESS_CAP}" if cap else ""
        ops.append(_op(
            "agreement.capped" if cap else "agreement.uncapped",
            f"audit agreement --min-n {a} --max-n {b} --kinds {','.join(kind_sets[i])}{flag}",
        ))
    return ops


_BLOCKS = {
    "point-queries": _point_queries,
    "trp-sweep": _trp_sweep,
    "agreement-grid": _agreement_grid,
}


# README examples per block, taken in turn: 5% of point-queries operations,
# one per block elsewhere.
README_PER_BLOCK = {"point-queries": 4, "trp-sweep": 1, "agreement-grid": 1}


def block(workload: str, seed: int, index: int) -> list[Op]:
    """Block `index` of the workload's operation sequence for `seed`, in a
    seeded order. Blocks carry README examples in turn, so every example
    recurs in the timed mix."""
    rng = _rng(workload, seed, index)
    examples = README[workload]
    count = README_PER_BLOCK[workload]
    ops = _BLOCKS[workload](rng) + [
        examples[(index * count + i) % len(examples)] for i in range(count)
    ]
    rng.shuffle(ops)
    return ops


def probes(workload: str) -> list[Op]:
    return list(PROBES[workload])


def warmup(workload: str) -> list[Op]:
    """Untimed operations run before timing starts: the README examples."""
    return list(README[workload])
