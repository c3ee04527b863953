"""Benchmark of the evlab CLI: one workload, one seed, one run.

    python3 bench/run.py --workload point-queries --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--workload all`` runs each workload in turn, as its own run, and fails if
any of them fails.

Run from the root of a checkout; it builds nothing, imports evlab from
``src/`` and writes only under ``bench/out/``. Steps:

1. The workload runs in a fresh worker process (worker.py), so its peak RSS
   is the workload's own. ``--trace 0`` times the mix; ``--trace 1`` traces
   every evlab layer instead (tracing.py) and replays the mix untraced.
2. A timed operation that fails makes the run fail: the timed mix draws only
   inputs a correct program answers.
3. A seeded sample of the timed operations is executed again here and
   checked against independent oracles (check.py). A wrong value makes the
   run fail: ``"correct": false`` and exit status 1.

End-to-end metrics, each printed with its sample count. The three timings
are not gated (see ``UNGATED``); the result line carries the other three:

- ``ops_per_s``: timed operations per second of call time (the harness's
  own work between calls is not counted);
- ``latency_p50_ms``: the mean, over the run's complete blocks
  (workloads.py), of a block's median call latency;
- ``latency_p90_ms``: the mean, over windows of consecutive blocks with at
  least 100 operations, of a window's 90th-percentile call latency;
- ``peak_rss_mb``: the worker's ``ru_maxrss``;
- ``setup_s``: the median wall time for a fresh interpreter to start and
  ``import evlab, evlab.cli``, over launches the worker takes between blocks,
  spread evenly over the timed run;
- ``ok_ops_ratio``: the share of operations, timed ones and probes, that did
  not fail. ``failed_ops_ratio`` (its complement) is printed beside it; the
  gated metric is the complement because a correct program fails nothing,
  and a gated metric must not read 0.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` (timed operations only; the probe
set is reported separately) and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 170

UNITS = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s", "ok_ops_ratio": "ratio",
}
# Printed with every run but kept out of the result line and BENCHMARK.json,
# so no bound applies to them. On a shared 2-vCPU Xeon VM the machine's
# speed switches between levels up to 1.7x apart for seconds to minutes;
# over ten seeds their spread, and the shift of their median between two
# sets of runs, came near or past 0.25, the largest bound a gated metric
# may have. A claimed speed-up is judged from them over paired runs.
UNGATED = ("ops_per_s", "latency_p50_ms", "latency_p90_ms")


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_note(load_start, load_end, report: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "run_wall_s": report["wall_s"],
        "run_cpu_s": report["cpu_s"],
    }


def run_each(args: argparse.Namespace, workload: str) -> int:
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(argv, cwd=ROOT, timeout=WORKER_TIMEOUT_S + 60).returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "evlab" / "cli.py").is_file():
        print(f"bench: evlab sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return max(run_each(args, workload) for workload in workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    env = _env()
    load_start = os.getloadavg()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"bench: worker exited with status {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.splitlines()[-1])
    (BENCH / "out" / f"report-{args.workload}.json").write_text(
        json.dumps({k: v for k, v in report.items() if k != "ops"}, indent=1))
    # Imported only now: the worker's peak RSS counts from the size of this
    # process when it was started, and the oracles pull in scipy.
    sys.path.insert(0, str(SRC))
    import check
    import tracing

    # The timed mix draws only inputs a correct program answers, so a timed
    # operation that fails is a wrong result, not a failure rate to report.
    problems = [f"{argv}: timed operation failed (status {status})"
                for status, argv in report["failed_ops"]]
    problems += check.verify(args.workload, args.seed, report["ops"])
    problems += [f"{line}: traced output differs from untraced"
                 for line in report.get("traced_vs_untraced_mismatches", ())]
    load_end = os.getloadavg()

    attempted = report["attempted"] + len(report["probes"])
    failed = report["failed"] + report["probe_failures"]
    if args.trace:
        shown = {name: {"value": report["metrics"][name], "unit": tracing.UNITS[name]}
                 for name in tracing.METRICS}
    else:
        values = {name: report[name] for name in ("ops_per_s", "latency_p50_ms",
                                                  "latency_p90_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(report["setup_s"])
        values["ok_ops_ratio"] = 1.0 - failed / attempted
        shown = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    metrics = {name: metric for name, metric in shown.items() if name not in UNGATED}

    print(json.dumps({"machine": machine_note(load_start, load_end, report)}))
    blocks = f"{report.get('blocks', 0)} blocks of {report['attempted']} ops"
    samples = {"latency_p50_ms": blocks,
               "latency_p90_ms": f"{report.get('windows', 0)} windows of {report['attempted']} ops",
               "setup_s": f"{len(report.get('setup_s', ()))} launches", "peak_rss_mb": "1 process",
               "ok_ops_ratio": f"{attempted} ops"}
    for name, metric in shown.items():
        n = samples.get(name, f"{report['attempted']} ops")
        gate = ", not gated" if name in UNGATED else ""
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}  (n = {n}{gate})")
    print(f"{args.workload}  failed_ops_ratio = {failed / attempted:.6g} ratio  "
          f"(n = {attempted} ops: {report['attempted']} timed, {len(report['probes'])} probes)")
    for probe in report["probes"]:
        print(f"probe {probe['kind']}: {'FAILED' if probe['failed'] else 'ok'} "
              f"(status {probe['status']}) {probe['argv']}")
    for problem in problems:
        print(f"WRONG: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
