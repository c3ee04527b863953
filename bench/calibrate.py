"""Re-measures the baseline numbers listed under ROADMAP open item 1.

    python3 bench/calibrate.py            # writes bench/calibration.json

These are informational numbers for correcting the ROADMAP, not benchmark
metrics. Each case runs in its own fresh interpreter (so its peak RSS is its
own) through the same in-process call as the benchmark: one untimed call,
then the median of ``REPEATS`` timed calls. The n=20000 p-value case (about
three minutes) is left out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

import run
from run import BENCH, ROOT, SRC

REPEATS = 3

# ROADMAP open item 1 gives no k for the compute cases; k = 0.45 n keeps the
# p-value tail long, which is what makes the exact sum expensive.
CASES = (
    ("compute n=1000", "compute --n 1000 --k 450"),
    ("compute n=5000", "compute --n 5000 --k 2250"),
    ("figure1 b --n 10,100 --grid 999", "figure1 b --n 10,100 --grid 999"),
    ("trp --n 10,100,1000", "trp --n 10,100,1000"),
    ("audit agreement --max-n 30", "audit agreement --max-n 30"),
    ("audit agreement --max-n 50", "audit agreement --max-n 50"),
)


def run_case(line: str) -> dict:
    import worker
    from workloads import Op

    op = Op("calibration", tuple(line.split()))
    worker.execute(op)
    seconds = [worker.execute(op).seconds for _ in range(REPEATS)]
    return {
        "seconds_median": statistics.median(seconds),
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def log_gamma_per_call() -> dict:
    from evlab.numerics import log_gamma

    xs = [0.5 + 0.37 * i for i in range(1000)]
    out = {}
    for name, fn in (("evlab_log_gamma_us", log_gamma), ("math_lgamma_us", math.lgamma)):
        best = min(timeit.repeat(lambda: [fn(x) for x in xs], number=20, repeat=5))
        out[name] = best / (20 * len(xs)) * 1e6
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", help=argparse.SUPPRESS)
    parser.add_argument("--out", default=str(BENCH / "calibration.json"))
    args = parser.parse_args()
    if args.case is not None:
        sys.path.insert(0, str(SRC))
        print(json.dumps(run_case(args.case)))
        return 0
    env = run._env()
    cases = []
    for name, line in CASES:
        proc = subprocess.run([sys.executable, __file__, "--case", line], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=600)
        cases.append({"name": name, "argv": line, **json.loads(proc.stdout)})
        print(f"{name}: {cases[-1]['seconds_median'] * 1e3:.1f} ms, "
              f"{cases[-1]['peak_rss_mb']:.1f} MB", flush=True)
    sys.path.insert(0, str(SRC))
    per_call = log_gamma_per_call()
    print(f"log_gamma: {per_call['evlab_log_gamma_us']:.3f} us/call, "
          f"math.lgamma: {per_call['math_lgamma_us']:.3f} us/call")
    record = {
        "machine": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": run._cpu_model(),
            "loadavg": os.getloadavg(),
        },
        "repeats": REPEATS,
        "cases": cases,
        "per_call": per_call,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
