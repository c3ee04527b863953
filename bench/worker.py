"""Runs one workload in this process and prints its measurements as JSON.

Started by run.py in a fresh interpreter that imports only evlab and the
standard library, so the peak RSS it reports belongs to the workload. Every
operation is one in-process call of ``evlab.cli.main(argv)`` with stdout and
stderr captured; a single caller runs them back to back (a closed loop with
one client).

    python3 bench/worker.py --workload trp-sweep --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it times the mix for ``--seconds``, taking a start-up
launch of a fresh interpreter (``setup_s``) between blocks every
``--seconds / SETUP_LAUNCHES`` seconds, and then runs the probe set untimed.
With ``--trace 1`` it runs the same mix with every public evlab function
wrapped (tracing.py), then replays the first of the same operations
untraced, for a third of ``--seconds``, to measure the tracing overhead and
to compare outputs byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import Op

import evlab.cli

OUT_DIR = Path(__file__).resolve().parent / "out"
# Start-up launches per timed run, spread evenly over it between blocks.
SETUP_LAUNCHES = 15
LAUNCH_TIMEOUT_S = 60
# Operations a latency_p90_ms window holds at least, so that ten or more of
# them lie beyond its 90th percentile.
P90_WINDOW_OPS = 100


@dataclass
class Result:
    status: int | str
    output: bytes
    seconds: float

    def failed(self, expect: str) -> bool:
        if expect == "usage":
            return self.status != 2
        return self.status != 0 or _has_error_row(self.output)


def _has_error_row(output: bytes) -> bool:
    """True if the CSV output has an `error` column with a non-empty cell."""
    text = output.decode()
    header, _, body = text.partition("\n")
    if "error" not in header.split(","):
        return False
    column = header.split(",").index("error")
    return any(row[column] for row in csv.reader(io.StringIO(body)))


def _argv(op: Op) -> tuple[list[str], Path | None]:
    """The op's argv, with any --out path moved into the output directory."""
    argv = list(op.argv)
    if "--out" not in argv:
        return argv, None
    i = argv.index("--out") + 1
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / Path(argv[i]).name
    argv[i] = str(path)
    return argv, path


def execute(op: Op, main=None) -> Result:
    """Call evlab.cli.main once; only the call itself is timed."""
    main = main or evlab.cli.main
    argv, out_path = _argv(op)
    out, err = io.StringIO(), io.StringIO()
    # Start every call from an empty collector, as a fresh process would,
    # so its time does not depend on the garbage the previous call left.
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is a failed operation, kept by type
            status = f"raised {type(exc).__name__}"
        seconds = time.perf_counter() - start
    output = out.getvalue().encode()
    if out_path is not None and out_path.exists():
        output += out_path.read_bytes()
        out_path.unlink()
    return Result(status, output, seconds)


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


@dataclass(slots=True)
class Record:
    """What a run keeps of one timed operation: its output only as a digest,
    and not its command line, which is generated again from the block when
    needed. The worker's peak RSS then grows little with the number of
    operations a run completes, and stays the program's, not the harness's."""

    block: int
    position: int
    status: int | str
    seconds: float
    failed: bool
    digest: str


class Mix:
    """The timed operations of one run, block by block."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.records: list[Record] = []
        self.blocks: list[list[Record]] = []  # the blocks run to the end
        self.bytes_out = 0
        self._generated: tuple[int, list[Op]] = (-1, [])

    def op(self, record: Record) -> Op:
        """The operation a record timed."""
        if self._generated[0] != record.block:
            self._generated = (record.block,
                               workloads.block(self.workload, self.seed, record.block))
        return self._generated[1][record.position]

    def _record(self, block: int, position: int, op: Op, result: Result) -> Record:
        self.bytes_out += len(result.output)
        return Record(block, position, result.status, result.seconds,
                      result.failed(op.expect), digest(result.output))

    def run(self, seconds: float, main=None, between_blocks=None) -> None:
        """Run blocks until `seconds` have passed; the time spent in
        `between_blocks` (returned by it) is added to the deadline."""
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            block = workloads.block(self.workload, self.seed, index)
            done = []
            for position, op in enumerate(block):
                done.append(self._record(index, position, op, execute(op, main)))
                if time.perf_counter() >= deadline:
                    break
            self.records += done
            if len(done) == len(block):
                self.blocks.append(done)
            index += 1
            if between_blocks is not None:
                deadline += between_blocks()

    def replay(self, seconds: float) -> list[Record]:
        """The operations again, untraced and in order, for about `seconds`."""
        deadline = time.perf_counter() + seconds
        replayed = []
        for r in self.records:
            op = self.op(r)
            replayed.append(self._record(r.block, r.position, op, execute(op)))
            if time.perf_counter() >= deadline:
                break
        return replayed

    def summary(self) -> dict:
        return {
            "attempted": len(self.records),
            "failed": sum(r.failed for r in self.records),
            "ops": [[r.block, r.position, r.status, r.digest] for r in self.records],
            "failed_ops": [[r.status, " ".join(self.op(r).argv)]
                           for r in self.records if r.failed],
        }


def launch_seconds() -> float:
    """Wall time for a fresh interpreter to start and import evlab.cli.

    The wait is a blocking waitpid: ``subprocess.run(timeout=...)`` polls in
    sleeps of up to 50 ms and would round the time up to its next poll."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import evlab, evlab.cli"],
                            stdout=subprocess.DEVNULL)
    timer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    timer.start()
    status = proc.wait()
    seconds = time.perf_counter() - start
    timer.cancel()
    if status != 0:
        raise RuntimeError(f"importing evlab.cli in a fresh interpreter exited with {status}")
    return seconds


class SetupClock:
    """Takes a start-up launch between blocks every `interval` seconds, so
    that the launches sample the whole run and not one moment of it."""

    def __init__(self, interval: float):
        self.interval = interval
        self.due = time.perf_counter()
        self.launches: list[float] = []

    def __call__(self) -> float:
        now = time.perf_counter()
        if now < self.due:
            return 0.0
        self.launches.append(launch_seconds())
        self.due = now + self.interval
        return time.perf_counter() - now


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _windows(blocks: list[list[Record]], min_ops: int) -> list[list[Record]]:
    """Consecutive blocks joined until each group has at least `min_ops`
    operations (all of them as one group if they have fewer)."""
    windows, current = [], []
    for block in blocks:
        current = current + block
        if len(current) >= min_ops:
            windows.append(current)
            current = []
    return windows or [current]


def _probe_report(workload: str, main=None) -> tuple[int, list[dict]]:
    failures, rows = 0, []
    for op in workloads.probes(workload):
        result = execute(op, main)
        failed = result.failed(op.expect)
        failures += failed
        rows.append({"kind": op.kind, "argv": " ".join(op.argv), "status": result.status,
                     "failed": failed})
    return failures, rows


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    for op in workloads.warmup(workload):
        execute(op)
    launch_seconds()  # warms the file cache for the launches that count
    mix = Mix(workload, seed)
    setup = SetupClock(seconds / SETUP_LAUNCHES)
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    mix.run(seconds, between_blocks=setup)
    # The launches' wall time is taken out, as their CPU time is not this
    # process's.
    wall = time.perf_counter() - wall0 - sum(setup.launches)
    cpu = _cpu_seconds() - cpu0
    probe_failures, probe_rows = _probe_report(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Every block has the same mix, so blocks are comparable samples. The
    # machine's speed switches between levels up to 1.7x apart, for seconds
    # to minutes at a time. A median over blocks jumps from one level to the
    # other as the share of the run spent at each crosses a half; a mean
    # moves in proportion to that share, and over ten seeds it spread about
    # half as much.
    blocks = mix.blocks or [mix.records]
    windows = _windows(blocks, P90_WINDOW_OPS)
    medians = [1e3 * statistics.median(r.seconds for r in b) for b in blocks]
    p90s = [1e3 * _percentile([r.seconds for r in w], 90) for w in windows]
    return {
        **mix.summary(),
        "blocks": len(blocks),
        "windows": len(windows),
        "block_medians_ms": medians,
        "window_p90s_ms": p90s,
        "ops_per_s": len(mix.records) / sum(r.seconds for r in mix.records),
        "latency_p50_ms": statistics.mean(medians),
        "latency_p90_ms": statistics.mean(p90s),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup.launches,
        "probes": probe_rows,
        "probe_failures": probe_failures,
        "wall_s": wall,
        "cpu_s": cpu,
    }


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    import tracing

    for op in workloads.warmup(workload):
        execute(op)
    tracer = tracing.Tracer()
    mix = Mix(workload, seed)
    with tracer.installed():
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        mix.run(seconds, tracer.call_main)
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
        metrics = tracer.metrics(len(mix.records))
        probe_failures, probe_rows = _probe_report(workload, tracer.call_main)
    metrics.update(tracer.failure_metrics(len(mix.records) + len(probe_rows)))
    tracer.write_spans(OUT_DIR / f"spans-{workload}.tsv")
    metrics["cli.bytes_out"] = mix.bytes_out / len(mix.records)
    replay = mix.replay(seconds / 3)
    metrics["trace.overhead_ratio"] = (
        sum(r.seconds for r in mix.records[:len(replay)]) / sum(r.seconds for r in replay)
    )
    return {
        **mix.summary(),
        "metrics": metrics,
        "probes": probe_rows,
        "probe_failures": probe_failures,
        "traced_vs_untraced_mismatches": [
            " ".join(mix.op(a).argv) for a, b in zip(mix.records, replay)
            if (a.status, a.digest) != (b.status, b.digest)
        ],
        "wall_s": wall,
        "cpu_s": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    run = run_traced if args.trace else run_timed
    report = run(args.workload, args.seed, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
