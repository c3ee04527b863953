"""Self-checks of the benchmark itself.

    python3 -m pytest bench

These test the benchmark's generator, tracer and metric list, not evlab.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import evlab.numerics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# The gated end-to-end metrics the benchmark reports with --trace 0.
# failed_ops_ratio is printed beside them but gated through its complement,
# ok_ops_ratio, because a gated metric may not be 0 and a correct program
# fails nothing. The timings are printed but not gated (run.UNGATED).
END_TO_END = ("peak_rss_mb", "setup_s", "ok_ops_ratio")


def _argv_lists(workload: str, seed: int) -> list[tuple[str, ...]]:
    return [op.argv for index in range(4) for op in workloads.block(workload, seed, index)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    assert _argv_lists(workload, 11) == _argv_lists(workload, 11)
    assert _argv_lists(workload, 11) != _argv_lists(workload, 12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_byte_identical(workload):
    ops = workloads.block(workload, 5, 0)[:4] + workloads.probes(workload)
    untraced = [worker.execute(op) for op in ops]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = [worker.execute(op, tracer.call_main) for op in ops]
    assert [(r.status, r.output) for r in traced] == [(r.status, r.output) for r in untraced]
    assert tracer.calls["op"] == len(ops)


def test_tracer_restores_every_binding():
    original = evlab.numerics.regularized_incomplete_beta
    with tracing.Tracer().installed():
        assert evlab.evidence.regularized_incomplete_beta is not original
        traced = evlab.numerics.regularized_incomplete_beta
        assert evlab.evidence.regularized_incomplete_beta is traced
    assert evlab.numerics.regularized_incomplete_beta is original
    assert evlab.evidence.regularized_incomplete_beta is original


def test_trace_counts_at_seed():
    tracer = tracing.Tracer()
    with tracer.installed():
        result = worker.execute(workloads.Op("t", ("trp", "--n", "10,100,1000,10000")),
                                tracer.call_main)
    assert result.status == 0
    metrics = tracer.metrics(1)
    assert metrics["evidence.ibeta_per_log_bf"] == 4.0
    assert 40.0 <= metrics["transition.log_bf_per_root"] <= 43.0
    assert metrics["transition.roots"] == 4


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    assert tuple(end_to_end) == END_TO_END
    assert set(run.UNITS) == set(END_TO_END) | set(run.UNGATED)
    assert tuple(per_layer) == tracing.METRICS
    for name, metric in end_to_end.items():
        assert metric["unit"] == run.UNITS[name]
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    for name, metric in per_layer.items():
        assert metric["unit"] == tracing.UNITS[name]
        assert metric["better"] in ("higher", "lower")
