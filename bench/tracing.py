"""Outside-in tracing of evlab's five layers, from the benchmark's own files.

``Tracer.installed()`` replaces every public function of ``evlab.numerics``,
``evidence``, ``transition``, ``scale`` and ``cli`` with a timing wrapper, at
every module attribute that binds it (``regularized_incomplete_beta`` is
bound in both ``numerics`` and ``evidence``, for instance). evlab calls
these functions through module globals, so the wrappers see every call; the
``cmd_*`` handlers are wrapped before ``build_parser`` reads them. Nothing
under ``src/`` changes, and leaving the context restores the originals.

Each call is a span (name, start, end, parent). A span's self time is its
duration minus the time its child spans cover. Counts are kept where the
work happens, so ratios such as incomplete-beta calls per log Bayes factor
are measured, not inferred. Spans are kept in memory up to ``SPAN_LIMIT``
and written out when the run ends; the counts and self times always cover
every call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter
from pathlib import Path

import evlab
import evlab.cli

LAYERS = ("numerics", "evidence", "transition", "scale", "cli")
ROOT_SOLVES = ("transition.trp_composite", "transition.trp_composite_two_sided")
ERROR_TYPES = ("DegeneratePriorError", "ConvergenceError", "OverflowError", "ValueError")
SPAN_LIMIT = 100_000

# Per-layer metric names, in the order they are reported.
METRICS = (
    "numerics.log_gamma.calls", "numerics.log_gamma.self_s",
    "numerics.ibeta.calls", "numerics.ibeta.self_s",
    "numerics.find_root.calls", "numerics.find_root.self_s", "numerics.find_root.evals",
    "evidence.p_value.calls", "evidence.p_value.self_s",
    "evidence.log_bf.calls", "evidence.log_bf.self_s", "evidence.ibeta_per_log_bf",
    *(f"evidence.errors.{name}" for name in ERROR_TYPES), "evidence.errors.other",
    "transition.roots", "transition.roots.self_s", "transition.log_bf_per_root",
    "transition.root_failures", "transition.zero_path.self_s",
    "scale.agreement.calls", "scale.agreement.self_s", "scale.pairs_compared",
    "scale.witnesses_built", "scale.witnesses_emitted", "scale.witness_use_ratio",
    "cli.parse.self_s", "cli.handler.self_s", "cli.write.self_s", "cli.bytes_out",
    "trace.overhead_ratio",
)
RATIOS = ("evidence.ibeta_per_log_bf", "transition.log_bf_per_root",
          "scale.witness_use_ratio", "trace.overhead_ratio")
UNITS = {
    name: "ratio" if name in RATIOS
    else "s/op" if name.endswith("_s")
    else "bytes/op" if name == "cli.bytes_out"
    else "count/op"
    for name in METRICS
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, start, end
        self.dropped = 0
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: Counter[str] = Counter()  # open spans, by name and by layer
        self._stack: list[list] = []  # open spans: [name, span index, start, child time]
        self._hooks_enter = {
            "numerics.regularized_incomplete_beta": self._on_ibeta,
            "evidence.log_bf": self._on_log_bf,
            "numerics.find_root": self._on_find_root,
        }

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        if name in self._hooks_enter:
            self._hooks_enter[name]()
        self.calls[name] += 1
        self._open[name] += 1
        self._open[name.partition(".")[0]] += 1
        parent = self._stack[-1][1] if self._stack else -1
        index = len(self.spans)
        if index < SPAN_LIMIT:
            self.spans.append((name, parent, 0.0, 0.0))
        else:
            index = -1
            self.dropped += 1
        self._stack.append([name, index, time.perf_counter(), 0.0])

    def _exit(self, error: Exception | None) -> None:
        end = time.perf_counter()
        name, index, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.spans[index] = (name, self.spans[index][1], start, end)
        layer = name.partition(".")[0]
        self._open[name] -= 1
        self._open[layer] -= 1
        if error is not None:
            if layer == "evidence" and not self._open["evidence"]:
                kind = type(error).__name__
                self.counts["error." + (kind if kind in ERROR_TYPES else "other")] += 1
            if name in ROOT_SOLVES and not self._open_roots():
                self.counts["root_failures"] += 1

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs on normal return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._exit(exc)
                raise
            self._exit(None)
            if after is not None:
                after(args, result)
            return result

        return traced

    def call_main(self, argv: list[str]) -> int:
        """One operation: a root span around evlab.cli.main."""
        return self.span("op", lambda: evlab.cli.main(argv))()

    # -- counts kept at the layer boundaries --------------------------------

    def _open_roots(self) -> int:
        return sum(self._open[name] for name in ROOT_SOLVES)

    def _on_ibeta(self) -> None:
        if self._open["evidence.log_bf"]:
            self.counts["ibeta_in_log_bf"] += 1

    def _on_log_bf(self) -> None:
        if self._open_roots():
            self.counts["log_bf_in_root"] += 1

    def _on_find_root(self) -> None:
        if self._open_roots():
            self.counts["roots"] += 1

    def _after_agreement(self, args, report) -> None:
        m = len(report.dataset_grid)
        k = len(report.statistic_kinds)
        self.counts["pairs_compared"] += m * (m - 1) // 2 * (k * (k - 1) // 2)
        self.counts["witnesses_built"] += len(report.discordant_pairs)

    def _after_write(self, args, result) -> None:
        rows = args[2]
        self.counts["witnesses_emitted"] += sum(row.get("row_type") == "discordant" for row in rows)

    def _after_build_parser(self, args, parser) -> None:
        parser.parse_args = self.span("cli.parse_args", parser.parse_args)

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn):
        after = {
            "scale.rank_order_agreement": self._after_agreement,
            "cli.write_rows": self._after_write,
            "cli.build_parser": self._after_build_parser,
        }.get(name)
        traced = self.span(name, fn, after)
        if name != "numerics.find_root":
            return traced

        @functools.wraps(fn)
        def find_root(f, *args, **kwargs):
            # The objective is transition's closure; wrapping it counts the
            # root-finder's f-evaluations and keeps their cost out of its self time.
            return traced(self.span("transition.objective", f), *args, **kwargs)

        return find_root

    @contextlib.contextmanager
    def installed(self):
        modules = [getattr(evlab, layer) for layer in LAYERS] + [evlab]
        wrapped: dict = {}
        restore = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.partition(".")
                if home[0] != "evlab" or home[2] not in LAYERS:
                    continue
                if value not in wrapped:
                    wrapped[value] = self._wrap(f"{home[2]}.{value.__name__}", value)
                restore.append((module, attr, value))
                setattr(module, attr, wrapped[value])
        try:
            yield self
        finally:
            for module, attr, value in restore:
                setattr(module, attr, value)

    # -- results ------------------------------------------------------------

    def failure_metrics(self, ops: int) -> dict[str, float]:
        """Errors leaving the evidence layer, by type, and failed root solves,
        per attempted operation."""
        names = (*ERROR_TYPES, "other")
        out = {f"evidence.errors.{name}": self.counts["error." + name] / ops for name in names}
        out["transition.root_failures"] = self.counts["root_failures"] / ops
        return out

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer work and self time per operation, and the ratios."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {
            "numerics.log_gamma.calls": calls["numerics.log_gamma"],
            "numerics.log_gamma.self_s": self_s["numerics.log_gamma"],
            "numerics.ibeta.calls": calls["numerics.regularized_incomplete_beta"],
            "numerics.ibeta.self_s": self_s["numerics.regularized_incomplete_beta"],
            "numerics.find_root.calls": calls["numerics.find_root"],
            "numerics.find_root.self_s": self_s["numerics.find_root"],
            "numerics.find_root.evals": calls["transition.objective"],
            "evidence.p_value.calls": calls["evidence.p_value_two_sided"],
            "evidence.p_value.self_s": self_s["evidence.p_value_two_sided"],
            "evidence.log_bf.calls": calls["evidence.log_bf"],
            "evidence.log_bf.self_s": self_s["evidence.log_bf"],
            "transition.roots": counts["roots"],
            "transition.roots.self_s": sum(self_s[name] for name in (
                *ROOT_SOLVES, "transition.trp_curve", "transition.objective")),
            "transition.zero_path.self_s": self_s["transition.zero_path"],
            "scale.agreement.calls": calls["scale.rank_order_agreement"],
            "scale.agreement.self_s": self_s["scale.rank_order_agreement"],
            "scale.pairs_compared": counts["pairs_compared"],
            "scale.witnesses_built": counts["witnesses_built"],
            "scale.witnesses_emitted": counts["witnesses_emitted"],
            "cli.parse.self_s": self_s["cli.build_parser"] + self_s["cli.parse_args"],
            "cli.handler.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.cmd_")),
            "cli.write.self_s": self_s["cli.write_rows"],
        }
        out = {name: value / ops for name, value in out.items()}
        out["evidence.ibeta_per_log_bf"] = ratio(counts["ibeta_in_log_bf"],
                                                 calls["evidence.log_bf"])
        out["transition.log_bf_per_root"] = ratio(counts["log_bf_in_root"], counts["roots"])
        out["scale.witness_use_ratio"] = ratio(counts["witnesses_emitted"],
                                               counts["witnesses_built"])
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# spans kept: {len(self.spans)}, dropped past the limit: {self.dropped}\n")
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
