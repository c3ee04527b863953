"""Command-line front end.

Every computation is exposed as a subcommand that emits reproducible
tabular output (CSV or JSON Lines) with a fixed header per subcommand,
numeric fields rendered with 12 significant digits, and no timestamps or
locale-dependent formatting, so identical invocations are byte-identical.

Exit codes: 0 success, 1 computation failure or closed stdout, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import sys
from typing import Callable, Iterable, Iterator

# `scale` is imported by the audit handlers and `json` by the JSONL writer,
# so that a cold start of any other subcommand loads neither.
from . import evidence, transition
from ._flags import _usage, add_commands
from .evidence import (
    BF_KINDS,
    CONTINUOUS,
    LOG_SCALE_KINDS,
    SLR_KINDS,
    BinomialOutcome,
    CompositeHypothesis,
    PointHypothesis,
    compute_evidence,
    support_label,
)
from .numerics import linspace

# Default observed-proportion window for curve grids; the log Bayes factor
# diverges at the extremes.
_Y_MIN = 0.01
_Y_MAX = 0.99


# The log-valued columns, which the display base rescales: each maps to None
# if it always holds a natural log, else to the column naming its statistic,
# which must then be a log kind.
_LOG_COLUMNS = {
    **dict.fromkeys(("log_es", "abs_log_es", "log_bf", "against_both",
                     "neglog_diff_12", "neglog_diff_23")),
    "value": "kind", "x_a": "kind_x", "x_b": "kind_x", "y_a": "kind_y", "y_b": "kind_y",
}


def _fmt_cell(value) -> str:
    """CSV rendering: 12 significant digits for numbers, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # normalize -0.0
        return f"{value:.12g}"
    return str(value)


def _json_cell(value):
    """JSONL rendering: a float as the number its CSV cell shows."""
    return float(_fmt_cell(value)) if isinstance(value, float) else value


def write_rows(args: argparse.Namespace, header: list[str], rows: Iterable[dict]) -> None:
    """Emit rows as CSV (header + comma-separated lines, \\n endings) or JSONL
    to args.out or stdout, with the natural logs of the log-valued columns
    shown in args.log_base.

    Rows are written as they are drawn, so an iterable that makes them on
    demand is written holding one row at a time; the rows are not changed.
    """
    factor = 1.0 / math.log(args.log_base)
    log_columns = [(i, _LOG_COLUMNS[col]) for i, col in enumerate(header) if col in _LOG_COLUMNS]

    def cells(row: dict) -> list:
        values = [row.get(col) for col in header]
        for i, kind_col in log_columns:
            if values[i] is not None and (kind_col is None or row.get(kind_col) in LOG_SCALE_KINDS):
                values[i] *= factor
        return values

    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", encoding="utf-8", newline="")) as out:
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(map(_fmt_cell, cells(row)))
        else:
            import json

            for row in rows:
                obj = dict(zip(header, map(_json_cell, cells(row))))
                out.write(json.dumps(obj, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_compute(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    kinds = args.kinds
    if kinds is None:
        kinds = ["logbf"] if args.bf is not None else ["pvalue", "neglogp", "mlr", "logmlr"]
    with _usage(f"--n {args.n:g} --k {args.k:g}: "):
        data = BinomialOutcome(args.n, args.k, args.mode)
    null = PointHypothesis(args.null)

    rows = []
    for kind in kinds:
        denominator, alternative = null, None
        if kind in SLR_KINDS:
            # slr kinds compare the theta1/theta2 point pair
            denominator, alternative = PointHypothesis(args.theta2), PointHypothesis(args.theta1)
        elif kind in BF_KINDS:
            # without --bf the prior is the library's default, uniform
            alternative = CompositeHypothesis(args.support, *(args.bf or ()))
        value = compute_evidence(kind, data, null=denominator, alternative=alternative)
        rows.append({"n": args.n, "k": args.k, **value._asdict()})
    return ["kind", "n", "k", "value"], rows, 0


def cmd_figure1(args: argparse.Namespace) -> tuple[list[str], Iterator[dict], int]:
    y_grid = linspace(_Y_MIN, _Y_MAX, args.grid)
    header = ["variant", "n", "y", "log_es", "abs_log_es", "side", "row_type"]

    if args.variant == "a":
        h1, h2 = PointHypothesis(args.theta1), PointHypothesis(args.theta2)
    else:
        h1, h2 = CompositeHypothesis(args.support), PointHypothesis(args.null)

    def row(n: float, y: float, row_type: str) -> dict:
        # for a point h1 the Bayes factor is the simple likelihood ratio
        value = evidence.log_bf(BinomialOutcome(n, y * n, CONTINUOUS), h1, h2)
        # a trp row sits on a root, where the value is only the root residual
        side = support_label(value) if row_type == "curve" else "transition point"
        return {"variant": args.variant, "n": n, "y": y, "log_es": value,
                "abs_log_es": abs(value), "side": side, "row_type": row_type}

    def rows() -> Iterator[dict]:
        # one-shot, so a second read (the tracer's) recomputes no curve or root
        for n in args.n:
            yield from (row(n, y, "curve") for y in y_grid)
            trp_y = (transition.trp_simple(args.theta1, args.theta2) if args.variant == "a"
                     else transition.trp_composite(n, h1, h2).trp_y)
            yield row(n, trp_y, "trp")

    return header, rows(), 0


def cmd_trp(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    header = ["setup", "side", "n", "trp_y", "residual", "bracket_width", "error"]
    sides = ("lower", "upper") if args.setup == "two-sided" else ("",)
    h1, h2 = PointHypothesis(args.theta1), PointHypothesis(args.theta2)
    composite, null = CompositeHypothesis(args.support), PointHypothesis(args.null)
    rows: list[dict] = []
    successes = 0
    for n in sorted(set(args.n)):
        try:
            if args.setup == "simple":
                results = (transition.trp_point_pair(n, h1, h2),)
            elif args.setup == "one-sided":
                results = (transition.trp_composite(n, composite, null),)
            else:
                results = transition.trp_composite_two_sided(n, composite, null)
        except (ValueError, RuntimeError) as err:
            rows.append({"setup": args.setup, "side": "", "n": n, "error": str(err)})
            continue
        successes += 1
        rows.extend({"setup": args.setup, "side": side, **result._asdict()}
                    for side, result in zip(sides, results))
    return header, rows, 0 if successes else 1


def cmd_zero_paths(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    kinds = transition.PATH_KINDS if args.both else (args.path,)
    # --n and --support left out take each path's own default
    h1 = None if args.support is None else CompositeHypothesis(args.support)
    rows = []
    for kind in kinds:
        trace = transition.zero_path(
            kind, h1=h1, h2=PointHypothesis(args.null), n_values=args.n,
            y_fixed=args.y, against_pair=args.against)
        rows.extend({"path": kind, **point._asdict()} for point in trace)
    return ["path", "n", "y", "log_bf", "against_both"], rows, 0


def cmd_audit_transform(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    from . import scale

    name, f = args.f
    lo, hi = args.interval
    with _usage(f"transform {name} on --interval {lo:g},{hi:g}: "):
        audit = scale.classify_transformation(f, linspace(lo, hi, args.grid))
        distortion = scale.unit_distortion(f, (lo, hi), args.unit)
    header = ["transform", "lo", "hi", "unit", "order_preserving", "affine",
              "positive_scalar", "unit_distortion"]
    rows = [{"transform": name, "lo": lo, "hi": hi, "unit": args.unit,
             **audit._asdict(), "unit_distortion": distortion}]
    return header, rows, 0


class _Rows:
    """Rows made afresh by `make` on every iteration, never held as a list."""

    def __init__(self, make: Callable[[], Iterator[dict]]) -> None:
        self._make = make

    def __iter__(self) -> Iterator[dict]:
        return self._make()


def cmd_audit_agreement(args: argparse.Namespace) -> tuple[list[str], Iterable[dict], int]:
    from . import scale

    grid = scale.outcome_grid(args.max_n, args.min_n)
    # the library rejects an empty grid before a repeated kind
    with _usage(f"--kinds {','.join(args.kinds)}: " if grid else
                f"--min-n {args.min_n} --max-n {args.max_n}: "):
        report = scale.rank_order_agreement(grid, args.kinds)
    if report.excluded:
        (first, reason), count = report.excluded[0], len(report.excluded)
        print(f"{args.parser.prog}: {count} outcomes excluded; first n={first.n}, k={first.k}: "
              f"{reason}", file=sys.stderr)
    header = ["row_type", "kind_x", "kind_y", "tau",
              "n_a", "k_a", "n_b", "k_b", "x_a", "x_b", "y_a", "y_b"]
    tau_rows = [
        {"row_type": "tau", "kind_x": kx, "kind_y": ky, "tau": report.kendall_tau[(kx, ky)]}
        for kx, ky in itertools.combinations_with_replacement(report.statistic_kinds, 2)
    ]

    def witness_row(pair: scale.DiscordantPair) -> dict:
        return {
            "row_type": "discordant", "kind_x": pair.kind_x, "kind_y": pair.kind_y,
            "n_a": pair.outcome_a.n, "k_a": pair.outcome_a.k,
            "n_b": pair.outcome_b.n, "k_b": pair.outcome_b.k,
            "x_a": pair.x_values[0], "x_b": pair.x_values[1],
            "y_a": pair.y_values[0], "y_b": pair.y_values[1],
        }

    def rows() -> Iterator[dict]:
        # The cap stops the witness scan itself, bounding time as well as memory.
        witnesses = itertools.islice(report.discordant_pairs, args.max_witnesses)
        return itertools.chain(tau_rows, map(witness_row, witnesses))

    return header, _Rows(rows), 0


def cmd_audit_difference(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    from . import scale

    with _usage("--p-values %g,%g,%g: " % args.p_values):
        demo = scale.difference_comparison_demo(args.p_values)
    header = ["p1", "p2", "p3", "raw_diff_12", "raw_diff_23",
              "neglog_diff_12", "neglog_diff_23"]
    return header, [dict(zip(header, (*demo.p_values, *demo.raw, *demo.neg_log)))], 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evlab",
        description="Evidence statistics, transition points, and measurement-scale "
                    "audits for binomial data.",
    )
    # the handlers are read from this module's globals on every call, so a
    # wrapped or patched cmd_* is the one the parser sets
    add_commands(parser.add_subparsers(dest="command", required=True), globals())
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # evlab takes only -h, so a token before the subcommand is its own; its
        # parser is built anew, as none is held through the handler
        first = (sys.argv[1:] if argv is None else argv)[:1]
        (args.parser if first == [args.command] else build_parser()).error(
            f"unrecognized arguments: {' '.join(unknown)}")
    try:
        header, rows, status = args.handler(args)
        write_rows(args, header, rows)  # rows made lazily fail here, too
    except argparse.ArgumentTypeError as err:
        args.parser.error(str(err))  # the subcommand's usage; exits with status 2
    except BrokenPipeError:  # an OSError, so it comes first
        # The reader closed the pipe; stdout goes to devnull so the exit flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError, ArithmeticError, OSError) as err:
        print(f"evlab: error: {err}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
