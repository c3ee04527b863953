"""Command-line front end.

Every computation is exposed as a subcommand that emits reproducible
tabular output (CSV or JSON Lines) with a fixed header per subcommand,
numeric fields rendered with 12 significant digits, and no timestamps or
locale-dependent formatting, so identical invocations are byte-identical.

Exit codes: 0 success, 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from typing import Callable, Iterable, Iterator, NamedTuple

# `scale` is imported by the audit handlers and `json` by the JSONL writer,
# so that a cold start of any other subcommand loads neither.
from . import evidence, transition
from .evidence import (
    CONTINUOUS,
    EXACT,
    EVIDENCE_KINDS,
    LOG_SCALE_KINDS,
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


class OutputSpec(NamedTuple):
    """Where and how rows are written."""

    fmt: str = "csv"
    destination: str | None = None


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
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0
        return float(f"{value:.12g}")
    return value


def write_rows(spec: OutputSpec, header: list[str], rows: Iterable[dict]) -> None:
    """Emit rows as CSV (header + comma-separated lines, \\n endings) or JSONL.

    Rows are written as they are drawn, so an iterable that makes them on
    demand is written holding one row at a time.
    """
    out = sys.stdout if spec.destination is None else open(
        spec.destination, "w", encoding="utf-8", newline=""
    )
    try:
        if spec.fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(row.get(col)) for col in header])
        else:
            import json

            for row in rows:
                obj = {col: _json_cell(row.get(col)) for col in header}
                out.write(json.dumps(obj, separators=(",", ":")) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# argument parsing helpers


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _pair(text: str) -> tuple[float, float]:
    values = _float_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return values[0], values[1]


def _triple(text: str) -> tuple[float, float, float]:
    values = _float_list(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return values[0], values[1], values[2]


def _open_unit(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in (0,1), got {text!r}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _log_base(text: str) -> float:
    value = float(text)
    if value <= 0.0 or value == 1.0:
        raise argparse.ArgumentTypeError(f"log base must be positive and != 1, got {text!r}")
    return value


def _kinds_list(text: str) -> list[str]:
    kinds = [part.strip() for part in text.split(",") if part.strip()]
    for kind in kinds:
        if kind not in EVIDENCE_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown statistic {kind!r}; choose from {','.join(EVIDENCE_KINDS)}"
            )
    if not kinds:
        raise argparse.ArgumentTypeError("at least one statistic kind is required")
    return kinds


def _prior_spec(text: str) -> tuple[float, float]:
    """Prior shape parameters: 'uniform' or 'beta:a,b'."""
    if text == "uniform":
        return (1.0, 1.0)
    if text.startswith("beta:"):
        try:
            a, b = _pair(text[len("beta:"):])
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(f"expected beta:a,b with numeric shapes, got {text!r}")
        if a <= 0 or b <= 0:
            raise argparse.ArgumentTypeError(f"beta shapes must be positive, got {text!r}")
        return (a, b)
    raise argparse.ArgumentTypeError(f"expected 'uniform' or 'beta:a,b', got {text!r}")


_TRANSFORMS: dict[str, Callable[[float], float]] = {
    "log": math.log,
    "exp": math.exp,
    "f2c": lambda x: (x - 32.0) * 5.0 / 9.0,
    "c2f": lambda x: x * 9.0 / 5.0 + 32.0,
}


def _transform_spec(text: str) -> tuple[str, Callable[[float], float]]:
    if text in _TRANSFORMS:
        return text, _TRANSFORMS[text]
    if text.startswith("affine:"):
        try:
            slope, intercept = _pair(text[len("affine:"):])
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(
                f"expected affine:slope,intercept with numbers, got {text!r}"
            )
        return text, lambda x: slope * x + intercept
    raise argparse.ArgumentTypeError(
        f"unknown transform {text!r}; choose log, exp, f2c, c2f or affine:slope,intercept"
    )


def _scale_factor(args: argparse.Namespace) -> float:
    """Display rescaling for log-valued cells: natural log to the chosen base."""
    return 1.0 / math.log(args.log_base)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write to PATH instead of standard output")
    parser.add_argument("--log-base", type=_log_base, default=math.e, metavar="B",
                        help="display base for log-valued columns (default e)")


def _usage_checked(flags: str, make: Callable, *values):
    """make(*values), with the ValueError of a bad value turned into a usage
    error that names the flags it came from."""
    try:
        return make(*values)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{flags}: {err}") from err


# ---------------------------------------------------------------------------
# subcommands


def cmd_compute(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    kinds = args.kinds
    if kinds is None:
        kinds = ["logbf"] if args.bf is not None else ["pvalue", "neglogp", "mlr", "logmlr"]
    data = _usage_checked(f"--n {args.n:g} --k {args.k:g}", BinomialOutcome,
                          args.n, args.k, args.mode)
    null = PointHypothesis(args.null)
    factor = _scale_factor(args)

    rows = []
    for kind in kinds:
        denominator, alternative = null, None
        if kind in ("slr", "logslr"):
            # slr kinds compare the theta1/theta2 point pair
            denominator, alternative = PointHypothesis(args.theta2), PointHypothesis(args.theta1)
        elif kind in ("bf", "logbf", "abslogbf"):
            # without --bf the prior is the library's default, uniform
            alternative = _usage_checked("--support %g,%g" % args.support, CompositeHypothesis,
                                         args.support, *(args.bf or ()))
        value = compute_evidence(kind, data, null=denominator, alternative=alternative).value
        if kind in LOG_SCALE_KINDS:
            value *= factor
        rows.append({"kind": kind, "n": args.n, "k": args.k, "value": value})
    return ["kind", "n", "k", "value"], rows, 0


def cmd_figure1(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    factor = _scale_factor(args)
    y_grid = linspace(_Y_MIN, _Y_MAX, args.grid)
    header = ["variant", "n", "y", "log_es", "abs_log_es", "side", "row_type"]
    rows = []

    if args.variant == "a":
        h1, h2 = PointHypothesis(args.theta1), PointHypothesis(args.theta2)

        def trp_for(n: float) -> float:
            return transition.trp_simple(args.theta1, args.theta2)

    else:
        h1, h2 = CompositeHypothesis(support=args.support), PointHypothesis(args.null)

        def trp_for(n: float) -> float:
            return transition.trp_composite(n, h1, h2, args.tol).trp_y

    def log_es(n: float, y: float) -> float:
        # for a point h1 the Bayes factor is the simple likelihood ratio
        return evidence.log_bf(BinomialOutcome(n, y * n, CONTINUOUS), h1, h2)

    for n in args.n:
        for y in y_grid:
            value = log_es(n, y)
            rows.append({
                "variant": args.variant, "n": n, "y": y,
                "log_es": value * factor, "abs_log_es": abs(value) * factor,
                "side": support_label(value), "row_type": "curve",
            })
        trp_y = trp_for(n)
        value = log_es(n, trp_y)
        rows.append({
            "variant": args.variant, "n": n, "y": trp_y,
            "log_es": value * factor, "abs_log_es": abs(value) * factor,
            "side": "transition point", "row_type": "trp",
        })
    return header, rows, 0


def cmd_trp(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    header = ["setup", "side", "n", "trp_y", "residual", "bracket_width", "error"]
    rows: list[dict] = []
    successes = 0

    def ok_row(side: str, result: transition.TrPResult) -> dict:
        return {
            "setup": args.setup, "side": side, "n": result.n,
            "trp_y": result.trp_y, "residual": result.residual,
            "bracket_width": result.bracket_width, "error": None,
        }

    def err_row(side: str, n: float, message: str) -> dict:
        return {
            "setup": args.setup, "side": side, "n": n, "trp_y": None,
            "residual": None, "bracket_width": None, "error": message,
        }

    if args.setup == "simple":
        h1, h2 = PointHypothesis(args.theta1), PointHypothesis(args.theta2)
        for n in args.n:
            try:
                rows.append(ok_row("", transition.trp_point_pair(n, h1, h2)))
                successes += 1
            except (ValueError, RuntimeError) as err:
                rows.append(err_row("", n, str(err)))
    else:
        composite = CompositeHypothesis(support=args.support)
        null = PointHypothesis(args.null)
        if args.setup == "one-sided":
            for entry in transition.trp_curve(sorted(set(args.n)), composite, null, args.tol):
                if entry.result is not None:
                    rows.append(ok_row("", entry.result))
                    successes += 1
                else:
                    rows.append(err_row("", entry.n, entry.error))
        else:
            for n in sorted(set(args.n)):
                try:
                    lower, upper = transition.trp_composite_two_sided(n, composite, null, args.tol)
                    rows.append(ok_row("lower", lower))
                    rows.append(ok_row("upper", upper))
                    successes += 1
                except (ValueError, RuntimeError) as err:
                    rows.append(err_row("", n, str(err)))
    return header, rows, 0 if successes else 1


def cmd_zero_paths(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    factor = _scale_factor(args)
    header = ["path", "n", "y", "log_bf", "against_both"]

    if args.both:
        if args.path is not None:
            raise argparse.ArgumentTypeError("give either a path or --both, not both")
        reports = [transition.zero_path(kind) for kind in transition.PATH_KINDS]
    else:
        if args.path is None:
            raise argparse.ArgumentTypeError("a path (shrink-n or ride-trp) or --both is required")
        # --y, --null, --against and --tol default to the library's own values.
        given = {"h2": PointHypothesis(args.null), "against_pair": args.against,
                 "y_fixed": args.y, "tol": args.tol}
        if args.support is not None:
            given["h1"] = CompositeHypothesis(support=args.support)
        if args.n is not None:
            given["n_values"] = tuple(args.n)
        config = transition.default_config(args.path)._replace(**given)
        reports = [transition.zero_path(args.path, config)]

    rows = []
    for report in reports:
        for point in report.trace:
            rows.append({
                "path": report.path_kind, "n": point.n, "y": point.y,
                "log_bf": point.log_bf * factor,
                "against_both": point.against_both * factor,
            })
    return header, rows, 0


def cmd_audit_transform(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    from . import scale

    name, f = args.f
    lo, hi = args.interval
    try:
        audit = scale.classify_transformation(f, linspace(lo, hi, args.grid))
        distortion = scale.unit_distortion(f, (lo, hi), args.unit)
    except (ValueError, OverflowError) as err:
        raise argparse.ArgumentTypeError(
            f"transform {name} on --interval {lo:g},{hi:g}: {err}"
        ) from err
    header = ["transform", "lo", "hi", "unit", "order_preserving", "affine",
              "positive_scalar", "unit_distortion"]
    rows = [{
        "transform": name, "lo": lo, "hi": hi, "unit": args.unit,
        "order_preserving": audit.order_preserving, "affine": audit.affine,
        "positive_scalar": audit.positive_scalar, "unit_distortion": distortion,
    }]
    return header, rows, 0


class _Rows:
    """Rows made afresh by `make` on every iteration, never held as a list."""

    def __init__(self, make: Callable[[], Iterator[dict]]) -> None:
        self._make = make

    def __iter__(self) -> Iterator[dict]:
        return self._make()


def cmd_audit_agreement(args: argparse.Namespace) -> tuple[list[str], Iterable[dict], int]:
    from . import scale

    factor = _scale_factor(args)
    grid = scale.outcome_grid(args.max_n, args.min_n)
    if not grid:
        raise argparse.ArgumentTypeError(
            f"--min-n {args.min_n} --max-n {args.max_n} gives an empty outcome grid"
        )
    report = scale.rank_order_agreement(grid, args.kinds)
    header = ["row_type", "kind_x", "kind_y", "tau",
              "n_a", "k_a", "n_b", "k_b", "x_a", "x_b", "y_a", "y_b"]
    kinds = report.statistic_kinds
    tau_rows = [
        {"row_type": "tau", "kind_x": kx, "kind_y": ky, "tau": report.kendall_tau[(kx, ky)]}
        for i, kx in enumerate(kinds) for ky in kinds[i:]
    ]

    def witness_row(pair: scale.DiscordantPair) -> dict:
        fx = factor if pair.kind_x in LOG_SCALE_KINDS else 1.0
        fy = factor if pair.kind_y in LOG_SCALE_KINDS else 1.0
        return {
            "row_type": "discordant", "kind_x": pair.kind_x, "kind_y": pair.kind_y,
            "n_a": pair.outcome_a.n, "k_a": pair.outcome_a.k,
            "n_b": pair.outcome_b.n, "k_b": pair.outcome_b.k,
            "x_a": pair.x_values[0] * fx, "x_b": pair.x_values[1] * fx,
            "y_a": pair.y_values[0] * fy, "y_b": pair.y_values[1] * fy,
        }

    def rows() -> Iterator[dict]:
        # The cap stops the witness scan itself, bounding time as well as memory.
        witnesses = itertools.islice(report.discordant_pairs, args.max_witnesses)
        return itertools.chain(tau_rows, map(witness_row, witnesses))

    return header, _Rows(rows), 0


def cmd_audit_difference(args: argparse.Namespace) -> tuple[list[str], list[dict], int]:
    from . import scale

    factor = _scale_factor(args)
    demo = scale.difference_comparison_demo(args.p_values)
    header = ["p1", "p2", "p3", "raw_diff_12", "raw_diff_23",
              "neglog_diff_12", "neglog_diff_23"]
    rows = [{
        "p1": demo.p_values[0], "p2": demo.p_values[1], "p3": demo.p_values[2],
        "raw_diff_12": demo.raw[0], "raw_diff_23": demo.raw[1],
        "neglog_diff_12": demo.neg_log[0] * factor,
        "neglog_diff_23": demo.neg_log[1] * factor,
    }]
    return header, rows, 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evlab",
        description="Evidence statistics, transition points, and measurement-scale "
                    "audits for binomial data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evidence statistics for one observed outcome")
    p.add_argument("--n", type=float, required=True, help="trial count")
    p.add_argument("--k", type=float, required=True, help="success count")
    p.add_argument("--mode", choices=(EXACT, CONTINUOUS), default=EXACT)
    p.add_argument("--null", type=_open_unit, default=0.5,
                   help="point null success probability (default 0.5)")
    p.add_argument("--theta1", type=_open_unit, default=0.25,
                   help="numerator point hypothesis for slr/logslr (default 0.25)")
    p.add_argument("--theta2", type=_open_unit, default=0.75,
                   help="denominator point hypothesis for slr/logslr (default 0.75)")
    p.add_argument("--bf", type=_prior_spec, default=None, metavar="PRIOR",
                   help="composite prior for bf kinds: 'uniform' or 'beta:a,b'")
    p.add_argument("--support", type=_pair, default=(0.0, 1.0), metavar="LO,HI",
                   help="support of the composite prior (default 0,1)")
    p.add_argument("--kinds", type=_kinds_list, default=None, metavar="K1,K2,...",
                   help=f"statistics to emit, from: {','.join(EVIDENCE_KINDS)}")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("figure1", help="log evidence curves over the observed proportion")
    p.add_argument("variant", choices=("a", "b"),
                   help="a: two point hypotheses; b: one-sided composite vs point null")
    p.add_argument("--n", type=_float_list, default=[10.0, 100.0], metavar="N1,N2,...")
    p.add_argument("--grid", type=int, default=99, help="curve points per n (default 99)")
    p.add_argument("--theta1", type=_open_unit, default=0.25)
    p.add_argument("--theta2", type=_open_unit, default=0.75)
    p.add_argument("--support", type=_pair, default=(0.0, 0.5), metavar="LO,HI")
    p.add_argument("--null", type=_open_unit, default=0.5)
    p.add_argument("--tol", type=_positive, default=transition.DEFAULT_TOL)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_figure1)

    p = sub.add_parser("trp", help="transition points of the log Bayes factor")
    p.add_argument("--setup", choices=("simple", "one-sided", "two-sided"),
                   default="one-sided")
    p.add_argument("--n", type=_float_list, default=[10.0, 100.0, 1000.0],
                   metavar="N1,N2,...")
    p.add_argument("--theta1", type=_open_unit, default=0.25)
    p.add_argument("--theta2", type=_open_unit, default=0.75)
    p.add_argument("--support", type=_pair, default=(0.0, 0.5), metavar="LO,HI")
    p.add_argument("--null", type=_open_unit, default=0.5)
    p.add_argument("--tol", type=_positive, default=transition.DEFAULT_TOL)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_trp)

    p = sub.add_parser("zero-paths", help="trace the two routes to log BF = 0")
    p.add_argument("path", nargs="?", choices=transition.PATH_KINDS, default=None)
    p.add_argument("--both", action="store_true",
                   help="emit both default traces side by side")
    shared = transition.default_config(transition.SHRINK_N)  # values both paths share
    p.add_argument("--y", type=_open_unit, default=shared.y_fixed,
                   help=f"fixed observed proportion for shrink-n (default {shared.y_fixed:g})")
    p.add_argument("--n", type=_float_list, default=None, metavar="N1,N2,...")
    p.add_argument("--support", type=_pair, default=None, metavar="LO,HI")
    p.add_argument("--null", type=_open_unit, default=shared.h2.theta0)
    p.add_argument("--against", type=_pair, default=shared.against_pair, metavar="T1,T2",
                   help="point pair for the contradiction proxy (default %g,%g)"
                        % shared.against_pair)
    p.add_argument("--tol", type=_positive, default=shared.tol)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_zero_paths)

    p = sub.add_parser("audit", help="measurement-scale audits")
    audit_sub = p.add_subparsers(dest="audit_command", required=True)

    q = audit_sub.add_parser("transform", help="classify a scalar transformation")
    q.add_argument("--f", type=_transform_spec, default=("log", math.log),
                   metavar="SPEC", help="log, exp, f2c, c2f or affine:slope,intercept")
    q.add_argument("--interval", type=_pair, default=(49.0, 100.0), metavar="LO,HI")
    q.add_argument("--unit", type=float, default=1.0)
    q.add_argument("--grid", type=int, default=64,
                   help="classification grid size (default 64)")
    _add_output_flags(q)
    q.set_defaults(handler=cmd_audit_transform)

    q = audit_sub.add_parser("agreement", help="rank-order agreement between statistics")
    q.add_argument("--min-n", type=int, default=2)
    q.add_argument("--max-n", type=int, default=30)
    q.add_argument("--kinds", type=_kinds_list, default=["neglogp", "abslogbf"],
                   metavar="K1,K2,...")
    q.add_argument("--max-witnesses", type=_non_negative_int, default=None,
                   help="cap on emitted discordant-pair rows (default: all)")
    _add_output_flags(q)
    q.set_defaults(handler=cmd_audit_agreement)

    q = audit_sub.add_parser("difference", help="difference comparison before/after -log")
    q.add_argument("--p-values", type=_triple, default=(0.05, 0.04, 0.001),
                   metavar="P1,P2,P3")
    _add_output_flags(q)
    q.set_defaults(handler=cmd_audit_difference)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        header, rows, status = args.handler(args)
    except argparse.ArgumentTypeError as err:
        parser.error(str(err))  # exits with status 2
    except (ValueError, RuntimeError, OverflowError, ZeroDivisionError) as err:
        print(f"evlab: error: {err}", file=sys.stderr)
        return 1
    write_rows(OutputSpec(args.format, args.out), header, rows)
    return status


if __name__ == "__main__":
    sys.exit(main())
