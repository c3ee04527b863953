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
from .evidence import (
    BF_KINDS,
    CONTINUOUS,
    EXACT,
    EVIDENCE_KINDS,
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
# argument parsing helpers


@contextlib.contextmanager
def _usage(names: str = "") -> Iterator[None]:
    """The library's ValueError or OverflowError as a usage error prefixed by names."""
    try:
        yield
    except (ValueError, OverflowError) as err:
        raise argparse.ArgumentTypeError(f"{names}{err}") from err


def _checked(convert: Callable[[str], float], ok: Callable[[float], bool],
             expected: str) -> Callable[[str], float]:
    """Parser for one finite number that convert reads and ok accepts."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (-math.inf < value < math.inf and ok(value)):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_finite = _checked(float, lambda value: True, "a finite number")
_open_unit = _checked(float, lambda value: 0.0 < value < 1.0, "a number in (0,1)")
_log_base = _checked(float, lambda value: value > 0.0 and value != 1.0,
                     "a positive finite log base other than 1")
_non_negative_int = _checked(int, lambda value: value >= 0, "a non-negative integer")
# A grid's points are all built at once, so its size is bounded.
_grid_size = _checked(int, lambda value: 1 <= value <= 10**6, "an integer from 1 to 1000000")


def _float_list(text: str) -> list[float]:
    try:
        return [_finite(part) for part in text.split(",") if part != ""]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")


def _n_list(text: str) -> list[float]:
    """Parser for a non-empty list of trial counts."""
    if not (values := _float_list(text)):
        raise argparse.ArgumentTypeError(f"expected at least one trial count, got {text!r}")
    return values


def _numbers(count: int) -> Callable[[str], tuple[float, ...]]:
    """Parser for exactly `count` comma-separated numbers."""
    word = {2: "two", 3: "three"}[count]

    def parse(text: str) -> tuple[float, ...]:
        values = _float_list(text)
        if len(values) != count:
            raise argparse.ArgumentTypeError(
                f"expected {word} comma-separated numbers, got {text!r}"
            )
        return tuple(values)

    return parse


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


def _support(text: str) -> tuple[float, float]:
    """Parser for the support of a composite prior, as CompositeHypothesis takes it."""
    with _usage():
        return CompositeHypothesis(_numbers(2)(text)).support


def _point_pair(text: str) -> tuple[float, float]:
    """Parser for two point hypotheses, as PointHypothesis takes them."""
    with _usage():
        return tuple(PointHypothesis(theta).theta0 for theta in _numbers(2)(text))


def _prefixed_pair(text: str, prefix: str, names: str) -> tuple[float, float]:
    """The two numbers of a 'prefix:x,y' spec; names says what they are."""
    try:
        return _numbers(2)(text[len(prefix):])
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected {prefix}{names} with numbers, got {text!r}")


def _prior_spec(text: str) -> tuple[float, float]:
    """Prior shape parameters: 'uniform' or 'beta:a,b'."""
    if text == "uniform":
        return (1.0, 1.0)
    if text.startswith("beta:"):
        with _usage():
            return CompositeHypothesis((0.0, 1.0), *_prefixed_pair(text, "beta:", "a,b"))[1:]
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
        slope, intercept = _prefixed_pair(text, "affine:", "slope,intercept")
        return text, lambda x: slope * x + intercept
    raise argparse.ArgumentTypeError(
        f"unknown transform {text!r}; choose log, exp, f2c, c2f or affine:slope,intercept"
    )


# Flags that several subcommands share, each declared here once:
# flag -> (type, default, help).
_SHARED_FLAGS = {
    "--null": (_open_unit, 0.5, "point null success probability"),
    "--theta1": (_open_unit, 0.25, "point H1 of slr/logslr, figure1 a and trp --setup simple"),
    "--theta2": (_open_unit, 0.75, "point H2 of slr/logslr, figure1 a and trp --setup simple"),
}


def _add_shared_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        kind, default, help_text = _SHARED_FLAGS[flag]
        parser.add_argument(flag, type=kind, default=default,
                            help=f"{help_text} (default %(default)g)")


def _finish_leaf(parser: argparse.ArgumentParser, handler: Callable) -> None:
    """End a subcommand that writes rows: its output flags come last in its
    help, and a usage error from its handler prints its own usage."""
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write to PATH instead of standard output")
    parser.add_argument("--log-base", type=_log_base, default=math.e, metavar="B",
                        help="display base for log-valued columns (default e)")
    parser.set_defaults(handler=handler, parser=parser)


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

    with _usage(f"--min-n {args.min_n} --max-n {args.max_n}: "):
        report = scale.rank_order_agreement(scale.outcome_grid(args.max_n, args.min_n), args.kinds)
    if report.excluded:
        (first, reason), count = report.excluded[0], len(report.excluded)
        print(f"{args.parser.prog}: {count} outcomes excluded; first n={first.n}, k={first.k}: "
              f"{reason}", file=sys.stderr)
    header = ["row_type", "kind_x", "kind_y", "tau",
              "n_a", "k_a", "n_b", "k_b", "x_a", "x_b", "y_a", "y_b"]
    kinds = report.statistic_kinds
    tau_rows = [
        {"row_type": "tau", "kind_x": kx, "kind_y": ky, "tau": report.kendall_tau[(kx, ky)]}
        for i, kx in enumerate(kinds) for ky in kinds[i:]
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evidence statistics for one observed outcome")
    p.add_argument("--n", type=_finite, required=True, help="trial count")
    p.add_argument("--k", type=_finite, required=True, help="success count")
    p.add_argument("--mode", choices=evidence.MODES, default=EXACT)
    _add_shared_flags(p, "--null", "--theta1", "--theta2")
    p.add_argument("--bf", type=_prior_spec, default=None, metavar="PRIOR",
                   help="composite prior for bf kinds: 'uniform' or 'beta:a,b'")
    p.add_argument("--support", type=_support, default=(0.0, 1.0), metavar="LO,HI",
                   help="support of the composite prior (default 0,1)")
    p.add_argument("--kinds", type=_kinds_list, default=None, metavar="K1,K2,...",
                   help=f"statistics to emit, from: {','.join(EVIDENCE_KINDS)}")
    _finish_leaf(p, cmd_compute)

    p = sub.add_parser("figure1", help="log evidence curves over the observed proportion")
    p.add_argument("variant", choices=("a", "b"),
                   help="a: two point hypotheses; b: one-sided composite vs point null")
    p.add_argument("--n", type=_n_list, default=[10.0, 100.0], metavar="N1,N2,...")
    p.add_argument("--grid", type=_grid_size, default=99, help="curve points per n (default 99)")
    _add_shared_flags(p, "--theta1", "--theta2")
    p.add_argument("--support", type=_support, default=(0.0, 0.5), metavar="LO,HI")
    _add_shared_flags(p, "--null")
    _finish_leaf(p, cmd_figure1)

    p = sub.add_parser("trp", help="transition points of the log Bayes factor")
    p.add_argument("--setup", choices=("simple", "one-sided", "two-sided"),
                   default="one-sided")
    p.add_argument("--n", type=_n_list, default=[10.0, 100.0, 1000.0],
                   metavar="N1,N2,...")
    _add_shared_flags(p, "--theta1", "--theta2")
    p.add_argument("--support", type=_support, default=(0.0, 0.5), metavar="LO,HI")
    _add_shared_flags(p, "--null")
    _finish_leaf(p, cmd_trp)

    p = sub.add_parser("zero-paths", help="trace the two routes to log BF = 0")
    route = p.add_mutually_exclusive_group(required=True)
    route.add_argument("path", nargs="?", choices=transition.PATH_KINDS, default=None)
    route.add_argument("--both", action="store_true",
                       help="emit both traces, shrink-n then ride-trp")
    p.add_argument("--y", type=_open_unit, default=transition.Y_FIXED,
                   help=f"fixed observed proportion for shrink-n (default {transition.Y_FIXED:g})")
    p.add_argument("--n", type=_n_list, default=None, metavar="N1,N2,...")
    p.add_argument("--support", type=_support, default=None, metavar="LO,HI")
    _add_shared_flags(p, "--null")
    p.add_argument("--against", type=_point_pair, default=transition.AGAINST_PAIR,
                   metavar="T1,T2", help="point pair for the contradiction proxy (default %g,%g)"
                                         % transition.AGAINST_PAIR)
    _finish_leaf(p, cmd_zero_paths)

    p = sub.add_parser("audit", help="measurement-scale audits")
    audit_sub = p.add_subparsers(dest="audit_command", required=True)

    q = audit_sub.add_parser("transform", help="classify a scalar transformation")
    q.add_argument("--f", type=_transform_spec, default=("log", math.log),
                   metavar="SPEC", help="log, exp, f2c, c2f or affine:slope,intercept")
    q.add_argument("--interval", type=_numbers(2), default=(49.0, 100.0), metavar="LO,HI")
    q.add_argument("--unit", type=_finite, default=1.0)
    q.add_argument("--grid", type=_grid_size, default=64,
                   help="classification grid size (default 64)")
    _finish_leaf(q, cmd_audit_transform)

    q = audit_sub.add_parser("agreement", help="rank-order agreement between statistics")
    q.add_argument("--min-n", type=_non_negative_int, default=2)
    q.add_argument("--max-n", type=_non_negative_int, default=30)
    q.add_argument("--kinds", type=_kinds_list, default=["neglogp", "abslogbf"],
                   metavar="K1,K2,...")
    q.add_argument("--max-witnesses", type=_non_negative_int, default=None,
                   help="cap on emitted discordant-pair rows (default: all)")
    _finish_leaf(q, cmd_audit_agreement)

    q = audit_sub.add_parser("difference", help="difference comparison before/after -log")
    q.add_argument("--p-values", type=_numbers(3), default=(0.05, 0.04, 0.001),
                   metavar="P1,P2,P3")
    _finish_leaf(q, cmd_audit_difference)

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
