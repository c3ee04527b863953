"""The CLI's argument grammar: the argparse types that read and check each
flag, the flags that several subcommands share, and every subcommand's
declaration.

It is a module of its own, apart from the handlers in `cli`, because a launch
without a bytecode cache compiles each module from source, and two modules
compiled one after the other peak lower than one module of both.
"""

from __future__ import annotations

import argparse
import contextlib
import math
from typing import Callable, Iterator, Mapping

from . import evidence, transition
from .evidence import EVIDENCE_KINDS, EXACT, CompositeHypothesis, PointHypothesis


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


def add_commands(sub: argparse._SubParsersAction, handlers: Mapping[str, Callable]) -> None:
    """Declare every subcommand on sub; handlers maps each `cmd_*` name to the
    handler its leaf runs."""

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
    _finish_leaf(p, handlers["cmd_compute"])

    p = sub.add_parser("figure1", help="log evidence curves over the observed proportion")
    p.add_argument("variant", choices=("a", "b"),
                   help="a: two point hypotheses; b: one-sided composite vs point null")
    p.add_argument("--n", type=_n_list, default=[10.0, 100.0], metavar="N1,N2,...")
    p.add_argument("--grid", type=_grid_size, default=99, help="curve points per n (default 99)")
    _add_shared_flags(p, "--theta1", "--theta2")
    p.add_argument("--support", type=_support, default=(0.0, 0.5), metavar="LO,HI")
    _add_shared_flags(p, "--null")
    _finish_leaf(p, handlers["cmd_figure1"])

    p = sub.add_parser("trp", help="transition points of the log Bayes factor")
    p.add_argument("--setup", choices=("simple", "one-sided", "two-sided"),
                   default="one-sided")
    p.add_argument("--n", type=_n_list, default=[10.0, 100.0, 1000.0],
                   metavar="N1,N2,...")
    _add_shared_flags(p, "--theta1", "--theta2")
    p.add_argument("--support", type=_support, default=(0.0, 0.5), metavar="LO,HI")
    _add_shared_flags(p, "--null")
    _finish_leaf(p, handlers["cmd_trp"])

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
    _finish_leaf(p, handlers["cmd_zero_paths"])

    p = sub.add_parser("audit", help="measurement-scale audits")
    audit_sub = p.add_subparsers(dest="audit_command", required=True)

    q = audit_sub.add_parser("transform", help="classify a scalar transformation")
    q.add_argument("--f", type=_transform_spec, default=("log", math.log),
                   metavar="SPEC", help="log, exp, f2c, c2f or affine:slope,intercept")
    q.add_argument("--interval", type=_numbers(2), default=(49.0, 100.0), metavar="LO,HI")
    q.add_argument("--unit", type=_finite, default=1.0)
    q.add_argument("--grid", type=_grid_size, default=64,
                   help="classification grid size (default 64)")
    _finish_leaf(q, handlers["cmd_audit_transform"])

    q = audit_sub.add_parser("agreement", help="rank-order agreement between statistics")
    q.add_argument("--min-n", type=_non_negative_int, default=2)
    q.add_argument("--max-n", type=_non_negative_int, default=30)
    q.add_argument("--kinds", type=_kinds_list, default=["neglogp", "abslogbf"],
                   metavar="K1,K2,...")
    q.add_argument("--max-witnesses", type=_non_negative_int, default=None,
                   help="cap on emitted discordant-pair rows (default: all)")
    _finish_leaf(q, handlers["cmd_audit_agreement"])

    q = audit_sub.add_parser("difference", help="difference comparison before/after -log")
    q.add_argument("--p-values", type=_numbers(3), default=(0.05, 0.04, 0.001),
                   metavar="P1,P2,P3")
    _finish_leaf(q, handlers["cmd_audit_difference"])
