"""evlab: evidence statistics, transition points, and measurement-scale audits.

A numerical laboratory for binomial evidence statistics (p-values,
likelihood ratios, Bayes factors), the transition points where a log Bayes
factor changes sign, the two distinct routes by which it reaches zero, and
representational audits of what scale type such statistics can support.

The public names below are re-exported lazily (PEP 562): ``import evlab``
loads no submodule, and the first use of a name imports only its home
module. Submodules also resolve as attributes (``evlab.scale``).
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    **dict.fromkeys((
        "BinomialOutcome", "PointHypothesis", "CompositeHypothesis", "Hypothesis",
        "EvidenceValue", "EXACT", "CONTINUOUS", "EVIDENCE_KINDS", "LOG_SCALE_KINDS",
        "uniform_prior", "binomial_log_pmf", "p_value_two_sided", "neg_log_p",
        "log_mlr", "log_slr", "log_bf", "abs_log_bf", "log_bf_irrelevant_data",
        "support_label", "compute_evidence", "UnsupportedNullError",
        "DegeneratePriorError",
    ), "evidence"),
    **dict.fromkeys((
        "log_gamma", "log_beta", "log_binomial_coeff", "regularized_incomplete_beta",
        "RootBracket", "find_root", "InvalidBracketError", "ConvergenceError",
    ), "numerics"),
    **dict.fromkeys((
        "TrPResult", "CurveEntry", "NoSignChangeError", "trp_simple", "trp_composite",
        "trp_composite_two_sided", "trp_curve", "against_both", "zero_path",
        "ZeroPathConfig", "ZeroPathPoint", "ZeroPathEndpoint", "ZeroPathReport",
        "shrink_n_config", "ride_trp_config", "SHRINK_N", "RIDE_TRP",
    ), "transition"),
    **dict.fromkeys((
        "ScaleType", "TransformationAudit", "classify_transformation", "unit_distortion",
        "permissible", "AgreementConfig", "AgreementReport", "DiscordantPair",
        "rank_order_agreement", "outcome_grid", "DifferenceComparison",
        "difference_comparison_demo", "DegenerateGridError",
    ), "scale"),
}
_SUBMODULES = ("cli", "evidence", "numerics", "scale", "transition")

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
