"""The result records are immutable NamedTuples; four of them validate their fields."""

import math
import re

import pytest

from evlab.evidence import BinomialOutcome, CompositeHypothesis, EvidenceValue, PointHypothesis
from evlab.scale import (
    AgreementConfig,
    DifferenceComparison,
    DiscordantPair,
    TransformationAudit,
    outcome_grid,
    rank_order_agreement,
)
from evlab.transition import TrPResult, ZeroPathPoint

DATA = BinomialOutcome(10, 3)
NULL = PointHypothesis(0.5)


def _records():
    """One instance of every record type."""
    return [
        DATA,
        NULL,
        CompositeHypothesis(),
        EvidenceValue("pvalue", 0.34375),
        TrPResult(10.0, 0.5, 0.0, 0.0),
        ZeroPathPoint(1.0, 0.9, 0.1, 0.2),
        TransformationAudit(True, True, True),
        DiscordantPair(DATA, BinomialOutcome(10, 4), "neglogp", "abslogbf", (1, 2), (2, 1)),
        AgreementConfig(),
        rank_order_agreement(outcome_grid(4), ["neglogp", "abslogbf"]),
        DifferenceComparison((0.05, 0.04, 0.001), (0.01, 0.039), (0.22, 3.7)),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = None


# (constructor, args, kwargs, message) for inputs each validating record rejects.
REJECTED = [
    (BinomialOutcome, (10, 5, "approx"), {},
     "mode must be one of ('exact', 'continuous'), got 'approx'"),
    (BinomialOutcome, (-1, 0), {}, "trial count must be nonnegative, got n=-1"),
    (BinomialOutcome, (10, 11), {}, "require 0 <= k <= n, got n=10, k=11"),
    (BinomialOutcome, (10, -1), {}, "require 0 <= k <= n, got n=10, k=-1"),
    (BinomialOutcome, (10.5, 5), {}, "exact mode requires integer n and k, got n=10.5, k=5"),
    (BinomialOutcome, (10, 4.5), {}, "exact mode requires integer n and k, got n=10, k=4.5"),
    (PointHypothesis, (0.0,), {}, "point hypothesis requires theta0 in (0,1), got 0.0"),
    (PointHypothesis, (1.0,), {}, "point hypothesis requires theta0 in (0,1), got 1.0"),
    (PointHypothesis, (float("nan"),), {}, "point hypothesis requires theta0 in (0,1), got nan"),
    (CompositeHypothesis, ((0.5, 0.2),), {},
     "support must be a positive-width subinterval of [0,1], got (0.5, 0.2)"),
    (CompositeHypothesis, ((-0.1, 0.5),), {},
     "support must be a positive-width subinterval of [0,1], got (-0.1, 0.5)"),
    (CompositeHypothesis, (), {"support": (0.3, 0.3)},
     "support must be a positive-width subinterval of [0,1], got (0.3, 0.3)"),
    (CompositeHypothesis, ((0.0, 1.0), 0.0, 1.0), {},
     "prior shapes must be positive and finite, got a=0.0, b=1.0"),
    (CompositeHypothesis, (), {"b": -2.0},
     "prior shapes must be positive and finite, got a=1.0, b=-2.0"),
    (TrPResult, (10.0, 1.0, 0.0, 0.0), {}, "transition point must be in (0,1), got 1.0"),
    (TrPResult, (10.0, 0.0, 0.0, 0.0), {}, "transition point must be in (0,1), got 0.0"),
    (TrPResult, (10.0, 0.5, 1e-7, 0.0), {}, "root residual 1e-07 exceeds the limit 1e-08"),
    (TrPResult, (10.0, 0.5, -1e-9, 0.0), {}, "root residual -1e-09 exceeds the limit 1e-08"),
    (TrPResult, (10.0, 0.5, 0.0, -1.0), {}, "bracket width must be nonnegative, got -1.0"),
    # appended, so the ids of the rows above keep their index
    (CompositeHypothesis, ((0.0, 1.0), math.inf, 1.0), {},
     "prior shapes must be positive and finite, got a=inf, b=1.0"),
    (CompositeHypothesis, (), {"b": math.inf},
     "prior shapes must be positive and finite, got a=1.0, b=inf"),
    (CompositeHypothesis, ((0.0, 1.0), math.nan, 1.0), {},
     "prior shapes must be positive and finite, got a=nan, b=1.0"),
]


@pytest.mark.parametrize("make, args, kwargs, message", REJECTED,
                         ids=[f"{r[0].__name__}-{i}" for i, r in enumerate(REJECTED)])
def test_validating_records_reject_bad_fields(make, args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(*args, **kwargs)


# (record, fields given to _replace, message): the checks of the constructor.
REPLACED = [
    (BinomialOutcome(10, 3), {"k": 11}, "require 0 <= k <= n, got n=10, k=11"),
    (BinomialOutcome(10, 3), {"n": float("nan")}, "trial count must be nonnegative, got n=nan"),
    (PointHypothesis(0.5), {"theta0": 2.0}, "point hypothesis requires theta0 in (0,1), got 2.0"),
    (CompositeHypothesis(), {"a": -1.0},
     "prior shapes must be positive and finite, got a=-1.0, b=1.0"),
    (TrPResult(10.0, 0.4, 0.0, 0.0), {"residual": 5e-4},
     "root residual 0.0005 exceeds the limit 1e-08"),
]


@pytest.mark.parametrize("record, fields, message", REPLACED,
                         ids=[type(r[0]).__name__ for r in REPLACED])
def test_make_and_replace_check_like_the_constructor(record, fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record._replace(**fields)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(record)._make({**record._asdict(), **fields}.values())
    valid = record._replace()
    assert valid == record and type(valid) is type(record)


def test_validating_records_keep_their_defaults_and_keywords():
    assert BinomialOutcome(n=10, k=3) == (10, 3, "exact")
    assert CompositeHypothesis() == ((0.0, 1.0), 1.0, 1.0)
    assert TrPResult(n=10.0, trp_y=0.5, residual=0.0, bracket_width=0.0).trp_y == 0.5


def test_records_behave_as_tuples():
    assert NULL == (0.5,)
    n, k, mode = DATA
    assert (n, k, mode) == (10, 3, "exact")
    assert hash(DATA) == hash((10, 3, "exact"))
    assert repr(DATA) == "BinomialOutcome(n=10, k=3, mode='exact')"
