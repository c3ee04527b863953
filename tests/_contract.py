"""The README's error contract, checked over every kind of double.

"Bad input raises `ValueError`, and a solver that cannot finish raises
`RuntimeError`; each message names the inputs it failed on." So a call
either returns a value that is not a nan float or raises one of those two,
and never with a bare message of the `math` module, which names no input.
"""

from __future__ import annotations

import math
import operator
import signal
import sys
from typing import Callable

from hypothesis import strategies as st

_SPECIAL = (
    0.0, -0.0, 5e-324, math.nextafter(sys.float_info.min, 0.0),
    math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
    1e300, sys.float_info.max, math.inf, -math.inf, math.nan,
)


def _magnitudes(low: float, high: float) -> st.SearchStrategy[float]:
    """Doubles uniform in log from 10**low to 10**high."""
    return st.floats(low, high).map(lambda exponent: 10.0**exponent)


# ±0, the smallest and the largest subnormal, 1 and its neighbours, 1e300, the
# largest double, ±inf and nan, and magnitudes of either sign uniform in log
# from the subnormals to 1e308.
EXTREME_DOUBLES = st.one_of(st.sampled_from(_SPECIAL), _magnitudes(-320.0, 308.0),
                            _magnitudes(-320.0, 308.0).map(operator.neg))
# The same doubles where a record bounds an argument, at or above 0 (a count or a
# shape) or in [0, 1] (a probability, which also takes ordinary points there), so
# that most draws reach the code behind the records' checks.
NONNEGATIVE = st.one_of(st.sampled_from([x for x in _SPECIAL if x >= 0.0]),
                        _magnitudes(-320.0, 308.0))
UNIT = st.one_of(st.sampled_from([x for x in _SPECIAL if 0.0 <= x <= 1.0]),
                 _magnitudes(-320.0, 0.0), st.floats(0.0, 1.0))

_BARE_MESSAGES = frozenset({
    "math domain error", "math range error",
    "cannot convert float NaN to integer", "cannot convert float infinity to integer",
})
# Seconds one call may take. Shapes from about 1e16 to 1e154 near the mean run
# the continued fraction to its 2**20-iteration cap, about 1.1 s a time (past
# that its terms overflow, and it stops at once).
CALL_LIMIT_S = 20.0


def _overran(signum, frame):
    # neither a ValueError nor a RuntimeError, so the check fails
    raise TimeoutError(f"a call took more than {CALL_LIMIT_S} s")


def check_contract(call: Callable[[], object]) -> None:
    """Call `call` under an alarm and check the result against the contract."""
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        result = call()
    except (ValueError, RuntimeError) as err:
        assert str(err) not in _BARE_MESSAGES, repr(err)
        return
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert not (isinstance(result, float) and math.isnan(result))
