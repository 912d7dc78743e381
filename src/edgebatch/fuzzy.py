"""Fuzzy batch-interval controller.

Two inputs drive it: the predicted relative traffic change C and the
workload deviation D = S - 1. ``compute_traffic_change`` and
``compute_workload_deviation`` clamp them to [-0.2, +0.2], once: the clamped
values are the ones logged, and ``infer`` takes only inputs in that range.
``infer`` fuzzifies them over five triangular labels, runs them through the
constant 5x5 rule table ``DEFAULT_RULES``, and defuzzifies to an integer
adjustment level in {-2..+2}. A level is one block: level k moves the batch
interval by k block intervals.

On each control tick the engine reads the smoothed workload S (which gives
D), then the last window's rate and its one-step forecast (which give C),
and passes them to ``FuzzyController.control_step``. The controller only
decides: it returns the tick's ``ControlRow``, the metrics row itself, and
the engine logs it and applies its interval. ``ControllerConfig`` holds the
interval range and the control period; the block interval is
``EngineConfig``'s, and whether C uses the forecast is ``TrackerConfig``'s.

The labels are the ints 0..4 (NB..PB), and they index ``DEFAULT_RULES``
directly. Degrees are rounded and summed in label order, which the float
sums depend on. ``_memberships`` evaluates only the two labels whose centres
bracket its input: the centres are exactly one HALF_WIDTH apart as
floats too, and float subtraction is monotone, so every other label's degree
is <= 0. ``infer`` walks its (label, degree) lists and builds no dict. The
clamps are comparisons that return what ``min``/``max`` would: on CPython
3.11 a clamp costs ~0.5 us as two builtin calls and ~0.07 us as comparisons.
``ControlRow`` is slotted, not frozen, since a frozen ``__init__`` sets each
field through ``object.__setattr__``.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError

log = logging.getLogger(__name__)


# The fuzzy labels are the ints 0..4, NB, NS, ZO, PS and PB: triangular
# memberships centred every HALF_WIDTH, shoulders saturated. With centres
# spaced exactly one HALF_WIDTH apart the degrees of any input in [_LO, _HI]
# sum to 1 and at most two labels are active.
CENTERS = (-0.2, -0.1, 0.0, 0.1, 0.2)
HALF_WIDTH = 0.1
_LO, _HI = CENTERS[0], CENTERS[-1]
_TOP = len(CENTERS) - 1


def clamp(x: float) -> float:
    """min(_HI, max(_LO, x)) as comparisons: NaN gives _LO, -0.0 stays."""
    x = x if x > _LO else _LO
    return x if x < _HI else _HI


def _memberships(x: float) -> list[tuple[int, float]]:
    """(label, degree) of x's nonzero memberships in label order, for x in
    [-0.2, 0.2]."""
    out = []
    # CENTERS[hi - 1] <= x < CENTERS[hi]: only these two labels can be active.
    # Below x, x - centre >= 0 stands for its abs (-0.0 gives the same degree);
    # above x, centre - x is abs(x - centre) exactly: subtraction is symmetric.
    hi = bisect_right(CENTERS, x)
    # Snap representation noise so boundary inputs (e.g. exactly half way
    # between centres) fire with their exact intended degrees. Rounding never
    # makes a degree <= 0 positive, so skip those.
    degree = 1.0 - (x - CENTERS[hi - 1]) / HALF_WIDTH
    if degree > 0.0 and (degree := round(degree, 12)) > 0.0:
        out.append((hi - 1, degree))
    if hi <= _TOP:
        degree = 1.0 - (CENTERS[hi] - x) / HALF_WIDTH
        if degree > 0.0 and (degree := round(degree, 12)) > 0.0:
            out.append((hi, degree))
    return out


# Rows indexed by the workload label D (NB..PB top to bottom), columns by the
# traffic-change label C (NB..PB left to right).
DEFAULT_RULES: tuple[tuple[int, ...], ...] = (
    (-2, -1, -1, 0, 0),
    (-1, -1, 0, 0, 0),
    (-1, 0, 0, 0, 1),
    (0, 0, 0, 1, 1),
    (0, 0, 1, 1, 2),
)

MIN_LEVEL = -2
MAX_LEVEL = 2


@dataclass(frozen=True)
class ControllerConfig:
    min_interval: int
    max_interval: int
    control_period: int = 10_000

    def __post_init__(self):
        if self.control_period <= 0:
            raise DomainError("control_period must be positive")


def compute_traffic_change(q_next: float, q_now: float) -> float:
    """Relative predicted rate change, clamped to the fuzzy domain.

    A non-positive current rate gives no usable denominator; treat the
    traffic as flat rather than failing the control step.
    """
    if q_now <= 0:
        log.debug("traffic change undefined at q_now=%r, using 0", q_now)
        return 0.0
    return clamp((q_next - q_now) / q_now)


def compute_workload_deviation(s: float) -> float:
    return clamp(s - 1.0)


def _round_half_away(x: float) -> int:
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def infer(c: float, d: float) -> int:
    """Min-conjunction inference over DEFAULT_RULES, defuzzified by weighted
    mean, for C and D in [-0.2, 0.2] (as the compute_* functions return)."""
    d_degrees = _memberships(d)
    num = 0.0
    den = 0.0
    for c_label, wc in _memberships(c):
        for d_label, wd in d_degrees:
            strength = wd if wd < wc else wc  # min(wc, wd)
            num += strength * DEFAULT_RULES[d_label][c_label]
            den += strength
    return _round_half_away(num / den)


def adjust_interval(current: int, level: int, block_interval: int,
                    config: ControllerConfig) -> int:
    """Move the interval by level blocks, clamped to the configured range."""
    if current % block_interval != 0:
        raise DomainError(f"current interval {current} is not a block multiple")
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise DomainError(f"level must be in [-2, 2], got {level}")
    proposed = current + level * block_interval
    # min(max_interval, max(min_interval, proposed)), as comparisons.
    lo, hi = config.min_interval, config.max_interval
    proposed = proposed if proposed > lo else lo
    return proposed if proposed < hi else hi


@dataclass(slots=True)
class ControlRow:
    """Metrics row emitted at every control tick (adaptive or monitoring).

    C, D and the level are None on a tick that only monitors: in vanilla
    mode and before ``control_start``.
    """

    time_ms: float
    interval_ms: int
    workload_s: float
    rate_measured: Optional[float]
    rate_predicted: Optional[float]
    traffic_change: Optional[float]
    workload_deviation: Optional[float]
    fuzzy_level: Optional[int]


class FuzzyController:
    """Periodic control step: decides an interval from S and the rates.

    The engine reads S and (q_now, q_next) once per tick and passes them in;
    the controller only decides, and the engine stages the row's interval.
    """

    def __init__(self, config: ControllerConfig, block_interval: int):
        self.config = config
        self.block_interval = block_interval

    def control_step(self, now: float, interval: int, s: float, q_now: Optional[float],
                     q_next: Optional[float]) -> ControlRow:
        if q_next is None:
            log.debug("tracker not ready at t=%s, workload-only control", now)
            c = 0.0
        else:
            c = compute_traffic_change(q_next, q_now)
        d = compute_workload_deviation(s)
        level = infer(c, d)
        interval = adjust_interval(interval, level, self.block_interval, self.config)
        return ControlRow(now, interval, s, q_now, q_next, c, d, level)
