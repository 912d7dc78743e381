"""Fuzzy batch-interval controller.

Two inputs drive it: the predicted relative traffic change C and the
workload deviation D = S - 1. ``compute_traffic_change`` and
``compute_workload_deviation`` clamp them to [-0.2, +0.2], once: the clamped
values are the ones logged, and ``infer`` takes only inputs in that range.
``infer`` fuzzifies them over five triangular labels, runs them through the
constant 5x5 rule table ``DEFAULT_RULES``, and defuzzifies to an integer
adjustment level in {-2..+2}. Level k moves the batch interval by k block
intervals. The rule-weighted mean is written once, in ``_mean``: ``infer``
takes it of the unsnapped degrees, and within TIE_GUARD of a half-integer of
the ``_snap``ped degrees, which decide there.

On each control tick the engine passes S, the last window's rate and its
one-step forecast to ``FuzzyController.control_step``. The controller only
decides: it returns the tick's ``ControlRow``, and the engine logs it and
applies its interval.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError

log = logging.getLogger(__name__)


# The fuzzy labels are the ints 0..4, NB, NS, ZO, PS and PB, which index
# DEFAULT_RULES directly: triangular memberships centred every HALF_WIDTH,
# shoulders saturated. With centres spaced exactly one HALF_WIDTH apart the
# degrees of any input in [_LO, _HI] sum to 1 and at most two labels are
# active.
CENTERS = (-0.2, -0.1, 0.0, 0.1, 0.2)
HALF_WIDTH = 0.1
_LO, _HI = CENTERS[0], CENTERS[-1]
_LOWER_CENTERS = CENTERS[:-1]  # the lower bracketing label: bisect in these

TIE_GUARD = 1e-9  # infer's mean this near a half-integer is taken on snapped degrees


def clamp(x: float) -> float:
    """min(_HI, max(_LO, x)) as comparisons, a fraction of the cost of the
    two builtin calls (PR 11): NaN gives _LO, -0.0 stays."""
    x = x if x > _LO else _LO
    return x if x < _HI else _HI


def _bracket(x: float) -> tuple[int, float, float]:
    """(i, degree of label i, degree of label i + 1), unsnapped, for x in
    [-0.2, 0.2]: the one definition of the degrees."""
    # Labels i and i + 1 bracket x: only these two can be active, since the
    # centres are one HALF_WIDTH apart as floats too and float subtraction is
    # monotone. x = 0.2 takes 3 and 4, where label 3's degree is exactly 0.
    # Below x, x - centre >= 0 stands for its abs (-0.0 gives the same degree);
    # above x, centre - x is abs(x - centre) exactly: subtraction is symmetric.
    i = bisect_right(_LOWER_CENTERS, x) - 1
    return i, 1.0 - (x - CENTERS[i]) / HALF_WIDTH, 1.0 - (CENTERS[i + 1] - x) / HALF_WIDTH


# Rows indexed by the workload label D (NB..PB top to bottom), columns by the
# traffic-change label C (NB..PB left to right).
DEFAULT_RULES: tuple[tuple[int, ...], ...] = (
    (-2, -1, -1, 0, 0),
    (-1, -1, 0, 0, 0),
    (-1, 0, 0, 0, 1),
    (0, 0, 0, 1, 1),
    (0, 0, 1, 1, 2),
)


@dataclass(frozen=True)
class ControllerConfig:
    """The interval range and the control period, in ms. The block interval
    is ``EngineConfig``'s, and whether C uses the forecast is
    ``TrackerConfig``'s."""

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


def _snap(degree: float) -> float:
    """A degree of ``_bracket`` snapped to 12 decimals, so that boundary inputs
    (e.g. exactly half way between centres) fire with their exact intended
    degrees; one <= 0 gives 0.0, as rounding never makes it positive."""
    return round(degree, 12) if degree > 0.0 else 0.0


def _mean(i: int, c_lo: float, c_hi: float, j: int, d_lo: float, d_hi: float) -> float:
    """The min-conjunction inference over DEFAULT_RULES, defuzzified by
    weighted mean, of C's degrees of labels i and i + 1 and D's of labels j
    and j + 1, each in [0, 1]: a degree of 0 adds a strength of 0. Terms are
    summed in label order, C's label first."""
    # The four strengths, min(degree of C, degree of D), as comparisons.
    lo_lo = c_lo if c_lo < d_lo else d_lo
    lo_hi = c_lo if c_lo < d_hi else d_hi
    hi_lo = c_hi if c_hi < d_lo else d_lo
    hi_hi = c_hi if c_hi < d_hi else d_hi
    rules_lo, rules_hi = DEFAULT_RULES[j], DEFAULT_RULES[j + 1]
    return ((lo_lo * rules_lo[i] + lo_hi * rules_hi[i]
             + hi_lo * rules_lo[i + 1] + hi_hi * rules_hi[i + 1])
            / (lo_lo + lo_hi + hi_lo + hi_hi))


def infer(c: float, d: float) -> int:
    """The level of C and D in [-0.2, 0.2] (as the compute_* functions
    return): ``_mean`` of their ``_snap``ped degrees, rounded half away from
    zero. It is computed by a floating-point filter with an exact fallback
    (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
    Geometric Predicates", 1997): ``_mean`` of the unsnapped degrees decides
    the level, with no ``round``, unless it lies within TIE_GUARD of a
    half-integer, where the snapped mean decides.

    The two means differ by under 2e-11: a snapped degree is within 5e-13
    of its unsnapped value (one that rounds to 0 weighs no more than that),
    ``min`` is 1-Lipschitz, every rule level is at most 2 in magnitude, and
    the denominator is >= 0.5, since each input's largest degree is at least
    0.5. So outside TIE_GUARD of a half-integer both means round to the same
    level."""
    # Labels i and i + 1 bracket c, j and j + 1 bracket d.
    i, c_lo, c_hi = _bracket(c)
    j, d_lo, d_hi = _bracket(d)
    # The mean is in [-2, 2], so t > 0 and int(t) is floor(t): off a tie, the
    # nearest level is int(t) - 2. Adding 2.5 rounds by under 1e-15.
    t = _mean(i, c_lo, c_hi, j, d_lo, d_hi) + 2.5
    level = int(t)
    if TIE_GUARD < t - level < 1.0 - TIE_GUARD:
        return level - 2
    return _round_half_away(_mean(i, _snap(c_lo), _snap(c_hi), j, _snap(d_lo), _snap(d_hi)))


def adjust_interval(current: int, level: int, block_interval: int,
                    config: ControllerConfig) -> int:
    """Move the interval by level blocks, clamped to the configured range.
    Unchecked: current is a block multiple, since ``EngineConfig`` makes the
    initial interval and both bounds ones and a clamped step keeps that, and
    level is in -2..2, the only levels ``infer`` returns."""
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
    """Periodic control step: decides an interval from S and the rates."""

    def __init__(self, config: ControllerConfig, block_interval: int):
        self.config = config
        self.block_interval = block_interval

    def control_step(self, now: float, interval: int, s: float, q_now: Optional[float],
                     q_next: Optional[float]) -> ControlRow:
        """The row of the tick at ``now``: C from the rates (0 while q_next is
        None), D from S, the level by ``infer`` and the interval by
        ``adjust_interval``."""
        if q_next is None:
            log.debug("tracker not ready at t=%s, workload-only control", now)
            c = 0.0
        else:
            c = compute_traffic_change(q_next, q_now)
        d = compute_workload_deviation(s)
        level = infer(c, d)
        interval = adjust_interval(interval, level, self.block_interval, self.config)
        return ControlRow(now, interval, s, q_now, q_next, c, d, level)
