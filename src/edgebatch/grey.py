"""GM(1,1) grey forecaster.

Fits the grey difference equation x0(t) + alpha * z(t) = mu on the
accumulated series and extrapolates it a few steps ahead. Designed for
very short training windows (five points is the usual case here).

``fit`` returns the fitted parameters as a plain tuple, read from the series
in place, and ``predict`` evaluates that tuple at any step. ``forecast`` is
``predict(fit(series), len(series) + 1)``, the one step after the series and
the only value the tracker reads.

Float sums here, in the workload monitor and in the run summary are left
folds, one rounding per term in order: from Python 3.12 on, ``sum`` of
floats is compensated and gives other last bits, which would make the
outputs depend on the interpreter version.
"""

from __future__ import annotations

import math
from typing import NoReturn, Sequence

from .errors import DomainError, FitError

MIN_TRAIN_LEN = 4

# Below this magnitude the exponential response is numerically flat, so the
# model degrades to the linear limit of the time-response function.
EPS_ALPHA = 1e-9


def _check_finite(vals: Sequence[float]) -> None:
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            raise DomainError(f"observation {i} is not finite: {v!r}")


def _reject(vals: Sequence[float], v: float) -> NoReturn:
    """Raise for observation v of vals, the first that is not finite and
    positive."""
    _check_finite(vals)
    raise DomainError(f"observation {vals.index(v)} must be positive, got {v!r}")


def fit(series: Sequence[float]) -> tuple[float, float, float, int, float]:
    """GM(1,1) fitted to series, at least four floats, read in place unless
    they are shifted: (alpha, mu, first_accumulated, train_len, shift).
    ``alpha`` is the development coefficient and ``mu`` the grey input;
    ``shift`` is the offset added to make a window with zeros or negatives
    all-positive, which :func:`predict` subtracts again."""
    n = len(series)
    if n < MIN_TRAIN_LEN:
        raise DomainError(f"need at least {MIN_TRAIN_LEN} observations, got {n}")
    # One pass accumulates each observation and adds its background value
    # z = (acc[i] + acc[i - 1]) / 2, paired with y = series[i], to the four
    # normal-equation sums, keeping only the last running sum. It stops at
    # the first value that is not finite and positive. A window with a zero
    # or negative value is then shifted up by (1 - min), so that the
    # accumulated series is strictly increasing, and passed over again; a
    # non-finite value, or a shifted value that overflows or cancels to zero,
    # is rejected.
    inf = math.inf
    shift = 0.0
    while True:
        rest = iter(series)
        first = prev = next(rest)
        sz = sy = szz = szy = 0.0  # left folds, see the module docstring
        if 0.0 < first < inf:
            for y in rest:
                if not 0.0 < y < inf:
                    break
                acc = prev + y
                z = (acc + prev) / 2.0
                prev = acc
                sz += z
                sy += y
                szz += z * z
                szy += z * y
            else:
                break  # every value is finite and positive
        lowest = min(series)
        if shift or not lowest <= 0:
            _reject(series, next(v for v in series if not 0.0 < v < inf))
        _check_finite(series)
        shift = 1.0 - lowest
        series = [v + shift for v in series]
    m = n - 1

    mszz, szsz = m * szz, sz * sz
    den, scale = mszz - szsz, mszz + szsz
    if den <= scale * 1e-15:
        # All background values equal. Consistent only if the tail is flat.
        tail = list(series)[1:]
        spread = max(tail) - min(tail)
        if spread <= 1e-12 * max(abs(tail[0]), 1.0):
            return 0.0, sy / m, first, n, shift
        raise FitError("normal equations are singular and the data is inconsistent")

    alpha = (sz * sy - m * szy) / den
    return alpha, (sy + alpha * sz) / m, first, n, shift


def predict(model: tuple[float, float, float, int, float], t: int) -> float:
    """Original-series value at step t >= 1 (1-based), less the shift: the
    time response r(t) - r(t - 1), or r(1) at t = 1, where r(t) is
    (first - mu / alpha) * exp(-alpha * (t - 1)) + mu / alpha, or its linear
    limit first + mu * (t - 1) near alpha = 0."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    alpha, mu, first, _, shift = model
    if -EPS_ALPHA < alpha < EPS_ALPHA:
        raw = first + mu * (t - 1)
        if t > 1:
            raw -= first + mu * (t - 2)
    else:
        ratio = mu / alpha
        raw = (first - ratio) * math.exp(-alpha * (t - 1)) + ratio
        if t > 1:
            raw -= (first - ratio) * math.exp(-alpha * (t - 2)) + ratio
    return raw - shift


def forecast(series: Sequence[float]) -> float:
    """The one-step forecast of GM(1,1) fitted to series."""
    return predict(fit(series), len(series) + 1)
