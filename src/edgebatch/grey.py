"""GM(1,1) grey forecaster.

Fits the grey difference equation x0(t) + alpha * z(t) = mu on the
accumulated series and extrapolates it a few steps ahead. Designed for
very short training windows (five points is the usual case here).

``fit`` builds a validated ``GreyModel`` and ``predict`` evaluates it at any
step. ``forecast`` gives the one step after the series, the only value the
tracker reads, with no model built. All three share one copy of each rule:
``_solve`` for the fit and ``_response`` for the time response.

Float sums here, in the workload monitor and in the run summary are left
folds, one rounding per term in order: from Python 3.12 on, ``sum`` of
floats is compensated and gives other last bits, which would make the
outputs depend on the interpreter version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NoReturn, Sequence

from .errors import DomainError, FitError

MIN_TRAIN_LEN = 4

# Below this magnitude the exponential response is numerically flat, so the
# model degrades to the linear limit of the time-response function.
EPS_ALPHA = 1e-9

_FINITE_FIELDS = ("alpha", "mu", "first_accumulated", "shift")


@dataclass(slots=True)
class GreyModel:
    """Fitted GM(1,1) parameters.

    ``alpha`` is the development coefficient and ``mu`` the grey input.
    ``shift`` records the offset added to make a window with zeros or
    negatives all-positive before fitting; predictions subtract it again.
    """

    alpha: float
    mu: float
    first_accumulated: float
    train_len: int
    shift: float = 0.0

    def __post_init__(self):
        if self.train_len < MIN_TRAIN_LEN:
            raise DomainError(f"train_len must be >= {MIN_TRAIN_LEN}, got {self.train_len}")
        isfinite = math.isfinite
        if not (isfinite(self.alpha) and isfinite(self.mu)
                and isfinite(self.first_accumulated) and isfinite(self.shift)):
            name = next(n for n in _FINITE_FIELDS if not isfinite(getattr(self, n)))
            raise DomainError(f"{name} must be finite")


def _check_finite(vals: Sequence[float]) -> None:
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            raise DomainError(f"observation {i} is not finite: {v!r}")


def _reject(vals: Sequence[float], v: float) -> NoReturn:
    """Raise for observation v of vals, the first that is not finite and
    positive."""
    _check_finite(vals)
    raise DomainError(f"observation {vals.index(v)} must be positive, got {v!r}")


def _solve(vals: Sequence[float]) -> tuple[float, float, float, int, float]:
    """(alpha, mu, first_accumulated, train_len, shift) of GM(1,1) on vals,
    at least four floats, read in place unless they are shifted."""
    n = len(vals)
    if n < MIN_TRAIN_LEN:
        raise DomainError(f"need at least {MIN_TRAIN_LEN} observations, got {n}")
    # One pass accumulates each observation and adds its background value
    # z = (acc[i] + acc[i - 1]) / 2, paired with y = vals[i], to the four
    # normal-equation sums, keeping only the last running sum. It stops at
    # the first value that is not finite and positive. A window with a zero
    # or negative value is then shifted up by (1 - min), so that the
    # accumulated series is strictly increasing, and passed over again; a
    # non-finite value, or a shifted value that overflows or cancels to zero,
    # is rejected.
    inf = math.inf
    shift = 0.0
    while True:
        rest = iter(vals)
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
        lowest = min(vals)
        if shift or not lowest <= 0:
            _reject(vals, next(v for v in vals if not 0.0 < v < inf))
        _check_finite(vals)
        shift = 1.0 - lowest
        vals = [v + shift for v in vals]
    m = n - 1

    mszz, szsz = m * szz, sz * sz
    den, scale = mszz - szsz, mszz + szsz
    if den <= scale * 1e-15:
        # All background values equal. Consistent only if the tail is flat.
        tail = list(vals)[1:]
        spread = max(tail) - min(tail)
        if spread <= 1e-12 * max(abs(tail[0]), 1.0):
            return 0.0, sy / m, first, n, shift
        raise FitError("normal equations are singular and the data is inconsistent")

    alpha = (sz * sy - m * szy) / den
    return alpha, (sy + alpha * sz) / m, first, n, shift


def _response(alpha: float, mu: float, first: float, shift: float, t: int) -> float:
    """Original-series value at step t >= 1 (1-based), less the shift: the
    time response r(t) - r(t - 1), or r(1) at t = 1, where r(t) is
    (first - mu / alpha) * exp(-alpha * (t - 1)) + mu / alpha, or its linear
    limit first + mu * (t - 1) near alpha = 0."""
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


def fit(series: Sequence[float]) -> GreyModel:
    """Fit GM(1,1) to a series of at least four finite observations. The
    shift of a window with zeros or negatives is stored on the model and
    undone by :func:`predict`."""
    return GreyModel(*_solve(list(map(float, series))))


def predict(model: GreyModel, t: int) -> float:
    """Original-series value at step t (1-based), less the model's shift."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    return _response(model.alpha, model.mu, model.first_accumulated, model.shift, t)


def forecast(series: Sequence[float]) -> float:
    """The one-step forecast of GM(1,1) fitted to series, a sequence of at
    least four floats: ``predict(fit(series), len(series) + 1)`` bit for bit,
    with no model built. It raises as ``fit`` and ``predict`` do, except
    where ``fit`` would reject a parameter that is not finite: the forecast
    is then not finite either."""
    alpha, mu, first, n, shift = _solve(series)
    return _response(alpha, mu, first, shift, n + 1)
