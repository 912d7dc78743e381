"""GM(1,1) grey forecaster.

Fits the grey difference equation x0(t) + alpha * z(t) = mu on the
accumulated series and extrapolates it a few steps ahead. Designed for
very short training windows (five points is the usual case here).

The tracker fits once per closed rate window and takes one forecast per
fit. ``fit`` makes one pass over the observations: it checks each one,
accumulates it and adds its background value to the four normal-equation
sums, keeping only the last running sum, so it builds no list of the
accumulated series or of the background values. ``predict`` differences two
evaluations of the time response of the accumulated series.
``GreyModel`` is slotted, not frozen, since a frozen ``__init__`` sets each
field through ``object.__setattr__``.

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


def _check_finite(vals: list[float]) -> None:
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            raise DomainError(f"observation {i} is not finite: {v!r}")


def _reject(vals: list[float], v: float) -> NoReturn:
    """Raise for observation v of vals, the first that is not finite and
    positive."""
    _check_finite(vals)
    raise DomainError(f"observation {vals.index(v)} must be positive, got {v!r}")


def fit(series: Sequence[float]) -> GreyModel:
    """Fit GM(1,1) to a series of at least four finite observations.

    Windows containing zeros or negative values are shifted up by
    (1 - min) first, so the accumulated series is strictly increasing;
    the shift is stored on the model and undone by :func:`predict`.
    """
    vals = [float(v) for v in series]
    if len(vals) < MIN_TRAIN_LEN:
        raise DomainError(f"need at least {MIN_TRAIN_LEN} observations, got {len(vals)}")
    shift = 0.0
    lowest = min(vals)
    if lowest <= 0:
        _check_finite(vals)
        shift = 1.0 - lowest
        vals = [v + shift for v in vals]
    # Without a shift every observation is checked here, in the one pass that
    # accumulates it; with one, this catches a shifted value that overflows
    # or cancels to zero. The pass keeps the last running sum only: each
    # background value z = (acc[i] + acc[i - 1]) / 2 pairs with y = vals[i].
    inf = math.inf
    first = prev = vals[0]
    if not 0.0 < first < inf:
        _reject(vals, first)
    sz = sy = szz = szy = 0.0  # left folds, see the module docstring
    rest = iter(vals)
    next(rest)
    for y in rest:
        if not 0.0 < y < inf:
            _reject(vals, y)
        acc = prev + y
        z = (acc + prev) / 2.0
        prev = acc
        sz += z
        sy += y
        szz += z * z
        szy += z * y
    n = len(vals)
    m = n - 1

    den = m * szz - sz * sz
    scale = m * szz + sz * sz
    if den <= scale * 1e-15:
        # All background values equal. Consistent only if the tail is flat.
        tail = vals[1:]
        spread = max(tail) - min(tail)
        if spread <= 1e-12 * max(abs(tail[0]), 1.0):
            return GreyModel(0.0, sy / m, first, n, shift)
        raise FitError("normal equations are singular and the data is inconsistent")

    alpha = (sz * sy - m * szy) / den
    mu = (sy + alpha * sz) / m
    return GreyModel(alpha, mu, first, n, shift)


def predict(model: GreyModel, t: int) -> float:
    """Original-series value at step t (1-based), less the shift: the time
    response r(t) - r(t - 1), or r(1) at t = 1, where r(t) is
    (first_accumulated - mu / alpha) * exp(-alpha * (t - 1)) + mu / alpha,
    or its linear limit first_accumulated + mu * (t - 1) near alpha = 0."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    alpha, mu, first = model.alpha, model.mu, model.first_accumulated
    if abs(alpha) < EPS_ALPHA:
        raw = first + mu * (t - 1)
        if t > 1:
            raw -= first + mu * (t - 2)
    else:
        ratio = mu / alpha
        raw = (first - ratio) * math.exp(-alpha * (t - 1)) + ratio
        if t > 1:
            raw -= (first - ratio) * math.exp(-alpha * (t - 2)) + ratio
    return raw - model.shift

