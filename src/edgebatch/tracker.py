"""Traffic tracker: resamples receiver reports into fixed windows and keeps
the one-step GM(1,1) forecast of the trailing windows' rates.

The engine owns the window clock. It makes one ``report_info`` call per
window, with the records sealed since the last close, then calls
``close_windows_upto`` with the window's end, so every report goes into the
one open window.

The tracker keeps only what a fit reads: the rates of the last
``train_num`` closed windows. ``close_windows_upto`` returns the closed
window's ``WindowRow``, with its forecast, and holds the forecast rule.
With prediction on, every window close from the ``train_num``-th on takes
the one-step forecast of the trailing rates from ``grey.forecast``, one
``grey.fit`` of the rates in place and one ``grey.predict``; the window's
row and the control ticks until the next close read it. With prediction
off nothing reads a fit, so none is made: the forecast is None until
``train_num`` windows have closed, and the measured rate from then on.
"""

from __future__ import annotations

import logging
import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import grey
from .errors import DomainError, FitError

log = logging.getLogger(__name__)


@dataclass(slots=True)
class WindowRow:
    """One closed window: its mean rate (records/s) and the forecast made for
    the window after it."""

    window_start_ms: int
    rate_measured: float
    rate_predicted_next: Optional[float]


@dataclass(frozen=True)
class TrackerConfig:
    """The window length in ms, the windows per fit, and whether a control
    tick's q_next is the forecast (else the measured rate)."""

    resample_interval: int = 30_000
    train_num: int = 5
    prediction_enabled: bool = True

    def __post_init__(self):
        if self.resample_interval <= 0:
            raise DomainError("resample_interval must be positive")
        if self.train_num < grey.MIN_TRAIN_LEN:
            raise DomainError(f"train_num must be >= {grey.MIN_TRAIN_LEN}")
        if self.train_num > sys.maxsize:  # the longest deque there can be
            raise DomainError(f"train_num must be at most {sys.maxsize}")


class TrafficTracker:
    """Counts the open window's records and closes the window the engine names."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        # The last fit's one-step forecast, clamped to >= 0; None without one.
        self._forecast: Optional[float] = None
        self._open_count = 0  # records reported since the last close
        # Rates of the last train_num closed windows, oldest first.
        self._rates: deque[float] = deque(maxlen=self.config.train_num)

    def report_info(self, record_count: int) -> None:
        """Add record_count records to the open window."""
        self._open_count += record_count

    def close_windows_upto(self, now: int) -> WindowRow:
        """Close the open window, which must end at now, and return its row,
        with the records reported since the last close. Its forecast is None
        until train_num windows have closed, then the measured rate with
        prediction off. With it on, it is GM(1,1)'s one-step forecast of the
        last train_num rates, clamped to >= 0, or None where GM(1,1) cannot
        fit them (``FitError``) or the forecast overflows or is not finite;
        the controller then runs on the workload alone until a fit succeeds."""
        w = self.config.resample_interval
        rate, self._open_count = self._open_count * 1000.0 / w, 0
        self._rates.append(rate)
        predicted = rate if len(self._rates) == self.config.train_num else None
        if predicted is not None and self.config.prediction_enabled:
            try:
                predicted = grey.forecast(self._rates)
                if not math.isfinite(predicted):
                    raise OverflowError(f"forecast {predicted!r} is not finite")
                predicted = predicted if predicted > 0.0 else 0.0  # max(0.0, predicted)
            except (FitError, OverflowError) as exc:
                log.debug("no grey model for the windows up to %d ms: %s", now, exc)
                predicted = None
            self._forecast = predicted
        return WindowRow(now - w, rate, predicted)

    def predict_rate(self) -> Optional[float]:
        """Forecast of the mean rate of the window after the training tail,
        clamped to >= 0, as the last fit evaluated it; None while there is
        no model."""
        return self._forecast

    def control_rates(self) -> tuple[Optional[float], Optional[float]]:
        """(q_now, q_next) for a control tick: the latest window's rate and
        the next window's expected rate, both None before any window closes.

        q_next is q_now with prediction off; with it on, the one-step
        forecast, or None while there is no model.
        """
        if not self._rates:
            return None, None
        q_now = self._rates[-1]
        if not self.config.prediction_enabled:
            return q_now, q_now
        return q_now, self.predict_rate()
