"""Traffic tracker: resamples receiver reports into fixed windows and keeps a
grey model trained on the trailing windows for short-term rate prediction.

A receiver report is two ints passed straight to ``report_info``: a time in
ms and the records received from then on, counted into the window holding
that time. The engine makes one report per window, when the window closes:
its start and the records of every block in it. Any number of reports may
go into one open window.

The tracker keeps only what a fit reads: the rates of the last
``train_num`` closed windows. ``close_windows_upto`` returns one
``WindowRow`` per window it closes, which carries the forecast rule. With
prediction on it fits after every window, and the forecast is the GM(1,1)
forecast, or None while there is no model. With it off nothing reads a fit,
so none is made: the forecast is None until ``train_num`` windows have
closed, and the measured rate from then on.
The fit keeps no model, only its one-step forecast: ``_fit`` evaluates it
once per window close and ``predict_rate`` serves it until the next, so the
window close and the control ticks share one evaluation. Fewer than
``train_num`` windows, a series GM(1,1) cannot fit, or a forecast that
overflows or is not finite leave no forecast (None), until a later window
close fits again. ``WindowRow`` is slotted, not frozen, since a frozen
``__init__`` sets each field through ``object.__setattr__``. The forecast's
clamp at 0 is a comparison, not ``max``: a builtin call costs about seven
times as much on CPython 3.11, and it runs on every fit.
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
    """Accumulates reports per window, closes windows as time advances."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        # The last fit's one-step forecast, clamped to >= 0; None without one.
        self._forecast: Optional[float] = None
        self._open_counts: dict[int, int] = {}
        # Rates of the last train_num closed windows, oldest first.
        self._rates: deque[float] = deque(maxlen=self.config.train_num)
        self._next_close_index = 0

    def report_info(self, timestamp: int, record_count: int) -> None:
        """Attribute record_count records, received from timestamp ms on, to
        the window containing timestamp; both must be >= 0."""
        if timestamp < 0:
            raise DomainError(f"timestamp must be >= 0, got {timestamp}")
        if record_count < 0:
            raise DomainError(f"record_count must be >= 0, got {record_count}")
        index = timestamp // self.config.resample_interval
        if index < self._next_close_index:
            log.warning("dropping report at t=%d for already closed window %d",
                        timestamp, index)
            return
        self._open_counts[index] = self._open_counts.get(index, 0) + record_count

    def close_windows_upto(self, now: int) -> list[WindowRow]:
        """Close every window whose end is <= now, fitting after each while
        prediction is on; returns their rows oldest first.

        Windows with no reports close with rate 0 so the resampled history
        stays contiguous.
        """
        w = self.config.resample_interval
        prediction_enabled = self.config.prediction_enabled
        index = self._next_close_index
        closed: list[WindowRow] = []
        while (index + 1) * w <= now:
            rate = self._open_counts.pop(index, 0) * 1000.0 / w
            self._rates.append(rate)
            self._next_close_index = index + 1
            if prediction_enabled:
                self._fit()
                predicted = self.predict_rate()
            else:
                predicted = rate if len(self._rates) == self.config.train_num else None
            closed.append(WindowRow(index * w, rate, predicted))
            index += 1
        return closed

    def _fit(self) -> None:
        """Fit GM(1,1) on the last train_num window rates and keep its one-step
        forecast, clamped to >= 0; keep None while fewer than train_num windows
        have closed, when GM(1,1) cannot fit them (``FitError``) or when the
        forecast overflows or is not finite. The controller then runs on the
        workload alone until a later fit succeeds."""
        self._forecast = None
        if len(self._rates) < self.config.train_num:
            return
        try:
            model = grey.fit(self._rates)
            rate = grey.predict(model, model.train_len + 1)
            if not math.isfinite(rate):
                raise OverflowError(f"forecast {rate!r} is not finite")
        except (FitError, OverflowError) as exc:
            log.debug("no grey model for the windows up to %d ms: %s",
                      self._next_close_index * self.config.resample_interval, exc)
            return
        self._forecast = rate if rate > 0.0 else 0.0  # max(0.0, rate)

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
