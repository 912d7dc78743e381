"""Traffic tracker: resamples receiver reports into fixed windows and keeps a
grey model trained on the trailing windows for short-term rate prediction.

A receiver report is two ints passed straight to ``report_info``: a time in
ms and the records received from then on, counted into the window holding
that time. The engine makes one report per window, when the window closes:
its start and the records of every block in it. Any number of reports may
go into one open window.

The tracker keeps only what a fit reads: the rates of the last
``train_num`` closed windows. The engine fits on every window close. The
one-step forecast is computed once per fit: ``predict_rate`` keeps it
until the next ``train``, so the window close that trains the model and
the control ticks that read the forecast share one evaluation. A series
GM(1,1) cannot fit leaves no model, as before the first fit, until a later
window close fits again. ``ResampledRecord`` is slotted, not frozen, since
a frozen ``__init__`` sets each field through ``object.__setattr__``. The
forecast's clamp at 0 is a comparison, not ``max``: a builtin call costs
about seven times as much on CPython 3.11, and it runs on every fit.
"""

from __future__ import annotations

import logging
import sys
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import grey
from .errors import ConfigError, DomainError, FitError

log = logging.getLogger(__name__)


@dataclass(slots=True)
class ResampledRecord:
    """Average data rate (records/s) over one closed window, which is
    ``resample_interval`` ms long."""

    window_start: int
    rate: float


@dataclass(frozen=True)
class TrackerConfig:
    resample_interval: int = 30_000
    train_num: int = 5

    def __post_init__(self):
        if self.resample_interval <= 0:
            raise ConfigError("resample_interval must be positive")
        if self.train_num < grey.MIN_TRAIN_LEN:
            raise ConfigError(f"train_num must be >= {grey.MIN_TRAIN_LEN}")
        if self.train_num > sys.maxsize:  # the longest deque there can be
            raise ConfigError(f"train_num must be at most {sys.maxsize}")


class TrafficTracker:
    """Accumulates reports per window, closes windows as time advances."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.model: Optional[grey.GreyModel] = None
        self._next_rate: Optional[float] = None  # predict_rate() of self.model
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

    def close_windows_upto(self, now: int) -> list[ResampledRecord]:
        """Close every window whose end is <= now; returns them oldest first.

        Windows with no reports close with rate 0 so the resampled history
        stays contiguous.
        """
        w = self.config.resample_interval
        index = self._next_close_index
        closed: list[ResampledRecord] = []
        while (index + 1) * w <= now:
            rate = self._open_counts.pop(index, 0) * 1000.0 / w
            self._rates.append(rate)
            closed.append(ResampledRecord(index * w, rate))
            index += 1
        self._next_close_index = index
        return closed

    def train(self) -> Optional[grey.GreyModel]:
        """Fit the grey model on the last train_num window rates.

        Returns None, and leaves no model, while fewer than train_num windows
        have closed or when GM(1,1) cannot fit them (``FitError``); the
        controller then runs on the workload alone until a later fit succeeds.
        """
        if len(self._rates) < self.config.train_num:
            return None
        self._next_rate = None
        try:
            self.model = grey.fit(self._rates)
        except FitError as exc:
            log.debug("no grey model for the windows up to %d ms: %s",
                      self._next_close_index * self.config.resample_interval, exc)
            self.model = None
        return self.model

    def predict_rate(self) -> float:
        """Forecast the mean rate of the window after the training tail,
        clamped to >= 0. It is computed once per fit; call it only while
        there is a model."""
        if self._next_rate is None:
            model = self.model
            rate = grey.predict(model, model.train_len + 1)
            self._next_rate = rate if rate > 0.0 else 0.0  # max(0.0, rate)
        return self._next_rate

    def control_rates(self, prediction_enabled: bool
                      ) -> tuple[Optional[float], Optional[float]]:
        """(q_now, q_next) for a control tick: the latest window's rate and
        the next window's expected rate, both None before any window closes.

        q_next is q_now with prediction off; with it on, the one-step
        forecast, or None while there is no model. The engine's per-window
        forecast log keeps its own rule: None while there is no model, even
        with prediction off.
        """
        if not self._rates:
            return None, None
        q_now = self._rates[-1]
        if not prediction_enabled:
            return q_now, q_now
        if self.model is None:
            return q_now, None
        return q_now, self.predict_rate()
