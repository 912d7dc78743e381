"""Traffic tracker: resamples receiver reports into fixed windows and keeps a
grey model trained on the trailing windows for short-term rate prediction.

A receiver report is two ints, the start of a block in ms and the records it
holds, passed straight to ``report_info``: the engine reports every block
of a run, so no object is built per report.

The one-step forecast is computed once per fit: ``predict_rate(1)`` keeps
it until the next ``train``, so the window close that trains the model and
the control ticks that read the forecast share one evaluation. A series
GM(1,1) cannot fit leaves no model, as before the first fit, until a later
window close fits again. ``ResampledRecord`` is slotted, not frozen, since
a frozen ``__init__`` sets each field through ``object.__setattr__``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from . import grey
from .errors import ConfigError, DomainError, FitError, NotReadyError

log = logging.getLogger(__name__)


@dataclass(slots=True)
class ResampledRecord:
    """Average data rate (records/s) over one closed window."""

    window_start: int
    window_len: int
    rate: float


@dataclass(frozen=True)
class TrackerConfig:
    resample_interval: int = 30_000
    train_num: int = 5
    retain_windows: int = 240
    retrain_every: int = 1

    def __post_init__(self):
        if self.resample_interval <= 0:
            raise ConfigError("resample_interval must be positive")
        if self.train_num < grey.MIN_TRAIN_LEN:
            raise ConfigError(f"train_num must be >= {grey.MIN_TRAIN_LEN}")
        if self.retain_windows < self.train_num:
            raise ConfigError("retain_windows must be >= train_num")
        if self.retrain_every < 1:
            raise ConfigError("retrain_every must be >= 1")


class TrafficTracker:
    """Accumulates reports per window, closes windows as time advances."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.model: Optional[grey.GreyModel] = None
        self._next_rate: Optional[float] = None  # predict_rate(1) of self.model
        self._open_counts: dict[int, int] = {}
        self._closed: list[ResampledRecord] = []
        self._next_close_index = 0
        self._closes_since_train = 0

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
        closed: list[ResampledRecord] = []
        while (self._next_close_index + 1) * w <= now:
            index = self._next_close_index
            count = self._open_counts.pop(index, 0)
            rec = ResampledRecord(window_start=index * w, window_len=w,
                                  rate=count * 1000.0 / w)
            self._closed.append(rec)
            closed.append(rec)
            self._next_close_index += 1
            self._closes_since_train += 1
        if closed:
            self.cleanup()
        return closed

    def get_latest_record(self) -> ResampledRecord:
        if not self._closed:
            raise NotReadyError("no closed windows yet")
        return self._closed[-1]

    def cleanup(self) -> None:
        """Drop the oldest closed windows beyond the retention cap."""
        excess = len(self._closed) - self.config.retain_windows
        if excess > 0:
            del self._closed[:excess]

    def train(self) -> Optional[grey.GreyModel]:
        """Fit the grey model on the trailing train_num window rates.

        A series GM(1,1) cannot fit (``FitError``) leaves no model, so the
        controller runs on the workload alone until a later fit succeeds.
        """
        if len(self._closed) < self.config.train_num:
            raise NotReadyError(
                f"need {self.config.train_num} closed windows, have {len(self._closed)}"
            )
        tail = self._closed[-self.config.train_num:]
        self._next_rate = None
        try:
            self.model = grey.fit([rec.rate for rec in tail])
        except FitError as exc:
            log.debug("no grey model for the windows up to %d ms: %s",
                      tail[-1].window_start + tail[-1].window_len, exc)
            self.model = None
        self._closes_since_train = 0
        return self.model

    def maybe_train(self) -> Optional[grey.GreyModel]:
        """Retrain when enough new windows closed since the last fit."""
        if len(self._closed) < self.config.train_num:
            return None
        if self.model is not None and self._closes_since_train < self.config.retrain_every:
            return None
        return self.train()

    def predict_rate(self, windows_ahead: int = 1) -> float:
        """Forecast the mean rate windows_ahead windows past the training tail,
        clamped to >= 0. The one-step forecast is computed once per fit."""
        if windows_ahead == 1 and self._next_rate is not None:
            return self._next_rate
        if windows_ahead < 1:
            raise DomainError(f"windows_ahead must be >= 1, got {windows_ahead}")
        if self.model is None:
            raise NotReadyError("no trained model")
        value = max(0.0, grey.predict(self.model, self.model.train_len + windows_ahead))
        if windows_ahead == 1:
            self._next_rate = value
        return value

    def control_rates(self, prediction_enabled: bool
                      ) -> tuple[Optional[float], Optional[float]]:
        """(q_now, q_next) for a control tick: the latest window's rate and
        the next window's expected rate, both None before any window closes.

        q_next is q_now with prediction off; with it on, the one-step
        forecast, or None while there is no model. The engine's per-window
        forecast log keeps its own rule: None while there is no model, even
        with prediction off.
        """
        if not self._closed:
            return None, None
        q_now = self._closed[-1].rate
        if not prediction_enabled:
            return q_now, q_now
        if self.model is None:
            return q_now, None
        return q_now, self.predict_rate(1)
