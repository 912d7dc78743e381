"""The exponentially smoothed workload estimate.

Each completed batch yields a workload sample eta = total delay / interval
used, computed by the engine when the batch completes. The monitor buffers
samples between control ticks and folds their mean into a single smoothed
estimate S; S < 1 means the system keeps up, S > 1 means batches take longer
than the interval that produced them. Every control tick builds one
``WorkloadEstimate``; it is a slotted dataclass, not a frozen one, because a
frozen ``__init__`` sets each field through ``object.__setattr__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class MonitorConfig:
    smoothing_coefficient: float = 0.3
    initial_estimate: float = 1.0

    def __post_init__(self):
        a = self.smoothing_coefficient
        if not (isinstance(a, float) and 0.0 < a < 1.0):
            raise ConfigError(f"smoothing_coefficient must be in (0, 1), got {a!r}")
        if not (math.isfinite(self.initial_estimate) and self.initial_estimate > 0):
            raise ConfigError(f"initial_estimate must be positive, got {self.initial_estimate!r}")


@dataclass(slots=True)
class WorkloadEstimate:
    value: float
    as_of: float
    samples_absorbed: int


class WorkloadMonitor:
    """Buffers per-batch workload samples and smooths them on demand."""

    def __init__(self, config: MonitorConfig | None = None):
        self.config = config or MonitorConfig()
        self._pending: list[float] = []
        self._estimate = WorkloadEstimate(self.config.initial_estimate, 0.0, 0)

    def on_batch_completed(self, eta: float) -> None:
        """Buffer one batch's workload sample; it must be > 0."""
        if not eta > 0:
            raise DomainError(f"workload sample must be > 0, got {eta!r}")
        self._pending.append(eta)

    def update_estimate(self, now: float) -> WorkloadEstimate:
        """Fold pending samples into S; a no-op on the value if none arrived."""
        prev = self._estimate
        if not self._pending:
            self._estimate = WorkloadEstimate(prev.value, now, prev.samples_absorbed)
            return self._estimate
        a = self.config.smoothing_coefficient
        mean_eta = sum(self._pending) / len(self._pending)
        value = a * mean_eta + (1.0 - a) * prev.value
        absorbed = prev.samples_absorbed + len(self._pending)
        self._pending.clear()
        self._estimate = WorkloadEstimate(value, now, absorbed)
        return self._estimate

    def current(self) -> WorkloadEstimate:
        return self._estimate

    @property
    def pending_count(self) -> int:
        return len(self._pending)
