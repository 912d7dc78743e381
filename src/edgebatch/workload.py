"""The exponentially smoothed workload estimate.

Each completed batch yields a workload sample eta = total delay / interval
used, computed by the engine when the batch completes. The monitor buffers
samples between control ticks and folds their mean into a single smoothed
estimate S, a float; S < 1 means the system keeps up, S > 1 means batches
take longer than the interval that produced them. Every control tick reads
S through ``update_estimate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import DomainError


@dataclass(frozen=True)
class MonitorConfig:
    smoothing_coefficient: float = 0.3
    initial_estimate: float = 1.0

    def __post_init__(self):
        a = self.smoothing_coefficient
        if not (isinstance(a, float) and 0.0 < a < 1.0):
            raise DomainError(f"smoothing_coefficient must be in (0, 1), got {a!r}")
        if not (math.isfinite(self.initial_estimate) and self.initial_estimate > 0):
            raise DomainError(f"initial_estimate must be positive, got {self.initial_estimate!r}")


class WorkloadMonitor:
    """Buffers per-batch workload samples and smooths them on demand."""

    def __init__(self, config: MonitorConfig):
        self.config = config
        self._pending: list[float] = []
        self.value = self.config.initial_estimate  # S

    def on_batch_completed(self, eta: float) -> None:
        """Buffer one batch's workload sample; it must be > 0."""
        if not eta > 0:
            raise DomainError(f"workload sample must be > 0, got {eta!r}")
        self._pending.append(eta)

    def update_estimate(self) -> float:
        """Fold the pending samples' mean into S and return S; S is unchanged
        if no sample arrived since the last call."""
        pending = self._pending
        if pending:
            a = self.config.smoothing_coefficient
            mean_eta = reduce(add, pending, 0) / len(pending)  # a left fold, see edgebatch.grey
            self.value = a * mean_eta + (1.0 - a) * self.value
            pending.clear()
        return self.value
