"""The exponentially smoothed workload estimate.

Each completed batch yields a workload sample eta = total delay / interval
used, computed by the engine when the batch completes. The monitor adds each
sample to a running sum and count as it comes, and folds their mean into a
single smoothed estimate S, a float; S < 1 means the system keeps up, S > 1
means batches take longer than the interval that produced them. Every
control tick reads S through ``update_estimate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        # S is a float from the first tick on (see harness._tally).
        object.__setattr__(self, "initial_estimate", float(self.initial_estimate))


class WorkloadMonitor:
    """Tallies per-batch workload samples and smooths them on demand."""

    def __init__(self, config: MonitorConfig):
        self.config = config
        self._sum = self._count = 0  # samples since the last update, a left fold
        self.value = self.config.initial_estimate  # S

    def on_batch_completed(self, eta: float) -> None:
        """Add one batch's workload sample to the tally: a sample > 0, as the
        engine guards."""
        self._sum += eta
        self._count += 1

    def update_estimate(self) -> float:
        """Fold the mean of the samples since the last call into S and return
        S; S is unchanged if no sample arrived."""
        if self._count:
            a = self.config.smoothing_coefficient
            self.value = a * (self._sum / self._count) + (1.0 - a) * self.value
            self._sum = self._count = 0
        return self.value
