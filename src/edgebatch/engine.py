"""Deterministic micro-batch engine simulation.

Simulated time only: a receiver quantizes the input trace into blocks, a
dynamic timer groups blocks into batches, and a single FIFO worker runs each
batch under an affine cost model. In adaptive mode a fuzzy control loop
retimes the batch interval: on each control tick the controller returns the
tick's ``ControlRow`` and the engine logs it and stages its interval, which
takes effect at the next timer fire. In vanilla mode, and before
``control_start``, the interval stays fixed and the tick only logs S and the
rates.

Timer fires, control ticks, window closes, job completions and the trace end
are events on a heap. Blocks are not: before each event, a block clock in
``run`` seals every block that ends at or before the event's time, so at
equal timestamps a block always comes first. A job starts as soon as the
worker is free and a batch waits; only its completion is an event.

The receiver's counts are filled ``FILL_BLOCKS`` blocks at a time: one
``block_integrals`` call for the chunk's expected counts, jitter drawn in
block order, one rounding per block, and running sums of records and of
non-empty blocks, built by ``itertools.accumulate``. An event then seals
``int(fire_at // block)`` blocks by reading those sums, so a batch's counts
and a window's total are differences of two running totals. The tracker
gets one report per window, its total, when the window closes.
Per batch the engine builds a ``Batch`` when the timer seals it and one
``BatchRow`` when it completes, which holds the batch's delays and its
workload sample. Rows and batches are slotted dataclasses, not frozen ones:
a frozen dataclass's ``__init__`` sets each field through
``object.__setattr__``, which makes a 9-field row about five times as slow
to build. Nothing changes a row or a batch after it is built.

Every configured time (ms) must be at most ``MAX_TIME_MS`` = 2**53: up to
there a float holds every integer exactly, so each time converts to a float
without rounding or overflow.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from .errors import ConfigError, DomainError, ModeError
from .fuzzy import ControllerConfig, ControlRow, FuzzyController, RuleTable
from .tracker import TrafficTracker, TrackerConfig
from .traces import RateFunction
from .workload import MonitorConfig, WorkloadMonitor

log = logging.getLogger(__name__)

ADAPTIVE = "adaptive"
VANILLA = "vanilla"

MAX_TIME_MS = 2**53  # every integer up to here is exact as a float
FILL_BLOCKS = 256  # blocks whose counts run() computes per trace call
# The times MAX_TIME_MS bounds, as paths from EngineConfig, in the order
# EngineConfig.__post_init__ reads them.
_TIME_FIELDS = ("duration", "block_interval", "initial_interval", "control_start",
                "controller.min_interval", "controller.max_interval",
                "controller.control_period", "tracker.resample_interval")


# Event kinds, as heap ranks: at equal timestamps the lower rank fires first.
# Jobs complete before windows close, windows close before the controller
# reads them, and the controller runs before the timer fires, so every
# consumer sees the freshest state a coinciding producer left behind. A job
# that takes no time completes after the other events of the instant it
# started in (INSTANT_JOB_COMPLETE).
(JOB_COMPLETE, RATE_WINDOW_CLOSE, CONTROL_TICK, BATCH_TIMER_FIRE,
 INSTANT_JOB_COMPLETE, TRACE_END) = range(6)


@dataclass(slots=True)
class Batch:
    """Blocks sealed by one timer fire; only their counts matter downstream."""

    batch_id: int
    record_count: int
    block_count: int
    generated_at: int
    interval_used: int


@dataclass(frozen=True)
class JobCostModel:
    """Affine batch cost in ms: fixed + per-record + per-block terms."""

    fixed_overhead: float
    per_record_cost: float
    per_block_cost: float

    def __post_init__(self):
        for name in ("fixed_overhead", "per_record_cost", "per_block_cost"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")

    def cost(self, records: int, blocks: int) -> float:
        return self.fixed_overhead + self.per_record_cost * records + self.per_block_cost * blocks


@dataclass(frozen=True)
class EngineConfig:
    controller: ControllerConfig
    cost_model: JobCostModel
    duration: int
    initial_interval: int
    block_interval: int = 200
    mode: str = ADAPTIVE
    control_start: int = 30_000
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    seed: int = 0
    jitter: float = 0.0

    def __post_init__(self):
        if self.mode not in (ADAPTIVE, VANILLA):
            raise ConfigError(f"mode must be '{ADAPTIVE}' or '{VANILLA}', got {self.mode!r}")
        ctl = self.controller
        times = (self.duration, self.block_interval, self.initial_interval,
                 self.control_start, ctl.min_interval, ctl.max_interval,
                 ctl.control_period, self.tracker.resample_interval)
        if max(times) > MAX_TIME_MS:
            name = _TIME_FIELDS[times.index(max(times))]
            raise ConfigError(f"{name} must be at most MAX_TIME_MS = 2**53 ms")
        if self.block_interval <= 0:
            raise ConfigError("block_interval must be positive")
        if self.controller.block_interval != self.block_interval:
            raise ConfigError("controller block_interval must match the engine's")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.initial_interval <= 0 or self.initial_interval % self.block_interval != 0:
            raise ConfigError("initial_interval must be a positive multiple of block_interval")
        if self.mode == ADAPTIVE:
            if not (self.controller.min_interval <= self.initial_interval
                    <= self.controller.max_interval):
                raise ConfigError("initial_interval must lie within the controller's range")
        if self.tracker.resample_interval % self.block_interval != 0:
            raise ConfigError("tracker resample_interval must be a multiple of block_interval")
        if self.control_start < 0:
            raise ConfigError("control_start must be >= 0")
        if not (0.0 <= self.jitter < 1.0):
            raise ConfigError("jitter must be in [0, 1)")


@dataclass(slots=True)
class BatchRow:
    """Metrics row emitted when a batch completes."""

    time_ms: float
    batch_id: int
    interval_ms: int
    records: int
    blocks: int
    sched_delay_ms: float
    proc_delay_ms: float
    total_delay_ms: float
    eta: float


@dataclass(slots=True)
class WindowRow:
    """Per-window tracker row: measured rate plus the forecast made for the
    window after it (None while the tracker has no model)."""

    window_start_ms: int
    window_len_ms: int
    rate_measured: float
    rate_predicted_next: Optional[float]


@dataclass
class MetricsLog:
    block_interval: int
    rows: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    total_generated: int = 0
    total_block_records: int = 0
    total_batch_records: int = 0
    batch_count: int = 0  # batches completed, one BatchRow each

    @property
    def batches(self) -> list[BatchRow]:
        return [r for r in self.rows if isinstance(r, BatchRow)]

    @property
    def ticks(self) -> list[ControlRow]:
        return [r for r in self.rows if isinstance(r, ControlRow)]


class MicrobatchEngine:
    """Single-run engine; construct, call run() once, read the metrics log."""

    def __init__(self, config: EngineConfig, trace: RateFunction,
                 rule_table: RuleTable | None = None):
        self.config = config
        self.trace = trace
        self.tracker = TrafficTracker(config.tracker)
        self.monitor = WorkloadMonitor(config.monitor)
        self.controller: Optional[FuzzyController] = None
        if config.mode == ADAPTIVE:
            self.controller = FuzzyController(
                config.controller, self.tracker, self.monitor,
                rule_table=rule_table)
        self._heap: list = []  # (fire_at, rank, sequence, payload)
        self._sequence = 0
        self._ran = False
        self._ended = False
        self._current_interval = config.initial_interval
        self._pending_interval: Optional[int] = None
        self._last_fire_at = 0
        # Records and non-empty blocks in every block sealed so far, and the
        # same totals at the last batch seal; records at the last window close.
        self._sealed_records = self._sealed_blocks = 0
        self._batched_records = self._batched_blocks = 0
        self._reported_records = 0
        self._batch_queue: deque[Batch] = deque()
        self._worker_busy = False
        self._next_batch_id = 0
        self._rng = random.Random(config.seed)
        self.log = MetricsLog(block_interval=config.block_interval)

    @property
    def current_interval(self) -> int:
        return self._current_interval

    def set_interval(self, new_interval: int) -> None:
        """Stage a new batch interval; it takes effect at the next timer fire."""
        if self.config.mode != ADAPTIVE:
            raise ModeError("interval is fixed in vanilla mode")
        ctl = self.config.controller
        if new_interval % self.config.block_interval != 0:
            raise DomainError(f"interval {new_interval} is not a block multiple")
        if not ctl.min_interval <= new_interval <= ctl.max_interval:
            raise DomainError(f"interval {new_interval} outside [{ctl.min_interval}, "
                              f"{ctl.max_interval}]")
        self._pending_interval = new_interval

    def run(self) -> MetricsLog:
        if self._ran:
            raise ModeError("engine instances are single-run")
        self._ran = True
        cfg = self.config
        self._schedule(cfg.tracker.resample_interval, RATE_WINDOW_CLOSE)
        self._schedule(cfg.controller.control_period, CONTROL_TICK)
        self._schedule(cfg.initial_interval, BATCH_TIMER_FIRE)
        self._schedule(cfg.duration, TRACE_END)
        handlers = (  # indexed by rank
            self._on_job_complete,
            self._on_rate_window_close,
            self._on_control_tick,
            self._on_batch_timer_fire,
            self._on_job_complete,
            self._on_trace_end,
        )
        # The block clock. Counts of blocks first .. first + len(records) - 2
        # are filled in; records[j] and nonempty[j] are the running totals
        # over blocks 0 .. first + j - 1.
        block = cfg.block_interval
        n_blocks = cfg.duration // block
        first, records, nonempty = 0, [0], [0]
        heap, pop = self._heap, heapq.heappop
        while heap and not self._ended:
            fire_at, rank, _, payload = pop(heap)
            # Seal every block that ends by this event, so that at equal
            # timestamps blocks come before any other event. No event fires
            # after the trace end, so no block ends after it either.
            j = int(fire_at // block) - first
            while j >= len(records):
                first += len(records) - 1
                j -= len(records) - 1
                counts = self._block_counts(first, min(FILL_BLOCKS, n_blocks - first))
                records = list(accumulate(counts, initial=records[-1]))
                nonempty = list(accumulate(map(bool, counts), initial=nonempty[-1]))
            self._sealed_records, self._sealed_blocks = records[j], nonempty[j]
            handlers[rank](fire_at, payload)
        self.log.total_generated = self.log.total_block_records = self._sealed_records
        return self.log

    def _block_counts(self, first: int, n: int) -> list[int]:
        """Record counts of blocks first .. first + n - 1: each block's
        expected count, scaled by its jitter factor, rounded half up. The
        jitter RNG is drawn once per block, in block order; the expression
        is ``uniform(-1.0, 1.0)``'s own, ``-1.0 + 2.0 * random()``."""
        block, jitter = self.config.block_interval, self.config.jitter
        expected = self.trace.block_integrals(first * block, block, n)
        floor = math.floor
        if jitter > 0.0:
            random_ = self._rng.random
            return [floor(e * (1.0 + jitter * (-1.0 + 2.0 * random_())) + 0.5)
                    for e in expected]
        return [floor(e + 0.5) for e in expected]

    def _schedule(self, fire_at: float, rank: int, payload=None) -> None:
        heapq.heappush(self._heap, (fire_at, rank, self._sequence, payload))
        self._sequence += 1

    def _seal(self, now: float, interval_used: int) -> Batch:
        """Group every unsealed block into the next batch."""
        records, blocks = self._sealed_records, self._sealed_blocks
        batch = Batch(self._next_batch_id, records - self._batched_records,
                      blocks - self._batched_blocks, int(now), interval_used)
        self._batched_records, self._batched_blocks = records, blocks
        self._next_batch_id += 1
        self.log.total_batch_records += batch.record_count
        return batch

    # -- event handlers -----------------------------------------------------

    def _on_batch_timer_fire(self, now: float, _payload) -> None:
        self._batch_queue.append(self._seal(now, int(now) - self._last_fire_at))
        self._last_fire_at = int(now)
        if self._pending_interval is not None:
            self._current_interval = self._pending_interval
            self._pending_interval = None
        nxt = now + self._current_interval
        if nxt <= self.config.duration:
            self._schedule(nxt, BATCH_TIMER_FIRE)
        self._maybe_start_job(now)

    def _maybe_start_job(self, now: float) -> None:
        if self._worker_busy or not self._batch_queue:
            return
        batch = self._batch_queue.popleft()
        self._worker_busy = True
        done_at = now + self.config.cost_model.cost(batch.record_count, batch.block_count)
        rank = JOB_COMPLETE if done_at > now else INSTANT_JOB_COMPLETE
        self._schedule(done_at, rank, payload=(batch, now))

    def _on_job_complete(self, now: float, payload) -> None:
        batch, started_at = payload
        self._worker_busy = False
        # float() keeps the delays floats when every time is an int, as
        # summary.json writes them.
        sched = started_at - float(batch.generated_at)
        proc = now - started_at
        total = sched + proc
        eta = total / float(batch.interval_used)
        self.log.rows.append(BatchRow(now, batch.batch_id, batch.interval_used,
                                      batch.record_count, batch.block_count,
                                      sched, proc, total, eta))
        self.log.batch_count += 1
        if total > 0:
            self.monitor.on_batch_completed(eta)
        else:
            log.debug("batch %d completed with zero delay, no workload sample",
                      batch.batch_id)
        self._maybe_start_job(now)

    def _on_rate_window_close(self, now: float, _payload) -> None:
        # Each closed window logs the forecast for the window after it: None
        # while there is no model, even with prediction off (unlike the
        # control tick's q_next, see TrafficTracker.control_rates). The
        # window closing is the one that ends now: every block sealed since
        # the last close started in it, since windows are block multiples.
        w = self.config.tracker.resample_interval
        self.tracker.report_info(int(now) - w, self._sealed_records - self._reported_records)
        self._reported_records = self._sealed_records
        closed = self.tracker.close_windows_upto(int(now))
        for rec in closed:
            self.tracker.train()
            predicted: Optional[float] = None
            if self.tracker.model is not None:
                if self.config.controller.prediction_enabled:
                    predicted = self.tracker.predict_rate()
                else:
                    predicted = rec.rate
            self.log.windows.append(WindowRow(
                window_start_ms=rec.window_start,
                window_len_ms=rec.window_len,
                rate_measured=rec.rate,
                rate_predicted_next=predicted,
            ))
        nxt = now + w
        if nxt <= self.config.duration:
            self._schedule(nxt, RATE_WINDOW_CLOSE)

    def _on_control_tick(self, now: float, _payload) -> None:
        if self.controller is not None and now >= self.config.control_start:
            row = self.controller.control_step(now, self._current_interval)
            if row.interval_ms != self._current_interval:
                self.set_interval(row.interval_ms)
        else:
            s = self.monitor.update_estimate()
            q_now, q_next = self.tracker.control_rates(
                self.config.controller.prediction_enabled)
            row = ControlRow(now, self._current_interval, s, q_now, q_next,
                             None, None, None)
        self.log.rows.append(row)
        nxt = now + self.config.controller.control_period
        if nxt <= self.config.duration:
            self._schedule(nxt, CONTROL_TICK)

    def _on_trace_end(self, now: float, _payload) -> None:
        # Seal whatever the receiver still holds so the record ledger balances;
        # the sealed batch is never executed because simulated time stops here.
        if self._sealed_blocks > self._batched_blocks:
            self._seal(now, max(int(now) - self._last_fire_at, self.config.block_interval))
        self._ended = True


def run(config: EngineConfig, trace: RateFunction,
        rule_table: RuleTable | None = None) -> MetricsLog:
    """Build an engine, run the trace to completion, return the metrics log."""
    return MicrobatchEngine(config, trace, rule_table).run()
