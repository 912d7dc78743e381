"""Deterministic micro-batch engine simulation.

Simulated time only: a receiver quantizes the input trace into blocks, a
dynamic timer groups blocks into batches, and a single FIFO worker runs each
batch under an affine cost model. In adaptive mode a fuzzy control loop
retimes the batch interval: on each control tick the controller returns the
tick's ``ControlRow``, and the engine logs it and, if its interval differs
from the current one, stages that interval for the next timer fire. In
vanilla mode, and before ``control_start``, the interval stays fixed and the
tick only logs S and the rates.

Every event source is a clock inside ``run``, and there is no event heap:
the window close and the control tick are two times, the trace end is
``duration``, the batch timer is the next fire time, and the worker is the
running job as ``(done_at, rank, batch, started_at)``. Each iteration takes
the earliest of the five by ``(time, rank)``, with comparisons. A window
close reports the window's records to the tracker and logs the
``WindowRow`` the tracker returns, which holds its fit's forecast; a tick
reads S and the rates and logs a ``ControlRow``; a completion logs the
batch's row and may start the next queued batch; a fire seals a batch,
queues it and starts it if the worker is idle. Every source has at most one
pending event and a rank of its own, so ``(time, rank)`` orders any two
pending events and no tie is left to break. Before a fire, a window close,
a tick or the trace end, a block clock seals every block that ends by its
time, so at equal timestamps a block always comes first; a completion reads
no block. At the trace end the blocks sealed since the last fire count as
one more batch, which never runs. ``run`` builds the tracker, monitor,
controller, RNG and log itself, so every call returns a fresh, equal log.

The receiver's counts are filled ``FILL_BLOCKS`` blocks at a time: one
``block_integrals`` call for the chunk's expected counts, jitter drawn in
block order, one rounding per block, and running sums of records and of
non-empty blocks, built by ``itertools.accumulate``. An event then seals
``int(fire_at // block)`` blocks by reading those sums, so a batch's counts
and a window's total are differences of two running totals. The tracker
gets one report per window, its total, when the window closes.
A fire queues its batch as a ``(records, blocks, generated_at,
interval_used)`` tuple, and a completion logs one ``BatchRow``. The log
keeps every row to the end of the run, so rows are most of a run's peak
memory, and a row holds only the objects it needs (see ``BatchRow``). One
worker runs the batches in FIFO order, so a batch's id is the count of
batches completed before it. Rows are slotted dataclasses, not frozen
ones: a frozen dataclass's ``__init__`` sets each field through
``object.__setattr__``, which makes a row about five times as slow to
build. Nothing changes a row after it is built.

Every configured time (ms) must be at most ``MAX_TIME_MS`` = 2**53: up to
there a float holds every integer exactly, so each time converts to a float
without rounding or overflow.
"""

from __future__ import annotations

import logging
import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter

from .errors import DomainError
from .fuzzy import ControllerConfig, ControlRow, FuzzyController
from .tracker import TrafficTracker, TrackerConfig
from .traces import MAX_TIME_MS, RateFunction
from .workload import MonitorConfig, WorkloadMonitor

log = logging.getLogger(__name__)

ADAPTIVE = "adaptive"
VANILLA = "vanilla"

FILL_BLOCKS = 256  # blocks whose counts run() computes per trace call
# The times MAX_TIME_MS bounds, as attribute paths from EngineConfig.
_TIME_FIELDS = ("duration", "block_interval", "initial_interval", "control_start",
                "controller.min_interval", "controller.max_interval",
                "controller.control_period", "tracker.resample_interval")


# Event ranks: at equal timestamps the lower rank runs first. Jobs complete
# before windows close, windows close before the controller reads them, and
# the controller runs before the timer fires, so every consumer sees the
# freshest state a coinciding producer left behind. A job that takes no time
# completes after the other events of the instant it started in
# (INSTANT_JOB_COMPLETE), and the trace end comes last. run() keeps one
# clock per source and compares their (time, rank) pairs.
(JOB_COMPLETE, RATE_WINDOW_CLOSE, CONTROL_TICK, BATCH_TIMER_FIRE,
 INSTANT_JOB_COMPLETE, TRACE_END) = range(6)


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
                raise DomainError(f"{name} must be finite and >= 0, got {v!r}")
            # A float cost makes every batch delay a float (see run()).
            object.__setattr__(self, name, float(v))

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
        if self.block_interval <= 0:
            raise DomainError("block_interval must be positive")
        for name in ("min_interval", "max_interval"):
            v = getattr(self.controller, name)
            if v <= 0 or v % self.block_interval != 0:
                raise DomainError(f"{name} must be a positive multiple of block_interval, got {v}")
        if self.controller.min_interval > self.controller.max_interval:
            raise DomainError("min_interval must not exceed max_interval")
        if self.mode not in (ADAPTIVE, VANILLA):
            raise DomainError(f"mode must be '{ADAPTIVE}' or '{VANILLA}', got {self.mode!r}")
        times = attrgetter(*_TIME_FIELDS)(self)
        if max(times) > MAX_TIME_MS:
            name = _TIME_FIELDS[times.index(max(times))]
            raise DomainError(f"{name} must be at most MAX_TIME_MS = 2**53 ms")
        if self.duration <= 0:
            raise DomainError("duration must be positive")
        if self.initial_interval <= 0 or self.initial_interval % self.block_interval != 0:
            raise DomainError("initial_interval must be a positive multiple of block_interval")
        if self.mode == ADAPTIVE:
            if not (self.controller.min_interval <= self.initial_interval
                    <= self.controller.max_interval):
                raise DomainError("initial_interval must lie within the controller's range")
        if self.tracker.resample_interval % self.block_interval != 0:
            raise DomainError("tracker resample_interval must be a multiple of block_interval")
        if self.control_start < 0:
            raise DomainError("control_start must be >= 0")
        if not (0.0 <= self.jitter < 1.0):
            raise DomainError("jitter must be in [0, 1)")


@dataclass(slots=True)
class BatchRow:
    """Metrics row emitted when a batch completes.

    The eight fields are stored; ``eta``, the batch's workload sample, is
    derived. ``total_delay_ms`` is stored although it is ``sched_delay_ms +
    proc_delay_ms``, because ``summarize`` and ``write_metrics`` read it on
    every row. A batch that started at its own fire, most batches when the
    worker keeps up, holds the constant 0.0 as ``sched_delay_ms`` and its
    ``proc_delay_ms`` object as ``total_delay_ms``, so its delays cost one
    float. ``eta`` is read only by the monitor, once per batch, and by
    ``write_metrics``; storing it would keep one more float per row for
    the whole run.
    """

    time_ms: float
    batch_id: int
    interval_ms: int
    records: int
    blocks: int
    sched_delay_ms: float
    proc_delay_ms: float
    total_delay_ms: float

    @property
    def eta(self) -> float:
        """Total delay over the interval used: the monitor's sample."""
        return self.total_delay_ms / float(self.interval_ms)


@dataclass
class MetricsLog:
    rows: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    total_generated: int = 0
    total_block_records: int = 0
    total_batch_records: int = 0
    batch_count: int = 0  # batches completed, one BatchRow each


class MicrobatchEngine:
    """Engine for one config and trace: each run() builds its own tracker,
    monitor, controller, RNG and metrics log, so runs are equal."""

    def __init__(self, config: EngineConfig, trace: RateFunction):
        self.config = config
        self.trace = trace

    def run(self) -> MetricsLog:
        """Run the trace to its end and return the metrics log."""
        cfg = self.config
        block = cfg.block_interval
        tracker = TrafficTracker(cfg.tracker)
        monitor = WorkloadMonitor(cfg.monitor)
        controller = FuzzyController(cfg.controller, block) if cfg.mode == ADAPTIVE else None
        rng = random.Random(cfg.seed)
        metrics = MetricsLog()
        cost = cfg.cost_model.cost
        on_batch_completed = monitor.on_batch_completed
        rows, windows = metrics.rows, metrics.windows
        # The window, tick and trace-end clocks.
        w, period = cfg.tracker.resample_interval, cfg.controller.control_period
        window, tick, end = w, period, cfg.duration
        # The block clock. Counts of blocks first .. first + len(records) - 2
        # are filled in; records[j] and nonempty[j] are the running totals
        # over blocks 0 .. first + j - 1. batched_* are the same totals at
        # the last batch seal, and reported_records at the last window close.
        n_blocks = cfg.duration // block
        first, records, nonempty = 0, [0], [0]
        batched_records = batched_blocks = reported_records = 0
        # The timer clock: the next fire, the interval that ends at it and the
        # one a tick staged for the fire after it (None for no change); the
        # worker clock: the running job as (done_at, rank, batch, started_at),
        # or None when the worker is idle. A batch is a tuple (records,
        # blocks, generated_at, interval_used).
        fire = interval = cfg.initial_interval
        pending = None
        job = None
        queue: deque[tuple[int, int, int, int]] = deque()
        batch_records = completed = 0
        while True:
            # The next event is the earliest of the five clocks by (time, rank).
            if window <= tick:
                now, kind = window, RATE_WINDOW_CLOSE
            else:
                now, kind = tick, CONTROL_TICK
            if now > end:
                now, kind = end, TRACE_END
            if fire < now or fire == now and kind > BATCH_TIMER_FIRE:
                now, kind = fire, BATCH_TIMER_FIRE
            if job is not None and (job[0] < now or job[0] == now and job[1] < kind):
                now, _, (batch_size, batch_blocks, generated_at, used), started_at = job
                job = None
                proc = now - started_at
                if started_at == generated_at:
                    # A batch that did not wait shares its floats, with the
                    # values the general rule gives: x - x is +0.0, proc is
                    # a float and never -0.0, and 0.0 + proc is proc.
                    sched, total = 0.0, proc
                else:
                    # float() keeps the delays floats when every time is an
                    # int, as summary.json writes them.
                    sched = started_at - float(generated_at)
                    total = sched + proc
                row = BatchRow(now, completed, used, batch_size, batch_blocks, sched, proc,
                               total)
                rows.append(row)
                if total > 0:
                    on_batch_completed(row.eta)
                else:
                    log.debug("batch %d completed with zero delay, no workload sample",
                              completed)
                completed += 1
            else:
                # Seal every block that ends by now. No event runs after the
                # trace end, so no block ends after it either.
                k = int(now // block)
                while k - first >= len(records):
                    first += len(records) - 1
                    counts = self._block_counts(first, min(FILL_BLOCKS, n_blocks - first), rng)
                    records = list(accumulate(counts, initial=records[-1]))
                    nonempty = list(accumulate(map(bool, counts), initial=nonempty[-1]))
                sealed_records = records[k - first]
                if kind == BATCH_TIMER_FIRE:
                    # Group every unsealed block into the next batch.
                    sealed_blocks = nonempty[k - first]
                    batch_size = sealed_records - batched_records
                    queue.append((batch_size, sealed_blocks - batched_blocks, now, interval))
                    batch_records += batch_size
                    batched_records, batched_blocks = sealed_records, sealed_blocks
                    if pending is not None:
                        interval, pending = pending, None
                    # A fire after the trace end never comes before it.
                    fire = now + interval
                elif kind == RATE_WINDOW_CLOSE:
                    # The window closing is the one that ends now: every block
                    # sealed since the last close started in it, since windows
                    # are block multiples.
                    tracker.report_info(now - w, sealed_records - reported_records)
                    reported_records = sealed_records
                    windows += tracker.close_windows_upto(now)
                    window = now + w
                elif kind == CONTROL_TICK:
                    s = monitor.update_estimate()
                    q_now, q_next = tracker.control_rates()
                    if controller is not None and now >= cfg.control_start:
                        row = controller.control_step(now, interval, s, q_now, q_next)
                        # Stage only a change: a tick that holds the interval
                        # must not cancel one an earlier tick staged for the
                        # next fire.
                        if row.interval_ms != interval:
                            pending = row.interval_ms
                    else:
                        row = ControlRow(now, interval, s, q_now, q_next, None, None, None)
                    rows.append(row)
                    tick = now + period
                else:
                    break
            if job is None and queue:
                batch = queue.popleft()
                done_at = now + cost(batch[0], batch[1])
                job = (done_at, JOB_COMPLETE if done_at > now else INSTANT_JOB_COMPLETE,
                       batch, now)
        # Whatever the receiver still holds is sealed as one last batch, which
        # never runs because simulated time stops here, so the ledger balances.
        batch_records += sealed_records - batched_records
        metrics.total_generated = metrics.total_block_records = sealed_records
        metrics.total_batch_records = batch_records
        metrics.batch_count = completed
        return metrics

    def _block_counts(self, first: int, n: int, rng: random.Random) -> list[int]:
        """Record counts of blocks first .. first + n - 1: each block's
        expected count, scaled by its jitter factor, rounded half up. The
        jitter RNG is drawn once per block, in block order; the expression
        is ``uniform(-1.0, 1.0)``'s own, ``-1.0 + 2.0 * random()``."""
        block, jitter = self.config.block_interval, self.config.jitter
        expected = self.trace.block_integrals(first * block, block, n)
        floor = math.floor
        if jitter > 0.0:
            random_ = rng.random
            return [floor(e * (1.0 + jitter * (-1.0 + 2.0 * random_())) + 0.5)
                    for e in expected]
        return [floor(e + 0.5) for e in expected]
