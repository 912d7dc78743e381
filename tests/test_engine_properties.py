"""Engine invariants over random valid configs, with jitter off and on.

Every run must conserve records (generated = in blocks = in batches), run
batches in FIFO order, split each batch's delay into non-negative scheduling
and processing parts whose sum over the interval used is its workload sample,
write metrics.csv in time order, and in adaptive mode keep every interval a
block multiple inside [min_interval, max_interval]. A tick the controller
runs has a level in -2..2 and C and D in [-0.2, 0.2]; any other tick has
none of the three.

The engine fills block counts a chunk at a time and reads batch and window
totals off running sums. Each run is also checked against a receiver that
does it one block at a time: the integral of the block, a jitter factor from
``uniform(-1.0, 1.0)`` and ``floor(x + 0.5)``, on the same seed. Every batch
and every window must hold exactly that receiver's records.

The engine has no event heap: its five event sources are clocks compared
by (time, rank). Each run is also checked against a reference loop that puts
all five (job completions, window closes, control ticks, timer fires and the
trace end) on one heap, ordered by time, rank and sequence number, and feeds the
tracker one block at a time from the per-block receiver. Its rows (batch,
control and window rows, in one list), batch count and record totals must
equal the engine's, field for field, and its batch rows by repr too. The reference numbers batches when it seals
them and checks that each completes after exactly that many others, so
the count of completed batches that ``write_metrics`` writes as the id is
the seal-time id. It computes every delay by the general rule, so it also
checks the floats of a batch that did not wait.
"""

import dataclasses
import heapq
import itertools
import math
import tempfile
from collections import deque
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from edgebatch import traces
from edgebatch.engine import (
    ADAPTIVE,
    VANILLA,
    BatchRow,
    EngineConfig,
    JobCostModel,
    MetricsLog,
)
from edgebatch.fuzzy import ControllerConfig, ControlRow, FuzzyController
from edgebatch.grey import MIN_TRAIN_LEN
from edgebatch.harness import METRICS_COLUMNS, RunSpec, execute, write_metrics
from edgebatch.tracker import TrackerConfig, TrafficTracker
from edgebatch.workload import WorkloadMonitor

from log_rows import collect, per_block_counts, split_rows

RATES = st.integers(0, 5000).map(float)
# Stretches of zero rate make empty batches, which cost nothing when the
# cost has no fixed part: a job for one completes in the instant it starts.
RATES_OR_ZERO = st.one_of(st.just(0.0), RATES)
# Whole numbers make costs and events land on the same millisecond often.
# With a 200 ms block, a job started on a block boundary and costing 200.0
# completes on the next one, and one costing 199.99999999999994 completes at
# 399.99999999999994 or the like, one ulp before it: the block ending there
# is sealed by the first and not by the second.
COSTS = st.one_of(st.integers(0, 2000).map(float), st.floats(0.0, 2000.0),
                  st.sampled_from([199.99999999999994, 200.0]))


def csv_trace(rows, count_mode, time_scale, rate_scale):
    """A trace loaded by from_csv from a file holding rows."""
    text = "timestamp_s,value\n" + "".join(f"{t},{v}\n" for t, v in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(text)
        return traces.from_csv(path, count_mode=count_mode, time_scale=time_scale,
                               rate_scale=rate_scale)


@st.composite
def csv_traces(draw, count_mode: bool):
    """Count- or rate-mode CSV traces with fractional breakpoints, as the day
    presets' time scales give them, starting before or after t = 0."""
    t = draw(st.integers(-30, 30))
    rows = []
    for _ in range(draw(st.integers(2, 12))):
        rows.append((t, draw(RATES_OR_ZERO)))
        t += draw(st.integers(1, 120))
    time_scale = draw(st.sampled_from([1.0, 1 / 6, 1 / 60, 0.37]))
    return csv_trace(rows, count_mode, time_scale, draw(st.sampled_from([1.0, 6.0, 21.6])))


@st.composite
def job_costs(draw, block: int, control_period: int):
    """Cost models. Zero costs give jobs that complete in the instant they
    start; whole multiples of the block or the control period give jobs that
    complete on timer fires, window closes, control ticks or the trace end.
    With no fixed part and a per-block cost of twice the unit, batches of
    non-empty blocks overload the worker and empty ones cost nothing, so a
    job that completes on another event can start one that completes in
    that same instant."""
    kind = draw(st.sampled_from(["any", "zero", "blocks", "periods"]))
    if kind == "any":
        return JobCostModel(draw(COSTS), draw(st.sampled_from([0.0, 0.25, 1.0, 2.0])),
                            draw(st.sampled_from([0.0, 8.0, 100.0])))
    if kind == "zero":
        return JobCostModel(0.0, 0.0, 0.0)
    unit = float(block if kind == "blocks" else control_period)
    return JobCostModel(draw(st.one_of(st.just(0), st.integers(1, 10))) * unit, 0.0,
                        draw(st.sampled_from([0.0, unit, 2 * unit])))


@st.composite
def engine_runs(draw, jitter: bool):
    block = draw(st.sampled_from([100, 200, 250]))
    # A duration that is a block multiple ends the trace on a timer fire now
    # and then.
    duration = draw(st.one_of(st.integers(block, 90_000),
                              st.integers(1, 90_000 // block).map(lambda k: k * block)))
    min_blocks = draw(st.integers(1, 10))
    max_blocks = draw(st.integers(min_blocks, 30))
    mode = draw(st.sampled_from([ADAPTIVE, VANILLA]))
    if mode == ADAPTIVE:
        initial_blocks = draw(st.integers(min_blocks, max_blocks))
    else:
        initial_blocks = draw(st.integers(1, 30))
    train_num = draw(st.integers(MIN_TRAIN_LEN, 8))
    kind = draw(st.sampled_from(["constant", "step", "sinusoid", "csv-count", "csv-rate",
                                 "on-off"]))
    if kind == "constant":
        trace = traces.constant(draw(RATES))
    elif kind == "step":
        trace = traces.step(draw(RATES_OR_ZERO), draw(RATES_OR_ZERO),
                            draw(st.integers(0, duration)))
    elif kind.startswith("csv"):
        trace = draw(csv_traces(count_mode=kind == "csv-count"))
    elif kind == "on-off":
        # Bursts between silences: an overloaded worker queues empty batches
        # behind full ones.
        rows, t = [], 0
        for i in range(draw(st.integers(2, 12))):
            rows.append((t, 0.0 if i % 2 else draw(RATES)))
            t += draw(st.integers(1, 20))
        trace = csv_trace(rows, True, 1.0, 1.0)
    else:
        base = draw(RATES)
        trace = traces.SinusoidRate(base, draw(st.floats(0.0, base)),
                                draw(st.integers(1_000, 200_000)))
    # A control period of one block puts a tick on every block boundary.
    control_period = (draw(st.one_of(st.just(1), st.integers(1, 40)))
                      * draw(st.sampled_from([block, 333])))
    config = EngineConfig(
        controller=ControllerConfig(
            min_interval=min_blocks * block,
            max_interval=max_blocks * block,
            control_period=control_period,
        ),
        cost_model=draw(job_costs(block, control_period)),
        duration=duration,
        initial_interval=initial_blocks * block,
        block_interval=block,
        mode=mode,
        control_start=draw(st.integers(0, 40_000)),
        tracker=TrackerConfig(resample_interval=draw(st.integers(1, 50)) * block,
                              train_num=train_num, prediction_enabled=draw(st.booleans())),
        seed=draw(st.integers(0, 2**32)),
        jitter=draw(st.floats(0.01, 0.9)) if jitter else 0.0,
    )
    return config, trace


def check_against_per_block_receiver(config, trace, log, rows):
    counts = per_block_counts(config, trace)
    block = config.block_interval
    assert log.total_generated == sum(counts)
    # Batch k holds the blocks that ended after the timer fire that sealed
    # batch k - 1 and by its own; each fire is the last plus the interval used.
    fired = 0
    for b in split_rows(rows)[0]:
        sealed = counts[fired // block:(fired + b.interval_ms) // block]
        assert (b.records, b.blocks) == (sum(sealed), sum(c > 0 for c in sealed))
        fired += b.interval_ms
    per_window = config.tracker.resample_interval // block
    windows = split_rows(rows)[2]
    for k, w in enumerate(windows):
        assert w.window_start_ms == k * config.tracker.resample_interval
        window = counts[k * per_window:(k + 1) * per_window]
        assert w.rate_measured == sum(window) * 1000.0 / config.tracker.resample_interval
    assert len(windows) == config.duration // config.tracker.resample_interval
    # The summary's fold takes the steady ticks from this count on.
    assert len(split_rows(rows)[1]) == config.duration // config.controller.control_period


# Event ranks of the reference loop: at equal times the lower rank runs first.
(JOB_COMPLETE, RATE_WINDOW_CLOSE, CONTROL_TICK, BATCH_TIMER_FIRE,
 INSTANT_JOB_COMPLETE, TRACE_END) = range(6)


class RefBatch(NamedTuple):
    """A batch of the reference loop, with the id it gets when sealed."""

    batch_id: int
    records: int
    blocks: int
    generated_at: int
    interval_used: int


class HeapReference:
    """Every event on one heap as (time, rank, sequence, payload), each timer
    fire and job completion included, fed by the per-block receiver: every
    block that ends by an event is sealed, and reported to the tracker on
    its own, before the event runs. Batch ids are assigned at seal time and
    every batch's delays take the general arithmetic. ``run`` returns the
    totals and the rows, as ``log_rows.collect`` does."""

    def __init__(self, config, trace):
        self.config = config
        self.counts = per_block_counts(config, trace)
        self.tracker = TrafficTracker(config.tracker)
        self.monitor = WorkloadMonitor(config.monitor)
        self.controller = None
        if config.mode == ADAPTIVE:
            self.controller = FuzzyController(config.controller, config.block_interval)
        self.log = MetricsLog()
        self.rows = []
        self.heap = []
        self.sequence = itertools.count()
        self.interval = config.initial_interval
        self.pending_interval = None
        self.last_fire = 0
        self.sealed = self.batched = 0  # blocks sealed, blocks in batches
        self.next_batch_id = 0
        self.queue = deque()
        self.busy = False
        self.ended = False

    def schedule(self, at, rank, payload=None):
        heapq.heappush(self.heap, (at, rank, next(self.sequence), payload))

    def run(self):
        cfg = self.config
        self.schedule(cfg.tracker.resample_interval, RATE_WINDOW_CLOSE)
        self.schedule(cfg.controller.control_period, CONTROL_TICK)
        self.schedule(cfg.initial_interval, BATCH_TIMER_FIRE)
        self.schedule(cfg.duration, TRACE_END)
        handlers = {JOB_COMPLETE: self.job_complete, RATE_WINDOW_CLOSE: self.window_close,
                    CONTROL_TICK: self.control_tick, BATCH_TIMER_FIRE: self.timer_fire,
                    INSTANT_JOB_COMPLETE: self.job_complete, TRACE_END: self.trace_end}
        while not self.ended:
            at, rank, _, payload = heapq.heappop(self.heap)
            block = cfg.block_interval
            while (self.sealed + 1) * block <= at:
                self.tracker.report_info(self.counts[self.sealed])
                self.log.total_generated += self.counts[self.sealed]
                self.sealed += 1
            handlers[rank](at, payload)
        return self.log, self.rows

    def seal(self, now, interval_used):
        blocks = self.counts[self.batched:self.sealed]
        self.batched = self.sealed
        self.log.total_batch_records += sum(blocks)
        self.next_batch_id += 1
        return RefBatch(self.next_batch_id - 1, sum(blocks), sum(c > 0 for c in blocks), now,
                        interval_used)

    def timer_fire(self, now, _):
        self.queue.append(self.seal(now, now - self.last_fire))
        self.last_fire = now
        if self.pending_interval is not None:
            self.interval, self.pending_interval = self.pending_interval, None
        if now + self.interval <= self.config.duration:
            self.schedule(now + self.interval, BATCH_TIMER_FIRE)
        self.maybe_start_job(now)

    def maybe_start_job(self, now):
        if self.busy or not self.queue:
            return
        batch = self.queue.popleft()
        self.busy = True
        done_at = now + self.config.cost_model.cost(batch.records, batch.blocks)
        self.schedule(done_at, JOB_COMPLETE if done_at > now else INSTANT_JOB_COMPLETE,
                      (batch, now))

    def job_complete(self, now, payload):
        batch, started_at = payload
        self.busy = False
        assert batch.batch_id == self.log.batch_count  # FIFO
        sched = started_at - float(batch.generated_at)
        proc = now - started_at
        total = sched + proc
        self.rows.append(BatchRow(now, batch.interval_used, batch.records, batch.blocks,
                                  sched, proc))
        self.log.batch_count += 1
        if total > 0:
            self.monitor.on_batch_completed(total / float(batch.interval_used))
        self.maybe_start_job(now)

    def window_close(self, now, _):
        self.rows.append(self.tracker.close_windows_upto(now))
        if now + self.config.tracker.resample_interval <= self.config.duration:
            self.schedule(now + self.config.tracker.resample_interval, RATE_WINDOW_CLOSE)

    def control_tick(self, now, _):
        cfg = self.config
        s = self.monitor.update_estimate()
        q_now, q_next = self.tracker.control_rates()
        if self.controller is not None and now >= cfg.control_start:
            row = self.controller.control_step(now, self.interval, s, q_now, q_next)
            if row.interval_ms != self.interval:
                self.pending_interval = row.interval_ms
        else:
            row = ControlRow(now, self.interval, s, q_now, q_next, None, None, None)
        self.rows.append(row)
        if now + cfg.controller.control_period <= cfg.duration:
            self.schedule(now + cfg.controller.control_period, CONTROL_TICK)

    def trace_end(self, now, _):
        if any(self.counts[self.batched:self.sealed]):
            self.seal(now, now - self.last_fire)
        self.ended = True


def check_against_heap_reference(config, trace, log, rows):
    ref, ref_rows = HeapReference(config, trace).run()
    assert rows == ref_rows
    # By repr too, which tells +0.0 from -0.0 and an int from a float.
    assert repr(split_rows(rows)[0]) == repr(split_rows(ref_rows)[0])
    assert log.batch_count == ref.batch_count
    assert (log.total_generated, log.total_batch_records) == \
        (ref.total_generated, ref.total_batch_records)


def check_invariants(config, trace):
    log, rows = collect(config, trace)
    assert log.total_generated == log.total_batch_records
    check_against_per_block_receiver(config, trace, log, rows)
    check_against_heap_reference(config, trace, log, rows)

    batches, ticks, _ = split_rows(rows)
    assert sum(b.records for b in batches) <= log.total_generated
    for b in batches:
        assert b.sched_delay_ms >= 0 and b.proc_delay_ms >= 0
        if b.sched_delay_ms == 0:  # started at its own fire: total is proc
            assert repr(b.sched_delay_ms) == "0.0"
            assert b.total_delay_ms == b.proc_delay_ms
            assert repr(b.total_delay_ms) == repr(b.proc_delay_ms)
        assert b.interval_ms > 0
        assert b.eta == b.total_delay_ms / float(b.interval_ms)

    with tempfile.TemporaryDirectory() as out:
        write_metrics(rows, out, config.block_interval)
        lines = (Path(out) / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    cells = [line.split(",") for line in lines[1:]]
    times = [float(row[0]) for row in cells]
    assert times == sorted(times)
    ids = [row[1] for row in cells if row[1]]
    assert ids == [str(k) for k in range(len(batches))]  # FIFO, as the reference checks

    # adjust_interval checks neither its level nor its interval: infer and
    # EngineConfig guarantee both, and a tick that only monitors has neither.
    for t in ticks:
        if config.mode == ADAPTIVE and t.time_ms >= config.control_start:
            assert type(t.fuzzy_level) is int and -2 <= t.fuzzy_level <= 2
            assert -0.2 <= t.traffic_change <= 0.2 and -0.2 <= t.workload_deviation <= 0.2
        else:
            assert (t.traffic_change, t.workload_deviation, t.fuzzy_level) == (None, None, None)
    if config.mode == ADAPTIVE:
        ctl = config.controller
        for interval in {b.interval_ms for b in batches} | {t.interval_ms for t in ticks}:
            assert interval % config.block_interval == 0
            assert ctl.min_interval <= interval <= ctl.max_interval


# A tick every block, whose level changes while the interval is long: a
# tick that holds the interval must not cancel a change an earlier tick
# staged for the same fire.
HOLD_AFTER_STAGE = (
    EngineConfig(
        controller=ControllerConfig(min_interval=100, max_interval=1900, control_period=100),
        cost_model=JobCostModel(86.0, 4.0, 8.0), duration=10_900, initial_interval=1000,
        block_interval=100, control_start=0,
        tracker=TrackerConfig(resample_interval=100, train_num=4, prediction_enabled=False)),
    traces.constant(15.0),
)

# The same run overloaded: each batch takes 1.5 s, and the controller
# lengthens the interval a block at a time. From 5,300 ms to 5,500 ms two
# batches wait, of 1,100 ms and 1,200 ms, so a batch's seal time must come
# from the intervals of the batches before it, not from the current one.
BACKLOG_ACROSS_A_CHANGE = (
    dataclasses.replace(HOLD_AFTER_STAGE[0], cost_model=JobCostModel(1500.0, 0.0, 0.0)),
    HOLD_AFTER_STAGE[1],
)


@pytest.mark.parametrize("jitter", [False, True], ids=["jitter-off", "jitter-on"])
def test_engine_invariants_hold_over_random_configs(jitter):
    @settings(max_examples=250, deadline=None)
    @given(engine_runs(jitter))
    @example(HOLD_AFTER_STAGE)
    @example(BACKLOG_ACROSS_A_CHANGE)
    def check(drawn):
        check_invariants(*drawn)

    check()


# -- metamorphic relations ------------------------------------------------------
# Each relates two runs of configs that differ in one setting, so it also
# catches a defect that the engine and its reference loop would share (Chen
# et al., "Metamorphic Testing: A Review of Challenges and Opportunities",
# ACM Computing Surveys, 2018).

RELATION = settings(max_examples=150, deadline=None)
ANY_RUN = st.booleans().flatmap(engine_runs)  # jitter off and on


def written_files(config, trace):
    """The bytes of every file a run of config writes, by name."""
    _, rows = collect(config, trace)
    with tempfile.TemporaryDirectory() as out:
        write_metrics(rows, out, config.block_interval)
        files = {path.name: path.read_bytes() for path in Path(out).iterdir()}
    assert len(files) == 6
    return files


@RELATION
@given(ANY_RUN)
# A tick and a window every block, over 900 blocks: most drawn runs make
# fewer rows than one chunk holds.
@example((dataclasses.replace(HOLD_AFTER_STAGE[0], duration=90_000), HOLD_AFTER_STAGE[1]))
def test_streamed_run_writes_the_files_of_the_collected_log(drawn):
    # execute hands the engine a flush that writes each chunk of rows as the
    # run goes; its six files must be write_metrics', which writes all the
    # run's rows in one call.
    config, trace = drawn
    with tempfile.TemporaryDirectory() as out:
        execute(RunSpec(config, trace), out)
        files = {path.name: path.read_bytes() for path in Path(out).iterdir()}
    assert files == written_files(config, trace)


@RELATION
@given(ANY_RUN, st.integers(1, 10**6))
def test_adaptive_run_with_no_controlled_tick_is_vanilla(drawn, after):
    # Every tick comes before control_start, so each only monitors, as in
    # vanilla mode: the six files must match byte for byte.
    config, trace = drawn
    assume(config.mode == ADAPTIVE)
    adaptive = dataclasses.replace(config, control_start=config.duration + after)
    vanilla = dataclasses.replace(adaptive, mode=VANILLA)
    assert written_files(adaptive, trace) == written_files(vanilla, trace)


@RELATION
@given(ANY_RUN)
def test_prediction_without_a_model_changes_no_decision(drawn):
    # With train_num above the window count no fit is ever made: prediction
    # on gives no forecast and C = 0, and prediction off gives q_next = q_now
    # and C = 0 too. Only the rate_predicted column may differ.
    config, trace = drawn
    windows = config.duration // config.tracker.resample_interval
    tracker = dataclasses.replace(config.tracker, train_num=max(MIN_TRAIN_LEN, windows + 1),
                                  prediction_enabled=True)
    on = dataclasses.replace(config, tracker=tracker)
    off = dataclasses.replace(on, tracker=dataclasses.replace(tracker,
                                                              prediction_enabled=False))
    (batches_on, ticks_on, _), (batches_off, ticks_off, _) = (
        split_rows(collect(c, trace)[1]) for c in (on, off))
    assert all(t.rate_predicted is None for t in ticks_on)
    assert repr(batches_on) == repr(batches_off)  # equal, floats to the last bit
    assert ([(t.time_ms, t.interval_ms, t.fuzzy_level) for t in ticks_on]
            == [(t.time_ms, t.interval_ms, t.fuzzy_level) for t in ticks_off])


@RELATION
@given(ANY_RUN, st.integers(1, 10), st.integers(0, 20), st.integers(0, 40_000))
def test_vanilla_run_ignores_the_controller_settings(drawn, min_blocks, extra_blocks, start):
    # A vanilla run keeps its initial interval, so the controller's range and
    # start must change none of the six files.
    config, trace = drawn
    vanilla = dataclasses.replace(config, mode=VANILLA)
    block = config.block_interval
    controller = dataclasses.replace(config.controller, min_interval=min_blocks * block,
                                     max_interval=(min_blocks + extra_blocks) * block)
    other = dataclasses.replace(vanilla, controller=controller, control_start=start)
    assert written_files(vanilla, trace) == written_files(other, trace)


@RELATION
@given(ANY_RUN, st.sampled_from(["fixed_overhead", "per_record_cost", "per_block_cost"]),
       st.one_of(st.integers(1, 2000).map(float), st.floats(2**-20, 2000.0)))
def test_vanilla_run_is_monotone_in_each_cost_term(drawn, term, raise_by):
    # Every batch holds the same blocks at the same fire, and its start is
    # max(its fire, the last completion): a wait never falls when a service
    # time rises (Lindley's recursion for one FIFO server). So every batch
    # completes no earlier, and no more batches complete by the trace end.
    config, trace = drawn
    cheap = dataclasses.replace(config, mode=VANILLA)
    model = cheap.cost_model
    costly = dataclasses.replace(cheap, cost_model=dataclasses.replace(
        model, **{term: getattr(model, term) + raise_by}))
    fast, slow = (split_rows(collect(c, trace)[1])[0] for c in (cheap, costly))
    assert len(slow) <= len(fast)
    for a, b in zip(fast, slow):
        assert (b.interval_ms, b.records, b.blocks) == (a.interval_ms, a.records, a.blocks)
        assert b.time_ms >= a.time_ms


# -- closed form ----------------------------------------------------------------


def lindley_rows(config, rate):
    """The batch rows of a vanilla run of config on a constant trace of rate,
    jitter off, as (time, interval, records, blocks, sched, proc): Lindley's
    recursion for one FIFO server (Lindley, 1952), in absolute time. Batch k
    is sealed at its fire k * I, starts at max(k * I, the completion of
    batch k - 1), the fire on a tie, and completes one cost later. Every
    block holds the same records, so every batch has the same cost."""
    block, interval = config.block_interval, config.initial_interval
    per_block = math.floor(rate * block / 1000.0 + 0.5)
    records, blocks = interval // block * per_block, interval // block if per_block else 0
    model = config.cost_model
    cost = model.fixed_overhead + model.per_record_cost * records + model.per_block_cost * blocks
    rows, done = [], None
    for fire in range(interval, config.duration + 1, interval):
        start = fire if done is None or done <= fire else done
        done = start + cost
        if done > config.duration:  # completes after the trace end: not logged
            break
        sched = 0.0 if start == fire else start - float(fire)
        rows.append((done, interval, records, blocks, sched, done - start))
    return rows


@st.composite
def vanilla_constant_runs(draw):
    """A vanilla config with jitter off, and a constant rate. The fixed cost
    is drawn up to twice the interval, so that in some runs the worker falls
    behind, and equal to it now and then, so that a batch completes on the
    next fire."""
    config, _ = draw(engine_runs(jitter=False))
    interval = float(config.initial_interval)
    fixed = draw(st.one_of(st.just(interval), st.integers(0, 2 * int(interval)).map(float),
                           st.floats(0.0, 2.0 * interval)))
    model = JobCostModel(fixed, draw(st.sampled_from([0.0, 0.01, 0.25])),
                         draw(st.sampled_from([0.0, 8.0])))
    config = dataclasses.replace(config, mode=VANILLA, cost_model=model)
    return config, draw(st.one_of(RATES, st.floats(0.0, 5000.0)))


@settings(max_examples=200, deadline=None)
@given(vanilla_constant_runs())
def test_vanilla_constant_run_follows_lindleys_recursion(drawn):
    config, rate = drawn
    log, rows = collect(config, traces.constant(rate))
    got = [(b.time_ms, b.interval_ms, b.records, b.blocks, b.sched_delay_ms, b.proc_delay_ms)
           for b in split_rows(rows)[0]]
    want = lindley_rows(config, rate)
    event("no batch" if not want else "a batch waited" if any(row[4] for row in want)
          else "no batch waited")
    assert got == want
    assert repr(got) == repr(want)  # the same types and signs too
    assert log.batch_count == len(want)
