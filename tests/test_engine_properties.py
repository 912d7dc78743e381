"""Engine invariants over random valid configs, with jitter off and on.

Every run must conserve records (generated = in blocks = in batches), run
batches in FIFO order, split each batch's delay into non-negative scheduling
and processing parts whose sum over the interval used is its workload sample,
write metrics.csv in time order, and in adaptive mode keep every interval a
block multiple inside [min_interval, max_interval].

The engine fills block counts a chunk at a time and reads batch and window
totals off running sums. Each run is also checked against a receiver that
does it one block at a time: the integral of the block, a jitter factor from
``uniform(-1.0, 1.0)`` and ``floor(x + 0.5)``, on the same seed. Every batch
and every window must hold exactly that receiver's records.
"""

import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebatch import traces
from edgebatch.engine import ADAPTIVE, VANILLA, EngineConfig, JobCostModel, run
from edgebatch.fuzzy import ControllerConfig
from edgebatch.grey import MIN_TRAIN_LEN
from edgebatch.harness import METRICS_COLUMNS, write_metrics
from edgebatch.tracker import TrackerConfig

RATES = st.integers(0, 5000).map(float)
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
        rows.append((t, draw(RATES)))
        t += draw(st.integers(1, 120))
    time_scale = draw(st.sampled_from([1.0, 1 / 6, 1 / 60, 0.37]))
    return csv_trace(rows, count_mode, time_scale, draw(st.sampled_from([1.0, 6.0, 21.6])))


@st.composite
def engine_runs(draw, jitter: bool):
    block = draw(st.sampled_from([100, 200, 250]))
    duration = draw(st.integers(block, 90_000))
    min_blocks = draw(st.integers(1, 10))
    max_blocks = draw(st.integers(min_blocks, 30))
    mode = draw(st.sampled_from([ADAPTIVE, VANILLA]))
    if mode == ADAPTIVE:
        initial_blocks = draw(st.integers(min_blocks, max_blocks))
    else:
        initial_blocks = draw(st.integers(1, 30))
    train_num = draw(st.integers(MIN_TRAIN_LEN, 8))
    kind = draw(st.sampled_from(["constant", "step", "sinusoid", "csv-count", "csv-rate"]))
    if kind == "constant":
        trace = traces.constant(draw(RATES))
    elif kind == "step":
        trace = traces.step(draw(RATES), draw(RATES), draw(st.integers(0, duration)))
    elif kind.startswith("csv"):
        trace = draw(csv_traces(count_mode=kind == "csv-count"))
    else:
        base = draw(RATES)
        trace = traces.sinusoid(base, draw(st.floats(0.0, base)),
                                draw(st.integers(1_000, 200_000)))
    config = EngineConfig(
        controller=ControllerConfig(
            block_interval=block,
            min_interval=min_blocks * block,
            max_interval=max_blocks * block,
            control_period=draw(st.integers(1, 40)) * draw(st.sampled_from([block, 333])),
            prediction_enabled=draw(st.booleans()),
            step_blocks=draw(st.integers(1, 3)),
        ),
        cost_model=JobCostModel(draw(COSTS), draw(st.sampled_from([0.0, 0.25, 1.0, 2.0])),
                                draw(st.sampled_from([0.0, 8.0, 100.0]))),
        duration=duration,
        initial_interval=initial_blocks * block,
        block_interval=block,
        mode=mode,
        control_start=draw(st.integers(0, 40_000)),
        tracker=TrackerConfig(resample_interval=draw(st.integers(1, 50)) * block,
                              train_num=train_num),
        seed=draw(st.integers(0, 2**32)),
        jitter=draw(st.floats(0.01, 0.9)) if jitter else 0.0,
    )
    return config, trace


def per_block_counts(config, trace):
    """Record counts of every block of the run, one block at a time."""
    rng = random.Random(config.seed)
    block = config.block_interval
    counts = []
    for end in range(block, config.duration + 1, block):
        expected = trace.integral(end - block, end)
        if config.jitter > 0.0:
            expected *= 1.0 + config.jitter * rng.uniform(-1.0, 1.0)
        counts.append(math.floor(expected + 0.5))
    return counts


def check_against_per_block_receiver(config, trace, log):
    counts = per_block_counts(config, trace)
    block = config.block_interval
    assert log.total_generated == sum(counts)
    # Batch k holds the blocks that ended after the timer fire that sealed
    # batch k - 1 and by its own; each fire is the last plus the interval used.
    fired = 0
    for b in log.batches:
        sealed = counts[fired // block:(fired + b.interval_ms) // block]
        assert (b.records, b.blocks) == (sum(sealed), sum(c > 0 for c in sealed))
        fired += b.interval_ms
    per_window = config.tracker.resample_interval // block
    for k, w in enumerate(log.windows):
        assert w.window_start_ms == k * config.tracker.resample_interval
        window = counts[k * per_window:(k + 1) * per_window]
        assert w.rate_measured == sum(window) * 1000.0 / config.tracker.resample_interval
    assert len(log.windows) == config.duration // config.tracker.resample_interval


def check_invariants(config, trace):
    log = run(config, trace)
    assert log.total_generated == log.total_block_records == log.total_batch_records
    check_against_per_block_receiver(config, trace, log)

    batches = log.batches
    assert [b.batch_id for b in batches] == list(range(len(batches)))  # FIFO
    assert sum(b.records for b in batches) <= log.total_generated
    for b in batches:
        assert b.sched_delay_ms >= 0 and b.proc_delay_ms >= 0
        assert b.total_delay_ms == b.sched_delay_ms + b.proc_delay_ms
        assert b.interval_ms > 0
        assert b.eta == b.total_delay_ms / b.interval_ms

    with tempfile.TemporaryDirectory() as out:
        write_metrics(log, out)
        lines = (Path(out) / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    times = [float(line.split(",", 1)[0]) for line in lines[1:]]
    assert times == sorted(times)

    if config.mode == ADAPTIVE:
        ctl = config.controller
        for interval in {b.interval_ms for b in batches} | {t.interval_ms for t in log.ticks}:
            assert interval % config.block_interval == 0
            assert ctl.min_interval <= interval <= ctl.max_interval


@pytest.mark.parametrize("jitter", [False, True], ids=["jitter-off", "jitter-on"])
def test_engine_invariants_hold_over_random_configs(jitter):
    @settings(max_examples=250, deadline=None)
    @given(engine_runs(jitter))
    def check(drawn):
        check_invariants(*drawn)

    check()
