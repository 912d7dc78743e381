"""Engine invariants over random valid configs, with jitter off and on.

Every run must conserve records (generated = in blocks = in batches), run
batches in FIFO order, split each batch's delay into non-negative scheduling
and processing parts whose sum over the interval used is its workload sample,
write metrics.csv in time order, and in adaptive mode keep every interval a
block multiple inside [min_interval, max_interval].
"""

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
COSTS = st.one_of(st.integers(0, 2000).map(float), st.floats(0.0, 2000.0))


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
    kind = draw(st.sampled_from(["constant", "step", "sinusoid"]))
    if kind == "constant":
        trace = traces.constant(draw(RATES))
    elif kind == "step":
        trace = traces.step(draw(RATES), draw(RATES), draw(st.integers(0, duration)))
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


def check_invariants(config, trace):
    log = run(config, trace)
    assert log.total_generated == log.total_block_records == log.total_batch_records

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
