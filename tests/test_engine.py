from itertools import accumulate

import pytest

from edgebatch import traces
from edgebatch.engine import (
    ADAPTIVE,
    MAX_TIME_MS,
    VANILLA,
    BatchRow,
    ControlRow,
    EngineConfig,
    JobCostModel,
    MicrobatchEngine,
)
from edgebatch.errors import DomainError
from edgebatch.fuzzy import ControllerConfig
from edgebatch.tracker import TrackerConfig
from edgebatch.workload import MonitorConfig, WorkloadMonitor

from log_rows import per_block_counts, split_rows


def run(config, trace):
    return MicrobatchEngine(config, trace).run()


def make_config(**kw):
    base = dict(
        controller=ControllerConfig(min_interval=400, max_interval=6000),
        cost_model=JobCostModel(100.0, 0.4, 10.0),
        duration=120_000,
        initial_interval=2000,
        mode=VANILLA,
    )
    base.update(kw)
    return EngineConfig(**base)


def test_cost_model_example():
    model = JobCostModel(100.0, 0.4, 10.0)
    assert model.cost(3200, 8) == pytest.approx(1460.0)


def test_cost_model_validation():
    with pytest.raises(DomainError):
        JobCostModel(-1.0, 0.0, 0.0)


def test_blocks_per_batch_and_quantization():
    log = run(make_config(initial_interval=1600), traces.constant(1000.0))
    batches, _ = split_rows(log)
    assert batches
    for row in batches:
        assert row.blocks == 8
        assert row.records == 1600  # 8 blocks of 200 records at 1000 rec/s
        assert row.interval_ms == 1600


def test_steady_state_delays():
    log = run(make_config(), traces.constant(1000.0))
    # cost = 100 + 0.4*2000 + 10*10 = 1000 ms against a 2000 ms interval
    tail = split_rows(log)[0][3:]
    for row in tail:
        assert row.sched_delay_ms == pytest.approx(0.0)
        assert row.proc_delay_ms == pytest.approx(1000.0)
        assert row.eta == pytest.approx(0.5)


def test_batch_row_splits_delays(monkeypatch):
    # 1500 ms jobs against a 1000 ms interval: batch 1 waits 500 ms for batch 0.
    samples = []
    monkeypatch.setattr(WorkloadMonitor, "on_batch_completed",
                        lambda monitor, eta: samples.append(eta))
    log = run(make_config(cost_model=JobCostModel(1500.0, 0.0, 0.0), initial_interval=1000,
                          duration=5000),
              traces.constant(1000.0))
    batches, _ = split_rows(log)
    assert batches == [
        BatchRow(2500.0, 0, 1000, 1000, 5, 0.0, 1500.0, 1500.0),
        BatchRow(4000.0, 1, 1000, 1000, 5, 500.0, 1500.0, 2000.0),
    ]
    first, second = batches
    # Batch 0 starts at its own fire: no scheduling delay, and its total is
    # its processing delay, the same float object.
    assert repr(first.sched_delay_ms) == "0.0"
    assert first.total_delay_ms is first.proc_delay_ms
    assert second.total_delay_ms == second.sched_delay_ms + second.proc_delay_ms
    for row in batches:
        assert type(row.sched_delay_ms) is type(row.total_delay_ms) is float
        assert row.eta == row.total_delay_ms / float(row.interval_ms)
    assert [row.eta for row in batches] == [1.5, 2.0]
    # The monitor gets each row's eta, once, in completion order.
    assert samples == [1.5, 2.0]


def test_zero_rate_batches_cost_fixed_overhead():
    log = run(make_config(), traces.constant(0.0))
    batches, _ = split_rows(log)
    assert batches
    for row in batches:
        assert row.records == 0
        assert row.blocks == 0
        assert row.total_delay_ms == pytest.approx(100.0)
    assert log.total_generated == 0
    assert log.total_batch_records == 0


def test_record_conservation_exact():
    cfg, trace = make_config(duration=300_000), traces.SinusoidRate(900.0, 400.0, 60_000)
    log = run(cfg, trace)
    assert log.total_generated == log.total_batch_records == sum(per_block_counts(cfg, trace))


def test_conservation_includes_unbatched_tail():
    # Duration not aligned with the interval leaves blocks in the queue.
    cfg, trace = make_config(duration=119_000), traces.constant(500.0)
    log = run(cfg, trace)
    assert log.total_generated == log.total_batch_records == sum(per_block_counts(cfg, trace))


def test_rerun_is_identical():
    cfg = make_config(mode=ADAPTIVE, duration=200_000)
    trace = traces.SinusoidRate(1000.0, 250.0, 120_000)
    first = run(cfg, trace)
    second = run(cfg, trace)
    assert first.rows == second.rows
    assert first.windows == second.windows
    # One instance run twice, with jitter on, also returns equal logs.
    engine = MicrobatchEngine(make_config(mode=ADAPTIVE, duration=200_000, jitter=0.05, seed=3),
                              trace)
    first, second = engine.run(), engine.run()
    assert first is not second
    assert first.rows == second.rows
    assert first.windows == second.windows
    assert (first.total_generated, first.total_batch_records, first.batch_count) == \
        (second.total_generated, second.total_batch_records, second.batch_count)


def test_jitter_changes_with_seed_but_not_rerun():
    trace = traces.constant(1000.0)
    a = run(make_config(jitter=0.05, seed=7), trace)
    b = run(make_config(jitter=0.05, seed=7), trace)
    c = run(make_config(jitter=0.05, seed=8), trace)
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_control_rows_present_and_gated():
    log = run(make_config(mode=ADAPTIVE, duration=100_000, control_start=30_000),
              traces.constant(1000.0))
    _, ticks = split_rows(log)
    assert [t.time_ms for t in ticks] == [10_000 * k for k in range(1, 11)]
    for t in ticks:
        if t.time_ms < 30_000:
            assert t.fuzzy_level is None
        else:
            assert t.fuzzy_level is not None
            assert t.workload_deviation is not None


def test_vanilla_mode_never_adjusts():
    log = run(make_config(duration=240_000), traces.step(500.0, 4000.0, 60_000))
    for t in split_rows(log)[1]:
        assert t.interval_ms == 2000
        assert t.fuzzy_level is None


def test_vanilla_overload_grows_monotonically():
    log = run(make_config(duration=240_000), traces.step(500.0, 4000.0, 60_000))
    # cost at 4000 rec/s: 100 + 0.4*8000 + 100 = 3400 ms > 2000 ms interval
    late = [t.workload_s for t in split_rows(log)[1] if t.time_ms >= 90_000]
    assert all(b > a for a, b in zip(late, late[1:]))
    assert late[-1] > 1.5


def test_set_interval_takes_effect_next_fire():
    # The first control tick, at 3000 ms between the fires at 2000 and
    # 4000 ms, reads a low S (D = -0.2) and no forecast (C = 0): level -1
    # stages 1800 ms, one block less and the minimum, which later ticks
    # hold. The 4000 ms fire still comes after the old interval.
    cfg = make_config(mode=ADAPTIVE, duration=10_000, control_start=3000,
                      monitor=MonitorConfig(initial_estimate=0.1),
                      controller=ControllerConfig(min_interval=1800, max_interval=6000,
                                                  control_period=3000))
    batches, ticks = split_rows(run(cfg, traces.constant(1000.0)))
    staging = next(t for t in ticks if t.time_ms == 3000)
    assert (staging.workload_deviation, staging.traffic_change) == (-0.2, 0.0)
    assert (staging.fuzzy_level, staging.interval_ms) == (-1, 1800)
    # Each batch's interval_ms is the time since the fire before it.
    fired = list(accumulate(b.interval_ms for b in batches))
    assert fired[:4] == [2000, 4000, 5800, 7600]


def test_adaptive_constant_rate_interval_settles():
    cfg = make_config(
        mode=ADAPTIVE,
        duration=300_000,
        cost_model=JobCostModel(896.0, 0.33, 8.0),
    )
    log = run(cfg, traces.constant(1000.0))
    _, ticks = split_rows(log)
    late = [t.interval_ms for t in ticks if t.time_ms >= 150_000]
    assert len(set(late)) <= 2  # settles instead of hunting
    final_s = ticks[-1].workload_s
    assert 0.7 <= final_s <= 1.05


def test_window_rows_measured_rates():
    log = run(make_config(duration=180_000), traces.constant(1000.0))
    assert [w.window_start_ms for w in log.windows] == \
        [0, 30_000, 60_000, 90_000, 120_000, 150_000]
    for w in log.windows:
        assert w.rate_measured == pytest.approx(1000.0)
    # Forecasts appear once the fifth window has trained the model.
    assert [w.rate_predicted_next is not None for w in log.windows] == \
        [False, False, False, False, True, True]


def test_config_validation():
    with pytest.raises(DomainError):
        make_config(mode="turbo")
    with pytest.raises(DomainError):
        make_config(mode=ADAPTIVE, initial_interval=8000)
    with pytest.raises(DomainError, match="min_interval must not exceed max_interval"):
        make_config(controller=ControllerConfig(4000, 2000))
    with pytest.raises(DomainError):
        make_config(jitter=1.5)


# Every interval the engine times, given its value in ms, as make_config
# overrides. The engine's block interval (200 ms here) is the grid for all
# four: the controller moves the interval one block at a time, and a window
# end inside a block would cut that block's records out of the measured
# rate (30,100 ms windows over 1000 rec/s read 996.68 rec/s).
BLOCK_MULTIPLES = {
    "initial_interval": lambda v: dict(initial_interval=v),
    "min_interval": lambda v: dict(controller=ControllerConfig(v, 6000)),
    "max_interval": lambda v: dict(controller=ControllerConfig(400, v)),
    "resample_interval": lambda v: dict(tracker=TrackerConfig(resample_interval=v)),
}


@pytest.mark.parametrize("name", BLOCK_MULTIPLES)
def test_intervals_must_be_block_multiples(name):
    make_config(**BLOCK_MULTIPLES[name](3000))
    with pytest.raises(DomainError, match=f"{name} must be a"):
        make_config(**BLOCK_MULTIPLES[name](3100))


BEYOND = 200 * (MAX_TIME_MS // 200 + 1)  # the first block multiple above it
BEYOND_CASES = [
    ("duration", dict(duration=BEYOND)),
    ("block_interval", dict(
        block_interval=BEYOND, initial_interval=BEYOND,
        controller=ControllerConfig(BEYOND, BEYOND),
        tracker=TrackerConfig(resample_interval=BEYOND))),
    ("initial_interval", dict(initial_interval=BEYOND)),
    ("control_start", dict(control_start=BEYOND)),
    ("min_interval", dict(controller=ControllerConfig(BEYOND, BEYOND))),
    ("max_interval", dict(controller=ControllerConfig(400, BEYOND))),
    ("control_period", dict(
        controller=ControllerConfig(400, 6000, control_period=BEYOND))),
    ("resample_interval", dict(tracker=TrackerConfig(resample_interval=BEYOND))),
]


@pytest.mark.parametrize("name, overrides", BEYOND_CASES,
                         ids=[name for name, _ in BEYOND_CASES])
def test_times_beyond_max_time_rejected(name, overrides):
    # A float holds every integer up to 2**53 exactly; a time beyond that
    # would round, and one beyond float range ended the run in OverflowError.
    with pytest.raises(DomainError, match=f"{name} must be at most MAX_TIME_MS"):
        make_config(**overrides)


def test_max_time_itself_accepted():
    make_config(duration=MAX_TIME_MS, control_start=MAX_TIME_MS)
