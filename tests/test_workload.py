import pytest

from edgebatch.errors import DomainError
from edgebatch.workload import MonitorConfig, WorkloadMonitor


def test_smoothing_single_update():
    mon = WorkloadMonitor(MonitorConfig(smoothing_coefficient=0.3, initial_estimate=0.8))
    mon.on_batch_completed(1.0)
    assert mon.update_estimate() == pytest.approx(0.3 * 1.0 + 0.7 * 0.8)
    assert mon.value == pytest.approx(0.3 * 1.0 + 0.7 * 0.8)


def test_update_uses_mean_of_pending_and_clears_buffer():
    mon = WorkloadMonitor(MonitorConfig())
    for eta in (0.5, 1.0, 1.5):
        mon.on_batch_completed(eta)
    assert mon.update_estimate() == pytest.approx(0.3 * 1.0 + 0.7 * 1.0)
    # The tally was reset: the next update folds in only the new sample.
    mon.on_batch_completed(3.0)
    assert mon.update_estimate() == pytest.approx(0.3 * 3.0 + 0.7 * 1.0)


def test_update_without_samples_keeps_value():
    mon = WorkloadMonitor(MonitorConfig())
    first = mon.update_estimate()
    second = mon.update_estimate()
    assert first == second == 1.0


def test_initial_estimate_default():
    mon = WorkloadMonitor(MonitorConfig())
    assert mon.value == 1.0


def test_initial_estimate_is_a_float():
    # S is a float from the first tick on, so the summary's column of S
    # holds it exactly.
    assert repr(WorkloadMonitor(MonitorConfig(initial_estimate=2)).update_estimate()) == "2.0"


def test_config_validation():
    with pytest.raises(DomainError):
        MonitorConfig(smoothing_coefficient=0.0)
    with pytest.raises(DomainError):
        MonitorConfig(smoothing_coefficient=1.0)
    with pytest.raises(DomainError):
        MonitorConfig(initial_estimate=0.0)


def test_sequence_of_updates_converges_toward_steady_eta():
    mon = WorkloadMonitor(MonitorConfig())
    for tick in range(1, 30):
        for b in range(5):
            mon.on_batch_completed(0.9)
        mon.update_estimate()
    assert mon.value == pytest.approx(0.9, abs=1e-3)


def test_mean_is_a_left_fold():
    # Added in order, each 1e-16 rounds away against 1.0, so the sum is 1.0.
    # A compensated sum (Python 3.12+'s built-in sum) keeps their 1e-15 and
    # would change every output that S feeds on those versions.
    mon = WorkloadMonitor(MonitorConfig(smoothing_coefficient=0.3, initial_estimate=1.0))
    for eta in [1.0] + [1e-16] * 10:
        mon.on_batch_completed(eta)
    assert mon.update_estimate() == 0.3 * (1.0 / 11) + 0.7 * 1.0
