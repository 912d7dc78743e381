import pytest

from edgebatch.errors import ConfigError, DomainError
from edgebatch.workload import MonitorConfig, WorkloadMonitor


def test_smoothing_single_update():
    mon = WorkloadMonitor(MonitorConfig(smoothing_coefficient=0.3, initial_estimate=0.8))
    mon.on_batch_completed(1.0)
    est = mon.update_estimate(10_000)
    assert est.value == pytest.approx(0.3 * 1.0 + 0.7 * 0.8)
    assert est.as_of == 10_000
    assert est.samples_absorbed == 1


def test_update_uses_mean_of_pending_and_clears_buffer():
    mon = WorkloadMonitor()
    for eta in (0.5, 1.0, 1.5):
        mon.on_batch_completed(eta)
    assert mon.pending_count == 3
    est = mon.update_estimate(10_000)
    assert est.value == pytest.approx(0.3 * 1.0 + 0.7 * 1.0)
    assert mon.pending_count == 0
    assert est.samples_absorbed == 3


def test_update_without_samples_keeps_value():
    mon = WorkloadMonitor()
    first = mon.update_estimate(10_000)
    second = mon.update_estimate(20_000)
    assert first.value == second.value == 1.0
    assert second.as_of == 20_000
    assert second.samples_absorbed == 0


def test_initial_estimate_default():
    mon = WorkloadMonitor()
    assert mon.current().value == 1.0


def test_rejects_zero_total_delay():
    mon = WorkloadMonitor()
    for eta in (0.0, -0.5, float("nan")):
        with pytest.raises(DomainError):
            mon.on_batch_completed(eta)
    assert mon.pending_count == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        MonitorConfig(smoothing_coefficient=0.0)
    with pytest.raises(ConfigError):
        MonitorConfig(smoothing_coefficient=1.0)
    with pytest.raises(ConfigError):
        MonitorConfig(initial_estimate=0.0)


def test_sequence_of_updates_converges_toward_steady_eta():
    mon = WorkloadMonitor()
    for tick in range(1, 30):
        for b in range(5):
            mon.on_batch_completed(0.9)
        mon.update_estimate(tick * 10_000)
    assert mon.current().value == pytest.approx(0.9, abs=1e-3)
