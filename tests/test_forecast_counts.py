"""The tracker's GM(1,1) work per window close, on the benchmark workloads
that forecast.

With prediction on, every window close from the ``train_num``-th on makes
one ``grey.forecast`` call, and each forecast makes exactly one
``grey.fit`` and one ``grey.predict`` call. A tracker that fitted more
than once per window, or a forecast that fitted twice, would read more.
These are the counts that the benchmark's traced run reports as
``grey.fit.calls`` and ``tracker.forecasts_per_fit``. Call counts are
deterministic, so this is pinned with no timing involved. The workloads
are the benchmark's own, read from ``perfbench/workloads.py``, at a
quarter of their length.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from edgebatch import grey, harness

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
sys.modules.setdefault("workloads", workloads)  # its dataclass looks the module up there
spec.loader.exec_module(workloads)

DURATION_MS = 1_800_000
SEED = 7


@pytest.mark.parametrize("workload", ["day-adaptive-2h", "sine-fine-2h"])
def test_one_forecast_per_window_close_and_no_model(workload, tmp_path, monkeypatch):
    calls = {"forecast": 0, "fit": 0, "predict": 0}

    def counting(name):
        original = getattr(grey, name)

        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    for name in calls:
        monkeypatch.setattr(grey, name, counting(name))
    cfg = harness.parse_config_text(workloads.config_text(workload, SEED, DURATION_MS))
    spec = harness.build_run_spec(cfg)
    with contextlib.redirect_stdout(io.StringIO()):
        harness.execute(spec, tmp_path)
    closes = len((tmp_path / "series_rate.csv").read_text().splitlines()) - 1  # less the header
    train_num = spec.engine.tracker.train_num
    assert closes == DURATION_MS // spec.engine.tracker.resample_interval
    forecasts = closes - (train_num - 1)
    assert calls == {"forecast": forecasts, "fit": forecasts, "predict": forecasts}
