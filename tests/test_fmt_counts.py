"""The row writer's formatting work per row, on each benchmark workload.

Float ``repr`` is most of the writer's time, and the writer formats a value
once where it can: a cache of repeated delays, and a control tick's rates
taken from the window row before it. A run's ``_fmt`` calls are
deterministic, so they can be bounded here with no timing involved: a lost
cache or a lost rate-string reuse formats more per row and fails. The
workloads are the benchmark's own, read from ``perfbench/workloads.py``, at
a quarter of their length.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from edgebatch import harness

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
sys.modules.setdefault("workloads", workloads)  # its dataclass looks the module up there
spec.loader.exec_module(workloads)

DURATION_MS = 1_800_000
SEED = 7
# _fmt calls per row (batch, control and window rows) at DURATION_MS and
# SEED. Measured: 1.939, 2.666 and 3.338. Every cache hit lost gives 3.032,
# 3.852 and 3.433; a tick that formats its rates afresh 2.002, 2.705 and
# 3.953. Each bound lies between. At full length the three runs make
# 15,629, 42,077 and 38,838 calls.
FMT_CALLS_PER_ROW = {"day-adaptive-2h": 1.97, "day-vanilla-2h": 2.685, "sine-fine-2h": 3.38}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_fmt_calls_per_row_are_bounded(workload, tmp_path, monkeypatch):
    fmt, calls = harness._fmt, []

    def counting_fmt(value):
        calls.append(None)
        return fmt(value)

    monkeypatch.setattr(harness, "_fmt", counting_fmt)
    cfg = harness.parse_config_text(workloads.config_text(workload, SEED, DURATION_MS))
    with contextlib.redirect_stdout(io.StringIO()):
        harness.execute(harness.build_run_spec(cfg), tmp_path)
    rows = sum(len((tmp_path / name).read_text().splitlines()) - 1  # less the header
               for name in ("metrics.csv", "series_rate.csv"))
    assert len(calls) / rows < FMT_CALLS_PER_ROW[workload], (len(calls), rows)
