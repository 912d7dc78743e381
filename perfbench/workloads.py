"""Benchmark workloads: generated edgebatch configs, output checks and the
simulated metrics read back from each run's output files.

The settings are frozen copies of the packaged presets rather than reads of
them, so that a later change to a preset does not silently move the yardstick.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from edgebatch.engine import ADAPTIVE, MetricsLog
from edgebatch.harness import METRICS_COLUMNS, RunSpec

DURATION_MS = 7_200_000  # 2 h simulated, 36,000 blocks of 200 ms
SMOKE_DURATION_MS = 600_000
JITTER = "0.05"  # makes the seed change per-block arrival counts

# The `day` / `day-vanilla` presets with the 12 h trace compressed 6x instead
# of 60x, so the run is 6x longer at the same per-second rates.
_DAY = {
    "engine.block_interval": "200",
    "engine.control_start": "30000",
    "controller.max_interval": "3000",
    "controller.control_period": "30000",
    "controller.prediction": "on",
    "monitor.smoothing": "0.3",
    "monitor.initial": "1.0",
    "tracker.resample_interval": "30000",
    "tracker.train_num": "5",
    "cost.fixed_overhead": "400",
    "cost.per_record": "0.27",
    "cost.per_block": "6",
    "trace.kind": "csv",
    "trace.file": "builtin:day",
    "trace.mode": "count",
    "trace.time_scale": "1/6",
    "trace.rate_scale": "21.6",
}

WORKLOADS: dict[str, dict[str, str]] = {
    "day-adaptive-2h": {
        **_DAY,
        "engine.mode": "adaptive",
        "engine.initial_interval": "1000",
        "controller.min_interval": "1000",
    },
    "day-vanilla-2h": {
        **_DAY,
        "engine.mode": "vanilla",
        "engine.initial_interval": "600",
        "controller.min_interval": "600",
    },
    # The `exp3` sinusoid and cost model with a 2 s control period and rate
    # window: the trace integral is closed-form, so controller work dominates.
    "sine-fine-2h": {
        "engine.mode": "adaptive",
        "engine.initial_interval": "1600",
        "engine.block_interval": "200",
        "engine.control_start": "30000",
        "controller.min_interval": "1400",
        "controller.max_interval": "6000",
        "controller.control_period": "2000",
        "controller.prediction": "on",
        "monitor.smoothing": "0.3",
        "monitor.initial": "1.0",
        "tracker.resample_interval": "2000",
        "tracker.train_num": "5",
        "cost.fixed_overhead": "1000",
        "cost.per_record": "0.25",
        "cost.per_block": "8",
        "trace.kind": "sinusoid",
        "trace.base": "1000",
        "trace.amplitude": "400",
        "trace.period": "900000",
    },
}


def config_text(workload: str, seed: int, duration_ms: int = DURATION_MS) -> str:
    """The config file for one workload run, in edgebatch's config format."""
    settings = {
        "run.label": workload,
        "engine.duration": str(duration_ms),
        "engine.seed": str(seed),
        "engine.jitter": JITTER,
        **WORKLOADS[workload],
    }
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def output_digest(out_dir: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@dataclass(frozen=True)
class Outputs:
    """What one run wrote, parsed back from metrics.csv and summary.json."""

    digest: str
    row_times: list[float]  # time_ms of every row, in file order
    batches: list[tuple[float, int, int, int, float]]  # time, id, interval, records, total delay
    ticks: list[tuple[float, int, float]]  # time, interval, workload S
    records_processed_summary: int

    @property
    def records_processed(self) -> int:
        return sum(b[3] for b in self.batches)


_COL = {name: i for i, name in enumerate(METRICS_COLUMNS)}


def read_outputs(out_dir: Path) -> Outputs:
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    if tuple(lines[0].split(",")) != METRICS_COLUMNS:
        raise ValueError(f"unexpected metrics.csv header {lines[0]!r}")
    row_times, batches, ticks = [], [], []
    for line in lines[1:]:
        cells = line.split(",")
        time_ms, interval = float(cells[_COL["time_ms"]]), int(cells[_COL["interval_ms"]])
        row_times.append(time_ms)
        if cells[_COL["batch_id"]]:
            batches.append((time_ms, int(cells[_COL["batch_id"]]), interval,
                            int(cells[_COL["records"]]), float(cells[_COL["total_delay_ms"]])))
        else:
            ticks.append((time_ms, interval, float(cells[_COL["workload_S"]])))
    summary = json.loads((out_dir / "summary.json").read_text())
    return Outputs(output_digest(out_dir), row_times, batches, ticks, summary["records_processed"])


def check_outputs(out: Outputs, log: MetricsLog, spec: RunSpec) -> list[str]:
    """Invariants every run must satisfy; returns one line per violation."""
    problems = []
    if not log.total_generated == log.total_block_records == log.total_batch_records:
        problems.append(f"records not conserved: generated {log.total_generated}, in blocks "
                        f"{log.total_block_records}, in batches {log.total_batch_records}")
    if out.records_processed > log.total_generated:
        problems.append(f"processed {out.records_processed} > generated {log.total_generated}")
    if out.records_processed_summary != out.records_processed:
        problems.append("summary.json records_processed disagrees with metrics.csv")
    if not out.batches or not out.ticks:
        problems.append("metrics.csv has no batch rows or no control-tick rows")
    if any(a > b for a, b in zip(out.row_times, out.row_times[1:])):
        problems.append("metrics.csv times decrease")
    ids = [b[1] for b in out.batches]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        problems.append("batch ids not increasing")
    cfg = spec.engine
    if cfg.mode == ADAPTIVE:
        ctl = cfg.controller
        intervals = {b[2] for b in out.batches} | {t[1] for t in out.ticks}
        bad = sorted(i for i in intervals if i % cfg.block_interval
                     or not ctl.min_interval <= i <= ctl.max_interval)
        if bad:
            problems.append(f"intervals {bad[:5]} not block multiples in "
                            f"[{ctl.min_interval}, {ctl.max_interval}]")
    return problems


def simulated_metrics(out: Outputs, log: MetricsLog) -> dict[str, float]:
    """Simulated results; identical for identical seeds and program outputs."""
    delays = sorted(b[4] for b in out.batches)
    p99_rank = math.ceil(0.99 * len(delays))  # nearest rank
    return {
        "sim_delay_p50_ms": statistics.median(delays),
        "sim_delay_p99_ms": delays[p99_rank - 1],
        "sim_batches": len(delays),
        "sim_overload_share": sum(1 for t in out.ticks if t[2] > 1.0) / len(out.ticks),
        "sim_backlog_records": log.total_generated - out.records_processed,
    }
