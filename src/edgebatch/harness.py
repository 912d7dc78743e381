"""Experiment harness: config files, canned presets, CSV/JSON outputs, CLI.

Config files are flat ``section.key = value`` lines with ``#`` comments.
Outputs land in --out, the EDGEBATCH_OUT directory, or ./out: metrics.csv
(one row per batch completion and per control tick), four plot-ready series
files and summary.json. They are opened before the run, which writes its
rows to the first five a chunk at a time, one write of each file's lines
per chunk with no buffer or text layer between, and keeps only the
summary's running folds, nothing per row; summary.json is written after it.
Every file is written all or nothing: each under a temporary name in the
same directory, renamed over the old file only once every write has
succeeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import inspect
import io
import json
import os
import sys
from collections import deque
from collections.abc import Callable
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import reduce
from importlib import resources
from operator import add
from pathlib import Path
from typing import Optional

from . import traces
from .engine import (
    ADAPTIVE,
    VANILLA,
    BatchRow,
    EngineConfig,
    JobCostModel,
    MicrobatchEngine,
)
from .errors import DomainError, EdgeBatchError, UsageError
from .fuzzy import ControllerConfig, ControlRow
from .tracker import TrackerConfig, WindowRow
from .workload import MonitorConfig

PRESETS = ("exp1", "exp2", "exp3", "day", "day-vanilla")

METRICS_COLUMNS = (
    "time_ms", "batch_id", "interval_ms", "records", "blocks",
    "sched_delay_ms", "proc_delay_ms", "total_delay_ms", "eta",
    "workload_S", "rate_measured", "rate_predicted", "C", "D", "fuzzy_level",
)

# The five files of the rows, then summary.json, written after the run.
OUTPUT_FILES = ("metrics.csv", "series_interval.csv", "series_workload.csv",
                "series_delay.csv", "series_rate.csv", "summary.json")

STABLE_TICKS = 20  # control ticks the interval must hold within one block
FMT_CACHE_SIZE = 256  # the row writer's cache of delay strings empties at this size
# The most rows a run may log, as build_run_spec bounds them. ``execute``
# writes every row and folds it into the summary as the run goes, keeping
# nothing per row, so this bounds the run's time, and its memory through
# the engine's backlog: at most one queued batch per block.
MAX_RUN_ROWS = 10_000_000


class OutputError(OSError):
    """An output file that opened but could not be written, as on a full
    disk (exit code 1)."""


# -- config files -----------------------------------------------------------


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse flat 'section.key = value' lines into a dict."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{source}:{lineno}: expected 'section.key = value'")
        key, value = body.split("=", 1)
        key, value = key.strip(), value.strip()
        if "." not in key or not value:
            raise UsageError(f"{source}:{lineno}: expected 'section.key = value'")
        if key in out:
            raise UsageError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _float(key: str, raw: str) -> float:
    try:
        if "/" in raw:
            num, den = raw.split("/", 1)
            return float(num) / float(den)
        return float(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad value for {key!r}: {raw!r}") from exc


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"bad value for {key!r}: {raw!r}") from exc


def _text(key: str, raw: str) -> str:
    return raw


def _bool(key: str, raw: str) -> bool:
    if raw in ("on", "true", "1", "yes"):
        return True
    if raw in ("off", "false", "0", "no"):
        return False
    raise UsageError(f"bad value for {key!r}: {raw!r} (expected on/off)")


def _choice(values: dict):
    """A parser that maps each allowed text to its value."""
    def parse(key: str, raw: str):
        if raw not in values:
            raise UsageError(
                f"bad value for {key!r}: {raw!r} (expected one of {tuple(values)})")
        return values[raw]
    return parse


def _read(what: str, path: Path, load):
    """load(path) for a trace or config file: a file that cannot be opened or
    is not UTF-8 text becomes a UsageError that names it, and a UsageError
    from load, as a bad trace row's, is raised again with the name in front."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except UsageError as exc:
        raise UsageError(f"{what} {path}: {exc}") from exc


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulation run needs."""

    engine: EngineConfig
    trace: traces.RateFunction
    label: str = "run"


def run_size(engine: EngineConfig) -> tuple[int, int]:
    """(blocks, rows): the blocks a run seals, and the most rows it can log:
    every interval and window is a block multiple, so one batch and one
    window per block, and one row per control tick."""
    blocks = engine.duration // engine.block_interval
    return blocks, 2 * blocks + engine.duration // engine.controller.control_period


# The config schema: key -> (the config class or trace builder it sets, the
# parameter, the parser). An omitted key leaves its parameter's default, and
# a key whose parameter has no default is required. trace.kind's value is
# the trace builder, or ``SinusoidRate``; only the trace keys of that kind are known.
CONFIG_KEYS = {
    "run.label": (RunSpec, "label", _text),
    "engine.mode": (EngineConfig, "mode", _choice({ADAPTIVE: ADAPTIVE, VANILLA: VANILLA})),
    "engine.duration": (EngineConfig, "duration", _int),
    "engine.initial_interval": (EngineConfig, "initial_interval", _int),
    "engine.block_interval": (EngineConfig, "block_interval", _int),
    "engine.control_start": (EngineConfig, "control_start", _int),
    "engine.seed": (EngineConfig, "seed", _int),
    "engine.jitter": (EngineConfig, "jitter", _float),
    "controller.min_interval": (ControllerConfig, "min_interval", _int),
    "controller.max_interval": (ControllerConfig, "max_interval", _int),
    "controller.control_period": (ControllerConfig, "control_period", _int),
    "controller.prediction": (TrackerConfig, "prediction_enabled", _bool),
    "monitor.smoothing": (MonitorConfig, "smoothing_coefficient", _float),
    "monitor.initial": (MonitorConfig, "initial_estimate", _float),
    "tracker.resample_interval": (TrackerConfig, "resample_interval", _int),
    "tracker.train_num": (TrackerConfig, "train_num", _int),
    "cost.fixed_overhead": (JobCostModel, "fixed_overhead", _float),
    "cost.per_record": (JobCostModel, "per_record_cost", _float),
    "cost.per_block": (JobCostModel, "per_block_cost", _float),
    "trace.kind": (RunSpec, "trace", _choice({"constant": traces.constant, "step": traces.step,
                                              "sinusoid": traces.SinusoidRate,
                                              "csv": traces.from_csv})),
    "trace.rate": (traces.constant, "rate", _float),
    "trace.before": (traces.step, "before", _float),
    "trace.after": (traces.step, "after", _float),
    "trace.switch": (traces.step, "switch_ms", _float),
    "trace.base": (traces.SinusoidRate, "base", _float),
    "trace.amplitude": (traces.SinusoidRate, "amplitude", _float),
    "trace.period": (traces.SinusoidRate, "period_ms", _float),
    "trace.file": (traces.from_csv, "path", _text),
    "trace.mode": (traces.from_csv, "count_mode", _choice({"rate": False, "count": True})),
    "trace.time_scale": (traces.from_csv, "time_scale", _float),
    "trace.rate_scale": (traces.from_csv, "rate_scale", _float),
}
# The keys whose parameter has no default, with what they set: a config
# must set each, and a trace key only for its own kind.
_REQUIRED = [(key, target) for key, (target, name, _) in CONFIG_KEYS.items()
             if inspect.signature(target).parameters[name].default is inspect.Parameter.empty]


def build_run_spec(cfg: dict[str, str], base_dir: Path | None = None) -> RunSpec:
    """Turn a parsed config dict into engine config and trace: each key sets,
    parsed, the parameter ``CONFIG_KEYS`` names, and an omitted key leaves
    its parameter's default. A relative trace file resolves against base_dir
    (by default the working directory). A run that could log more than
    ``MAX_RUN_ROWS`` rows is rejected here, before it starts."""
    if "trace.kind" not in cfg:
        raise UsageError("missing required key 'trace.kind'")
    build_trace = CONFIG_KEYS["trace.kind"][2]("trace.kind", cfg["trace.kind"])
    # The keyword arguments of each config class and of the trace builder.
    args = {RunSpec: {}, EngineConfig: {}, ControllerConfig: {}, MonitorConfig: {},
            TrackerConfig: {}, JobCostModel: {}, build_trace: {}}
    unknown = []
    for key, raw in cfg.items():
        target, name, parse = CONFIG_KEYS.get(key, (None, None, None))
        if target in args:
            args[target][name] = parse(key, raw)
        else:
            unknown.append(key)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, target in _REQUIRED:
        if target in args and key not in cfg:
            raise UsageError(f"missing required key {key!r}")

    trace_args = args[build_trace]
    if build_trace is traces.from_csv:
        name = trace_args.pop("path")
        path = (traces.day_trace_path() if name == "builtin:day"
                else (base_dir or Path.cwd()) / name)
        trace = _read("trace", path, lambda p: traces.from_csv(p, **trace_args))
    else:
        trace = build_trace(**trace_args)
    engine = EngineConfig(
        controller=ControllerConfig(**args[ControllerConfig]),
        cost_model=JobCostModel(**args[JobCostModel]),
        monitor=MonitorConfig(**args[MonitorConfig]),
        tracker=TrackerConfig(**args[TrackerConfig]),
        **args[EngineConfig],
    )
    _, rows = run_size(engine)
    if rows > MAX_RUN_ROWS:
        raise DomainError(f"engine.duration {engine.duration} ms allows up to {rows} rows, "
                          f"more than MAX_RUN_ROWS = {MAX_RUN_ROWS}")
    args[RunSpec]["trace"] = trace  # was the builder, from trace.kind
    return RunSpec(engine=engine, **args[RunSpec])


def load_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    text = _read("config", path, lambda p: p.read_text(encoding="utf-8"))
    return parse_config_text(text, source=str(path))


def load_run_spec(path: str | Path) -> RunSpec:
    """Read a config file and build its run; relative paths in it, such as
    the trace file, resolve against the file's directory."""
    return build_run_spec(load_config_file(path), base_dir=Path(path).resolve().parent)


def load_preset(name: str, *, disable_prediction: bool = False) -> RunSpec:
    """Load a packaged preset config, with prediction optionally off."""
    if name not in PRESETS:
        raise UsageError(f"unknown preset {name!r} (choose from {', '.join(PRESETS)})")
    res = resources.files("edgebatch").joinpath(f"presets/{name}.conf")
    cfg = parse_config_text(res.read_text(), source=f"preset {name}")
    if disable_prediction:
        cfg["controller.prediction"] = "off"
    return build_run_spec(cfg)


# -- summary ----------------------------------------------------------------


@dataclass(frozen=True)
class SummaryReport:
    prediction_error_mean: Optional[float]
    prediction_error_max: Optional[float]
    convergence_time_ms: Optional[float]
    steady_workload_mean: Optional[float]
    steady_workload_max: Optional[float]
    total_delay_mean_ms: Optional[float]
    total_delay_max_ms: Optional[float]
    overload_recovery_ms: Optional[float]
    records_processed: int


def prediction_error(forecast: Optional[float], measured: float) -> Optional[float]:
    """The relative one-step error of a window's forecast of the next
    window's rate, measured: None with no forecast or no records measured."""
    if forecast is None or measured <= 0:
        return None
    return abs(forecast - measured) / measured


def _tally(ticks: int, block_interval: int) -> tuple[Callable[[list], None],
                                                     Callable[[], SummaryReport]]:
    """``summarize``'s fold over a run's rows, and its report: the fold is
    called with the rows in the order the run logs them, a list at a time,
    for a run that logs ``ticks`` control rows (``duration //
    control_period``). It folds the batch rows' count, records, delay sum
    and delay max, and each window row's ``prediction_error`` against the
    forecast of the window before it into a sum, count and max. Of the
    control rows it folds S into the steady sum, count and max: from tick
    ``ticks // 2`` on until the interval converges, that is first holds
    within one block of a tick's interval for ``STABLE_TICKS`` ticks, and
    then afresh from that tick on. It keeps the last ``STABLE_TICKS`` ticks
    only until then, and of S above 1 the open span's start and the longest
    span closed. So it holds no row, and nothing per batch, window or tick."""
    skip, block = ticks // 2, block_interval  # skip: ticks before the half
    batches = records = 0
    delay_sum, delay_max = 0, None  # as reduce(add, delays, 0) and max(delays)
    forecast = None  # the last window's forecast of the next
    error_sum = error_count = 0  # as reduce(add, errors, 0) and len(errors)
    error_max = None
    steady_sum = steady_count = 0  # as reduce(add, steady, 0) and len(steady)
    steady_max = None
    conv = None  # the time of the tick the interval converged from
    recent = deque(maxlen=STABLE_TICKS)  # (time, interval, S), until conv
    overload_start = recovery = None  # the open span's start, the longest span

    def fold(rows: list) -> None:
        nonlocal batches, records, delay_sum, delay_max, forecast, error_sum, error_count
        nonlocal error_max, skip, conv, steady_sum, steady_count, steady_max
        nonlocal overload_start, recovery
        for row in rows:
            if type(row) is BatchRow:
                delay = row.sched_delay_ms + row.proc_delay_ms  # total_delay_ms
                delay_sum += delay
                if not batches or delay > delay_max:
                    delay_max = delay
                batches += 1
                records += row.records
            elif type(row) is WindowRow:
                error = prediction_error(forecast, row.rate_measured)
                if error is not None:
                    error_sum += error
                    if not error_count or error > error_max:
                        error_max = error
                    error_count += 1
                forecast = row.rate_predicted_next
            else:
                t, s = row.time_ms, row.workload_s
                if overload_start is None:
                    if s > 1.0:
                        overload_start = t
                elif s < 1.0:
                    span = t - overload_start
                    if recovery is None or span > recovery:
                        recovery = span
                    overload_start = None
                if conv is None:
                    recent.append((t, row.interval_ms, s))
                    if len(recent) == recent.maxlen:
                        base = recent[0][1]
                        if all(-block <= held - base <= block for _, held, _ in recent):
                            conv = recent[0][0]
                            loads = [load for _, _, load in recent]
                            steady_sum, steady_count = reduce(add, loads, 0), len(loads)
                            steady_max = max(loads)
                            recent.clear()
                            continue
                    if skip:
                        skip -= 1
                        continue
                steady_sum += s
                if not steady_count or s > steady_max:
                    steady_max = s
                steady_count += 1

    def report() -> SummaryReport:
        """summary.json's report from the rows folded so far."""
        # Float means are left folds, as in grey.fit.
        return SummaryReport(
            prediction_error_mean=error_sum / error_count if error_count else None,
            prediction_error_max=error_max,
            convergence_time_ms=conv,
            steady_workload_mean=steady_sum / steady_count if steady_count else None,
            steady_workload_max=steady_max,
            total_delay_mean_ms=delay_sum / batches if batches else None,
            total_delay_max_ms=delay_max,
            overload_recovery_ms=recovery,
            records_processed=records,
        )

    return fold, report


def summarize(rows: list, block_interval: int) -> SummaryReport:
    """summary.json's report of a run's rows, in the order the run logged
    them: the rows folded by ``_tally``'s fold in one call."""
    fold, report = _tally(sum(type(row) is ControlRow for row in rows), block_interval)
    fold(rows)
    return report()


# -- serialization ----------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


class _OutputFile(io.FileIO):
    """An output file written under a temporary name: a failed open raises
    an OSError of its kind, and a failed write an ``OutputError``, each
    naming the output. A write takes text and writes all of its UTF-8
    bytes at once, in as many raw writes as a short write makes it take;
    nothing is buffered, and each line ends in "\\n" on every platform."""

    def __init__(self, temp: Path, path: Path):
        self.path = path
        try:
            super().__init__(temp, "w")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc

    def write(self, text: str) -> int:
        view = memoryview(text.encode())
        try:
            while view:
                view = view[super().write(view):]
        except OSError as exc:
            raise OutputError(exc.errno, exc.strerror, str(self.path)) from exc
        return len(text)


def write_metrics(rows: list, out_dir: str | Path, block_interval: int) -> Path:
    """Write metrics.csv, summary.json, and the series files; returns out_dir.

    ``rows`` are a run's rows in the order it logged them, with the run's
    ``block_interval``. The rows go through one ``_row_writer`` call, and
    their ``summarize(rows, block_interval)`` fills summary.json. A writer's
    output does not depend on how its rows are split into calls, so the
    files are those ``execute`` writes for the run a chunk at a time. They
    are written all or nothing (see ``_outputs``): an output that cannot be
    opened, or is a directory, raises an ``OSError``, and a failed write an
    ``OutputError``; each names the file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _outputs(out) as files:
        _row_writer(*files[:5])(rows)
        _write_summary(files[5], summarize(rows, block_interval))
    return out


@contextmanager
def _outputs(out: Path):
    """The files of ``OUTPUT_FILES``, opened in out under temporary names,
    ``.<name>.tmp``, and given as ``_OutputFile``s in that order. If an
    output is a directory, none is opened. On a clean exit every file is
    closed and then renamed to its name, so a failed write leaves the old
    outputs as they were; no temporary file is left either way."""
    outputs = [(out / f".{name}.tmp", out / name) for name in OUTPUT_FILES]
    try:
        with ExitStack() as stack:
            for _, path in outputs:
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            yield [stack.enter_context(_OutputFile(*names)) for names in outputs]
        for temp, path in outputs:
            os.replace(temp, path)
    finally:
        for temp, _ in outputs:
            temp.unlink(missing_ok=True)


def _row_writer(metrics, interval, workload, delay, rate) -> Callable[[list], None]:
    """The writer of a run's rows to metrics.csv, series_interval.csv,
    series_workload.csv, series_delay.csv and series_rate.csv, open as these
    five files: it writes each header now, and each call writes the rows it
    is given, which follow the rows of earlier calls in the run's order. A
    batch or control row goes to metrics.csv and its series file, each value
    formatted once for both, and a window row to series_rate.csv. A call
    writes each file its lines as one string, if it has any, and frees the
    file's lines before it writes that string: no file's lines are alive
    while its text is encoded and written. The batch id written is the
    count of batch rows before it (see ``BatchRow``).

    Float ``repr`` is most of the output time, so a repeated value is
    formatted once: a dict of this writer's maps each batch's processing
    delay, and the eta (proc / interval) of each batch that did not wait
    (``sched_delay_ms == 0``), to its ``_fmt`` string. Equal floats, 0.0 and
    -0.0, and an int and an equal float give one ``_fmt`` string, so every
    hit is exact, and a batch whose total equals its processing delay writes
    that string for both. Time stamps and a waited batch's sched, total and
    eta are unique, so they stay out of the dict. It empties at
    ``FMT_CACHE_SIZE`` entries, which keeps it a small share of the run's
    peak memory. A control tick's two rates are the objects of the window
    row logged before it, so a tick's rate or forecast that *is* that row's
    reuses the row's string; any other value is formatted.
    """
    fmt = _fmt
    zero = fmt(0.0)  # the sched cell of a batch that did not wait
    cache: dict = {}  # value -> fmt(value), for the delays that repeat
    cached = cache.get
    batch_id = 0
    # The last window row's rates and their strings, None and "" before one.
    measured = predicted = None
    measured_text = predicted_text = ""

    def remember(value) -> str:  # on a miss, and for None, whose "" is falsy
        if len(cache) == FMT_CACHE_SIZE:
            cache.clear()
        text = cache[value] = fmt(value)
        return text

    metrics.write(",".join(METRICS_COLUMNS) + "\n")
    interval.write("time_ms,interval_ms\n")
    workload.write("time_ms,workload_S\n")
    delay.write("time_ms,total_delay_ms,proc_delay_ms,sched_delay_ms\n")
    rate.write("window_start_ms,rate_measured,rate_predicted_next\n")

    def write(rows: list) -> None:
        nonlocal batch_id, measured, predicted, measured_text, predicted_text
        lines = ([], [], [], [], [])  # each file's lines of this call
        to_metrics, to_interval, to_workload, to_delay, to_rate = (part.append for part in lines)
        for row in rows:
            if type(row) is BatchRow:
                t = fmt(row.time_ms)
                p = row.proc_delay_ms
                total = row.sched_delay_ms + p
                eta = total / float(row.interval_ms)
                proc = cached(p) or remember(p)
                if row.sched_delay_ms == 0:  # eta = proc / interval repeats
                    sched, eta = zero, cached(eta) or remember(eta)
                else:
                    sched, eta = fmt(row.sched_delay_ms), fmt(eta)
                # A batch that did not wait: equal values format alike.
                total = proc if total == p else fmt(total)
                to_metrics(f"{t},{batch_id},{row.interval_ms},{row.records},"
                           f"{row.blocks},{sched},{proc},{total},{eta},,,,,,\n")
                to_delay(f"{t},{total},{proc},{sched}\n")
                batch_id += 1
            elif type(row) is WindowRow:  # a window row has no time_ms
                measured, predicted = row.rate_measured, row.rate_predicted_next
                measured_text, predicted_text = fmt(measured), fmt(predicted)
                to_rate(f"{row.window_start_ms},{measured_text},{predicted_text}\n")
            else:
                t = fmt(row.time_ms)
                s = fmt(row.workload_s)
                q_now, q_next = row.rate_measured, row.rate_predicted
                q_now = measured_text if q_now is measured else fmt(q_now)
                q_next = predicted_text if q_next is predicted else fmt(q_next)
                to_metrics(f"{t},,{row.interval_ms},,,,,,,{s},{q_now},{q_next},"
                           f"{fmt(row.traffic_change)},{fmt(row.workload_deviation)},"
                           f"{fmt(row.fuzzy_level)}\n")
                to_interval(f"{t},{row.interval_ms}\n")
                to_workload(f"{t},{s}\n")
        for file, part in zip((metrics, interval, workload, delay, rate), lines):
            if part:
                text = "".join(part)
                part.clear()  # not alive while the text is encoded and written
                file.write(text)

    return write


def _write_summary(summary, report: SummaryReport) -> None:
    """Write summary.json from the report to this file."""
    summary.write(json.dumps(dataclasses.asdict(report), indent=2) + "\n")


# -- CLI --------------------------------------------------------------------


def default_out_dir() -> Path:
    return Path(os.environ.get("EDGEBATCH_OUT", "out"))


def execute(spec: RunSpec, out_dir: str | Path | None) -> SummaryReport:
    out = Path(out_dir) if out_dir is not None else default_out_dir()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write output directory {out}: {exc}") from exc
    # The six files are open before the run, so an output that cannot be
    # opened fails before any simulated time passes. The rows go to the
    # first five, and to the summary's fold, as the run hands them on.
    tally, tally_report = _tally(spec.engine.duration // spec.engine.controller.control_period,
                                 spec.engine.block_interval)
    try:
        with _outputs(out) as files:
            write_rows = _row_writer(*files[:5])

            def flush(rows: list) -> None:
                write_rows(rows)
                tally(rows)

            log = MicrobatchEngine(spec.engine, spec.trace, flush).run()
            report = tally_report()
            _write_summary(files[5], report)
    except OutputError:
        raise
    except OSError as exc:  # an output that cannot be opened, or renamed over
        raise UsageError(f"cannot write {exc.filename}: {exc}") from exc
    print(f"{spec.label}: {log.batch_count} batches, "
          f"{report.records_processed} records -> {out}")
    if report.convergence_time_ms is not None:
        print(f"  interval converged at t={_fmt(report.convergence_time_ms)} ms")
    if report.steady_workload_mean is not None:
        print(f"  steady workload mean {report.steady_workload_mean:.3f} "
              f"max {report.steady_workload_max:.3f}")
    return report


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser. No parser prints its usage, so an argument error is
    one stderr line; each subparser then needs a prog to name itself."""
    parser = argparse.ArgumentParser(
        prog="edgebatch", usage=argparse.SUPPRESS,
        description="Micro-batch streaming simulator with adaptive interval control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=text, prog=f"edgebatch {name}", usage=argparse.SUPPRESS)

    p_run = add("run", "run a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_preset = add("preset", "run a packaged experiment preset")
    p_preset.add_argument("name", choices=PRESETS)
    p_preset.add_argument("--disable-prediction", action="store_true")
    p_preset.add_argument("--out", default=None)

    p_val = add("validate", "check a config file and exit")
    p_val.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            execute(load_run_spec(args.config), args.out)
        elif args.command == "preset":
            spec = load_preset(args.name, disable_prediction=args.disable_prediction)
            execute(spec, args.out)
        else:
            spec = load_run_spec(args.config)
            blocks, rows = run_size(spec.engine)
            print(f"{args.config}: ok ({spec.label}, {spec.engine.mode}, duration "
                  f"{spec.engine.duration} ms, {blocks} blocks, at most {rows} rows)")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"error: cannot write {exc.filename}: {exc}", file=sys.stderr)
        return 1
    except EdgeBatchError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
