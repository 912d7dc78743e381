"""Experiment harness: config files, canned presets, CSV/JSON outputs, CLI.

Config files are flat ``section.key = value`` lines with ``#`` comments.
Outputs land in --out, the EDGEBATCH_OUT directory, or ./out: metrics.csv
(one row per batch completion and per control tick), summary.json, and four
plot-ready series files.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
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
    MetricsLog,
    MicrobatchEngine,
)
from .errors import EdgeBatchError, TraceParseError
from .fuzzy import ControllerConfig
from .tracker import TrackerConfig
from .workload import MonitorConfig

PRESETS = ("exp1", "exp2", "exp3", "day", "day-vanilla")

METRICS_COLUMNS = (
    "time_ms", "batch_id", "interval_ms", "records", "blocks",
    "sched_delay_ms", "proc_delay_ms", "total_delay_ms", "eta",
    "workload_S", "rate_measured", "rate_predicted", "C", "D", "fuzzy_level",
)

STABLE_TICKS = 20  # control ticks the interval must hold within one block


class UsageError(ValueError):
    """Malformed config or trace input (exit code 2)."""


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
    is not UTF-8 text becomes a UsageError that names it, and a trace parse
    error names it too."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except TraceParseError as exc:
        raise TraceParseError(f"{what} {path}: {exc}") from exc


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulation run needs."""

    engine: EngineConfig
    trace: traces.RateFunction
    label: str = "run"


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
    (by default the working directory)."""
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


def prediction_error_pairs(windows) -> list[float]:
    """Relative one-step errors: forecast made at window k vs window k+1."""
    errs = []
    for prev, cur in zip(windows, windows[1:]):
        pred = prev.rate_predicted_next
        if pred is None or cur.rate_measured <= 0:
            continue
        errs.append(abs(pred - cur.rate_measured) / cur.rate_measured)
    return errs


def convergence_time(ticks, block_interval: int) -> Optional[float]:
    """First tick from which the interval holds within one block for
    STABLE_TICKS consecutive ticks."""
    for i in range(len(ticks) - STABLE_TICKS + 1):
        base = ticks[i].interval_ms
        window = ticks[i:i + STABLE_TICKS]
        if all(abs(t.interval_ms - base) <= block_interval for t in window):
            return ticks[i].time_ms
    return None


def overload_recovery(ticks) -> Optional[float]:
    """Longest time S spent above 1 before dropping back below, or None."""
    worst = None
    start = None
    for t in ticks:
        if start is None:
            if t.workload_s > 1.0:
                start = t.time_ms
        elif t.workload_s < 1.0:
            span = t.time_ms - start
            worst = span if worst is None else max(worst, span)
            start = None
    return worst


def summarize(log: MetricsLog, block_interval: int) -> SummaryReport:
    batches, ticks = [], []
    for row in log.rows:
        (batches if type(row) is BatchRow else ticks).append(row)

    errs = prediction_error_pairs(log.windows)
    conv = convergence_time(ticks, block_interval)

    if conv is not None:
        steady = [t.workload_s for t in ticks if t.time_ms >= conv]
    else:
        steady = [t.workload_s for t in ticks[len(ticks) // 2:]]
    delays = [b.total_delay_ms for b in batches]
    # Float means are left folds, as in grey.fit.

    return SummaryReport(
        prediction_error_mean=reduce(add, errs, 0) / len(errs) if errs else None,
        prediction_error_max=max(errs) if errs else None,
        convergence_time_ms=conv,
        steady_workload_mean=reduce(add, steady, 0) / len(steady) if steady else None,
        steady_workload_max=max(steady) if steady else None,
        total_delay_mean_ms=reduce(add, delays, 0) / len(delays) if delays else None,
        total_delay_max_ms=max(delays) if delays else None,
        overload_recovery_ms=overload_recovery(ticks),
        records_processed=sum(b.records for b in batches),
    )


# -- serialization ----------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


def write_metrics(log: MetricsLog, out_dir: str | Path, report: SummaryReport) -> Path:
    """Write metrics.csv, summary.json, and the series files; returns out_dir.

    ``report`` is summary.json's ``summarize(log, block_interval)``, with the
    block interval from the run's ``EngineConfig``, as ``execute`` passes it.
    The files are written in one pass over ``log.rows`` and one over
    ``log.windows``: each value is formatted once, for metrics.csv and its
    series file alike, and each line goes straight to its file, so no output
    is held in memory. A batch whose total delay equals its processing delay,
    as for every batch that did not wait, writes the processing delay's
    string for both: equal floats, 0.0 and -0.0, and an int and an equal
    float all give one ``_fmt`` string.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fmt = _fmt
    with (open(out / "metrics.csv", "w") as metrics,
          open(out / "series_interval.csv", "w") as interval,
          open(out / "series_workload.csv", "w") as workload,
          open(out / "series_rate.csv", "w") as rate,
          open(out / "series_delay.csv", "w") as delay,
          open(out / "summary.json", "w") as summary):
        metrics.write(",".join(METRICS_COLUMNS) + "\n")
        interval.write("time_ms,interval_ms\n")
        workload.write("time_ms,workload_S\n")
        rate.write("window_start_ms,rate_measured,rate_predicted_next\n")
        delay.write("time_ms,total_delay_ms,proc_delay_ms,sched_delay_ms\n")
        for row in log.rows:
            t = fmt(row.time_ms)
            if type(row) is BatchRow:
                sched, proc = fmt(row.sched_delay_ms), fmt(row.proc_delay_ms)
                total = row.total_delay_ms
                # A batch that did not wait: equal values format alike.
                total = proc if total == row.proc_delay_ms else fmt(total)
                metrics.write(f"{t},{row.batch_id},{row.interval_ms},{row.records},"
                              f"{row.blocks},{sched},{proc},{total},{fmt(row.eta)},,,,,,\n")
                delay.write(f"{t},{total},{proc},{sched}\n")
            else:
                s = fmt(row.workload_s)
                metrics.write(f"{t},,{row.interval_ms},,,,,,,{s},{fmt(row.rate_measured)},"
                              f"{fmt(row.rate_predicted)},{fmt(row.traffic_change)},"
                              f"{fmt(row.workload_deviation)},{fmt(row.fuzzy_level)}\n")
                interval.write(f"{t},{row.interval_ms}\n")
                workload.write(f"{t},{s}\n")
        for w in log.windows:
            rate.write(f"{w.window_start_ms},{fmt(w.rate_measured)},"
                       f"{fmt(w.rate_predicted_next)}\n")
        summary.write(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    return out


# -- CLI --------------------------------------------------------------------


def default_out_dir() -> Path:
    return Path(os.environ.get("EDGEBATCH_OUT", "out"))


def execute(spec: RunSpec, out_dir: str | Path | None) -> SummaryReport:
    out = Path(out_dir) if out_dir is not None else default_out_dir()
    # Before the run, so an output path that cannot be a directory fails fast.
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write output directory {out}: {exc}") from exc
    log = MicrobatchEngine(spec.engine, spec.trace).run()
    report = summarize(log, spec.engine.block_interval)
    try:
        write_metrics(log, out, report)
    except OSError as exc:
        path = out if exc.filename is None else exc.filename
        raise UsageError(f"cannot write {path}: {exc}") from exc
    print(f"{spec.label}: {log.batch_count} batches, "
          f"{report.records_processed} records -> {out}")
    if report.convergence_time_ms is not None:
        print(f"  interval converged at t={_fmt(report.convergence_time_ms)} ms")
    if report.steady_workload_mean is not None:
        print(f"  steady workload mean {report.steady_workload_mean:.3f} "
              f"max {report.steady_workload_max:.3f}")
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgebatch",
        description="Micro-batch streaming simulator with adaptive interval control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_preset = sub.add_parser("preset", help="run a packaged experiment preset")
    p_preset.add_argument("name", choices=PRESETS)
    p_preset.add_argument("--disable-prediction", action="store_true")
    p_preset.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="check a config file and exit")
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
            print(f"{args.config}: ok ({spec.label}, {spec.engine.mode}, "
                  f"duration {spec.engine.duration} ms)")
    except (UsageError, TraceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EdgeBatchError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
