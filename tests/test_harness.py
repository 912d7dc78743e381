import dataclasses
import errno
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from functools import reduce
from operator import add
from pathlib import Path

import pytest

from edgebatch import engine, grey, harness
from edgebatch.errors import DomainError
from edgebatch.fuzzy import ControlRow
from edgebatch.harness import (
    METRICS_COLUMNS,
    PRESETS,
    UsageError,
    build_run_spec,
    load_preset,
    main,
    parse_config_text,
    summarize,
    write_metrics,
)
from edgebatch.tracker import WindowRow

from log_rows import collect, per_block_counts, split_rows

MINI = """\
run.label = mini
engine.mode = adaptive
engine.duration = 120000
engine.initial_interval = 2000
controller.min_interval = 400
controller.max_interval = 6000
cost.fixed_overhead = 1000
cost.per_record = 0.25
cost.per_block = 8
trace.kind = constant
trace.rate = 1000
"""


def mini_cfg(**extra):
    cfg = parse_config_text(MINI)
    cfg.update({k: str(v) for k, v in extra.items()})
    return cfg


def run_mini(**extra):
    """The rows of MINI's run, with extra keys set."""
    spec = build_run_spec(mini_cfg(**extra))
    return collect(spec.engine, spec.trace)[1]


MINI_BLOCK = 200  # MINI's engine.block_interval, EngineConfig's default


# -- config parsing -----------------------------------------------------------


def test_parse_skips_comments_and_blanks():
    text = "\n# full line comment\nengine.duration = 5  # trailing\n\n"
    assert parse_config_text(text) == {"engine.duration": "5"}


def test_parse_rejects_malformed_lines():
    with pytest.raises(UsageError, match=r"conf\.txt:2"):
        parse_config_text("a.b = 1\nnot a setting\n", source="conf.txt")
    with pytest.raises(UsageError, match="section.key"):
        parse_config_text("plainkey = 1\n")
    with pytest.raises(UsageError, match="section.key"):
        parse_config_text("a.b =\n")


def test_parse_rejects_duplicate_keys():
    with pytest.raises(UsageError, match="duplicate"):
        parse_config_text("a.b = 1\na.b = 2\n")


def test_fraction_values_accepted():
    spec = build_run_spec(mini_cfg(**{"monitor.smoothing": "3/10"}))
    assert spec.engine.monitor.smoothing_coefficient == pytest.approx(0.3)


# -- spec building ------------------------------------------------------------


def readme_config_example() -> str:
    """The fenced block under README's "## Config format"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config format\n", 1)[1]
    return section.split("\n```\n", 2)[1]


README_REQUIRED = ("engine.duration", "engine.initial_interval", "controller.min_interval",
                   "controller.max_interval", "cost.fixed_overhead", "cost.per_record",
                   "cost.per_block", "trace.kind", "trace.rate")


def test_readme_defaults_are_the_config_defaults():
    # README's example sets every key of a constant-trace config, each
    # optional one to its documented default. Left out, a key takes its
    # config class's default, which must be the same.
    cfg = parse_config_text(readme_config_example())
    assert set(cfg) == {key for key in harness.CONFIG_KEYS
                        if not key.startswith("trace.")} | {"trace.kind", "trace.rate"}
    required = {key: cfg[key] for key in README_REQUIRED}
    assert build_run_spec(cfg) == build_run_spec(required)
    for key in README_REQUIRED:
        with pytest.raises(UsageError, match=f"^missing required key '{key}'$"):
            build_run_spec({k: v for k, v in required.items() if k != key})
    # The CSV trace's optional keys, at README's defaults, are from_csv's.
    csv = {**required, "trace.kind": "csv", "trace.file": "builtin:day"}
    del csv["trace.rate"]
    spelled = {**csv, "trace.mode": "rate", "trace.time_scale": "1", "trace.rate_scale": "1"}
    assert build_run_spec(spelled) == build_run_spec(csv)


def test_unknown_keys_rejected():
    with pytest.raises(UsageError, match="engine.bogus"):
        build_run_spec(mini_cfg(**{"engine.bogus": "1"}))
    # A key of another trace kind is unknown too, whatever its value.
    with pytest.raises(UsageError, match=r"^unknown config keys: \['trace.period'\]$"):
        build_run_spec(mini_cfg(**{"trace.period": "soon"}))


def test_missing_required_key_rejected():
    cfg = mini_cfg()
    del cfg["cost.fixed_overhead"]
    with pytest.raises(UsageError, match="cost.fixed_overhead"):
        build_run_spec(cfg)


def test_bad_choice_rejected():
    with pytest.raises(UsageError, match="engine.mode"):
        build_run_spec(mini_cfg(**{"engine.mode": "turbo"}))


def test_bool_values():
    spec = build_run_spec(mini_cfg(**{"controller.prediction": "off"}))
    assert not spec.engine.tracker.prediction_enabled
    with pytest.raises(UsageError, match="controller.prediction"):
        build_run_spec(mini_cfg(**{"controller.prediction": "maybe"}))


def test_bad_numeric_value_rejected():
    with pytest.raises(UsageError, match="engine.duration"):
        build_run_spec(mini_cfg(**{"engine.duration": "soon"}))


# -- presets ------------------------------------------------------------------


def test_all_presets_load():
    for name in PRESETS:
        spec = load_preset(name)
        assert spec.engine.duration > 0
        assert spec.label


def test_preset_overrides():
    spec = load_preset("exp1", disable_prediction=True)
    assert not spec.engine.tracker.prediction_enabled
    # No preset sets engine.jitter, so a seed would change no output: the
    # preset command has no --seed.
    with pytest.raises(SystemExit) as exc:
        main(["preset", "exp1", "--seed", "7"])
    assert exc.value.code == 2


def test_unknown_preset_rejected():
    with pytest.raises(UsageError, match="nope"):
        load_preset("nope")


# -- serialization ------------------------------------------------------------


def test_metrics_csv_shape(tmp_path):
    rows = run_mini()
    write_metrics(rows, tmp_path, MINI_BLOCK)
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == list(METRICS_COLUMNS)
    batches, ticks, _ = split_rows(rows)
    assert len(lines) == 1 + len(batches) + len(ticks)
    batch_rows = tick_rows = 0
    for line in lines[1:]:
        fields = dict(zip(header, line.split(",")))
        assert len(fields) == len(METRICS_COLUMNS)
        if fields["batch_id"]:
            batch_rows += 1
            assert fields["records"] and fields["eta"]
            assert fields["workload_S"] == ""
        else:
            tick_rows += 1
            assert fields["workload_S"]
            assert fields["records"] == ""
    assert batch_rows == len(batches)
    assert tick_rows == len(ticks)


def test_series_files_row_counts(tmp_path):
    rows = run_mini()
    write_metrics(rows, tmp_path, MINI_BLOCK)
    batches, ticks, windows = split_rows(rows)
    counts = {
        "series_interval.csv": len(ticks),
        "series_workload.csv": len(ticks),
        "series_rate.csv": len(windows),
        "series_delay.csv": len(batches),
    }
    for name, expected in counts.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 1 + expected, name


OUTPUT_NAMES = ("metrics.csv", "summary.json", "series_interval.csv",
                "series_workload.csv", "series_rate.csv", "series_delay.csv")


def test_rerun_outputs_byte_identical(tmp_path):
    spec = build_run_spec(mini_cfg())
    for sub in ("a", "b"):
        _, rows = collect(spec.engine, spec.trace)
        write_metrics(rows, tmp_path / sub, spec.engine.block_interval)
    for name in OUTPUT_NAMES:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_summary_json_matches_recomputation(tmp_path):
    rows = run_mini()
    write_metrics(rows, tmp_path, MINI_BLOCK)
    stored = json.loads((tmp_path / "summary.json").read_text())
    assert stored == dataclasses.asdict(summarize(rows, MINI_BLOCK))

    header, *lines = (tmp_path / "metrics.csv").read_text().splitlines()
    cols = header.split(",")
    records = sum(int(dict(zip(cols, line.split(",")))["records"] or 0)
                  for line in lines)
    assert records == stored["records_processed"]


def test_summary_conservation_against_log():
    spec = build_run_spec(mini_cfg())
    log, rows = collect(spec.engine, spec.trace)
    report = summarize(rows, spec.engine.block_interval)
    assert report.records_processed == sum(b.records for b in split_rows(rows)[0])
    generated = sum(per_block_counts(spec.engine, spec.trace))
    assert log.total_generated == log.total_batch_records == generated


@pytest.mark.parametrize("prediction", [True, False], ids=["prediction-on", "prediction-off"])
@pytest.mark.parametrize("preset", PRESETS)
def test_summarize_folds_delays_as_the_list_based_mean_and_max(preset, prediction):
    # summarize folds the batch rows in one pass; it must give the floats
    # that a list of the total delays gave, to the last bit.
    spec = load_preset(preset, disable_prediction=not prediction)
    _, rows = collect(spec.engine, spec.trace)
    report = summarize(rows, spec.engine.block_interval)
    batches = split_rows(rows)[0]
    delays = [b.total_delay_ms for b in batches]
    assert repr(report.total_delay_mean_ms) == repr(reduce(add, delays, 0) / len(delays))
    assert repr(report.total_delay_max_ms) == repr(max(delays))
    assert report.records_processed == sum(b.records for b in batches)


def test_delay_cells_are_fmt_of_each_value(tmp_path):
    # write_metrics reuses the processing delay's string for a total equal
    # to it, and caches the strings of processing delays and of no-wait
    # etas by value. Rows an engine run does not produce: equal values of
    # different types and signs, integer-valued and huge floats, NaN, and
    # unequal pairs.
    delays = [  # (sched, proc, interval)
        (0.0, -0.0, 600),
        (-0.0, -0.0, 600),
        (0.0, 1250, 600),
        (0.0, 1250.0, 600),
        (0.0, 7.0, 600),
        (0.0, 12.375, 600),
        (0.0, 1e16, 600),
        (0.0, 10**16, 600),
        (0.0, 2.5e300, 600),
        (0.0, math.nan, 600),
        (250.5, 999.25, 600),
        (1e16, 1.5, 600),
        (0.5, 7, 600),
        # Waited so little behind a long batch that total == proc: the
        # sched cell is not the no-wait "0", and the eta is not cached.
        (2**-40, 1e6, 600),
        # A no-wait eta equal to an earlier processing delay (12.375).
        (0.0, 24.75, 2),
    ]
    # 300 distinct processing delays with long reprs, each twice in a row
    # and the cycle three times, and their no-wait etas at three intervals:
    # more than FMT_CACHE_SIZE values, so the cache empties mid-file.
    for i in range(1800):
        k = (i // 2) % 300
        delays.append((0.0, 100 + k / 7, 600 + k % 3))
    rows = [engine.BatchRow(1000.5 * i, interval, 3 * i, i, sched, proc)
            for i, (sched, proc, interval) in enumerate(delays)]
    assert rows[13].total_delay_ms == rows[13].proc_delay_ms
    assert len({(b.proc_delay_ms, b.eta) for b in rows[15:]}) > harness.FMT_CACHE_SIZE
    write_metrics(rows, tmp_path, 200)
    fmt = harness._fmt
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    series = (tmp_path / "series_delay.csv").read_text().splitlines()[1:]
    assert len(metrics) == len(series) == len(rows)
    for batch_id, (row, m, d) in enumerate(zip(rows, metrics, series)):
        assert m.split(",") == [
            fmt(row.time_ms), str(batch_id), str(row.interval_ms), str(row.records),
            str(row.blocks), fmt(row.sched_delay_ms), fmt(row.proc_delay_ms),
            fmt(row.total_delay_ms), fmt(row.eta)] + [""] * 6
        assert d.split(",") == [fmt(row.time_ms), fmt(row.total_delay_ms),
                                fmt(row.proc_delay_ms), fmt(row.sched_delay_ms)]
    sched, proc, eta = map(METRICS_COLUMNS.index, ("sched_delay_ms", "proc_delay_ms", "eta"))
    assert metrics[13].split(",")[sched] == fmt(2**-40) != "0"
    assert metrics[14].split(",")[eta] == metrics[5].split(",")[proc] == "12.375"


def test_tick_rate_cells_are_fmt_of_each_value():
    # The row writer reuses a window row's rate strings for a tick whose rate
    # is the same object. An engine run always hands a tick those objects;
    # these rows do not, and their writer state crosses a chunk.
    third, forecast, r, alone = 1000 / 3, 0.1 + 0.2, 2 / 3, 1e6 / 7
    rows = [
        ControlRow(2000, 600, 0.5, 12.5, 1e16, None, None, None),  # before any window
        ControlRow(4000, 600, 0.75, None, None, None, None, None),
        WindowRow(0, third, forecast),
        ControlRow(6000, 800, 0.875, third, forecast, 0.25, -0.125, 1),  # the same objects
        ControlRow(8000, 800, 1.0, float(repr(third)), float(repr(forecast)), 0.0, 0.0, 0),
        ControlRow(10000, 800, 1.5, forecast, third, 2.5, 0.5, -1),  # swapped
        ControlRow(12000, 800, 1.25, 250.0, 7.0, -0.5, 0.25, 2),
        WindowRow(6000, 250.0, None),  # the last row of the first chunk
        ControlRow(14000, 1000, 0.5, 250.0, None, None, None, None),  # a None forecast
        ControlRow(16000, 1000, 0.5, 250, third, 0.0, -0.5, -2),
        WindowRow(12000, r, None),  # prediction off: q_next is q_now
        ControlRow(18000, 1000, 0.5, r, r, 0.0, -0.5, -2),
        ControlRow(20000, 1000, 0.5, third, third, 0.0, -0.5, -2),
        ControlRow(22000, 1000, 0.5, alone, alone, 0.0, -0.5, -2),  # in no window row
        ControlRow(24000, 1000, 0.5, 3 / 7, float(repr(3 / 7)), 0.0, -0.5, -2),  # equal
    ]
    fmt = harness._fmt
    files = [io.StringIO() for _ in range(5)]
    write = harness._row_writer(*files)
    write(rows[:8])
    write(rows[8:])
    metrics, interval, workload, _, rate = (f.getvalue().splitlines()[1:] for f in files)
    ticks = [row for row in rows if type(row) is ControlRow]
    windows = [row for row in rows if type(row) is WindowRow]
    assert len(metrics) == len(interval) == len(workload) == len(ticks)
    for row, m, i, w in zip(ticks, metrics, interval, workload):
        t, s = fmt(row.time_ms), fmt(row.workload_s)
        assert m.split(",") == [t, "", str(row.interval_ms)] + [""] * 6 + [
            s, fmt(row.rate_measured), fmt(row.rate_predicted), fmt(row.traffic_change),
            fmt(row.workload_deviation), fmt(row.fuzzy_level)]
        assert i.split(",") == [t, str(row.interval_ms)]
        assert w.split(",") == [t, s]
    assert [line.split(",") for line in rate] == [
        [str(row.window_start_ms), fmt(row.rate_measured), fmt(row.rate_predicted_next)]
        for row in windows]


# -- CLI ----------------------------------------------------------------------


def write_conf(tmp_path, text=MINI, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


def cached_values(conf) -> set:
    """The values write_metrics' delay cache may hold for conf's run."""
    spec = harness.load_run_spec(conf)
    batches = split_rows(collect(spec.engine, spec.trace)[1])[0]
    return ({b.proc_delay_ms for b in batches}
            | {b.eta for b in batches if b.sched_delay_ms == 0})


def test_write_metrics_keeps_no_state_between_calls(tmp_path):
    # Runs A and B share some processing delays and etas. B written in this
    # process after A (and after whatever earlier tests wrote) must match,
    # byte for byte, B written alone by a fresh process.
    jitter = "engine.jitter = 0.05\n"
    conf_a = write_conf(tmp_path, MINI + jitter + "engine.seed = 1\n", "a.conf")
    conf_b = write_conf(tmp_path, MINI + jitter + "engine.seed = 2\n", "b.conf")
    assert cached_values(conf_a) & cached_values(conf_b)
    alone, after = tmp_path / "alone", tmp_path / "after"
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "edgebatch.harness", "run", "--config", str(conf_b),
         "--out", str(alone)], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert main(["run", "--config", str(conf_a), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(conf_b), "--out", str(after)]) == 0
    names = sorted(p.name for p in alone.iterdir())
    assert len(names) == 6 and names == sorted(p.name for p in after.iterdir())
    for name in names:
        assert (after / name).read_bytes() == (alone / name).read_bytes(), name


def test_cli_run_writes_outputs(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()
    assert "mini" in capsys.readouterr().out


def test_cli_validate_ok(tmp_path, capsys):
    conf = write_conf(tmp_path)
    assert main(["validate", "--config", str(conf)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_reports_blocks_and_row_bound(capsys):
    conf = Path(harness.__file__).parent / "presets" / "exp1.conf"
    assert main(["validate", "--config", str(conf)]) == 0
    # 300 s of 200 ms blocks, and a tick every 10 s: 2 * 1500 + 30 rows.
    assert capsys.readouterr().out == (f"{conf}: ok (exp1, adaptive, duration 300000 ms, "
                                       "1500 blocks, at most 3030 rows)\n")
    spec = load_preset("exp1")
    assert harness.run_size(spec.engine) == (1500, 3030)
    assert len(collect(spec.engine, spec.trace)[1]) <= 3030


@pytest.mark.parametrize("argv", [["run", "--config", "c", "--bogus"], ["run"],
                                  ["preset", "nope"],
                                  ["validate", "--config", "c", "--out", "o"], [], ["bogus"]],
                         ids=["unknown-flag", "no-config", "unknown-preset",
                              "validate-out", "no-command", "unknown-command"])
def test_cli_argument_errors_exit_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("edgebatch")
    assert "usage:" not in captured.err


def test_readme_config_example_validates(tmp_path, capsys):
    # The documented example must name only keys the parser accepts.
    conf = tmp_path / "readme.conf"
    conf.write_text(readme_config_example() + "\n")
    assert main(["validate", "--config", str(conf)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    conf = write_conf(tmp_path, MINI + "engine.bogus = 1\n")
    assert main(["validate", "--config", str(conf)]) == 2
    assert "engine.bogus" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "absent.conf")]) == 2


# The tracker keeps only the windows a fit reads and fits on every window
# close, and the controller moves one block per level through the constant
# rule table, so these keys no longer exist, not even at their old defaults.
@pytest.mark.parametrize("line", ["tracker.retain_windows = 240",
                                  "tracker.retrain_every = 1",
                                  "controller.rules = rules.txt",
                                  "controller.step_blocks = 1"],
                         ids=["retain_windows", "retrain_every", "rules", "step_blocks"])
def test_cli_removed_config_keys_exit_2_with_one_line(tmp_path, capsys, line):
    conf = write_conf(tmp_path, MINI + line + "\n")
    assert main(["validate", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config keys" in captured.err
    assert line.split(" =")[0] in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_bad_trace_file_exits_2(tmp_path, capsys):
    (tmp_path / "trace.csv").write_text("0,not_a_number\n")
    text = MINI.replace(
        "trace.kind = constant\ntrace.rate = 1000\n",
        "trace.kind = csv\ntrace.file = trace.csv\n")
    conf = write_conf(tmp_path, text)
    assert main(["validate", "--config", str(conf)]) == 2
    assert capsys.readouterr().err


def test_cli_relative_trace_paths_resolve_against_config(tmp_path, capsys):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "trace.csv").write_text(
        "timestamp_s,value\n0,1000\n60,1000\n120,1000\n")
    text = MINI.replace(
        "trace.kind = constant\ntrace.rate = 1000\n",
        "trace.kind = csv\ntrace.file = trace.csv\n")
    conf = write_conf(sub, text)
    assert main(["validate", "--config", str(conf)]) == 0
    capsys.readouterr()


def test_cli_out_dir_env_default(tmp_path, monkeypatch, capsys):
    conf = write_conf(tmp_path)
    target = tmp_path / "envout"
    monkeypatch.setenv("EDGEBATCH_OUT", str(target))
    assert main(["run", "--config", str(conf)]) == 0
    assert (target / "metrics.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("trace", [
    "trace.kind = constant\ntrace.rate = nan\n",
    "trace.kind = constant\ntrace.rate = inf\n",
    "trace.kind = step\ntrace.before = 1000\ntrace.after = nan\ntrace.switch = 60000\n",
    "trace.kind = sinusoid\ntrace.base = 1000\ntrace.amplitude = 300\ntrace.period = inf\n",
    "trace.kind = csv\ntrace.file = trace.csv\ntrace.time_scale = nan\n",
    "trace.kind = csv\ntrace.file = trace.csv\ntrace.mode = count\ntrace.rate_scale = inf\n",
], ids=["constant-nan", "constant-inf", "step-nan", "sinusoid-inf", "csv-time-nan",
        "csv-rate-inf"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_non_finite_trace_exits_cleanly(tmp_path, capsys, trace, command):
    (tmp_path / "trace.csv").write_text("timestamp_s,value\n0,1000\n60,1000\n")
    text = MINI.replace("trace.kind = constant\ntrace.rate = 1000\n", trace)
    conf = write_conf(tmp_path, text)
    argv = [command, "--config", str(conf)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


MINI_TRACE = "trace.kind = constant\ntrace.rate = 1000\n"


@pytest.mark.parametrize("replacement, message", [
    ("trace.kind = constant\ntrace.rate = 1e308\n", "MAX_RATE"),
    ("trace.kind = constant\ntrace.rate = 2e9\n", "MAX_RATE"),
    ("trace.kind = sinusoid\ntrace.base = 1000\ntrace.amplitude = 400\n"
     "trace.period = 1e308\n", "too large"),
    ("trace.kind = sinusoid\ntrace.base = 1000\ntrace.amplitude = 400\n"
     "trace.period = 1e-320\n", "too short"),  # validate passed it, run raised
    (MINI_TRACE + "tracker.resample_interval = 30100\n", "resample_interval"),
], ids=["rate-1e308", "rate-2e9", "sinusoid-period-1e308", "sinusoid-period-1e-320",
        "resample-off-block"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejected_config_exits_1_with_one_line(tmp_path, capsys, replacement, message,
                                                   command):
    conf = write_conf(tmp_path, MINI.replace(MINI_TRACE, replacement))
    argv = [command, "--config", str(conf)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


HUGE = 10**320  # beyond float range


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_times_beyond_float_range_exit_1_with_one_line(tmp_path, capsys, command):
    text = (MINI.replace("engine.duration = 120000", f"engine.duration = {3 * HUGE}")
            .replace("engine.initial_interval = 2000", f"engine.initial_interval = {HUGE}")
            .replace("controller.min_interval = 400", f"controller.min_interval = {HUGE}")
            .replace("controller.max_interval = 6000", f"controller.max_interval = {HUGE}")
            + f"engine.block_interval = {HUGE}\ncontroller.control_period = {HUGE}\n"
            f"tracker.resample_interval = {HUGE}\n")
    conf = write_conf(tmp_path, text)
    argv = [command, "--config", str(conf)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_TIME_MS" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_oversized_run_exits_1_with_one_line(tmp_path, capsys, command):
    # 2**53 ms is a valid time, but the run would need about 4.5e13 blocks:
    # validate printed "ok", and run would end in a MemoryError.
    conf = write_conf(tmp_path, MINI.replace("engine.duration = 120000",
                                             f"engine.duration = {2**53}"))
    argv = [command, "--config", str(conf)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_RUN_ROWS" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_run_size_bound_admits_max_run_rows_and_no_more():
    # 2 ms blocks and a tick every 1 ms: an even duration d bounds the rows
    # at 2 * (d // 2) + d = 2 * d.
    cfg = mini_cfg(**{"engine.block_interval": 2, "controller.control_period": 1})
    limit = harness.MAX_RUN_ROWS // 2
    assert build_run_spec({**cfg, "engine.duration": str(limit)}).engine.duration == limit
    with pytest.raises(DomainError, match=f"up to {harness.MAX_RUN_ROWS + 1} rows"):
        build_run_spec({**cfg, "engine.duration": str(limit + 1)})


ZERO_COST = (MINI.replace("engine.duration = 120000", "engine.duration = 20000")
             .replace("engine.initial_interval = 2000", "engine.initial_interval = 1000")
             .replace("cost.fixed_overhead = 1000", "cost.fixed_overhead = 0")
             .replace("cost.per_record = 0.25", "cost.per_record = 0")
             .replace("cost.per_block = 8", "cost.per_block = 0"))


def test_cli_run_zero_cost_writes_nothing_to_stderr(tmp_path):
    # Every one of the 20 batches completes with zero delay. In a fresh
    # interpreter with no logging configured, Python prints any message at
    # WARNING or above to stderr, so this runs the CLI as a subprocess.
    conf = write_conf(tmp_path, ZERO_COST)
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "edgebatch.harness", "run", "--config", str(conf),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0
    assert "20 batches" in result.stdout
    assert result.stderr == ""


GREY_TRACE = "timestamp_s,value\n0,30000000000\n30,150\n60,300\n90,150\n120,150\n150,150\n"
# GREY_TRACE in count mode, 30 s rows: window rates [1e9, 5, 10, 5, 5] leave
# the GM(1,1) normal equations singular with a tail that is not flat, so the
# fit on closing window 4 (at 150 s) fails.
GREY_SINGULAR = (MINI.replace("engine.duration = 120000", "engine.duration = 180000")
                 .replace(MINI_TRACE, "trace.kind = csv\ntrace.file = trace.csv\n"
                                      "trace.mode = count\n"))
# 200 ms windows, 399 empty ones and then 1e5 records/s: the fit on closing
# window 399 (at 80 s) forecasts past math.exp's range.
GREY_OVERFLOW = """\
engine.duration = 120000
engine.initial_interval = 1000
engine.control_start = 0
controller.min_interval = 400
controller.max_interval = 6000
tracker.resample_interval = 200
tracker.train_num = 400
cost.fixed_overhead = 100
cost.per_record = 0.1
cost.per_block = 1
trace.kind = step
trace.before = 0
trace.after = 100000
trace.switch = 79800
"""


@pytest.mark.parametrize("text, failed", [(GREY_SINGULAR, 4), (GREY_OVERFLOW, 399)],
                         ids=["singular", "overflow"])
def test_cli_run_survives_a_window_series_grey_cannot_fit(tmp_path, capsys, text, failed):
    # Control runs on the workload alone until the next window closes and the
    # fit succeeds.
    (tmp_path / "trace.csv").write_text(GREY_TRACE)
    conf = write_conf(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_NAMES)
    forecasts = [line.split(",")[2] for line in
                 (out / "series_rate.csv").read_text().splitlines()[1:]]
    assert forecasts[:failed + 1] == [""] * (failed + 1) and forecasts[failed + 1] != ""


def test_prediction_off_fits_nothing(tmp_path, monkeypatch, capsys):
    # Nothing reads a fit with prediction off, so none is made, and every row
    # from the fifth window (train_num) on forecasts the measured rate: also
    # window 4, whose series GM(1,1) cannot fit.
    fits = []
    forecast = grey.forecast
    monkeypatch.setattr(grey, "forecast", lambda rates: fits.append(rates) or forecast(rates))
    (tmp_path / "trace.csv").write_text(GREY_TRACE)
    conf = write_conf(tmp_path, GREY_SINGULAR + "controller.prediction = off\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    capsys.readouterr()
    assert fits == []
    rows = [line.split(",") for line in
            (out / "series_rate.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert [forecast for _, _, forecast in rows[:4]] == [""] * 4
    assert all(forecast == measured for _, measured, forecast in rows[4:])


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("what", ["trace", "config"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_unreadable_input_file_exits_2_with_one_line(tmp_path, capsys, what, case,
                                                         command):
    # A file that cannot be opened or decoded ended the run in a traceback.
    (tmp_path / "trace.csv").write_text("timestamp_s,value\n0,1000\n60,1000\n")
    text = MINI.replace(MINI_TRACE, "trace.kind = csv\ntrace.file = trace.csv\n")
    conf = write_conf(tmp_path, text)
    bad = {"trace": tmp_path / "trace.csv", "config": conf}[what]
    content = bad.read_bytes()
    bad.unlink()
    if case == "directory":
        bad.mkdir()
    elif case == "not-utf8":
        bad.write_bytes(b"# \xff\xfe\n" + content)
    argv = [command, "--config", str(conf)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {what} {bad}: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_train_num_beyond_deque_limit_exits_1_with_one_line(tmp_path, capsys, command):
    # validate passed it, and run ended in OverflowError from deque(maxlen=...).
    conf = write_conf(tmp_path, MINI + "tracker.train_num = 100000000000000000000\n")
    argv = [command, "--config", str(conf)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "train_num must be at most" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "preset"])
def test_cli_out_naming_a_file_exits_2_before_the_run(tmp_path, capsys, command):
    # The whole run was simulated and then write_metrics' mkdir raised
    # FileExistsError.
    out = tmp_path / "afile"
    out.write_text("keep\n")
    if command == "run":
        argv = ["run", "--config", str(write_conf(tmp_path))]
    else:
        argv = ["preset", "exp1"]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output directory {out}: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("name", OUTPUT_NAMES)
@pytest.mark.parametrize("command", ["run", "preset"])
def test_cli_unwritable_output_file_exits_2_with_one_line(tmp_path, capsys, name, command):
    # The whole run was simulated and then write_metrics' open() raised
    # IsADirectoryError.
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    if command == "run":
        argv = ["run", "--config", str(write_conf(tmp_path))]
    else:
        argv = ["preset", "exp1"]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out / name}: ")
    assert len(captured.err.strip().splitlines()) == 1


def spy_on_run(monkeypatch) -> list:
    """Replace MicrobatchEngine.run by a spy; returns the list of what each
    call did: ("ok", log) or ("raised", exception)."""
    calls = []
    run = engine.MicrobatchEngine.run

    def spy(self):
        try:
            log = run(self)
        except Exception as exc:
            calls.append(("raised", exc))
            raise
        calls.append(("ok", log))
        return log

    monkeypatch.setattr(engine.MicrobatchEngine, "run", spy)
    return calls


@pytest.mark.parametrize("name", ["metrics.csv", "summary.json"])
@pytest.mark.parametrize("case", ["directory", "denied"])
def test_cli_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch, case, name):
    # The six files were opened, and a directory found, only after the run.
    out = tmp_path / "o"
    out.mkdir()
    if case == "directory":
        (out / name).mkdir()
    else:
        class NoAccess(io.FileIO):
            def __init__(self, file, mode):
                if Path(file).name == f".{name}.tmp":
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
                super().__init__(file, mode)

        # _OutputFile's super().__init__ is NoAccess.__init__.
        class Denied(harness._OutputFile, NoAccess):
            pass

        monkeypatch.setattr(harness, "_OutputFile", Denied)
    calls = spy_on_run(monkeypatch)
    assert main(["run", "--config", str(write_conf(tmp_path)), "--out", str(out)]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out / name}: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert [p.name for p in out.iterdir()] == ([name] if case == "directory" else [])


def fill_disk(monkeypatch, name, room=0):
    """Make every raw write to output file name fail with ENOSPC, once its
    first ``room`` raw writes are done."""
    class NoSpace(io.FileIO):
        done = 0

        def write(self, data):
            if self.path.name == name:
                if self.done == room:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                self.done += 1
            return super().write(data)

    # _OutputFile.write's super().write is NoSpace.write, as a disk's
    # error would come from io.FileIO.write.
    class Full(harness._OutputFile, NoSpace):
        pass

    monkeypatch.setattr(harness, "_OutputFile", Full)


@pytest.mark.parametrize("name", OUTPUT_NAMES)
def test_cli_failed_write_exits_1_and_keeps_the_old_outputs(tmp_path, capsys, monkeypatch,
                                                            name):
    # The other files were replaced, the failing one was left part written,
    # and the error named only the --out directory.
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_conf(tmp_path)), "--out", str(out)]) == 0
    old = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()

    fill_disk(monkeypatch, name)
    calls = spy_on_run(monkeypatch)
    conf = write_conf(tmp_path, MINI + "engine.jitter = 0.05\n", "other.conf")
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 1
    # A row file's header is written before the run, so its failed write
    # ends the command before the run starts; summary.json is written after.
    assert [what for what, _ in calls] == (["ok"] if name == "summary.json" else [])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out / name}: [Errno {errno.ENOSPC}] ")
    assert len(captured.err.strip().splitlines()) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == old
    # The same run writes all six files once the disk has room.
    monkeypatch.undo()
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    new = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(new) == sorted(old) and new["metrics.csv"] != old["metrics.csv"]


ROW_FILES = ("metrics.csv", "series_interval.csv", "series_workload.csv",
             "series_delay.csv", "series_rate.csv")


# 1,200 ticks, 1,200 windows and over 600 batches: many chunks, each written
# to every row file it has lines for, so each file's writes after its header
# come during the run.
LONG = (MINI.replace("engine.duration = 120000", "engine.duration = 1200000")
        + "controller.control_period = 1000\ntracker.resample_interval = 1000\n")


@pytest.mark.parametrize("name", ROW_FILES)
def test_cli_write_failing_during_the_run_exits_1_and_closes_every_file(
        tmp_path, capsys, monkeypatch, name):
    out = tmp_path / "o"
    conf = write_conf(tmp_path, LONG)
    spec = harness.load_run_spec(conf)
    assert len(collect(spec.engine, spec.trace)[1]) > 4 * engine.ROW_CHUNK
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    old = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    fill_disk(monkeypatch, name, room=1)  # the header's write succeeds
    calls = spy_on_run(monkeypatch)
    other = write_conf(tmp_path, LONG + "engine.jitter = 0.05\n", "other.conf")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["run", "--config", str(other), "--out", str(out)]) == 1
        gc.collect()
    assert [w.message for w in caught if w.category is ResourceWarning] == []
    # The write failed inside the run, which the error ended.
    assert [(what, type(exc), exc.filename) for what, exc in calls] == [
        ("raised", harness.OutputError, str(out / name))]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out / name}: [Errno {errno.ENOSPC}] ")
    assert len(captured.err.strip().splitlines()) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == old


# -- streaming ----------------------------------------------------------------


# Runs of one row less than a 64-row chunk, of one chunk and of two.
@pytest.mark.parametrize("extra, rows", [
    ({"engine.duration": 93_000}, 63),
    ({"engine.duration": 94_000}, 64),
    ({"engine.duration": 165_000, "tracker.resample_interval": 10_000}, 128),
], ids=["fewer-than-a-chunk", "one-chunk", "two-chunks"])
def test_streamed_run_hands_on_every_row_a_chunk_at_a_time(extra, rows):
    assert engine.ROW_CHUNK == 64
    spec = build_run_spec(mini_cfg(**extra))
    chunks = []
    log = engine.MicrobatchEngine(spec.engine, spec.trace,
                                  lambda chunk: chunks.append(list(chunk))).run()
    # Full chunks, then whatever the trace end leaves, if only an empty list.
    full, rest = divmod(rows, engine.ROW_CHUNK)
    assert [len(c) for c in chunks] == [engine.ROW_CHUNK] * full + [rest]
    streamed = [row for chunk in chunks for row in chunk]
    assert streamed == collect(spec.engine, spec.trace)[1]
    batches, _, windows = split_rows(streamed)  # the stream holds the window rows too
    assert len(windows) == spec.engine.duration // spec.engine.tracker.resample_interval
    assert log.batch_count == len(batches)
    assert log.total_generated == log.total_block_records == log.total_batch_records == \
        sum(per_block_counts(spec.engine, spec.trace))


def traced_peak(run, *args) -> int:
    """The traced memory peak, in bytes, of ``run(*args)``."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A streamed run keeps nothing per control tick and no row beyond the
# current chunk: its summary is folded as the rows come. So its peak does
# not grow with the run; the bound is below the 8 bytes a tick that even
# one float per tick would add.
TICK_BYTES_BOUND = 4


def test_streamed_run_memory_grows_by_a_few_bytes_per_tick(tmp_path):
    # exp3 with a tick and a window every 2 s. Both runs are long enough
    # that the chunk, the delay cache and the file buffers are full, so only
    # what the run keeps per tick or per window differs between the peaks.
    # They are also long enough that what it keeps would set both peaks:
    # a shorter run's peak comes early in it, and a float kept per tick
    # shows in the peak only after about 2,400 s.
    def run(duration):
        spec = load_preset("exp3")
        engine_cfg = dataclasses.replace(
            spec.engine, duration=duration,
            controller=dataclasses.replace(spec.engine.controller, control_period=2000),
            tracker=dataclasses.replace(spec.engine.tracker, resample_interval=2000))
        harness.execute(dataclasses.replace(spec, engine=engine_cfg), tmp_path / str(duration))

    # The first run in a process allocates what later runs reuse, which
    # would raise the short run's peak alone and hide a small leak when
    # this test runs by itself; an untraced run comes first.
    run(3_600_000)
    short, long = traced_peak(run, 3_600_000), traced_peak(run, 7_200_000)
    ticks = (7_200_000 - 3_600_000) // 2000
    assert long - short < TICK_BYTES_BOUND * ticks, ((long - short) / ticks, short, long)


# A batch waiting for the worker is three ints in the engine's queue: three
# 8-byte slots and the one int object of its record count, about 56 bytes
# (Python 3.10-3.13 measure 52-56). The bound is below what one more int
# object kept per batch would add, and well below the 134-142 bytes of a
# 4-tuple per batch.
QUEUED_BATCH_BYTES_BOUND = 80


def test_a_backlog_grows_by_a_few_bytes_per_queued_batch(tmp_path):
    # Vanilla, a fire every 200 ms and 400 ms per batch: the queue grows by
    # one batch every 400 ms, so each run's peak is at its end. Both backlogs
    # exceed 2,000 batches: CPython keeps up to 2,000 freed tuples of a size
    # for reuse, which tracemalloc does not see, so a smaller backlog would
    # hide most of what a tuple per batch costs.
    def run(seconds):
        cfg = mini_cfg(**{"engine.mode": "vanilla", "engine.initial_interval": 200,
                          "engine.duration": seconds * 1000, "cost.fixed_overhead": 400,
                          "cost.per_record": 0, "cost.per_block": 0, "trace.rate": 5000})
        harness.execute(build_run_spec(cfg), tmp_path / str(seconds))

    def backlog(seconds):  # the batches sealed, less those done and the running one
        done = len((tmp_path / str(seconds) / "series_delay.csv").read_text().splitlines()) - 1
        return seconds * 1000 // 200 - done - 1

    run(1200)  # untraced, as in the per-tick test above
    short, long = traced_peak(run, 1200), traced_peak(run, 2400)
    assert (backlog(1200), backlog(2400)) == (3000, 6000)
    batches = 6000 - 3000
    assert long - short < QUEUED_BATCH_BYTES_BOUND * batches, \
        ((long - short) / batches, short, long)


# The engine's traced peak per block of a fill, over a run of 20 fills at
# 1,000 records per block, when its rows go nowhere. Each block's running
# record total is then an int object of its own, 28 bytes, and one fill's
# totals are alive at a time: Python 3.11 gives 158 bytes. A fill's totals
# kept alive while the next fill is counted give 199, and with non-empty
# block totals counted from block 0 as well, each above 256 an int object
# of its own, 231.
FILL_BLOCK_BYTES_BOUND = 178


def test_the_engine_holds_one_fill_of_block_totals():
    fills = 20
    cfg = mini_cfg(**{"engine.mode": "vanilla", "engine.initial_interval": 1000,
                      "engine.duration": fills * engine.FILL_BLOCKS * MINI_BLOCK,
                      "cost.fixed_overhead": 10, "cost.per_record": 0, "cost.per_block": 0,
                      "trace.rate": 5000, "controller.prediction": "off"})
    spec = build_run_spec(cfg)

    def run():
        engine.MicrobatchEngine(spec.engine, spec.trace, lambda rows: None).run()

    run()  # untraced, as in the per-tick test above
    peak = traced_peak(run)
    assert peak < FILL_BLOCK_BYTES_BOUND * engine.FILL_BLOCKS, peak / engine.FILL_BLOCKS


def line_list_bytes(text: str) -> int:
    """About what a list of text's lines takes, the lines included."""
    lines = text.splitlines(keepends=True)
    return sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))


def test_the_row_writer_frees_a_files_lines_before_writing_it():
    # Each write reads the bytes traced since the call began. What may be
    # alive then is the text being written, the texts this probe keeps and
    # the lines of the files still to be written; a file's own lines kept
    # alive beside its text add about their own size again. The second call
    # writes the rows of the first, so no cache entry is added during it.
    rows = [engine.BatchRow(1000.5 * i, 600, 3 * i, i, 0.0 if i % 2 else 12.5, 100 + i / 7)
            for i in range(engine.ROW_CHUNK)]
    writes = []  # (file, text, bytes traced at its write)
    start = 0  # the traced bytes when the call began

    class Probe:
        def __init__(self, name):
            self.name = name

        def write(self, text):
            writes.append((self.name, text, tracemalloc.get_traced_memory()[0] - start))

    write = harness._row_writer(*map(Probe, ROW_FILES))
    write(rows)
    writes.clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write(rows)
    finally:
        tracemalloc.stop()
    assert [name for name, _, _ in writes] == ["metrics.csv", "series_delay.csv"]
    for k, (name, text, traced) in enumerate(writes):
        kept = sum(sys.getsizeof(earlier) for _, earlier, _ in writes[:k + 1])
        pending = sum(line_list_bytes(later) for _, later, _ in writes[k + 1:])
        own = line_list_bytes(text)
        assert traced - kept - pending < own / 2, (name, traced, kept, pending, own)


# The most bytes that writing many short lines to the six output files may
# add to the traced peak, once they are open. Each write encodes its text and
# writes it to the file at once, with no text layer or buffer, so no line is
# left pending: Python 3.11 gives 0.8 kB. A text layer that is not written
# through keeps a file's pending lines up to its chunk size, 8192 characters
# by default: the six files opened with ``open`` give 51 kB on Python 3.11.
PENDING_BYTES_BOUND = 12_000


def test_an_output_file_holds_few_pending_lines(tmp_path):
    with harness._outputs(tmp_path) as files:
        tracemalloc.start()
        try:
            for k in range(3000):  # a series file's lines
                line = f"{2000 * k},{1.0 + k / 7}\n"
                for out in files:
                    out.write(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < PENDING_BYTES_BOUND, peak


def test_short_raw_writes_give_the_same_outputs(tmp_path, monkeypatch):
    # A raw write may write fewer bytes than it is given: _OutputFile.write,
    # which returns the length of its text, must write the rest.
    spec = harness.load_run_spec(write_conf(tmp_path))
    harness.execute(spec, tmp_path / "whole")

    class Trickle(io.FileIO):
        def write(self, data):
            return super().write(data[:7])

    # _OutputFile.write's super().write is Trickle.write.
    class Short(harness._OutputFile, Trickle):
        pass

    monkeypatch.setattr(harness, "_OutputFile", Short)
    harness.execute(spec, tmp_path / "short")
    for name in harness.OUTPUT_FILES:
        whole = (tmp_path / "whole" / name).read_bytes()
        assert len(whole) > 7 and (tmp_path / "short" / name).read_bytes() == whole, name


def test_each_row_file_gets_one_write_per_flush(tmp_path, monkeypatch):
    # The row writer joins a chunk's lines for each file, and no buffer
    # splits or merges them: a row file gets its header and at most one
    # raw write for each chunk the run hands on.
    writes = dict.fromkeys(harness.OUTPUT_FILES, 0)

    class Counted(io.FileIO):
        def write(self, data):
            writes[self.path.name] += 1
            return super().write(data)

    class Counting(harness._OutputFile, Counted):
        pass

    monkeypatch.setattr(harness, "_OutputFile", Counting)
    spec = harness.load_run_spec(write_conf(tmp_path))
    rows = collect(spec.engine, spec.trace)[1]
    flushes = len(rows) // engine.ROW_CHUNK + 1  # the full chunks, then the rest
    assert split_rows(rows)[2] and len(rows) > engine.ROW_CHUNK
    harness.execute(spec, tmp_path / "o")
    assert all(1 < writes[name] <= 1 + flushes for name in ROW_FILES), (writes, flushes)
    assert writes["summary.json"] == 1


@pytest.mark.parametrize("what, content, message", [
    ("trace", "timestamp_s,value\n0,1000\nabc,1000\n", "row 3: bad number: "),
], ids=["trace"])
def test_cli_validate_parse_error_names_the_file(tmp_path, capsys, what, content, message):
    # The message gave the row and the fault but not which file held them.
    bad = tmp_path / "trace.csv"
    bad.write_text(content)
    text = MINI.replace(MINI_TRACE, "trace.kind = csv\ntrace.file = trace.csv\n")
    conf = write_conf(tmp_path, text)
    assert main(["validate", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {what} {bad}: {message}")
    assert len(captured.err.strip().splitlines()) == 1
