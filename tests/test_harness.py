import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edgebatch import engine, grey, harness
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

from log_rows import per_block_counts, split_rows

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
    spec = build_run_spec(mini_cfg(**extra))
    return engine.MicrobatchEngine(spec.engine, spec.trace).run()


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
    log = run_mini()
    write_metrics(log, tmp_path, summarize(log, MINI_BLOCK))
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == list(METRICS_COLUMNS)
    assert len(lines) == 1 + len(log.rows)
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
    batches, ticks = split_rows(log)
    assert batch_rows == len(batches)
    assert tick_rows == len(ticks)


def test_series_files_row_counts(tmp_path):
    log = run_mini()
    write_metrics(log, tmp_path, summarize(log, MINI_BLOCK))
    batches, ticks = split_rows(log)
    counts = {
        "series_interval.csv": len(ticks),
        "series_workload.csv": len(ticks),
        "series_rate.csv": len(log.windows),
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
        log = engine.MicrobatchEngine(spec.engine, spec.trace).run()
        write_metrics(log, tmp_path / sub, summarize(log, spec.engine.block_interval))
    for name in OUTPUT_NAMES:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_summary_json_matches_recomputation(tmp_path):
    log = run_mini()
    write_metrics(log, tmp_path, summarize(log, MINI_BLOCK))
    stored = json.loads((tmp_path / "summary.json").read_text())
    import dataclasses
    assert stored == dataclasses.asdict(summarize(log, MINI_BLOCK))

    header, *rows = (tmp_path / "metrics.csv").read_text().splitlines()
    cols = header.split(",")
    records = sum(int(dict(zip(cols, r.split(",")))["records"] or 0)
                  for r in rows)
    assert records == stored["records_processed"]


def test_summary_conservation_against_log():
    spec = build_run_spec(mini_cfg())
    log = engine.MicrobatchEngine(spec.engine, spec.trace).run()
    report = summarize(log, spec.engine.block_interval)
    assert report.records_processed == sum(b.records for b in split_rows(log)[0])
    generated = sum(per_block_counts(spec.engine, spec.trace))
    assert log.total_generated == log.total_batch_records == generated


def test_delay_cells_are_fmt_of_each_value(tmp_path):
    # write_metrics reuses the processing delay's string for a total equal
    # to it. Rows an engine run does not produce: equal values of different
    # types and signs, integer-valued and huge floats, and unequal pairs.
    delays = [  # (sched, proc, total)
        (0.0, 0.0, -0.0),
        (-0.0, -0.0, 0.0),
        (0.0, 1250, 1250.0),
        (0.0, 1250.0, 1250),
        (0.0, 7.0, 7.0),
        (0.0, 12.375, 12.375),
        (0.0, 1e16, 1e16),
        (0.0, 10**16, 1e16),
        (0.0, 2.5e300, 2.5e300),
        (250.5, 999.25, 1249.75),
        (1e16, 1.5, 1e16 + 2.0),
        (0.5, 7, 7.5),
    ]
    log = engine.MetricsLog()
    for i, (sched, proc, total) in enumerate(delays):
        log.rows.append(engine.BatchRow(1000.5 * i, i, 600, 3 * i, i, sched, proc, total))
    write_metrics(log, tmp_path, summarize(log, 200))
    fmt = harness._fmt
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    series = (tmp_path / "series_delay.csv").read_text().splitlines()[1:]
    assert len(metrics) == len(series) == len(log.rows)
    for row, m, d in zip(log.rows, metrics, series):
        assert m.split(",") == [
            fmt(row.time_ms), str(row.batch_id), str(row.interval_ms), str(row.records),
            str(row.blocks), fmt(row.sched_delay_ms), fmt(row.proc_delay_ms),
            fmt(row.total_delay_ms), fmt(row.eta)] + [""] * 6
        assert d.split(",") == [fmt(row.time_ms), fmt(row.total_delay_ms),
                                fmt(row.proc_delay_ms), fmt(row.sched_delay_ms)]


# -- CLI ----------------------------------------------------------------------


def write_conf(tmp_path, text=MINI, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


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


OUTPUT_FILES = ["metrics.csv", "series_delay.csv", "series_interval.csv", "series_rate.csv",
                "series_workload.csv", "summary.json"]


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
    assert sorted(p.name for p in out.iterdir()) == OUTPUT_FILES
    forecasts = [line.split(",")[2] for line in
                 (out / "series_rate.csv").read_text().splitlines()[1:]]
    assert forecasts[:failed + 1] == [""] * (failed + 1) and forecasts[failed + 1] != ""


def test_prediction_off_fits_nothing(tmp_path, monkeypatch, capsys):
    # Nothing reads a fit with prediction off, so none is made, and every row
    # from the fifth window (train_num) on forecasts the measured rate: also
    # window 4, whose series GM(1,1) cannot fit.
    fits = []
    fit = grey.fit
    monkeypatch.setattr(grey, "fit", lambda rates: fits.append(rates) or fit(rates))
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
