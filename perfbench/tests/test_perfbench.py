"""Tests of the benchmark itself; run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from edgebatch import harness  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke_spec(workload: str, seed: int = 3) -> harness.RunSpec:
    text = workloads.config_text(workload, seed, workloads.SMOKE_DURATION_MS)
    return harness.build_run_spec(harness.parse_config_text(text))


def execute_quietly(execute, spec, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        execute(spec, out_dir)


def test_declared_workloads_match_the_generated_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_prints_every_declared_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float)) and not isinstance(printed["value"], bool)
    report = "\n".join(lines[:-1])
    assert "fail_ratio = 0 " in report
    if not trace:
        for name in ("sim_overload_share", "sim_backlog_records", "sim_batches"):
            assert f"{name} = " in report


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_writes_identical_outputs_and_restores_patches(workload, tmp_path):
    spec = smoke_spec(workload)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.LAYER_BOUNDARIES]
    execute_quietly(harness.execute, spec, tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        execute_quietly(tracer.execute, spec, tmp_path / "traced")

    assert (workloads.output_digest(tmp_path / "plain")
            == workloads.output_digest(tmp_path / "traced"))
    assert tracer.calls["traces.integral"] == spec.engine.duration // spec.engine.block_interval
    assert tracer.calls[tracing.ROOT_SPAN] == 1
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)


def test_patches_are_restored_when_the_run_raises():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.LAYER_BOUNDARIES]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed(), tracing.capture_logs([]):
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)


def test_output_checks_catch_broken_outputs(tmp_path):
    spec = smoke_spec("sine-fine-2h")
    logs: list = []
    with tracing.capture_logs(logs):
        execute_quietly(harness.execute, spec, tmp_path)
    out, log = workloads.read_outputs(tmp_path), logs[0]
    assert workloads.check_outputs(out, log, spec) == []

    log.total_batch_records -= 1
    assert any("not conserved" in p for p in workloads.check_outputs(out, log, spec))
    log.total_batch_records += 1

    swapped = [out.batches[1], out.batches[0], *out.batches[2:]]
    broken = workloads.Outputs(out.digest, out.row_times[::-1], swapped, out.ticks,
                               out.records_processed_summary)
    problems = workloads.check_outputs(broken, log, spec)
    assert any("times decrease" in p for p in problems)
    assert any("batch ids" in p for p in problems)

    off_grid = [(t, i + 1, s) for t, i, s in out.ticks]
    broken = workloads.Outputs(out.digest, out.row_times, out.batches, off_grid,
                               out.records_processed_summary)
    assert any("block multiples" in p for p in workloads.check_outputs(broken, log, spec))


def test_exits_nonzero_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sine-fine-2h", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
