"""Re-run the mutant table: every recorded mutant must still be killed.

    python3 tools/mutants.py

A mutant is one exact edit of a program file: an old text, which must occur
exactly once in the file, and its replacement. For each mutant in the table
the tool copies `src/`, `tests/` and `perfbench/` of this checkout to a
temporary directory and runs the mutant's tests, test files or node ids,
there with `pytest -x`, first without the edit, where they must pass, and
then with it. Mutants that name the same tests share one run without the
edit. The mutant is killed if a test then fails (pytest exit 1) or the
tests run past `TIMEOUT_S`, as when a clock stops advancing; it survives if
every test passes. Tests that fail in the copy before the edit, as those
that read a file outside these three, could prove no kill, so that is an
error, as is any other pytest exit, as from a test file that does not
exist.

It prints one line per mutant and exits 0 if every mutant was killed, and 1
on a survivor, an error, or an old text that does not occur exactly once,
so that an entry cannot go stale when the code it names moves.
Standard library and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    """An edit of ``path`` (relative to the checkout) that ``tests`` must kill."""

    name: str
    fault: str  # what the edit breaks, in a few words
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


ENGINE = "src/edgebatch/engine.py"
HARNESS = "src/edgebatch/harness.py"
SUMMARY_ORACLE = "tests/test_summary_oracle.py::test_folded_report_matches_the_row_lists"
ENGINE_PROPERTIES = ("tests/test_engine_properties.py::"
                     "test_engine_invariants_hold_over_random_configs")
TICK_RATE_CELLS = "tests/test_harness.py::test_tick_rate_cells_are_fmt_of_each_value"
FORECAST_PATHS = "tests/test_grey.py::test_forecast_is_predict_of_fit_on_every_path"
SNAPPED_AT_TIES = ("tests/test_control_oracle.py::"
                   "test_infer_takes_the_snapped_path_exactly_at_ties")
MUTANTS = (
    Mutant("summary-half-one-late", "the unconverged steady ticks start one tick late",
           HARNESS,
           "skip, block = ticks // 2, block_interval",
           "skip, block = ticks // 2 + 1, block_interval",
           (SUMMARY_ORACLE,)),
    Mutant("summary-window-one-short", "convergence needs STABLE_TICKS - 1 ticks",
           HARNESS,
           "deque(maxlen=STABLE_TICKS)",
           "deque(maxlen=STABLE_TICKS - 1)",
           (SUMMARY_ORACLE,)),
    Mutant("summary-overload-never-closes", "an overload span stays open once S is back below 1",
           HARNESS,
           "                        recovery = span\n                    overload_start = None\n",
           "                        recovery = span\n",
           (SUMMARY_ORACLE,)),
    Mutant("summary-delay-max-first", "the delay max is the first batch's delay",
           HARNESS,
           "if not batches or delay > delay_max:",
           "if not batches:",
           (SUMMARY_ORACLE,)),
    Mutant("write-metrics-summary-of-nothing", "write_metrics' summary.json reports no rows",
           HARNESS,
           "_write_summary(files[5], summarize(rows, block_interval))",
           "_write_summary(files[5], summarize([], block_interval))",
           ("tests/test_harness.py::test_summary_json_matches_recomputation",)),
    Mutant("summary-keeps-every-tick", "the summary's fold keeps a value per control tick",
           HARNESS,
           "                t, s = row.time_ms, row.workload_s\n",
           "                t, s = row.time_ms, row.workload_s\n"
           "                fold.__dict__.setdefault(\"kept\", []).append(row.interval_ms)\n",
           ("tests/test_harness.py::test_streamed_run_memory_grows_by_a_few_bytes_per_tick",)),
    Mutant("output-buffered-text-layer", "output files open through a buffered text layer",
           HARNESS,
           "stack.enter_context(_OutputFile(*names))",
           'stack.enter_context(open(names[0], "w"))',
           ("tests/test_harness.py::test_an_output_file_holds_few_pending_lines",)),
    Mutant("output-single-raw-write", "a short raw write loses the rest of its bytes",
           HARNESS,
           "            while view:\n                view = view[super().write(view):]\n",
           "            super().write(view)\n",
           ("tests/test_harness.py::test_short_raw_writes_give_the_same_outputs",)),
    Mutant("row-writer-writes-per-line", "the row writer writes each line on its own",
           HARNESS,
           "(part.append for part in lines)",
           "(metrics.write, interval.write, workload.write, delay.write, rate.write)",
           ("tests/test_harness.py::test_each_row_file_gets_one_write_per_flush",)),
    Mutant("fmt-cache-never-hits", "every repeated delay is formatted afresh",
           HARNESS,
           "    cached = cache.get\n",
           "    cached = {}.get\n",
           ("tests/test_fmt_counts.py",)),
    Mutant("tick-rate-reused-unchecked", "a tick writes the last window's rate for its own",
           HARNESS,
           "q_now = measured_text if q_now is measured else fmt(q_now)",
           "q_now = measured_text",
           (TICK_RATE_CELLS,)),
    Mutant("tick-forecast-reused-unchecked", "a tick writes the last window's forecast for its own",
           HARNESS,
           "q_next = predicted_text if q_next is predicted else",
           "q_next = predicted_text if True else",
           (TICK_RATE_CELLS,)),
    Mutant("engine-chunk-not-cleared", "a flushed chunk stays in the row list",
           ENGINE,
           "                flush(rows)\n                rows.clear()\n",
           "                flush(rows)\n",
           ("tests/test_engine.py",)),
    Mutant("engine-no-last-flush", "the rows after the last full chunk are never handed on",
           ENGINE,
           "        metrics.batch_count = completed\n        flush(rows)\n",
           "        metrics.batch_count = completed\n",
           ("tests/test_engine.py",)),
    Mutant("engine-chunk-one-too-long", "chunks of ROW_CHUNK + 1 rows",
           ENGINE,
           "            if len(rows) == ROW_CHUNK:\n",
           "            if len(rows) == ROW_CHUNK + 1:\n",
           ("tests/test_engine.py",)),
    Mutant("queue-interval-after-swap", "a batch queues the interval staged for the next fire",
           ENGINE,
           "                    push(interval)  # the one that ends now, before a staged one\n"
           "                    batched_records, batched_blocks = sealed_records, sealed_blocks\n"
           "                    if pending is not None:\n"
           "                        interval, pending = pending, None\n",
           "                    batched_records, batched_blocks = sealed_records, sealed_blocks\n"
           "                    if pending is not None:\n"
           "                        interval, pending = pending, None\n"
           "                    push(interval)\n",
           ("tests/test_engine.py::test_set_interval_takes_effect_next_fire",)),
    Mutant("queue-seal-time-from-initial", "seal times count from the first fire, not from 0",
           ENGINE,
           "taken_at = completed = 0",
           "taken_at, completed = cfg.initial_interval, 0",
           (ENGINE_PROPERTIES,)),
    Mutant("queue-seal-time-from-current", "seal times counted back by the current interval",
           ENGINE,
           "                taken_at += used\n",
           "                taken_at = fire - interval - interval * (len(queue) // 3)\n",
           (ENGINE_PROPERTIES,)),
    Mutant("queue-pops-swapped", "a batch's records and blocks are taken in swapped order",
           ENGINE,
           "batch_size, batch_blocks, used = pop(), pop(), pop()",
           "batch_blocks, batch_size, used = pop(), pop(), pop()",
           (ENGINE_PROPERTIES,)),
    Mutant("engine-keeps-every-seal-time", "the engine keeps each fire's time for the whole run",
           ENGINE,
           "                    push(interval)  # the one that ends now, before a staged one\n",
           "                    push(interval)  # the one that ends now, before a staged one\n"
           "                    self.__dict__.setdefault(\"sealed_at\", []).append(now)\n",
           ("tests/test_harness.py::test_a_backlog_grows_by_a_few_bytes_per_queued_batch",)),
    Mutant("refill-keeps-old-totals", "a fill's totals stay alive while the next is counted",
           ENGINE,
           "                    del records, nonempty  # not alive beside the next fill's totals\n",
           "",
           ("tests/test_harness.py::test_the_engine_holds_one_fill_of_block_totals",)),
    Mutant("row-writer-keeps-lines", "a file's lines stay alive while its joined text is written",
           HARNESS,
           "                part.clear()  # not alive while the text is encoded and written\n",
           "",
           ("tests/test_harness.py::test_the_row_writer_frees_a_files_lines_before_writing_it",)),
    Mutant("jitter-one-sided", "a jitter factor in [1, 1 + jitter]",
           ENGINE,
           "jitter * (-1.0 + 2.0 * random_())",
           "jitter * random_()",
           ("tests/test_engine.py::test_jitter_changes_with_seed_but_not_rerun",)),
    Mutant("engine-samples-zero-delay", "a batch with no delay is a workload sample of 0",
           ENGINE,
           "if total > 0:",
           "if True:",
           ("tests/test_golden.py::"
            "test_coinciding_events_match_golden_digests[ties-vanilla-drain]",)),
    Mutant("window-row-at-its-end", "a window row's start is the window's end",
           "src/edgebatch/tracker.py",
           "WindowRow(now - w, rate, predicted)",
           "WindowRow(now, rate, predicted)",
           ("tests/test_tracker.py::test_reports_average_into_window_rate",)),
    Mutant("tracker-close-keeps-count", "a window close does not reset the open count",
           "src/edgebatch/tracker.py",
           "rate, self._open_count = self._open_count * 1000.0 / w, 0",
           "rate = self._open_count * 1000.0 / w",
           ("tests/test_tracker.py",)),
    Mutant("forecast-one-step-early", "forecast evaluates the last training step",
           "src/edgebatch/grey.py",
           "return predict(fit(series), len(series) + 1)",
           "return predict(fit(series), len(series))",
           (FORECAST_PATHS,)),
    Mutant("response-keeps-shift", "the time response does not undo the shift",
           "src/edgebatch/grey.py",
           "    return raw - shift\n",
           "    return raw\n",
           (FORECAST_PATHS,)),
    Mutant("linear-limit-at-zero-only", "0 < |alpha| < EPS_ALPHA takes the exponential form",
           "src/edgebatch/grey.py",
           "if -EPS_ALPHA < alpha < EPS_ALPHA:",
           "if alpha == 0.0:",
           (FORECAST_PATHS,)),
    Mutant("flat-tail-mean-of-all", "a flat tail's mu averages n values, not n - 1",
           "src/edgebatch/grey.py",
           "return 0.0, sy / m, first, n, shift",
           "return 0.0, sy / n, first, n, shift",
           (FORECAST_PATHS,)),
    Mutant("monitor-keeps-count", "an update resets the sample sum but not the count",
           "src/edgebatch/workload.py",
           "            self._sum = self._count = 0\n",
           "            self._sum = 0\n",
           ("tests/test_workload.py",)),
    Mutant("bracket-degrees-swapped", "each bracketing label gets the other's degree",
           "src/edgebatch/fuzzy.py",
           "return i, 1.0 - (x - CENTERS[i]) / HALF_WIDTH, 1.0 - (CENTERS[i + 1] - x) / HALF_WIDTH",
           "return i, 1.0 - (CENTERS[i + 1] - x) / HALF_WIDTH, 1.0 - (x - CENTERS[i]) / HALF_WIDTH",
           ("tests/test_fuzzy.py",)),
    Mutant("tie-degrees-unsnapped", "infer's tie path takes the unsnapped degrees",
           "src/edgebatch/fuzzy.py",
           "round(degree, 12) if",
           "degree if",
           (SNAPPED_AT_TIES,)),
    Mutant("tie-path-dropped", "infer takes the unsnapped mean at a tie too",
           "src/edgebatch/fuzzy.py",
           "if TIE_GUARD < t - level < 1.0 - TIE_GUARD:",
           "if True:",
           (SNAPPED_AT_TIES,)),
)


def run_mutant(mutant: Mutant, baselines: dict) -> str:
    """The mutant's verdict: 'killed', 'survived', 'stale: ...' or 'error: ...'.
    ``baselines`` maps each tests tuple already run unmutated to its run."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = work / mutant.path
        text = target.read_text() if target.is_file() else ""
        if text.count(mutant.old) != 1:
            return f"stale: the old text occurs {text.count(mutant.old)} times in {mutant.path}"
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *mutant.tests]
        if mutant.tests not in baselines:
            baselines[mutant.tests] = _pytest(command, work, env)
        unmutated = baselines[mutant.tests]
        if unmutated is None or unmutated.returncode != 0:
            return f"error: tests fail unmutated, {_outcome(unmutated)}"
        target.write_text(text.replace(mutant.old, mutant.new))
        result = _pytest(command, work, env)
    if result is None:
        return "killed"
    if result.returncode in (0, 1):
        return ("survived", "killed")[result.returncode]
    return f"error: {_outcome(result)}"


def _pytest(command: list[str], work: Path, env: dict) -> subprocess.CompletedProcess | None:
    """The finished pytest run, or None if it ran past TIMEOUT_S."""
    try:
        return subprocess.run(command, cwd=work, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def _outcome(result: subprocess.CompletedProcess | None) -> str:
    if result is None:
        return f"past {TIMEOUT_S} s"
    return f"pytest exit {result.returncode}: {result.stdout.strip()[-200:]}"


def main(table: tuple[Mutant, ...] = MUTANTS) -> int:
    failed, baselines = 0, {}
    for mutant in table:
        verdict = run_mutant(mutant, baselines)
        failed += verdict != "killed"
        print(f"{verdict:8} {mutant.name}: {mutant.fault} ({', '.join(mutant.tests)})",
              flush=True)
    print(f"{failed} of {len(table)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
