"""summary.json's report, folded as the run goes, against the row lists.

The fold that ``harness._tally`` returns takes every row as it comes,
given the count of control rows the run logs, and keeps nothing per row.
The functions below are the summary rules as they read a run's whole row
lists, kept here as the reference: the report from the fold, given the rows
in chunks of any size, must serialize to the same summary.json as the one
from the lists, ints as ints and floats to the last bit.
"""

import dataclasses
import json
from functools import reduce
from operator import add

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgebatch.engine import BatchRow
from edgebatch.fuzzy import ControlRow
from edgebatch.harness import STABLE_TICKS, SummaryReport, _tally, summarize
from edgebatch.tracker import WindowRow

from log_rows import split_rows


def prediction_error_pairs(windows):
    """Relative one-step errors: forecast made at window k vs window k+1."""
    errs = []
    for prev, cur in zip(windows, windows[1:]):
        pred = prev.rate_predicted_next
        if pred is None or cur.rate_measured <= 0:
            continue
        errs.append(abs(pred - cur.rate_measured) / cur.rate_measured)
    return errs


def convergence_time(ticks, block_interval):
    """First tick from which the interval holds within one block for
    STABLE_TICKS consecutive ticks."""
    for i in range(len(ticks) - STABLE_TICKS + 1):
        base = ticks[i].interval_ms
        window = ticks[i:i + STABLE_TICKS]
        if all(abs(t.interval_ms - base) <= block_interval for t in window):
            return ticks[i].time_ms
    return None


def overload_recovery(ticks):
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


def reference_report(rows, block_interval):
    """The report computed from the run's row lists."""
    batches, ticks, windows = split_rows(rows)
    errs = prediction_error_pairs(windows)
    conv = convergence_time(ticks, block_interval)
    if conv is not None:
        steady = [t.workload_s for t in ticks if t.time_ms >= conv]
    else:
        steady = [t.workload_s for t in ticks[len(ticks) // 2:]]
    delays = [b.total_delay_ms for b in batches]
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


def summary_json(report):
    return json.dumps(dataclasses.asdict(report), indent=2)


BLOCK = 200
LOADS = st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.0, 3.0))
RATES = st.one_of(st.just(0.0), st.integers(0, 3000).map(float), st.floats(0.0, 3000.0))
FORECASTS = st.one_of(st.none(), RATES)


def tick(time_ms, interval_ms, s):
    return ControlRow(time_ms, interval_ms, s, None, None, None, None, None)


@st.composite
def run_rows(draw):
    """A run's rows: ticks every control period with block-multiple
    intervals from a small set, so that some runs converge and some do not;
    windows with zero rates and missing forecasts; and batches. The three
    kinds are interleaved in a drawn order, each kind in its own order."""
    period = draw(st.sampled_from([1000, 2000, 10_000]))
    n = draw(st.integers(0, 3 * STABLE_TICKS))
    intervals = draw(st.lists(st.sampled_from([1000, 1200, 1400, 2000]), min_size=n,
                              max_size=n))
    loads = draw(st.lists(LOADS, min_size=n, max_size=n))
    ticks = [tick((k + 1) * period, i, s) for k, (i, s) in enumerate(zip(intervals, loads))]
    windows = [WindowRow(k * 30_000, rate, forecast) for k, (rate, forecast) in
               enumerate(draw(st.lists(st.tuples(RATES, FORECASTS), max_size=30)))]
    batches = [BatchRow(float(k), 2000, records, 10, sched, proc) for k, (records, sched, proc)
               in enumerate(draw(st.lists(st.tuples(st.integers(0, 5000), st.floats(0.0, 1e4),
                                                     st.floats(0.0, 1e4)), max_size=30)))]
    kinds = draw(st.permutations([0] * len(ticks) + [1] * len(windows) + [2] * len(batches)))
    sources = [iter(ticks), iter(windows), iter(batches)]
    return [next(sources[kind]) for kind in kinds]


def cut(rows, sizes):
    """rows split into consecutive lists of the given sizes, then the rest."""
    chunks, start = [], 0
    for size in sizes:
        chunks.append(rows[start:start + size])
        start += size
    return chunks + [rows[start:]]


# Fewer ticks than STABLE_TICKS: no convergence, and half of them steady.
FEW_TICKS = [tick(10_000 * (k + 1), 2000, 0.5 + k / 10) for k in range(STABLE_TICKS - 1)]
# An odd count of ticks that never holds: the steady ticks are the second half.
NO_CONVERGENCE = [tick(30_000 * (k + 1), 1000 if k % 2 else 2000, 1.0 + k / 100)
                  for k in range(2 * STABLE_TICKS + 1)]
# S exactly 1.0 neither starts nor ends an overload, and int times stay ints.
AT_ONE = [tick(30_000 * (k + 1), 1400, s) for k, s in
          enumerate([0.5, 1.5, 1.0, 1.0, 0.9, 1.0, 2.0, 1.0, 0.99] + [0.5] * STABLE_TICKS)]
# A zero-rate window after a forecast, and windows with no forecast.
WINDOWS = [WindowRow(0, 1000.0, None), WindowRow(30_000, 1100.0, 1200.0),
           WindowRow(60_000, 0.0, 900.0), WindowRow(90_000, 950.0, None),
           WindowRow(120_000, 1000.0, 1e300), WindowRow(150_000, 800.0, None)]


@settings(max_examples=300, deadline=None)
@given(run_rows(), st.lists(st.integers(0, 40), max_size=6))
@example([], [])
@example(FEW_TICKS, [])
@example(NO_CONVERGENCE + WINDOWS, [3, 0, 17])
@example(AT_ONE + WINDOWS[:3], [1])
@example(WINDOWS, [2, 2])
def test_folded_report_matches_the_row_lists(rows, sizes):
    want = summary_json(reference_report(rows, BLOCK))
    assert summary_json(summarize(rows, BLOCK)) == want
    fold, report = _tally(len(split_rows(rows)[1]), BLOCK)
    for chunk in cut(rows, sizes):
        fold(chunk)
    assert summary_json(report()) == want


def test_examples_cover_the_edge_cases():
    # The explicit examples above reach each case the fold must get right.
    assert reference_report(FEW_TICKS, BLOCK).convergence_time_ms is None
    report = reference_report(NO_CONVERGENCE, BLOCK)
    assert report.convergence_time_ms is None and len(NO_CONVERGENCE) % 2 == 1
    # Over S > 1 from 60 s, held at 1.0, and back under at 150 s; then
    # over from 210 s to 270 s.
    report = reference_report(AT_ONE, BLOCK)
    assert (report.convergence_time_ms, report.overload_recovery_ms) == (30_000, 90_000)
    fold, tally_report = _tally(len(AT_ONE), BLOCK)
    fold(AT_ONE)
    assert '"convergence_time_ms": 30000,' in summary_json(tally_report())
    # The zero-rate window and the windows after a missing forecast add no error.
    assert prediction_error_pairs(WINDOWS) == [50 / 950, (1e300 - 800.0) / 800.0]
