"""Outside-in per-layer timing for edgebatch.

Spans are recorded around calls into the program's public functions by
swapping module and class attributes for timing wrappers, and around the
trace by a proxy rate function. Nothing in the program is changed on disk;
every swapped attribute is put back when the `installed()` block exits.

Each span's self time is its duration minus the time covered by the spans
it called, so the self times of all spans add up to the root span.

Which end-to-end metric each layer should move, and where:
- traces.*: run_s and blocks_per_s on day-adaptive-2h and day-vanilla-2h
  (about two thirds of traced time); no change on sine-fine-2h (about 3%).
- engine.run self time: run_s mostly on sine-fine-2h.
- fuzzy.*, grey.*, tracker.*, workload.*: run_s on sine-fine-2h (3,600
  control ticks and model fits); no change on the day workloads.
- harness.summarize, harness.write_metrics: run_s and peak_mem_mb, most on
  day-vanilla-2h (most batches and output rows).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Callable, Iterator

from edgebatch import engine, fuzzy, grey, harness, tracker, workload
from edgebatch.traces import RateFunction

# (owner, attribute, span name) for every layer boundary timed from outside.
LAYER_BOUNDARIES = (
    (engine.MicrobatchEngine, "run", "engine.run"),
    (fuzzy.FuzzyController, "control_step", "fuzzy.control_step"),
    (grey, "fit", "grey.fit"),
    (grey, "predict", "grey.predict"),
    (tracker.TrafficTracker, "report_info", "tracker.report_info"),
    (tracker.TrafficTracker, "close_windows_upto", "tracker.close_windows_upto"),
    (tracker.TrafficTracker, "predict_rate", "tracker.predict_rate"),
    (workload.WorkloadMonitor, "on_batch_completed", "workload.on_batch_completed"),
    (workload.WorkloadMonitor, "update_estimate", "workload.update_estimate"),
    (harness, "summarize", "harness.summarize"),
    (harness, "write_metrics", "harness.write_metrics"),
)

ROOT_SPAN = "harness.execute"
SPAN_NAMES = (ROOT_SPAN, "traces.integral", "traces.rate",
              *(name for _, _, name in LAYER_BOUNDARIES))


@contextmanager
def patched(owner, attr: str, make_wrapper: Callable) -> Iterator[None]:
    """Replace owner.attr by make_wrapper(original) for the block's duration."""
    original = vars(owner)[attr]
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def capture_logs(logs: list) -> Iterator[None]:
    """Append the MetricsLog of every engine run inside the block to logs."""
    def make_wrapper(run):
        def capturing_run(self):
            log = run(self)
            logs.append(log)
            return log
        return capturing_run

    with patched(engine.MicrobatchEngine, "run", make_wrapper):
        yield


class Tracer:
    """Accumulates call counts and self time per span name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self._child_s: list[float] = []  # time spent in children, per open span

    def wrap(self, name: str, fn: Callable) -> Callable:
        calls, self_s, child_s = self.calls, self.self_s, self._child_s

        def timed(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[name] += duration - child_s.pop()
                calls[name] += 1
                if child_s:
                    child_s[-1] += duration

        return timed

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Time every layer boundary in LAYER_BOUNDARIES inside the block."""
        with ExitStack() as stack:
            for owner, attr, name in LAYER_BOUNDARIES:
                stack.enter_context(
                    patched(owner, attr, lambda fn, name=name: self.wrap(name, fn)))
            yield

    def execute(self, spec: harness.RunSpec, out_dir) -> harness.SummaryReport:
        """harness.execute as the root span, with the trace proxied."""
        traced = dataclasses.replace(spec, trace=TimedTrace(spec.trace, self))
        return self.wrap(ROOT_SPAN, harness.execute)(traced, out_dir)


class TimedTrace(RateFunction):
    """Rate-function proxy that records spans around the wrapped trace."""

    def __init__(self, inner: RateFunction, tracer: Tracer):
        self.kind = inner.kind
        self.rate = tracer.wrap("traces.rate", inner.rate)
        self.integral = tracer.wrap("traces.integral", inner.integral)
