"""Set-up, checked repeats and metric reduction for one benchmark run."""

from __future__ import annotations

import contextlib
import heapq
import io
import os
import platform
import shutil
import statistics
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from edgebatch import harness

MIN_REPEATS = 3  # timed repeats per run, however short --seconds is
SETUPS_PER_REPEAT = 20  # set-ups timed before each repeat, next to it in time

# Reference-speed normalisation. On a 2-vCPU Xeon VM that shares its cores,
# the speed of pure-Python code drifted by up to 1.8x within minutes. A fixed
# pure-Python loop, timed before and after each timed call, slows down with
# it, so every reported time is the call's wall time times LOOP_REFERENCE_S
# over the mean of the two loop times: seconds at the speed the loop has on
# an uncontended core. Over ten 25 s runs per workload there, the medians of
# raw wall times spread 16-32% (quartile distance over median) and the
# normalised medians 4-5.5%. Raw wall times are kept in the record.
LOOP_ITERATIONS = 40_000
LOOP_REFERENCE_S = 0.082  # uncontended, 2.1 GHz Xeon, CPython 3.11.7


class Bench:
    """One workload and seed: set-up, checked repeats, metric reduction."""

    def __init__(self, args, scratch: Path):
        self.args = args
        self.scratch = scratch
        duration = workloads.SMOKE_DURATION_MS if args.smoke else workloads.DURATION_MS
        self.config = workloads.config_text(args.workload, args.seed, duration)
        self.config_path = scratch / "workload.conf"
        self.config_path.write_text(self.config)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.reference = None  # (Outputs, MetricsLog) of the first good run
        self.run_times: list[float] = []  # all at reference speed
        self.traced_times: list[float] = []
        self.setup_times: list[float] = []
        self.wall_times: list[float] = []  # unscaled, of every timed repeat
        self.spec = self.set_up()
        self.blocks = self.spec.engine.duration // self.spec.engine.block_interval

    def set_up(self) -> harness.RunSpec:
        """Config parse, trace load and spec build: what setup_s times."""
        cfg = harness.load_config_file(self.config_path)
        return harness.build_run_spec(cfg, base_dir=self.config_path.parent)

    def run(self, execute):
        """One checked call of execute(spec, out_dir).

        Returns (wall seconds, execute's result), or None if the call raised or
        its outputs failed a check; failures are counted and reported.
        """
        self.attempted += 1
        out = self.scratch / f"out-{self.attempted}"
        logs: list = []
        try:
            with tracing.capture_logs(logs), contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                result = execute(self.spec, out)
                elapsed = perf_counter() - start
            outputs = workloads.read_outputs(out)
            if len(logs) == 1:
                problems = workloads.check_outputs(outputs, logs[0], self.spec)
            else:
                problems = [f"expected one engine run, saw {len(logs)}"]
        except Exception:  # a failing run is counted and reported, and the benchmark goes on
            problems = [traceback.format_exc()]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                print(f"check failed (run {self.attempted}): {p}", file=sys.stderr)
            return None
        self.digests.add(outputs.digest)
        if self.reference is None:
            self.reference = (outputs, logs[0])
        return elapsed, result

    def timed_repeats(self, *executes) -> list[list[tuple[float, float, object]]]:
        """Run executes in turn until --seconds have passed and each has run
        MIN_REPEATS times, each after SETUPS_PER_REPEAT timed set-ups.

        Returns, per execute, (seconds at reference speed, scale, result) of
        each good repeat; set-up times go to self.setup_times.
        """
        repeats: list[list] = [[] for _ in executes]
        deadline = perf_counter() + self.args.seconds
        loop_before = reference_loop_s()
        rounds = 0
        while rounds < MIN_REPEATS or perf_counter() < deadline:
            rounds += 1
            for execute, done in zip(executes, repeats):
                setups = []
                for _ in range(SETUPS_PER_REPEAT):
                    start = perf_counter()
                    self.set_up()
                    setups.append(perf_counter() - start)
                self.setup_times += [t * LOOP_REFERENCE_S / loop_before for t in setups]
                result = self.run(execute)
                loop_after = reference_loop_s()
                scale = LOOP_REFERENCE_S / ((loop_before + loop_after) / 2)
                loop_before = loop_after
                if result is not None:
                    self.wall_times.append(result[0])
                    done.append((result[0] * scale, scale, result[1]))
        return repeats

    def measure_end_to_end(self) -> dict[str, float] | None:
        # Untimed pass, which also warms up: tracemalloc slows the run about 7x.
        peak = self.run(execute_tracing_memory)
        (repeats,) = self.timed_repeats(harness.execute)
        self.run_times = [r[0] for r in repeats]
        if not self.run_times or peak is None:
            return None
        run_s = statistics.median(self.run_times)
        return {
            "run_s": run_s,
            "blocks_per_s": self.blocks / run_s,
            "wall_run_s": statistics.median(self.wall_times),
            "setup_s": statistics.median(self.setup_times),
            "peak_mem_mb": peak[1] / 1e6,
            **workloads.simulated_metrics(*self.reference),
        }

    def measure_layers(self) -> dict[str, float] | None:
        """Alternate untraced and traced repeats; per-layer medians."""
        def traced_execute(spec, out_dir):
            tracer = tracing.Tracer()
            with tracer.installed():
                tracer.execute(spec, out_dir)
            return tracer

        self.run(harness.execute)  # warm-up, checked but not timed
        untraced, traced = self.timed_repeats(harness.execute, traced_execute)
        if not untraced or not traced:
            return None
        self.run_times = [r[0] for r in untraced]
        self.traced_times = [r[0] for r in traced]
        samples = [self.layer_values(tracer, scale) for _, scale, tracer in traced]
        values = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
        # Each traced repeat directly follows an untraced one; pairing them
        # cancels most of the drift in machine speed.
        values["bench.trace_overhead_s"] = statistics.median(
            t - u for u, t in zip(self.run_times, self.traced_times))
        return values

    def layer_values(self, tracer: tracing.Tracer, scale: float) -> dict[str, float]:
        """Per-span counts and self times (at reference speed) of one traced run."""
        calls = tracer.calls
        self_s = {name: t * scale for name, t in tracer.self_s.items()}
        values = {}
        for name in tracing.SPAN_NAMES:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s.get(name, 0.0)
        traced_s = sum(self_s.values())
        values.update({
            "bench.traced_run_s": traced_s,
            "bench.attributed_share": 1.0 - self_s[tracing.ROOT_SPAN] / traced_s,
            "engine.self_us_per_block": self_s["engine.run"] / self.blocks * 1e6,
            "tracker.forecasts_per_fit": _ratio(calls["tracker.predict_rate"], calls["grey.fit"]),
            "workload.samples_per_tick": _ratio(calls["workload.on_batch_completed"],
                                                calls["workload.update_estimate"]),
        })
        return values

    def report(self, values: dict[str, float]) -> list[str]:
        """Readable lines: every value, and each span's share when traced."""
        lines = [f"workload {self.args.workload}, seed {self.args.seed}, {self.blocks} blocks"]
        if self.args.trace:
            traced_s = values["bench.traced_run_s"]
            for name in tracing.SPAN_NAMES:
                s = values[f"{name}.self_s"]
                lines.append(f"  {name:28s} {values[f'{name}.calls']:>8.0f} calls "
                             f"{s:9.4f} s self {s / traced_s:6.1%}")
        lines += [f"{key} = {value:.6g}" for key, value in values.items()
                  if not (self.args.trace and key.endswith((".calls", ".self_s")))]
        lines.append(f"fail_ratio = {self.failed / self.attempted:.4g} "
                     f"({self.failed} of {self.attempted} runs failed a check)")
        lines.append(f"outputs sha256 = {' '.join(sorted(self.digests))}")
        return lines

    def record(self, values: dict[str, float], correct: bool) -> dict:
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "smoke": self.args.smoke,
            "config": self.config,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "output_sha256": sorted(self.digests),
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "setup_times_s": self.setup_times,
            "run_times_s": self.run_times,
            "traced_run_times_s": self.traced_times,
            "wall_times_s": self.wall_times,
            "values": values,
        }


class _Item:
    __slots__ = ("t", "n")

    def __init__(self, t: float, n: int):
        self.t = t
        self.n = n

    def cost(self, fixed: float, per: float) -> float:
        return fixed + per * self.n


def reference_loop_s() -> float:
    """Wall time of a fixed loop doing the kinds of work the simulator does:
    small objects, method calls, a heap of tuples, float math and dicts."""
    start = perf_counter()
    heap: list = []
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(LOOP_ITERATIONS):
        item = _Item(i * 200.0, i * 7919 % 1009)
        heapq.heappush(heap, (item.cost(1.0, 0.25), i, item))
        if len(heap) > 64:
            heapq.heappop(heap)
        total += max(0.0, min(item.t, 3.0))
        counts[item.n & 1023] = counts.get(item.n & 1023, 0) + 1
    return perf_counter() - start


def execute_tracing_memory(spec: harness.RunSpec, out_dir) -> int:
    """harness.execute under tracemalloc; returns the peak traced bytes."""
    tracemalloc.start()
    try:
        harness.execute(spec, out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
