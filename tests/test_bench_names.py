"""The program names that perfbench/tracing.py patches still exist, and
still run.

The benchmark times its layers by swapping each attribute that its
``LAYER_BOUNDARIES`` names, read as ``vars(owner)[attr]``, and its trace
proxy copies ``kind`` from the trace it wraps. A deleted name fails here,
with the name in the error, and not only in a traced benchmark run. A name
that still exists but that the run no longer calls leaves its span at 0
calls, so a traced run of two benchmark workloads must call every span but
the few known to be dead. The tests read the benchmark's own lists, so they
follow any change to them.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from edgebatch import harness
from edgebatch.traces import RateFunction

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")

# The spans that a traced run leaves at 0 calls, each with the reason.
DEAD_SPANS = {
    "harness.summarize": "harness.execute calls neither summarize nor write_metrics",
    "harness.write_metrics": "harness.execute calls neither summarize nor write_metrics",
    "traces.rate": "only PiecewiseLinearTrace.integral calls rate, on the inner trace",
}


def test_the_benchmark_patches_every_name_it_times():
    with tracing.Tracer().installed():
        pass
    assert hasattr(RateFunction, "kind")  # TimedTrace copies inner.kind


@pytest.mark.parametrize("workload", ["day-adaptive-2h", "sine-fine-2h"])
def test_a_traced_run_calls_every_span_but_the_known_dead_ones(workload, tmp_path):
    text = workloads.config_text(workload, 7, workloads.SMOKE_DURATION_MS)
    spec = harness.build_run_spec(harness.parse_config_text(text))
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        tracer.execute(spec, tmp_path)
    assert {name for name in tracing.SPAN_NAMES if not tracer.calls[name]} == set(DEAD_SPANS)
