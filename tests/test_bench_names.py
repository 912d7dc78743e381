"""The program names that perfbench/tracing.py patches still exist.

The benchmark times its layers by swapping each attribute that its
``LAYER_BOUNDARIES`` names, read as ``vars(owner)[attr]``, and its trace
proxy copies ``kind`` from the trace it wraps. A deleted name fails here,
with the name in the error, and not only in a traced benchmark run. The
test reads the benchmark's own list, so it follows any change to it.
"""

import importlib.util
from pathlib import Path

from edgebatch.traces import RateFunction

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def test_the_benchmark_patches_every_name_it_times():
    with tracing.Tracer().installed():
        pass
    assert hasattr(RateFunction, "kind")  # TimedTrace copies inner.kind
