"""The package's source names no benchmark workload, metric or file.

Docstrings and comments state contracts; measurements go stale, and they
belong in CHANGES.md. This reads the names from BENCHMARK.json and matches
each as a whole word, so ``build_run_spec`` does not match ``run_s``.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "edgebatch").glob("*.py"))


def benchmark_names() -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    return names + ["perfbench", "BENCHMARK.json"]


NAMES = re.compile("|".join(rf"\b{re.escape(name)}\b" for name in benchmark_names()))


def test_whole_word_match():
    assert NAMES.search("see run_s here") and NAMES.search("tracker.forecasts_per_fit:")
    assert not NAMES.search("build_run_spec(cfg)") and not NAMES.search("peak_mem_mbx")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_names_no_benchmark_term(path):
    found = [f"{path.name}:{lineno}: {match.group()}"
             for lineno, line in enumerate(path.read_text().splitlines(), start=1)
             for match in [NAMES.search(line)] if match]
    assert not found
