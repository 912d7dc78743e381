"""tools/same_outputs.py on a copy of the sources whose ``_fmt`` differs,
and on the same sources twice.

The whole corpus against the parent commit takes a CI step of its own; here
the tool itself is checked on a few of its runs: a difference in one output
line gives exit 1 and names the run, the file and the line, and the same
sources on both sides give exit 0.
"""

import importlib.util
import logging
import shutil
from pathlib import Path

import pytest

from edgebatch.harness import OUTPUT_FILES

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

RUNS = ["preset-exp1", "random-0", "random-1"]
# _fmt's rule for an integer-valued float: "400" for 400.0.
INTEGER_FLOAT = "        if value.is_integer():\n            return str(int(value))\n"


def fmt_changed(tmp_path) -> Path:
    """A copy of src/ whose _fmt writes 400.0 as "400.0"."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = tmp_path / "src" / "edgebatch" / "harness.py"
    text = harness.read_text()
    assert text.count(INTEGER_FLOAT) == 1
    harness.write_text(text.replace(INTEGER_FLOAT, ""))
    return tmp_path / "src"


def test_a_changed_fmt_exits_1_and_names_the_first_line(tmp_path, capsys):
    assert same_outputs.compare(fmt_changed(tmp_path), ROOT / "src", RUNS) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "differs preset-exp1: metrics.csv line 2: parent '" in lines[0]
    assert lines[-1] == "3 of 3 runs differ"


def test_the_same_sources_exit_0(capsys):
    assert same_outputs.compare(ROOT / "src", ROOT / "src", RUNS) == 0
    assert capsys.readouterr().out == "0 of 3 runs differ\n"


def test_a_moved_run_is_reported_and_does_not_fail(tmp_path, capsys):
    assert same_outputs.compare(fmt_changed(tmp_path), ROOT / "src", RUNS[:1],
                                moved=tuple(RUNS[:1])) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("moved preset-exp1: metrics.csv line 2: ")
    assert lines[-1] == "0 of 1 runs differ"


def test_the_random_configs_cover_overload_jitter_and_instant_jobs():
    configs = [cfg for cfg, _ in same_outputs.random_configs()]
    fixed = [float(cfg["cost.fixed_overhead"]) for cfg in configs]
    assert any(cfg["engine.mode"] == "vanilla" and f > int(cfg["engine.initial_interval"])
               for cfg, f in zip(configs, fixed))  # each batch outlasts its interval
    assert any("engine.jitter" in cfg for cfg in configs)
    assert any(f == 0 for f in fixed)
    assert {cfg["trace.kind"] for cfg in configs} == {"constant", "step", "sinusoid", "csv"}
    assert len(same_outputs.corpus_names()) == 10 + 6 + 2 + same_outputs.RANDOM_RUNS


@pytest.mark.parametrize("name, reason", [("grey-singular", "singular"),
                                          ("grey-overflow", "math range error")])
def test_the_grey_runs_take_the_trackers_fallbacks(tmp_path, caplog, name, reason):
    with caplog.at_level(logging.DEBUG, logger="edgebatch.tracker"):
        digests = same_outputs.run_corpus(ROOT / "src", tmp_path, [name])
    assert sorted(digests[name]) == sorted(OUTPUT_FILES)
    assert any(record.name == "edgebatch.tracker" and reason in record.getMessage()
               for record in caplog.records)


def test_the_first_difference_names_a_line_only_one_side_has(tmp_path):
    (tmp_path / "short").write_text("a\nb\n")
    (tmp_path / "long").write_text("a\nb\nc\n")
    assert same_outputs.first_difference(tmp_path / "short", tmp_path / "long") == \
        "line 3: only the change has it, 'c\\n'"
    assert same_outputs.first_difference(tmp_path / "long", tmp_path / "short") == \
        "line 3: only the parent has it, 'c\\n'"
