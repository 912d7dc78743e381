"""tools/mutants.py on one real mutant, planted faulty entries and a stale one.

The whole table takes a CI step of its own; here the tool itself is checked:
a mutant the tests kill passes, and a survivor, an entry whose tests fail
before the edit, or an old text that is not in its file gives exit 1.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

MONITOR = next(m for m in mutants.MUTANTS if m.name == "monitor-keeps-count")
# An edit of a comment, which no test can tell from the program.
PLANTED = mutants.Mutant(
    "planted-survivor", "changes a comment only", "src/edgebatch/workload.py",
    "# samples since the last update, a left fold", "# a comment no test reads",
    ("tests/test_workload.py",))
# This test reads README.md, which the copy does not hold, so it fails
# (pytest exit 1) with or without the edit and can kill nothing.
FAILS_UNMUTATED = PLANTED._replace(
    name="fails-unmutated",
    tests=("tests/test_harness.py::test_readme_defaults_are_the_config_defaults",))
STALE = PLANTED._replace(name="stale", old="text that is in no file")


def test_a_killed_mutant_passes_and_a_survivor_exits_1(capsys):
    assert mutants.main((MONITOR, PLANTED)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [
        ["killed", "monitor-keeps-count:"], ["survived", "planted-survivor:"]]
    assert lines[2] == "1 of 2 mutants not killed"


def test_tests_that_fail_unmutated_exit_1(capsys):
    assert mutants.main((FAILS_UNMUTATED,)) == 1
    assert capsys.readouterr().out.startswith("error: tests fail unmutated, pytest exit 1: ")


def test_a_stale_old_text_exits_1(capsys):
    assert mutants.main((STALE,)) == 1
    assert capsys.readouterr().out.startswith(
        "stale: the old text occurs 0 times in src/edgebatch/workload.py")
