"""tools/bench_json.py on hand-made benchmark records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_json", ROOT / "tools" / "bench_json.py")
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def write_records(checkout, workload, run_s, sha="ab"):
    results = checkout / ".perfbench" / "results"
    results.mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for seed, t in enumerate(run_s, start=1):
        record = {"seed": seed, "python": "3.11.7", "nproc": 2, "correct": True,
                  "attempted": 4, "failed": 0, "output_sha256": [sha],
                  "run_times_s": [t] * 3,
                  "values": {name: t for name in names} | {"blocks_per_s": 1.0 / t}}
        (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_pairs_quartiles_and_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_records(parent, "day-adaptive-2h", [1.0, 2.0, 3.0, 4.0, 5.0])
    write_records(change, "day-adaptive-2h", [0.5, 1.0, 3.0, 5.0, 2.0])
    out = tmp_path / "bench.json"
    assert bench_json.main(["--parent", str(parent), "--change", str(change),
                            "--seeds", "1-3,4,5", "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["day-adaptive-2h"]
    assert w["seeds"] == [1, 2, 3, 4, 5]
    assert w["outputs_identical"] is True
    assert w["change_run"]["timed_repeats"] == [3] * 5
    run_s = w["metrics"]["run_s"]
    assert run_s["parent"]["median"] == 3.0
    assert (run_s["parent"]["q1"], run_s["parent"]["q3"]) == (2.0, 4.0)
    assert run_s["parent_quartile_distance"] == 2.0
    # Lower is better: seeds 1, 2 and 5 win, 3 ties, 4 loses.
    assert (run_s["pair_wins"], run_s["pair_losses"], run_s["pairs"]) == (3, 1, 5)
    # Higher is better for blocks_per_s, so the same pairs win.
    assert w["metrics"]["blocks_per_s"]["pair_wins"] == 3
    # Bounds come from BENCHMARK.json. The median fell by 1.0, which is no
    # more than the parent's quartile distance, and 3 of 5 pairs won.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {name: m["bound"] for name, m in w["metrics"].items()} == {
        m["name"]: m["bound"] for m in declared}
    assert run_s["within_bound"] is True
    assert run_s["gain_shown"] is False


TEN = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]  # median 5.5, quartiles 3.25, 7.75


@pytest.mark.parametrize("better, change, bound, within, gain", [
    # Every pair won and the median fell by 5.5 - 0.55 > 4.5: a gain.
    ("lower", [v / 10 for v in TEN], 0.25, True, True),
    # 9 of 10 pairs won (the last ties) and the median fell by 5: a gain.
    ("lower", [0.4, 0.8, 1.2, 1.6, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0], 0.25, True, True),
    # Only 8 of 10 pairs won, though the median fell by 4.9: no gain.
    ("lower", [0.4, 0.8, 1.2, 1.6, 0.0, 0.0, 0.0, 0.0, 9.5, 10.5], 0.25, True, False),
    # Every pair won by 1, which is less than the quartile distance: no gain.
    ("lower", [v - 1.0 for v in TEN], 0.25, True, False),
    # The median rose by 1.375 = 0.25 * 5.5, exactly the bound: within it.
    ("lower", [v + 1.375 for v in TEN], 0.25, True, False),
    # The median rose by 1.5 > 0.25 * 5.5: beyond the bound.
    ("lower", [v + 1.5 for v in TEN], 0.25, False, False),
    # Higher is better: a fall of 0.5 is within 0.1 * 5.5, a fall of 0.6 is not.
    ("higher", [v - 0.5 for v in TEN], 0.1, True, False),
    ("higher", [v - 0.6 for v in TEN], 0.1, False, False),
    ("higher", [v * 10 for v in TEN], 0.1, True, True),
])
def test_verdicts_against_bound_and_quartiles(better, change, bound, within, gain):
    m = bench_json.summarise_metric(TEN, change, better, bound)
    assert m["parent_quartile_distance"] == 4.5
    assert m["bound"] == bound
    assert (m["within_bound"], m["gain_shown"]) == (within, gain)


def test_missing_seed_skips_the_workload(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_records(parent, "sine-fine-2h", [1.0, 2.0])
    write_records(change, "sine-fine-2h", [1.0, 2.0], sha="cd")
    out = tmp_path / "bench.json"
    assert bench_json.main(["--parent", str(parent), "--change", str(change),
                            "--seeds", "1-3", "--out", str(out)]) == 1
    assert not out.exists()
    assert bench_json.main(["--parent", str(parent), "--change", str(change),
                            "--seeds", "1-2", "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]
    assert list(w) == ["sine-fine-2h"]
    assert w["sine-fine-2h"]["outputs_identical"] is False
