"""tools/bench_json.py on hand-made benchmark records."""

import importlib.util
import json
from pathlib import Path

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
