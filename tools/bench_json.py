"""Summarise paired benchmark runs of a parent and a change checkout as JSON.

    python3 tools/bench_json.py --parent ../parent --change . --seeds 5101-5110 \
        --out BENCH_label.json

Each checkout's `perfbench/run.py --trace 0` writes one record per workload
and seed to `.perfbench/results/<workload>-seed<N>-trace0.json`. Runs of the
same workload and seed on the two checkouts form a pair. For each workload
with a record for every seed on both sides, and for each end-to-end metric
that the change's BENCHMARK.json declares, the output holds:

- each side's values in seed order, their median and quartiles;
- the change's median relative to the parent's;
- pair wins: pairs in which the change is better, in the metric's declared
  direction (ties count for neither side), out of all pairs;
- the parent's quartile distance, which a gain in the median must exceed;
- the metric's regression `bound` from BENCHMARK.json, and two verdicts:
  `within_bound`, the change's median is no worse than the parent's by more
  than `bound` times the parent's median; `gain_shown`, the change won at
  least 9 of every 10 pairs and its median is better than the parent's by
  more than the parent's quartile distance.

Per workload it also gives the seeds, each side's Python version, CPU count,
failed and attempted runs, timed repeats per seed, and the output sha256 of
every seed, with a flag that says whether both sides wrote one and the same
output for every seed.
Standard library only; it reads the records and runs nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'5101-5110' or '1,2,7' or a mix: '1-3,9'."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load_records(checkout: Path, workload: str, seeds: list[int]) -> list[dict] | None:
    """The trace-0 records of workload for every seed, or None if one is missing."""
    paths = [checkout / ".perfbench" / "results" / f"{workload}-seed{s}-trace0.json"
             for s in seeds]
    if not all(p.is_file() for p in paths):
        return None
    return [json.loads(p.read_text()) for p in paths]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarise_metric(parent: list[float], change: list[float], better: str,
                     bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    before, after = spread(parent), spread(change)
    distance = before["q3"] - before["q1"]
    gain = sign * (after["median"] - before["median"])  # > 0: the change is better
    return {
        "better": better,
        "parent": before,
        "change": after,
        "median_change": after["median"] / before["median"] - 1.0 if before["median"] else None,
        "pair_wins": wins,
        "pair_losses": losses,
        "pairs": len(parent),
        "parent_quartile_distance": distance,
        "bound": bound,
        "within_bound": -gain <= bound * abs(before["median"]),
        "gain_shown": 10 * wins >= 9 * len(parent) and gain > distance,
    }


def side_info(records: list[dict]) -> dict:
    return {
        "python": sorted({r["python"] for r in records}),
        "nproc": sorted({r["nproc"] for r in records}),
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "timed_repeats": [len(r["run_times_s"]) for r in records],
    }


def summarise_workload(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    sha = [{"seed": p["seed"], "parent": p["output_sha256"], "change": c["output_sha256"]}
           for p, c in zip(parent, change)]
    return {
        "seeds": [r["seed"] for r in parent],
        "parent_run": side_info(parent),
        "change_run": side_info(change),
        "outputs_identical": all(s["parent"] == s["change"] and len(s["parent"]) == 1
                                 for s in sha),
        "output_sha256": sha,
        "metrics": {
            m["name"]: {"unit": m["unit"],
                        **summarise_metric([r["values"][m["name"]] for r in parent],
                                           [r["values"][m["name"]] for r in change],
                                           m["better"], m["bound"])}
            for m in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds run on both sides, e.g. 5101-5110")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = {}
    for w in declared["workloads"]:
        parent = load_records(args.parent, w["name"], args.seeds)
        change = load_records(args.change, w["name"], args.seeds)
        if parent is None or change is None:
            print(f"skipping {w['name']}: not every seed has a record on both sides",
                  file=sys.stderr)
            continue
        workloads[w["name"]] = summarise_workload(parent, change, declared["end_to_end"])
    if not workloads:
        print("error: no workload has records for every seed on both sides", file=sys.stderr)
        return 1
    report = {
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
