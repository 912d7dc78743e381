"""edgebatch benchmark: host time, memory and simulated results of long runs.

    python3 perfbench/run.py --workload day-adaptive-2h --seed 1 --seconds 25 --trace 0

Drives the public harness API in-process, in one process with no threads:
each run loads a generated config (`load_config_file` + `build_run_spec`),
calls `harness.execute` into a scratch directory with stdout captured, and
checks what it wrote. `--trace 0` reports the end-to-end metrics listed in
BENCHMARK.json, `--trace 1` the per-layer ones from separate traced runs.
The program is imported from `src/` of the checkout this file sits in.

Times are reported at reference speed: each timed call is scaled by a fixed
pure-Python loop timed around it (see `bench.py`), because shared machines
change speed by up to 1.8x within minutes. Raw wall times are recorded too.
Tests of the benchmark itself: `python3 -m pytest perfbench/tests`.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable report. A full
record (digest, config, Python version, CPU count, every repeat) is written
to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed repeats run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="simulate a short duration instead of 2 h, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgebatch" / "__init__.py").is_file():
        print(f"error: no edgebatch sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import Bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        bench = Bench(args, scratch)
        values = bench.measure_layers() if args.trace else bench.measure_end_to_end()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if values is None:
        print("error: no run of the workload succeeded", file=sys.stderr)
        return 1

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = bench.failed == 0 and len(bench.digests) == 1
    for line in bench.report(values):
        print(line)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record_path = results / f"{name}.json"
    record_path.write_text(json.dumps(bench.record(values, correct), indent=2) + "\n")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
