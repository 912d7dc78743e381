"""Check that a corpus of runs writes the same outputs as another revision.

    python3 tools/same_outputs.py REV [--moved RUN ...]

The behaviour contract is that every output file stays byte-identical.
This tool extracts `src/` of the git revision REV with `git archive` into a
temporary directory and runs one corpus of runs against it and one against
`src/` of this checkout, each side in a subprocess of its own that imports
only that side's sources. It compares the sha256 of every output file of
every run. The corpus:

- the 5 presets, with prediction on and off;
- the 3 benchmark workloads of `perfbench/workloads.py`, at seeds 7 and 31,
  at full length;
- the 2 runs of `GREY_RUNS`, which take the tracker's two fallbacks: a
  window series whose GM(1,1) normal equations are singular (`FitError`),
  and one whose forecast overflows `math.exp`;
- `RANDOM_RUNS` seeded random configs drawn from the ranges of
  `tests/test_engine_properties.py`' strategies: both modes, every trace
  kind, jitter on and off, prediction on and off, zero and whole-block
  costs, and windows and control periods unlike each other. Vanilla runs
  whose fixed cost exceeds their interval overload the worker.

A run that raises is compared by its exception's type and message. It
prints one line per run that differs, naming the file and its first line
that differs with both sides' text, and exits 1 if any run differs; it
exits 0 if none does. A change that means to move outputs names each run
it moves with `--moved`: such a run is reported and does not fail the
check. The tool exits 2 if REV cannot be extracted, a `--moved` name is not
in the corpus, or a side's corpus fails to run.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("exp1", "exp2", "exp3", "day", "day-vanilla")
WORKLOAD_SEEDS = (7, 31)
RANDOM_RUNS = 300
RANDOM_SEED = 14
TIMEOUT_S = 900

# Runs that reach neither preset nor random config: (config, CSV trace text
# or None), by name. In grey-singular the window rates [1e9, 5, 10, 5, 5]
# leave the normal equations singular with a tail that is not flat, so the
# fit on closing window 4 raises FitError. In grey-overflow 399 empty 200 ms
# windows and then 1e5 records/s forecast past math.exp's range.
GREY_RUNS: dict[str, tuple[dict[str, str], str | None]] = {
    "grey-singular": ({
        "engine.mode": "adaptive", "engine.duration": "180000",
        "engine.initial_interval": "2000", "controller.min_interval": "400",
        "controller.max_interval": "6000", "cost.fixed_overhead": "1000",
        "cost.per_record": "0.25", "cost.per_block": "8", "trace.kind": "csv",
        "trace.file": "trace.csv", "trace.mode": "count",
    }, "timestamp_s,value\n0,30000000000\n30,150\n60,300\n90,150\n120,150\n150,150\n"),
    "grey-overflow": ({
        "engine.duration": "120000", "engine.initial_interval": "1000",
        "engine.control_start": "0", "controller.min_interval": "400",
        "controller.max_interval": "6000", "tracker.resample_interval": "200",
        "tracker.train_num": "400", "cost.fixed_overhead": "100", "cost.per_record": "0.1",
        "cost.per_block": "1", "trace.kind": "step", "trace.before": "0",
        "trace.after": "100000", "trace.switch": "79800",
    }, None),
}


def random_config(rng: random.Random) -> tuple[dict[str, str], str | None]:
    """A valid run config, as config-file values, and the CSV text of its
    trace file, or None for a trace given by its keys."""
    block = rng.choice([100, 200, 250])
    if rng.random() < 0.5:
        duration = rng.randint(block, 90_000)
    else:
        duration = rng.randint(1, 90_000 // block) * block  # ends on a block boundary
    min_blocks = rng.randint(1, 10)
    max_blocks = rng.randint(min_blocks, 30)
    mode = rng.choice(["adaptive", "vanilla"])
    if mode == "adaptive":
        initial_blocks = rng.randint(min_blocks, max_blocks)
    else:
        initial_blocks = rng.randint(1, 30)
    control_period = (1 if rng.random() < 0.2 else rng.randint(1, 40)) * rng.choice([block, 333])

    def rate(zero_too: bool = False) -> float:
        return 0.0 if zero_too and rng.random() < 0.2 else float(rng.randint(0, 5000))

    cfg = {
        "engine.mode": mode,
        "engine.duration": duration,
        "engine.initial_interval": initial_blocks * block,
        "engine.block_interval": block,
        "engine.control_start": rng.randint(0, 40_000),
        "engine.seed": rng.randint(0, 2**32),
        "controller.min_interval": min_blocks * block,
        "controller.max_interval": max_blocks * block,
        "controller.control_period": control_period,
        "controller.prediction": rng.choice(["on", "off"]),
        "tracker.resample_interval": rng.randint(1, 50) * block,
        "tracker.train_num": rng.randint(4, 8),
    }
    if rng.random() < 0.5:
        cfg["engine.jitter"] = rng.uniform(0.01, 0.9)
    cost = rng.choice(["any", "zero", "blocks", "periods"])
    if cost == "any":
        fixed = rng.choice([float(rng.randint(0, 2000)), rng.uniform(0.0, 2000.0),
                            199.99999999999994, 200.0])
        per_record, per_block = rng.choice([0.0, 0.25, 1.0, 2.0]), rng.choice([0.0, 8.0, 100.0])
    elif cost == "zero":
        fixed = per_record = per_block = 0.0  # every job completes as it starts
    else:
        unit = float(block if cost == "blocks" else control_period)
        fixed = (0 if rng.random() < 0.3 else rng.randint(1, 10)) * unit
        per_record, per_block = 0.0, rng.choice([0.0, unit, 2 * unit])
    cfg.update({"cost.fixed_overhead": fixed, "cost.per_record": per_record,
                "cost.per_block": per_block})
    kind = rng.choice(["constant", "step", "sinusoid", "csv-count", "csv-rate", "on-off"])
    text = None
    if kind == "constant":
        cfg.update({"trace.kind": "constant", "trace.rate": rate()})
    elif kind == "step":
        cfg.update({"trace.kind": "step", "trace.before": rate(True), "trace.after": rate(True),
                    "trace.switch": rng.randint(0, duration)})
    elif kind == "sinusoid":
        base = rate()
        cfg.update({"trace.kind": "sinusoid", "trace.base": base,
                    "trace.amplitude": rng.uniform(0.0, base),
                    "trace.period": rng.randint(1_000, 200_000)})
    else:
        rows, t = [], rng.randint(-30, 30)
        on_off = kind == "on-off"  # bursts between silences
        for i in range(rng.randint(2, 12)):
            rows.append((t, 0.0 if on_off and i % 2 else rate(not on_off)))
            t += rng.randint(1, 20 if on_off else 120)
        text = "timestamp_s,value\n" + "".join(f"{t},{v!r}\n" for t, v in rows)
        cfg.update({"trace.kind": "csv", "trace.file": "trace.csv",
                    "trace.mode": "rate" if kind == "csv-rate" else "count"})
        if not on_off:
            cfg.update({"trace.time_scale": rng.choice(["1", "1/6", "1/60", "0.37"]),
                        "trace.rate_scale": rng.choice(["1", "6", "21.6"])})
    return {key: value if isinstance(value, str) else repr(value)
            for key, value in cfg.items()}, text


def corpus_names() -> list[str]:
    """Every run of the corpus, by name, in the order it runs. The workloads
    are those BENCHMARK.json declares, so that no edgebatch is imported."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    names = [f"preset-{name}{suffix}" for name in PRESETS for suffix in ("", "-no-prediction")]
    names += [f"{w['name']}-seed{seed}" for w in declared for seed in WORKLOAD_SEEDS]
    return names + list(GREY_RUNS) + [f"random-{k}" for k in range(RANDOM_RUNS)]


def random_configs() -> list[tuple[dict[str, str], str | None]]:
    rng = random.Random(RANDOM_SEED)
    return [random_config(rng) for _ in range(RANDOM_RUNS)]


def _workloads():
    """perfbench/workloads.py, loaded by its path. Its dataclass looks its
    module up in sys.modules, so the module is entered there first."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_corpus(src: Path, out: Path, names: list[str]) -> dict[str, dict[str, str] | str]:
    """Run each named run of the corpus into out/runs/<name>, with the
    edgebatch of src. Returns each run's output sha256 by file name, or its
    exception as text."""
    from edgebatch import harness  # through PYTHONPATH, which run_side sets

    if Path(harness.__file__).resolve().parents[1] != src.resolve():
        raise ImportError(f"imported edgebatch from {harness.__file__}, not from {src}")
    workloads = _workloads()
    randoms = random_configs()
    digests: dict[str, dict[str, str] | str] = {}
    for name in names:
        run_dir = out / "runs" / name
        try:
            if name.startswith("preset-"):
                preset = name.removeprefix("preset-").removesuffix("-no-prediction")
                spec = harness.load_preset(
                    preset, disable_prediction=name.endswith("-no-prediction"))
            elif name in GREY_RUNS or name.startswith("random-"):
                cfg, text = GREY_RUNS.get(name) or randoms[int(name.removeprefix("random-"))]
                base = out / "traces" / name
                if text is not None:
                    base.mkdir(parents=True)
                    (base / "trace.csv").write_text(text)
                spec = harness.build_run_spec(cfg, base_dir=base)
            else:
                workload, _, seed = name.rpartition("-seed")
                cfg = harness.parse_config_text(workloads.config_text(workload, int(seed)))
                spec = harness.build_run_spec(cfg)
            with contextlib.redirect_stdout(io.StringIO()):
                harness.execute(spec, run_dir)
        except Exception as exc:  # compared with the other side's as text
            digests[name] = f"{type(exc).__name__}: {exc}"
            continue
        digests[name] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in sorted(run_dir.iterdir())}
    return digests


def run_side(src: Path, out: Path, names: list[str]) -> dict | None:
    """run_corpus in a subprocess that imports edgebatch from src; None if
    it fails, with its stderr printed."""
    src = src.resolve()  # the worker runs in out
    out.mkdir(parents=True)
    (out / "names.json").write_text(json.dumps(names))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src), str(out)]
    try:
        result = subprocess.run(command, cwd=out, env=env, capture_output=True, text=True,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the corpus against {src} ran past {TIMEOUT_S} s", file=sys.stderr)
        return None
    if result.returncode != 0:
        print(f"error: the corpus against {src} failed:\n{result.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads((out / "digests.json").read_text())


def first_difference(parent: Path, change: Path) -> str:
    """Where two files first differ: the line number and both lines."""
    if not parent.is_file() or not change.is_file():
        return "only in the " + ("change" if change.is_file() else "parent")
    old = parent.read_text(encoding="utf-8").splitlines(keepends=True)
    new = change.read_text(encoding="utf-8").splitlines(keepends=True)
    for n, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"line {n}: parent {a!r}, change {b!r}"
    n = min(len(old), len(new)) + 1
    side, lines = ("parent", old) if len(old) > len(new) else ("change", new)
    return f"line {n}: only the {side} has it, {lines[n - 1]!r}"


def compare(parent_src: Path, change_src: Path, names: list[str] | None = None,
            moved: tuple[str, ...] = ()) -> int:
    """Run the named runs (by default the whole corpus) against both trees
    of sources and report every difference; the exit code."""
    names = corpus_names() if names is None else names
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        sides = [run_side(src, work / side, names)
                 for side, src in (("parent", parent_src), ("change", change_src))]
        if None in sides:
            return 2
        parent, change = sides
        differ = 0
        for name in names:
            if parent[name] == change[name]:
                if name in moved:
                    print(f"unmoved {name}: named as moved, but its outputs are the same")
                continue
            verdict = "moved" if name in moved else "differs"
            differ += name not in moved
            if isinstance(parent[name], str) or isinstance(change[name], str):
                print(f"{verdict} {name}: parent {parent[name]!r}, change {change[name]!r}")
                continue
            for file in sorted(set(parent[name]) | set(change[name])):
                if parent[name].get(file) != change[name].get(file):
                    where = first_difference(work / "parent" / "runs" / name / file,
                                             work / "change" / "runs" / name / file)
                    print(f"{verdict} {name}: {file} {where}")
    print(f"{differ} of {len(names)} runs differ")
    return 1 if differ else 0


def extract_src(rev: str, into: Path) -> Path | None:
    """src/ of git revision rev, extracted into into; None if git fails."""
    result = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                            capture_output=True)
    if result.returncode != 0:
        print(f"error: cannot extract src/ of {rev}: {result.stderr.decode().strip()}",
              file=sys.stderr)
        return None
    with tarfile.open(fileobj=io.BytesIO(result.stdout)) as archive:
        # The "data" filter, where this Python has it, refuses paths outside into.
        extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(into, **extra)
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", help="the git revision to compare with")
    parser.add_argument("--moved", action="append", default=[], metavar="RUN",
                        help="a run whose outputs this change means to move")
    # One side's corpus, in its own process: its sources and its outputs.
    parser.add_argument("--worker", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        src, out = args.worker
        digests = run_corpus(src, out, json.loads((out / "names.json").read_text()))
        (out / "digests.json").write_text(json.dumps(digests))
        return 0
    if args.rev is None:
        parser.error("expected a revision")
    unknown = sorted(set(args.moved) - set(corpus_names()))
    if unknown:
        print(f"error: no run of the corpus is named {', '.join(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-outputs-rev-") as tmp:
        parent_src = extract_src(args.rev, Path(tmp))
        if parent_src is None:
            return 2
        return compare(parent_src, ROOT / "src", moved=tuple(args.moved))


if __name__ == "__main__":
    sys.exit(main())
