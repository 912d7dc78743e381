"""End-to-end acceptance checks for the calibrated experiment presets.

Each criterion is one test; on success it prints a single summary line
with the measured numbers (visible with pytest -s or in captured output).
Preset simulations are shared per module via fixtures, so the whole file
stays fast enough to run on every change.
"""

import dataclasses
import random
import statistics
from itertools import accumulate

import pytest

from edgebatch import fuzzy, grey, harness, traces
from edgebatch.engine import VANILLA

from log_rows import collect, per_block_counts, split_rows
from test_grey import oracle_fit


def run_preset(name, **kw):
    """(spec, log, rows) of the preset's run."""
    spec = harness.load_preset(name, **kw)
    return spec, *collect(spec.engine, spec.trace)


@pytest.fixture(scope="module")
def exp1():
    return run_preset("exp1")


@pytest.fixture(scope="module")
def exp2():
    return run_preset("exp2")


@pytest.fixture(scope="module")
def exp3():
    return run_preset("exp3")


@pytest.fixture(scope="module")
def exp3_nopred():
    return run_preset("exp3", disable_prediction=True)


@pytest.fixture(scope="module")
def day():
    return run_preset("day")


@pytest.fixture(scope="module")
def day_vanilla():
    return run_preset("day-vanilla")


def batch_utilization(cost, block, interval, rate):
    records = rate * interval / 1000.0
    return cost.cost(records, interval // block) / interval


def mean(xs):
    return sum(xs) / len(xs)


def convergence_time(ticks, block_interval):
    """The convergence time summary.json gives for these control rows: the
    harness' own fold over them."""
    fold, report = harness._tally(len(ticks), block_interval)
    fold(ticks)
    return report().convergence_time_ms


# -- criterion 1: forecaster matches an independent least-squares oracle ------


def test_criterion_01_grey_fit_matches_oracle():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(5, 8)
        series = [rng.uniform(0.5, 100.0) for _ in range(n)]
        alpha, mu, *_ = grey.fit(series)
        a_ref, b_ref = oracle_fit(series)
        worst = max(worst,
                    abs(alpha - a_ref) / max(1.0, abs(a_ref)),
                    abs(mu - b_ref) / max(1.0, abs(b_ref)))
    assert worst <= 1e-9, worst

    worst_resid = 0.0
    for q in (1.02, 1.2, 0.9):
        series = [5.0 * q ** k for k in range(6)]
        alpha, mu, *_ = grey.fit(series)
        acc = list(accumulate(series))
        for k in range(1, 6):
            z = (acc[k] + acc[k - 1]) / 2.0
            residual = series[k] + alpha * z - mu
            worst_resid = max(worst_resid, abs(residual) / series[k])
    assert worst_resid <= 1e-9, worst_resid
    print(f"criterion 1: PASS (oracle rel diff <= {worst:.2e}, "
          f"geometric residual <= {worst_resid:.2e})")


# -- criterion 2: offline rolling prediction on the bundled day trace ---------


def test_criterion_02_offline_day_trace_error():
    vals = [v for _, v in traces.load_trace_rows(traces.day_trace_path())]
    errs = []
    for k in range(5, len(vals)):
        pred = grey.predict(grey.fit(vals[k - 5:k]), 6)
        errs.append(abs(pred - vals[k]) / vals[k])
    err = mean(errs)
    assert err <= 0.05, err
    print(f"criterion 2: PASS (rolling mean error {err:.2%} over "
          f"{len(errs)} ten-minute windows, limit 5%)")


# -- criterion 3: online prediction error on the sinusoid preset --------------


def test_criterion_03_online_sinusoid_error(exp3):
    _, _, rows = exp3
    windows = split_rows(rows)[2]
    errs = [err for prev, cur in zip(windows, windows[1:])
            if (err := harness.prediction_error(prev.rate_predicted_next,
                                                cur.rate_measured)) is not None]
    assert len(errs) >= 50
    assert mean(errs) <= 0.05, mean(errs)
    assert max(errs) <= 0.10, max(errs)
    print(f"criterion 3: PASS (online mean {mean(errs):.2%} <= 5%, "
          f"max {max(errs):.2%} <= 10%)")


# -- criterion 4: constant-rate convergence ------------------------------------


def test_criterion_04_exp1_convergence(exp1):
    spec, _, rows = exp1
    ticks = split_rows(rows)[1]
    conv = convergence_time(ticks, spec.engine.block_interval)
    limit = spec.engine.control_start + 60_000
    assert conv is not None and conv <= limit, (conv, limit)

    settled = ticks[-1].interval_ms
    assert 1400 <= settled <= 1800, settled

    steady = [t.workload_s for t in ticks if t.time_ms >= conv]
    s_mean = mean(steady)
    assert 0.85 <= s_mean <= 1.0, s_mean
    print(f"criterion 4: PASS (converged at {conv:.0f} ms <= {limit}, "
          f"interval {settled} ms, steady S mean {s_mean:.4f})")


# -- criterion 5: step response -------------------------------------------------


def test_criterion_05_exp2_step_response(exp2):
    spec, _, rows = exp2
    step_at = 150_000  # trace.switch in the exp2 preset
    post = [t for t in split_rows(rows)[1] if t.time_ms >= step_at]
    restab = convergence_time(post, spec.engine.block_interval)
    assert restab is not None and restab - step_at <= 150_000, restab

    s_max = max(t.workload_s for t in post)
    assert s_max > 1.0, s_max
    assert post[-1].workload_s < 1.0, post[-1].workload_s

    tail_from = spec.engine.duration - 100_000
    tail = [t.workload_s for t in post if t.time_ms >= tail_from]
    s_tail = mean(tail)
    assert 0.8 <= s_tail <= 1.0, s_tail
    print(f"criterion 5: PASS (re-stabilized {restab - step_at:.0f} ms after "
          f"the step, transient S max {s_max:.2f} returned below 1, "
          f"steady S {s_tail:.4f})")


# -- criterion 6: prediction damps interval churn -------------------------------


def interval_churn(ticks):
    return mean([abs(b.interval_ms - a.interval_ms)
                 for a, b in zip(ticks, ticks[1:])])


def test_criterion_06_prediction_reduces_churn(exp3, exp3_nopred):
    _, _, rows_on = exp3
    _, _, rows_off = exp3_nopred
    churn_on = interval_churn(split_rows(rows_on)[1])
    churn_off = interval_churn(split_rows(rows_off)[1])
    assert churn_on <= churn_off, (churn_on, churn_off)
    print(f"criterion 6: PASS (mean |interval change| {churn_on:.1f} ms with "
          f"prediction vs {churn_off:.1f} ms without)")


# -- criterion 7: overloads stay short and delays bounded -----------------------


def overload_episode_lengths(ticks):
    lengths = []
    run = 0
    for t in ticks:
        if t.workload_s > 1.0:
            run += 1
        elif run:
            lengths.append(run)
            run = 0
    if run:
        lengths.append(run)
    return lengths


def test_criterion_07_overload_suppression(exp3):
    spec, _, rows = exp3
    batches, ticks, _ = split_rows(rows)
    episodes = overload_episode_lengths(ticks)
    assert all(n <= 10 for n in episodes), episodes

    delays = [b.total_delay_ms for b in batches
              if b.time_ms >= spec.engine.control_start]
    med = statistics.median(delays)
    ratio = max(delays) / med
    assert ratio <= 3.0, ratio
    print(f"criterion 7: PASS (overload episodes {episodes} ticks, "
          f"delay max/median {ratio:.2f} <= 3)")


# -- criterion 8: fixed interval accumulates, adaptive does not -----------------


def longest_strict_growth(svals):
    best = run = 0
    for a, b in zip(svals, svals[1:]):
        run = run + 1 if b > a else 0
        best = max(best, run)
    return best


def test_criterion_08_vanilla_accumulation(day, day_vanilla):
    _, _, rows_v = day_vanilla
    sv = [t.workload_s for t in split_rows(rows_v)[1]]
    onset = next(i for i, s in enumerate(sv) if s > 1.0)
    assert all(b > a for a, b in zip(sv[onset:], sv[onset + 1:]))
    assert sv[-1] > 5.0, sv[-1]

    _, _, rows_a = day
    sa = [t.workload_s for t in split_rows(rows_a)[1]]
    s_avg = mean(sa)
    growth = longest_strict_growth(sa)
    assert s_avg < 1.1, s_avg
    assert growth <= 10, growth
    print(f"criterion 8: PASS (vanilla S monotone from tick {onset} to "
          f"{sv[-1]:.1f} > 5; adaptive time-avg S {s_avg:.4f} < 1.1, "
          f"longest growth run {growth} ticks)")


# -- criterion 9: latency at low rate, restraint at high rate -------------------


def test_criterion_09_day_latency_and_restraint(day):
    spec, _, rows_a = day
    cost = spec.engine.cost_model
    block = spec.engine.block_interval

    # Both searches stop at the controller's cap, so rates a defect inflated
    # until no interval brings utilization down fail here instead of looping.
    cap = spec.engine.controller.max_interval
    r_max = max(spec.trace.rate(t) for t in range(0, spec.engine.duration, 5000))
    safe = block
    while safe <= cap and batch_utilization(cost, block, safe, r_max) > 0.85:
        safe += block
    assert safe <= cap, safe

    vanilla_cfg = dataclasses.replace(spec.engine, mode=VANILLA,
                                      initial_interval=safe)
    _, rows_v = collect(vanilla_cfg, spec.trace)

    third = spec.engine.duration // 3
    low_a = mean([b.total_delay_ms for b in split_rows(rows_a)[0] if b.time_ms < third])
    low_v = mean([b.total_delay_ms for b in split_rows(rows_v)[0] if b.time_ms < third])
    ratio = low_a / low_v
    assert ratio <= 0.65, ratio

    # High-rate segment: the contiguous run of measurement windows at >= 80%
    # of the peak window rate that contains the peak window itself.
    wrates = [(w.window_start_ms, w.rate_measured) for w in split_rows(rows_a)[2]]
    w_max = max(r for _, r in wrates)
    i_max = max(range(len(wrates)), key=lambda i: wrates[i][1])
    lo = i_max
    while lo > 0 and wrates[lo - 1][1] >= 0.8 * w_max:
        lo -= 1
    hi = i_max
    while hi + 1 < len(wrates) and wrates[hi + 1][1] >= 0.8 * w_max:
        hi += 1
    seg0 = wrates[lo][0]
    seg1 = wrates[hi][0] + spec.engine.tracker.resample_interval

    seg_ticks = [t for t in split_rows(rows_a)[1] if seg0 <= t.time_ms < seg1]
    assert seg_ticks
    r_seg = max(r for t, r in wrates if seg0 <= t < seg1)
    optimal = block
    while optimal <= cap and batch_utilization(cost, block, optimal, r_seg) > 1.0:
        optimal += block
    assert optimal <= cap, optimal
    i_ratio = mean([t.interval_ms for t in seg_ticks]) / optimal
    s_seg = mean([t.workload_s for t in seg_ticks])
    assert i_ratio <= 1.25, i_ratio
    assert s_seg < 1.0, s_seg
    print(f"criterion 9: PASS (low-rate delay ratio {ratio:.3f} <= 0.65 vs "
          f"{safe} ms peak-safe interval; high segment [{seg0}, {seg1}) ms "
          f"interval ratio {i_ratio:.3f} <= 1.25 with mean S {s_seg:.4f} < 1)")


# -- criterion 10: determinism and conservation ---------------------------------


def test_criterion_10_determinism_and_conservation(tmp_path, exp1, exp2, exp3,
                                                   exp3_nopred, day, day_vanilla):
    # The generated total is checked against the per-block receiver, which
    # integrates the trace one block at a time, not against the engine's
    # own running sums.
    for name, (spec, log, _) in {"exp1": exp1, "exp2": exp2, "exp3": exp3,
                                 "exp3-nopred": exp3_nopred, "day": day,
                                 "day-vanilla": day_vanilla}.items():
        generated = sum(per_block_counts(spec.engine, spec.trace))
        assert log.total_generated == generated == log.total_batch_records, name

    spec = harness.load_preset("exp1")
    for sub in ("a", "b"):
        _, rows = collect(spec.engine, spec.trace)
        harness.write_metrics(rows, tmp_path / sub, spec.engine.block_interval)
    first = (tmp_path / "a" / "metrics.csv").read_bytes()
    second = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert first == second
    print(f"criterion 10: PASS (rerun metrics.csv byte-identical, "
          f"{len(first)} bytes; records conserved on all six preset runs, against "
          "the per-block receiver)")


# -- criterion 11: fuzzy layer properties ---------------------------------------


def test_criterion_11_fuzzy_layer_suite():
    for i in range(-250, 251):
        label, lo, hi = fuzzy._bracket(fuzzy.clamp(i / 1000.0))
        degrees = {k: w for k, w in ((label, fuzzy._snap(lo)), (label + 1, fuzzy._snap(hi)))
                   if w > 0.0}
        assert abs(sum(degrees.values()) - 1.0) <= 1e-9, i / 1000.0
        assert len(degrees) <= 2

    rules = fuzzy.DEFAULT_RULES
    assert rules == (
        (-2, -1, -1, 0, 0),
        (-1, -1, 0, 0, 0),
        (-1, 0, 0, 0, 1),
        (0, 0, 0, 1, 1),
        (0, 0, 1, 1, 2),
    )
    n = len(rules)
    for i in range(n):
        for j in range(n - 1):
            assert rules[i][j] <= rules[i][j + 1]
            assert rules[j][i] <= rules[j + 1][i]
    for i in range(n):
        for j in range(n):
            assert rules[i][j] == -rules[n - 1 - i][n - 1 - j]

    assert fuzzy.infer(0.0, 0.0) == 0

    rng = random.Random(7)
    config = fuzzy.ControllerConfig(min_interval=400, max_interval=6000)
    for _ in range(500):
        current = 200 * rng.randint(2, 30)
        level = rng.randint(-2, 2)
        nxt = fuzzy.adjust_interval(current, level, 200, config)
        assert nxt % 200 == 0
        assert 400 <= nxt <= 6000
    print("criterion 11: PASS (partition of unity, rule table shape and "
          "symmetry, neutral inference, clamped block-multiple intervals)")
