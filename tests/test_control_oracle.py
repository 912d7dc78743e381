"""Bit-exact checks of the control path against the straightforward versions.

The oracles are the plain forms of the clamps, fuzzification, inference,
the GM(1,1) fit and its forecast: they clamp with ``min`` and ``max``, spell
out their own label centres and half width, build a dict of degrees per
call, check and accumulate the series in separate passes and
difference two evaluations of the time response. The program's versions
skip that work; they must return exactly the same floats and levels, because
the outputs are pinned byte for byte and a last-bit change can flip a level
at a .5 tie.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgebatch import fuzzy, grey, harness
from edgebatch.engine import ADAPTIVE
from edgebatch.errors import DomainError, FitError
from edgebatch.fuzzy import ControllerConfig, _bracket, _snap, adjust_interval, clamp
from edgebatch.tracker import TrackerConfig, TrafficTracker

from log_rows import collect, split_rows

ORACLE = settings(max_examples=400, deadline=None)


# -- fuzzy oracles ------------------------------------------------------------


# Labels NB..PB are 0..4, centred every 0.1 on [-0.2, 0.2].
ORACLE_CENTERS = (-0.2, -0.1, 0.0, 0.1, 0.2)
ORACLE_HALF_WIDTH = 0.1


def oracle_clamp(x):
    return min(ORACLE_CENTERS[4], max(ORACLE_CENTERS[0], x))


def oracle_fuzzify(x):
    x = oracle_clamp(x)
    out = {}
    for label in range(5):
        degree = 1.0 - abs(x - ORACLE_CENTERS[label]) / ORACLE_HALF_WIDTH
        degree = round(degree, 12)
        if degree > 0.0:
            out[label] = degree
    return out


def oracle_infer(c, d):
    return oracle_level(oracle_fuzzify(c), oracle_fuzzify(d))


def oracle_level(c_degrees, d_degrees):
    num = 0.0
    den = 0.0
    for c_label, wc in c_degrees.items():
        for d_label, wd in d_degrees.items():
            strength = min(wc, wd)
            num += strength * fuzzy.DEFAULT_RULES[d_label][c_label]
            den += strength
    return fuzzy._round_half_away(num / den)


# Label centres, the midpoints between them, the clamp edges and values past
# them, NaN and -0.0, a 0.001 grid (where inexact degrees make the sum order
# matter at .5 ties) and arbitrary floats.
GRID = [k / 1000 for k in range(-200, 201)]  # the 0.001 grid, centres and midpoints too
SPECIAL = [k / 20 for k in range(-6, 7)] + [-math.inf, math.inf, math.nan, -0.0]
INPUTS = st.one_of(st.sampled_from(SPECIAL),
                   st.integers(-250, 250).map(lambda k: k / 1000),
                   st.floats(-1.5, 1.5))


@ORACLE
@given(INPUTS)
def test_fuzzify_matches_oracle(x):
    # C and D are clamped once, before infer reads their memberships; at a
    # tie it reads the snapped degrees, of which the zeros add nothing.
    i, lo, hi = _bracket(clamp(x))
    got = {label: w for label, w in ((i, _snap(lo)), (i + 1, _snap(hi))) if w > 0.0}
    assert got == oracle_fuzzify(x)


@ORACLE
@given(INPUTS, INPUTS)
@example(-0.193, -0.157)  # ties at -1.5
@example(-0.193, 0.043)   # ties at -0.5
def test_infer_matches_oracle(c, d):
    assert fuzzy.infer(clamp(c), clamp(d)) == oracle_infer(c, d)


def test_infer_matches_oracle_on_the_grid_and_random_pairs():
    # Every pair of the grid, 160,801, of which 604 reach the tie path.
    degrees = [oracle_fuzzify(x) for x in GRID]
    for c, c_degrees in zip(GRID, degrees):
        for d, d_degrees in zip(GRID, degrees):
            assert fuzzy.infer(c, d) == oracle_level(c_degrees, d_degrees), (c, d)
    rng = random.Random(20261018)
    for _ in range(20_000):
        c, d = (rng.uniform(-0.25, 0.25) if rng.random() < 0.5
                else rng.randint(-250, 250) / 1000 for _ in range(2))
        assert fuzzy.infer(clamp(c), clamp(d)) == oracle_infer(c, d), (c, d)


# infer's mean of the unsnapped degrees decides a level only away from a
# half-integer; at a half-way tie the mean of the snapped degrees decides it.
# C = 0.15 is PS and PB at 0.5 each, whose rules at D = 0 (ZO) give 0 and 1:
# mean 0.5. (0.0, -0.15) gives -1 and 0 the same way: mean -0.5.
# (-0.193, -0.157) is the oracle example that ties at -1.5, and (0.175,
# 0.175) ties at 1.5, where the unsnapped mean lies a few ulps below it.
@pytest.mark.parametrize("c, d, tie", [(0.15, 0.0, True), (0.0, -0.15, True),
                                       (-0.193, -0.157, True), (0.175, 0.175, True),
                                       (0.0, 0.0, False), (0.12, -0.05, False)])
def test_infer_takes_the_snapped_path_exactly_at_ties(monkeypatch, c, d, tie):
    calls = []
    snap = fuzzy._snap

    def counting(degree):
        calls.append(degree)
        return snap(degree)

    monkeypatch.setattr(fuzzy, "_snap", counting)
    assert fuzzy.infer(c, d) == oracle_infer(c, d)
    assert len(calls) == (4 if tie else 0)  # each input's two degrees


# -- the clamps, against the min/max forms they replace -------------------------
# repr tells -0.0 from 0.0 and shows NaN, which == cannot.


@ORACLE
@given(st.sampled_from(SPECIAL) | st.floats())
def test_clamp_matches_min_max(x):
    assert repr(clamp(x)) == repr(oracle_clamp(x))


@pytest.mark.parametrize("lo, hi", [(1000, 3000), (1600, 1600)])
def test_adjust_interval_matches_min_max(lo, hi):
    config = ControllerConfig(lo, hi)
    for current in range(0, 4400, 200):  # below, inside and above [lo, hi]
        for level in range(-2, 3):
            proposed = current + level * 200
            expected = min(hi, max(lo, proposed))
            assert repr(adjust_interval(current, level, 200, config)) == repr(expected)


# -- the logged decision -----------------------------------------------------------
# C and D are clamped once, where they are computed, and infer takes only
# inputs in [-0.2, 0.2]: every logged C and D must lie there, and the logged
# level must be infer's of them.


@pytest.mark.parametrize("prediction", [True, False], ids=["prediction-on", "prediction-off"])
@pytest.mark.parametrize("preset", harness.PRESETS)
def test_logged_level_is_infer_of_logged_c_and_d(preset, prediction):
    spec = harness.load_preset(preset, disable_prediction=not prediction)
    ticks = split_rows(collect(spec.engine, spec.trace)[1])[1]
    controlled = [t for t in ticks if t.fuzzy_level is not None]
    assert bool(controlled) == (spec.engine.mode == ADAPTIVE)
    for t in ticks:
        if t.fuzzy_level is None:  # a tick that only monitors
            assert t.traffic_change is None and t.workload_deviation is None
            continue
        c, d = t.traffic_change, t.workload_deviation
        assert -0.2 <= c <= 0.2 and -0.2 <= d <= 0.2, (t.time_ms, c, d)
        assert fuzzy.infer(c, d) == t.fuzzy_level, t.time_ms


# -- grey oracles -------------------------------------------------------------


def left_sum(xs):
    """Terms added in order, one rounding each; ``sum`` of floats is
    compensated from Python 3.12 on and gives other last bits."""
    total = 0
    for x in xs:
        total += x
    return total


def oracle_fit(series):
    """The fit as (alpha, mu, first_accumulated, train_len, shift)."""
    vals = [float(v) for v in series]
    if len(vals) < grey.MIN_TRAIN_LEN:
        raise DomainError(f"need at least {grey.MIN_TRAIN_LEN} observations, got {len(vals)}")
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            raise DomainError(f"observation {i} is not finite: {v!r}")
    shift = 0.0
    lowest = min(vals)
    if lowest <= 0:
        shift = 1.0 - lowest
        vals = [v + shift for v in vals]
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            raise DomainError(f"observation {i} is not finite: {v!r}")
    for i, v in enumerate(vals):
        if v <= 0:
            raise DomainError(f"observation {i} must be positive, got {v!r}")
    acc = []
    total = 0.0
    for v in vals:
        total += v
        acc.append(total)
    n = len(vals)
    z = [(acc[i] + acc[i - 1]) / 2.0 for i in range(1, n)]
    y = vals[1:]
    m = n - 1
    sz = left_sum(z)
    sy = left_sum(y)
    szz = left_sum(v * v for v in z)
    szy = left_sum(a * b for a, b in zip(z, y))
    den = m * szz - sz * sz
    scale = m * szz + sz * sz
    if den <= scale * 1e-15:
        spread = max(y) - min(y)
        if spread <= 1e-12 * max(abs(y[0]), 1.0):
            alpha, mu = 0.0, sy / m
        else:
            raise FitError("normal equations are singular and the data is inconsistent")
    else:
        alpha = (sz * sy - m * szy) / den
        mu = (sy + alpha * sz) / m
    return alpha, mu, acc[0], n, shift


def oracle_response(model, t):
    """r(t) of model, a tuple (alpha, mu, first_accumulated, train_len, shift)."""
    alpha, mu, first, _, _ = model
    if abs(alpha) < grey.EPS_ALPHA:
        return first + mu * (t - 1)
    ratio = mu / alpha
    return (first - ratio) * math.exp(-alpha * (t - 1)) + ratio


def oracle_predict(model, t):
    if t == 1:
        raw = oracle_response(model, 1)
    else:
        raw = oracle_response(model, t) - oracle_response(model, t - 1)
    return raw - model[4]  # the shift


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (DomainError, FitError) as exc:
        return type(exc), str(exc)


RATE = st.one_of(st.just(0.0), st.floats(0.0, 1e9), st.floats(1e-3, 10.0))
SERIES = st.one_of(
    st.lists(RATE, min_size=4, max_size=8),  # zeros and ratios up to 1e12
    st.tuples(RATE, st.integers(4, 8)).map(lambda p: [p[0]] * p[1]),  # constant
    st.lists(st.floats(-1e20, 1e20), min_size=4, max_size=8),  # negatives, shifts
    st.lists(st.sampled_from([0.0, 1.0, 5.0, 1e9, -3.0, math.nan, math.inf, -math.inf]),
             min_size=3, max_size=6),  # short, non-finite, singular
)


@ORACLE
@given(SERIES)
@example([1e9, 5.0, 10.0, 5.0, 5.0])  # singular and inconsistent: FitError
@example([-1e20, 1.0, 2.0, 3.0, 4.0])  # the shift cancels to 0: not positive
def test_fit_and_predict_match_oracle(series):
    expected = outcome(oracle_fit, series)
    got = outcome(grey.fit, series)
    assert repr(got) == repr(expected)  # NaN parameters compare equal
    if isinstance(got[0], type):  # fit raised
        return
    for t in range(1, len(series) + 4):
        value, reference = grey.predict(got, t), oracle_predict(got, t)
        assert value == reference or (math.isnan(value) and math.isnan(reference))


# -- the tracker's one forecast per fit -----------------------------------------


def test_retrain_replaces_cached_forecast():
    tracker = TrafficTracker(TrackerConfig())
    closed = []
    for k, count in enumerate([3000, 3300, 3600, 4200, 4500]):
        tracker.report_info(count)
        closed.append(tracker.close_windows_upto((k + 1) * 30_000))  # the fifth close fits
    rates = [row.rate_measured for row in closed]
    before = tracker.predict_rate()
    assert before == max(0.0, grey.predict(grey.fit(rates), len(rates) + 1))
    assert tracker.predict_rate() == before  # served again, same fit
    tracker.report_info(1500)  # a sharp drop in the next window
    row = tracker.close_windows_upto(180_000)
    rates = rates[1:] + [row.rate_measured]
    after = tracker.predict_rate()
    assert after == max(0.0, grey.predict(grey.fit(rates), len(rates) + 1))
    assert after != before


@pytest.mark.parametrize("forecast", [math.nan, -0.0, -1.0, math.inf, 3.5])
def test_predict_rate_clamps_like_max(monkeypatch, forecast):
    # The fifth window close makes the first forecast.
    monkeypatch.setattr(grey, "forecast", lambda rates: forecast)
    tracker = TrafficTracker(TrackerConfig())
    for k in range(5):
        tracker.report_info(3000)
        row = tracker.close_windows_upto((k + 1) * 30_000)
    assert repr(row.rate_predicted_next) == repr(tracker.predict_rate())
    if math.isfinite(forecast):
        assert repr(tracker.predict_rate()) == repr(max(0.0, forecast))
    else:  # a forecast that is not finite leaves no model
        assert tracker.predict_rate() is None
