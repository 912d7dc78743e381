import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgebatch import grey
from edgebatch.errors import DomainError
from edgebatch.traces import MAX_RATE
from edgebatch.tracker import TrackerConfig, TrafficTracker, WindowRow


def make_tracker(**kw):
    return TrafficTracker(TrackerConfig(**kw))


def test_reports_average_into_window_rate():
    tracker = make_tracker()
    # 30 reports of 100 records spread over one 30 s window.
    for k in range(30):
        tracker.report_info(k * 1000, 100)
    closed = tracker.close_windows_upto(30_000)
    assert len(closed) == 1
    assert closed[0].window_start_ms == 0
    assert closed[0].rate_measured == pytest.approx(100.0)


def test_empty_windows_close_with_zero_rate():
    tracker = make_tracker()
    tracker.report_info(65_000, 300)
    closed = tracker.close_windows_upto(90_000)
    assert [row.rate_measured for row in closed] == pytest.approx([0.0, 0.0, 10.0])
    assert [row.window_start_ms for row in closed] == [0, 30_000, 60_000]


def test_open_window_never_included():
    tracker = make_tracker(prediction_enabled=False)
    tracker.report_info(10_000, 50)
    assert tracker.close_windows_upto(29_999) == []
    assert tracker.control_rates() == (None, None)
    closed = tracker.close_windows_upto(30_000)
    rate = 50 * 1000.0 / 30_000
    assert closed == [WindowRow(0, rate, None)]
    tracker.report_info(40_000, 70)  # into the open window
    assert tracker.control_rates() == (rate, rate)
    assert tracker.close_windows_upto(59_999) == []
    assert tracker.control_rates() == (rate, rate)


def test_report_to_closed_window_is_dropped():
    tracker = make_tracker()
    tracker.close_windows_upto(30_000)
    tracker.report_info(1000, 999)
    tracker.close_windows_upto(60_000)
    assert tracker.control_rates() == (0.0, None)


def test_train_needs_enough_windows():
    tracker = make_tracker(train_num=5)
    closed = tracker.close_windows_upto(120_000)  # 4 windows
    assert [row.rate_predicted_next for row in closed] == [None] * 4
    assert tracker.predict_rate() is None


def test_train_and_predict_constant_rate():
    tracker = make_tracker()
    for k in range(150):
        tracker.report_info(k * 1000, 100)
    closed = tracker.close_windows_upto(150_000)
    model = grey.fit([row.rate_measured for row in closed])
    assert abs(model.alpha) < grey.EPS_ALPHA
    assert tracker.predict_rate() == pytest.approx(100.0)
    assert closed[-1].rate_predicted_next == tracker.predict_rate()


def test_prediction_clamped_non_negative():
    tracker = make_tracker()
    # Window rates [1000, 1000, 1000, 1000, 5000]: on this burst GM(1,1)
    # forecasts about -6970 for the next window.
    counts = [30_000, 30_000, 30_000, 30_000, 150_000]
    for k, count in enumerate(counts):
        tracker.report_info(k * 30_000, count)
    closed = tracker.close_windows_upto(150_000)
    model = grey.fit([row.rate_measured for row in closed])
    assert grey.predict(model, model.train_len + 1) < 0.0
    assert tracker.predict_rate() == closed[-1].rate_predicted_next == 0.0


def test_record_conservation():
    tracker = make_tracker()
    total = 0
    for k in range(200):
        count = (k * 37) % 250
        total += count
        tracker.report_info(k * 700, count)
    closed = tracker.close_windows_upto(140_000)
    assert [row.window_start_ms for row in closed] == [k * 30_000 for k in range(4)]
    w = tracker.config.resample_interval  # every window's length
    closed_sum = sum(row.rate_measured * w / 1000.0 for row in closed)
    open_sum = sum(tracker._open_counts.values())
    assert math.isclose(closed_sum + open_sum, total, rel_tol=1e-9)


def test_train_fits_the_last_train_num_windows():
    tracker = make_tracker(train_num=5)
    for k in range(50):
        tracker.report_info(k * 30_000, 3000 + 7 * k * k)  # distinct rates
    closed = tracker.close_windows_upto(30_000 * 50)
    assert len(closed) == 50  # every window closed now is returned
    rates = [row.rate_measured for row in closed]
    assert len(set(rates)) == 50
    # A fit after every window: each row holds the forecast of its own tail.
    assert [row.rate_predicted_next for row in closed[:4]] == [None] * 4
    for k in range(4, 50):
        forecast = grey.predict(grey.fit(rates[k - 4:k + 1]), 6)
        assert closed[k].rate_predicted_next == max(0.0, forecast)
    assert tracker.predict_rate() == closed[-1].rate_predicted_next
    assert tracker.control_rates() == (rates[-1], tracker.predict_rate())


def test_config_validation():
    with pytest.raises(DomainError):
        TrackerConfig(resample_interval=0)
    with pytest.raises(DomainError):
        TrackerConfig(train_num=3)


def test_report_validation():
    tracker = make_tracker()
    with pytest.raises(DomainError, match="timestamp"):
        tracker.report_info(-1, 10)
    with pytest.raises(DomainError, match="record_count"):
        tracker.report_info(0, -5)
    tracker.report_info(0, 0)
    tracker.close_windows_upto(30_000)
    assert tracker.control_rates() == (0.0, None)


def test_control_rates_rule():
    on, off = make_tracker(), make_tracker(prediction_enabled=False)
    for tracker in (on, off):
        assert tracker.control_rates() == (None, None)  # no window closed yet
        for k in range(150):
            tracker.report_info(k * 1000, 100 + k)
        # Four windows: no model yet, so no forecast with prediction off too.
        closed = tracker.close_windows_upto(120_000)
        assert [row.rate_predicted_next for row in closed] == [None] * 4
    q_now = closed[-1].rate_measured
    assert on.control_rates() == (q_now, None)
    assert off.control_rates() == (q_now, q_now)
    [row_on] = on.close_windows_upto(150_000)
    [row_off] = off.close_windows_upto(150_000)
    q_now = row_on.rate_measured
    assert row_on.rate_predicted_next == on.predict_rate() != q_now
    assert row_off.rate_predicted_next == q_now
    assert on.control_rates() == (q_now, on.predict_rate())
    assert off.control_rates() == (q_now, q_now)


def test_failed_fit_leaves_no_model_until_a_fit_succeeds():
    # Window rates [5, 5, 5, 5, 1e9, 5, 10, 5, 5]: on the last five the normal
    # equations are singular and the tail is not flat, so GM(1,1) cannot fit
    # them, while the fits before succeed.
    tracker = make_tracker()
    for k, count in enumerate([150] * 4 + [30_000_000_000, 150, 300, 150, 150]):
        tracker.report_info(k * 30_000, count)
    *_, fitted, failed = tracker.close_windows_upto(270_000)
    assert fitted.rate_predicted_next is not None
    # The failed fit drops the forecast the fit before it made.
    assert failed.rate_predicted_next is None
    assert tracker.predict_rate() is None
    assert tracker.control_rates() == (5.0, None)
    tracker.report_info(270_000, 150)
    [row] = tracker.close_windows_upto(300_000)  # the next window close fits again
    assert row.rate_predicted_next is not None
    assert tracker.control_rates() == (5.0, row.rate_predicted_next)


# Window counts of 1 s windows, so each window's rate is its count.
COUNTS = st.one_of(st.integers(0, int(MAX_RATE)), st.sampled_from([0, 1, int(MAX_RATE)]))


@st.composite
def window_series(draw):
    """(train_num, counts): random counts, or runs of equal counts. A long
    flat run that ends in a jump drives a GM(1,1) forecast out of range."""
    train_num = draw(st.integers(grey.MIN_TRAIN_LEN, 500))
    if draw(st.booleans()):
        return train_num, draw(st.lists(COUNTS, min_size=train_num, max_size=train_num + 6))
    runs = draw(st.lists(st.tuples(COUNTS, st.integers(1, train_num)), min_size=1,
                         max_size=4))
    return train_num, [count for count, n in runs for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(window_series())
@example((400, [0] * 399 + [100_000]))  # the forecast overflows math.exp
@example((353, [0] * 352 + [10**9]))  # the forecast is -inf
@example((354, [0] * 353 + [10**9]))  # the forecast is nan
def test_every_forecast_is_finite_and_non_negative(series):
    train_num, counts = series
    tracker = make_tracker(resample_interval=1000, train_num=train_num)
    for k, count in enumerate(counts):
        tracker.report_info(k * 1000, count)
        [row] = tracker.close_windows_upto((k + 1) * 1000)
        forecast = tracker.predict_rate()
        assert row.rate_predicted_next == forecast
        if forecast is not None:
            assert math.isfinite(forecast) and forecast >= 0.0
