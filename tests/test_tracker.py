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


def close_each(tracker, counts):
    """Report each count into its own window and close that window at its
    end, from the first window on; returns the closed rows."""
    w = tracker.config.resample_interval
    closed = []
    for k, count in enumerate(counts):
        tracker.report_info(count)
        closed.append(tracker.close_windows_upto((k + 1) * w))
    return closed


def test_reports_average_into_window_rate():
    tracker = make_tracker()
    # 30 reports of 100 records into one 30 s window.
    for _ in range(30):
        tracker.report_info(100)
    row = tracker.close_windows_upto(30_000)
    assert row.window_start_ms == 0
    assert row.rate_measured == pytest.approx(100.0)


def test_empty_windows_close_with_zero_rate():
    tracker = make_tracker()
    # A window with no reports closes at rate 0.0: each close resets the count.
    closed = close_each(tracker, [300, 0, 0])
    assert [row.rate_measured for row in closed] == [10.0, 0.0, 0.0]
    assert [row.window_start_ms for row in closed] == [0, 30_000, 60_000]
    assert tracker.close_windows_upto(120_000) == WindowRow(90_000, 0.0, None)


def test_open_window_never_included():
    tracker = make_tracker(prediction_enabled=False)
    tracker.report_info(50)
    assert tracker.control_rates() == (None, None)
    rate = 50 * 1000.0 / 30_000
    assert tracker.close_windows_upto(30_000) == WindowRow(0, rate, None)
    tracker.report_info(70)  # after the close: into the next window, still open
    assert tracker.control_rates() == (rate, rate)
    rate = 70 * 1000.0 / 30_000
    assert tracker.close_windows_upto(60_000) == WindowRow(30_000, rate, None)
    assert tracker.control_rates() == (rate, rate)


def test_train_needs_enough_windows():
    tracker = make_tracker(train_num=5)
    closed = [tracker.close_windows_upto(end) for end in (30_000, 60_000, 90_000, 120_000)]
    assert [row.rate_predicted_next for row in closed] == [None] * 4
    assert tracker.predict_rate() is None


def test_train_and_predict_constant_rate():
    tracker = make_tracker()
    closed = close_each(tracker, [3000] * 5)  # 100 records/s
    alpha, *_ = grey.fit([row.rate_measured for row in closed])
    assert abs(alpha) < grey.EPS_ALPHA
    assert tracker.predict_rate() == pytest.approx(100.0)
    assert closed[-1].rate_predicted_next == tracker.predict_rate()


def test_prediction_clamped_non_negative():
    tracker = make_tracker()
    # Window rates [1000, 1000, 1000, 1000, 5000]: on this burst GM(1,1)
    # forecasts about -6970 for the next window.
    closed = close_each(tracker, [30_000, 30_000, 30_000, 30_000, 150_000])
    assert grey.predict(grey.fit([row.rate_measured for row in closed]), 6) < 0.0
    assert tracker.predict_rate() == closed[-1].rate_predicted_next == 0.0


def test_record_conservation():
    # As the engine does: close each window at its end, once every report
    # before that end is in, so a report goes into the window that holds it.
    tracker = make_tracker()
    w = tracker.config.resample_interval  # every window's length
    counts = [(k * 37) % 250 for k in range(200)]  # reported at k * 700 ms
    closed = []
    for k, count in enumerate(counts):
        while (len(closed) + 1) * w <= k * 700:
            closed.append(tracker.close_windows_upto((len(closed) + 1) * w))
        tracker.report_info(count)
    closed.append(tracker.close_windows_upto(5 * w))  # the last report's window
    assert [row.window_start_ms for row in closed] == [k * 30_000 for k in range(5)]
    for row in closed:
        in_window = sum(count for k, count in enumerate(counts)
                        if row.window_start_ms <= k * 700 < row.window_start_ms + w)
        assert row.rate_measured == in_window * 1000.0 / w
    closed_sum = sum(row.rate_measured * w / 1000.0 for row in closed)
    assert math.isclose(closed_sum, sum(counts), rel_tol=1e-9)


def test_train_fits_the_last_train_num_windows():
    tracker = make_tracker(train_num=5)
    closed = close_each(tracker, [3000 + 7 * k * k for k in range(50)])  # distinct rates
    assert len(closed) == 50
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


def test_control_rates_rule():
    on, off = make_tracker(), make_tracker(prediction_enabled=False)
    # Five 30 s windows with 100 + k records in the k-th second.
    counts = [sum(range(100 + 30 * j, 130 + 30 * j)) for j in range(5)]
    for tracker in (on, off):
        assert tracker.control_rates() == (None, None)  # no window closed yet
        # Four windows: no model yet, so no forecast with prediction off too.
        closed = close_each(tracker, counts[:4])
        assert [row.rate_predicted_next for row in closed] == [None] * 4
        tracker.report_info(counts[4])
    q_now = closed[-1].rate_measured
    assert on.control_rates() == (q_now, None)
    assert off.control_rates() == (q_now, q_now)
    row_on = on.close_windows_upto(150_000)
    row_off = off.close_windows_upto(150_000)
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
    *_, fitted, failed = close_each(tracker, [150] * 4 + [30_000_000_000, 150, 300, 150, 150])
    assert fitted.rate_predicted_next is not None
    # The failed fit drops the forecast the fit before it made.
    assert failed.rate_predicted_next is None
    assert tracker.predict_rate() is None
    assert tracker.control_rates() == (5.0, None)
    tracker.report_info(150)
    row = tracker.close_windows_upto(300_000)  # the next window close fits again
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
        tracker.report_info(count)
        row = tracker.close_windows_upto((k + 1) * 1000)
        forecast = tracker.predict_rate()
        assert row.rate_predicted_next == forecast
        if forecast is not None:
            assert math.isfinite(forecast) and forecast >= 0.0
