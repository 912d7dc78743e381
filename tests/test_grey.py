"""Grey-model tests, anchored by an independent least-squares oracle."""

import math
from collections import deque
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgebatch import grey
from edgebatch.errors import DomainError, FitError

from test_control_oracle import SERIES, oracle_predict, oracle_response
from test_control_oracle import oracle_fit as exact_oracle_fit


def oracle_fit(series):
    """Reference fit: build the regression matrix and let numpy solve it.

    Deliberately a different code path from edgebatch.grey.fit, which uses
    the closed-form 2x2 normal equations.
    """
    x0 = np.asarray(series, dtype=float)
    x1 = np.cumsum(x0)
    z = 0.5 * (x1[1:] + x1[:-1])
    B = np.column_stack([-z, np.ones(len(z))])
    Y = x0[1:]
    (alpha, mu), *_ = np.linalg.lstsq(B, Y, rcond=None)
    return float(alpha), float(mu)


def test_fit_matches_doubling_series_exactly():
    alpha, mu, first_accumulated, train_len, shift = grey.fit([1.0, 2.0, 4.0, 8.0])
    assert alpha == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert mu == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert first_accumulated == 1.0
    assert train_len == 4
    assert shift == 0.0
    assert abs(alpha) >= grey.EPS_ALPHA


def test_response_of_doubling_series():
    # The time response at t is the sum of the predictions up to t.
    model = grey.fit([1.0, 2.0, 4.0, 8.0])
    assert grey.predict(model, 1) == pytest.approx(1.0, rel=1e-12)
    expected = 2.0 * math.exp(2.0 / 3.0) - 1.0
    response_2 = grey.predict(model, 1) + grey.predict(model, 2)
    assert response_2 == pytest.approx(expected, rel=1e-12)
    assert response_2 == pytest.approx(2.8955, abs=5e-5)


def test_predict_of_doubling_series():
    model = grey.fit([1.0, 2.0, 4.0, 8.0])
    assert grey.predict(model, 1) == pytest.approx(1.0, rel=1e-12)
    assert grey.predict(model, 2) == pytest.approx(2.0 * math.exp(2.0 / 3.0) - 2.0, rel=1e-12)


def test_fit_agrees_with_oracle_on_random_series():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        n = int(rng.integers(5, 9))
        series = rng.uniform(0.5, 50.0, size=n)
        alpha, mu, *_ = grey.fit(series)
        alpha_ref, mu_ref = oracle_fit(series)
        assert alpha == pytest.approx(alpha_ref, rel=1e-9, abs=1e-12)
        assert mu == pytest.approx(mu_ref, rel=1e-9, abs=1e-12)


def test_geometric_series_fit_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c = float(rng.uniform(0.1, 20.0))
        q = float(rng.uniform(0.3, 3.0))
        n = int(rng.integers(4, 9))
        series = [c * q**k for k in range(n)]
        alpha, mu, *_ = grey.fit(series)
        acc = list(accumulate(series))
        # Residuals of the difference equation itself.
        for t in range(1, n):
            z = 0.5 * (acc[t] + acc[t - 1])
            resid = series[t] + alpha * z - mu
            assert abs(resid) <= 1e-9 * max(abs(series[t]), 1.0)


def test_constant_series_takes_the_linear_limit():
    model = grey.fit([5.0, 5.0, 5.0, 5.0])
    alpha, mu, *_ = model
    assert abs(alpha) < grey.EPS_ALPHA
    assert alpha == 0.0
    assert mu == pytest.approx(5.0, rel=1e-12)
    assert sum(grey.predict(model, t) for t in (1, 2, 3)) == pytest.approx(15.0, rel=1e-12)
    assert grey.predict(model, 7) == pytest.approx(5.0, rel=1e-12)


def fit_or_reject(series):
    """grey.fit(series), or reject the Hypothesis example when GM(1,1) cannot
    fit it: some positive series have singular normal equations and a tail
    that is not flat (see test_unfittable_positive_series_raises_fit_error)."""
    try:
        return grey.fit(series)
    except FitError:
        assume(False)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=4, max_size=12)
)
@settings(max_examples=200)
def test_predictions_telescope_to_response(series):
    model = fit_or_reject(series)
    train_len = model[3]
    assert train_len == len(series)
    for k in (1, train_len, train_len + 3):
        total = sum(grey.predict(model, t) for t in range(1, k + 1))
        assert math.isclose(total, oracle_response(model, k), rel_tol=1e-12, abs_tol=1e-9)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=4, max_size=10)
)
@settings(max_examples=200)
def test_predictions_stay_finite(series):
    model = fit_or_reject(series)
    for t in range(1, 10 * len(series) + 1):
        assert math.isfinite(grey.predict(model, t))


def test_zero_values_are_shifted_not_rejected():
    series = [0.0, 2.0, 3.0, 4.0, 5.0]
    model = grey.fit(series)
    assert model[4] == 1.0  # the shift
    # One-step forecast should continue the visible upward trend.
    nxt = grey.predict(model, len(series) + 1)
    assert 4.0 < nxt < 8.0


def test_all_zero_series_predicts_zero():
    model = grey.fit([0.0, 0.0, 0.0, 0.0, 0.0])
    preds = [grey.predict(model, t) for t in (6, 7, 8)]
    assert preds == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)


def test_forecasts_past_the_training_tail():
    model = grey.fit([1.0, 2.0, 4.0, 8.0])
    preds = [grey.predict(model, t) for t in (5, 6, 7)]
    # A doubling series should keep roughly doubling, by exp(-alpha) a step.
    assert preds[0] == pytest.approx(16.0, rel=0.15)
    assert preds[2] / preds[1] == pytest.approx(math.exp(2.0 / 3.0), rel=1e-12)


def test_short_series_rejected():
    with pytest.raises(DomainError, match="at least"):
        grey.fit([1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match="at least"):
        grey.fit([1.0, 2.0])


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        grey.fit([1.0, float("nan"), 3.0, 4.0])
    with pytest.raises(DomainError):
        grey.fit([1.0, float("inf"), 3.0, 4.0])


def test_fit_rejects_a_shift_that_cancels_to_zero():
    # A zero or negative value shifts the window instead of failing the fit;
    # only a shifted value that is still not positive is rejected.
    assert grey.fit([1.0, 0.0, 2.0, 3.0])[4] == 1.0  # the shift
    assert grey.fit([1.0, -2.0, 2.0, 3.0])[4] == 3.0
    with pytest.raises(DomainError, match="observation 0 must be positive"):
        grey.fit([-1e20, 1.0, 2.0, 3.0])


def test_unfittable_positive_series_raises_fit_error():
    # Positive, but the normal equations are singular and the tail is not flat.
    with pytest.raises(FitError, match="singular"):
        grey.fit([520834.0, 0.0625, 0.015625, 0.015625])


def test_bad_prediction_args():
    model = grey.fit([1.0, 2.0, 4.0, 8.0])
    with pytest.raises(DomainError):
        grey.predict(model, 0)
    with pytest.raises(DomainError):
        grey.predict(model, -1)


# -- the one-step forecast ------------------------------------------------------


def outcome_text(fn, series):
    """repr of fn(series), or the type and message of what it raised."""
    try:
        return repr(fn(series))
    except (DomainError, FitError, OverflowError) as exc:
        return type(exc), str(exc)


def fit_then_predict(series):
    return grey.predict(grey.fit(series), len(series) + 1)


def check_forecast(series):
    """forecast(series) is predict(fit(series), n + 1) bit for bit, -0.0 and
    every exception's message included, and the oracle's value when there is
    one."""
    got, expected = outcome_text(grey.forecast, series), outcome_text(fit_then_predict, series)
    assert got == expected
    if isinstance(expected, str):
        reference = oracle_predict(exact_oracle_fit(series), len(series) + 1)
        value = float(got)
        assert value == reference or (math.isnan(value) and math.isnan(reference))


FORECAST_CASES = {
    "shift": [0.0, 2.0, 3.0, 4.0, 5.0],  # a zero shifts the window up by 1
    "negative-shift": [3.0, -2.0, 2.0, 3.0, 4.0],
    "constant": [5.0, 5.0, 5.0, 5.0, 5.0],  # alpha = 0 from the normal equations
    "flat-tail": [1e9, 5.0, 5.0, 5.0, 5.0],  # singular and consistent: alpha = 0
    "tiny-alpha": [5.0, 5.0, 5.0, 5.0, 5.00000001],  # 0 < |alpha| < EPS_ALPHA
    "burst": [1000.0, 1000.0, 1000.0, 1000.0, 5000.0],
    "doubling": [1.0, 2.0, 4.0, 8.0],
    "singular": [1e9, 5.0, 10.0, 5.0, 5.0],  # FitError
    "overflow": [0.0] * 399 + [1e5],  # exp(-alpha * 400) is past math.exp's range
    "huge": [1e300] * 5,  # the sums overflow: alpha is not finite
    "short": [1.0, 2.0, 3.0],
    "nan": [1.0, math.nan, 3.0, 4.0],
    "inf": [1.0, 2.0, math.inf, 4.0],
    "shift-cancels": [-1e20, 1.0, 2.0, 3.0, 4.0],  # the shifted first value is 0
}


@pytest.mark.parametrize("name", sorted(FORECAST_CASES))
def test_forecast_is_predict_of_fit_on_every_path(name):
    check_forecast(FORECAST_CASES[name])


def test_the_forecast_cases_take_their_paths():
    def alpha(name):
        return grey.fit(FORECAST_CASES[name])[0]

    def shift(name):
        return grey.fit(FORECAST_CASES[name])[4]

    assert shift("shift") == 1.0 and shift("negative-shift") == 3.0
    assert alpha("constant") == 0.0 and alpha("flat-tail") == 0.0
    assert 0.0 < abs(alpha("tiny-alpha")) < grey.EPS_ALPHA
    assert grey.forecast(FORECAST_CASES["burst"]) == pytest.approx(-6970.3099, abs=1e-4)
    with pytest.raises(FitError, match="singular"):
        grey.forecast(FORECAST_CASES["singular"])
    with pytest.raises(OverflowError):
        grey.forecast(FORECAST_CASES["overflow"])
    assert math.isnan(grey.forecast(FORECAST_CASES["huge"]))
    assert not math.isfinite(alpha("huge"))
    for name, message in (("short", "at least"), ("nan", "not finite"), ("inf", "not finite"),
                          ("shift-cancels", "must be positive")):
        with pytest.raises(DomainError, match=message):
            grey.forecast(FORECAST_CASES[name])


@given(st.one_of(SERIES, st.lists(st.floats(), max_size=8),
                 st.lists(st.floats(1e150, 1e308), min_size=4, max_size=8)))
@settings(max_examples=400, deadline=None)
def test_forecast_is_predict_of_fit_bit_for_bit(series):
    check_forecast(series)


@pytest.mark.parametrize("name", ["burst", "flat-tail", "singular", "shift"])
def test_forecast_takes_the_trackers_deque(name):
    # The tracker passes its deque of rates, which forecast reads as it is.
    series = FORECAST_CASES[name]
    rates = deque(series, maxlen=len(series))
    assert outcome_text(grey.forecast, rates) == outcome_text(fit_then_predict, series)
