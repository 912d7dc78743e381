"""Grey-model tests, anchored by an independent least-squares oracle."""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgebatch import grey
from edgebatch.errors import DomainError, FitError

from test_control_oracle import oracle_response


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
    model = grey.fit([1.0, 2.0, 4.0, 8.0])
    assert model.alpha == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert model.mu == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert model.first_accumulated == 1.0
    assert model.train_len == 4
    assert abs(model.alpha) >= grey.EPS_ALPHA


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
        model = grey.fit(series)
        alpha_ref, mu_ref = oracle_fit(series)
        assert model.alpha == pytest.approx(alpha_ref, rel=1e-9, abs=1e-12)
        assert model.mu == pytest.approx(mu_ref, rel=1e-9, abs=1e-12)


def test_geometric_series_fit_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c = float(rng.uniform(0.1, 20.0))
        q = float(rng.uniform(0.3, 3.0))
        n = int(rng.integers(4, 9))
        series = [c * q**k for k in range(n)]
        model = grey.fit(series)
        acc = list(accumulate(series))
        # Residuals of the difference equation itself.
        for t in range(1, n):
            z = 0.5 * (acc[t] + acc[t - 1])
            resid = series[t] + model.alpha * z - model.mu
            assert abs(resid) <= 1e-9 * max(abs(series[t]), 1.0)


def test_constant_series_takes_the_linear_limit():
    model = grey.fit([5.0, 5.0, 5.0, 5.0])
    assert abs(model.alpha) < grey.EPS_ALPHA
    assert model.alpha == 0.0
    assert model.mu == pytest.approx(5.0, rel=1e-12)
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
    for k in (1, model.train_len, model.train_len + 3):
        total = sum(grey.predict(model, t) for t in range(1, k + 1))
        assert math.isclose(total, oracle_response(model, k), rel_tol=1e-12, abs_tol=1e-9)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=4, max_size=10)
)
@settings(max_examples=200)
def test_predictions_stay_finite(series):
    model = fit_or_reject(series)
    for t in range(1, 10 * model.train_len + 1):
        assert math.isfinite(grey.predict(model, t))


def test_zero_values_are_shifted_not_rejected():
    series = [0.0, 2.0, 3.0, 4.0, 5.0]
    model = grey.fit(series)
    assert model.shift == 1.0
    # One-step forecast should continue the visible upward trend.
    nxt = grey.predict(model, model.train_len + 1)
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
    assert grey.fit([1.0, 0.0, 2.0, 3.0]).shift == 1.0
    assert grey.fit([1.0, -2.0, 2.0, 3.0]).shift == 3.0
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
