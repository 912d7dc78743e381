import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgebatch import traces
from edgebatch.errors import DomainError, TraceParseError


def test_constant_rate_and_integral():
    f = traces.constant(1000.0)
    assert f.rate(0) == 1000.0
    assert f.rate(123456.0) == 1000.0
    assert f.integral(0, 200) == pytest.approx(200.0)
    assert f.integral(5000, 5000) == 0.0
    # The trace spans [0, MAX_TIME_MS), every time the engine can reach.
    assert f.rate(-1) == f.rate(traces.MAX_TIME_MS) == 0.0


def test_step_rate_and_integral():
    f = traces.step(1000.0, 2000.0, 150_000)
    assert f.rate(149_999) == 1000.0
    assert f.rate(150_000) == 2000.0
    assert f.integral(149_900, 150_100) == pytest.approx(0.1 * 1000 + 0.1 * 2000)
    assert f.integral(0, 300_000) == pytest.approx(150 * 1000 + 150 * 2000)


def test_sinusoid_respects_bounds():
    f = traces.SinusoidRate(1000.0, 300.0, 600_000)
    values = [f.rate(t) for t in range(0, 600_000, 1000)]
    assert min(values) >= 700.0 - 1e-9
    assert max(values) <= 1300.0 + 1e-9
    with pytest.raises(DomainError):
        traces.SinusoidRate(100.0, 300.0, 600_000)


def test_sinusoid_integral_matches_quadrature():
    f = traces.SinusoidRate(1000.0, 300.0, 240_000)
    for (a, b) in ((0, 200), (12_345, 99_999), (0, 240_000)):
        steps = 20_000
        h = (b - a) / steps
        approx = sum(f.rate(a + (k + 0.5) * h) for k in range(steps)) * h / 1000.0
        assert f.integral(a, b) == pytest.approx(approx, rel=1e-6, abs=1e-6)


def test_sinusoid_full_period_integral_is_base_only():
    f = traces.SinusoidRate(1000.0, 300.0, 240_000)
    assert f.integral(0, 240_000) == pytest.approx(1000.0 * 240.0, rel=1e-12)


def write_trace(tmp_path, body):
    path = tmp_path / "trace.csv"
    path.write_text(body)
    return path


def test_rate_mode_interpolates(tmp_path):
    path = write_trace(tmp_path, "timestamp_s,value\n0,600\n600,1200\n")
    f = traces.from_csv(path)
    assert f.rate(300_000) == pytest.approx(900.0)
    assert f.rate(0) == 600.0
    assert f.rate(10_000_000) == 1200.0  # flat beyond the end


def test_count_mode_spreads_counts(tmp_path):
    path = write_trace(tmp_path, "timestamp_s,value\n0,60000\n600,30000\n")
    f = traces.from_csv(path, count_mode=True)
    assert f.rate(100_000) == pytest.approx(100.0)  # 60000 records / 600 s
    assert f.rate(700_000) == pytest.approx(50.0)
    assert f.integral(0, 600_000) == pytest.approx(60_000.0)
    assert f.rate(2_000_000) == 0.0  # beyond the final span


def test_joint_scaling_preserves_integral(tmp_path):
    body = "timestamp_s,value\n0,60000\n600,45000\n1200,30000\n"
    path = write_trace(tmp_path, body)
    plain = traces.from_csv(path, count_mode=True)
    scaled = traces.from_csv(path, count_mode=True, time_scale=1 / 60, rate_scale=60)
    total_plain = plain.integral(0, 1_800_000)
    total_scaled = scaled.integral(0, 1_800_000 / 60)
    assert total_scaled == pytest.approx(total_plain, rel=1e-9)
    assert total_plain == pytest.approx(135_000.0)


def test_comments_and_blanks_skipped(tmp_path):
    body = "# a trace\n\ntimestamp_s,value\n0,10 # inline note\n60,20\n"
    f = traces.from_csv(write_trace(tmp_path, body))
    assert f.rate(0) == 10.0


def test_parse_errors_carry_row_numbers(tmp_path):
    with pytest.raises(TraceParseError) as err:
        traces.from_csv(write_trace(tmp_path, "timestamp_s,value\n0,10\nbogus,20\n"))
    assert err.value.row == 3
    with pytest.raises(TraceParseError):
        traces.from_csv(write_trace(tmp_path, ""))
    with pytest.raises(TraceParseError):
        traces.from_csv(write_trace(tmp_path, "timestamp_s,value\n0,10\n"))
    with pytest.raises(TraceParseError):
        traces.from_csv(write_trace(tmp_path, "time,count\n0,10\n60,20\n"))
    with pytest.raises(TraceParseError):
        traces.from_csv(write_trace(tmp_path, "timestamp_s,value\n0,10\n0,20\n"))
    with pytest.raises(TraceParseError):
        traces.from_csv(write_trace(tmp_path, "timestamp_s,value\n0,-10\n60,20\n"))


def test_block_quantization_error_bounded():
    f = traces.SinusoidRate(900.0, 400.0, 120_000)
    duration = 600_000
    block = 200
    counts = []
    for t in range(0, duration, block):
        counts.append(round(f.integral(t, t + block)))
    exact = f.integral(0, duration)
    assert abs(sum(counts) - exact) <= len(counts)  # at most one record per block


def test_bundled_day_trace_loads():
    path = traces.day_trace_path()
    f = traces.from_csv(path, count_mode=True, time_scale=1 / 60, rate_scale=60 * 24)
    # 12 h compressed to 720 s of simulated time.
    assert f.rate(720_000 - 1) > 0.0
    assert f.rate(721_000) == 0.0
    rates = [f.rate(t * 1000.0) for t in range(0, 720, 5)]
    assert min(rates) > 0.0
    peak_at = rates.index(max(rates)) * 5
    assert 580 <= peak_at <= 620  # 18:00 in compressed seconds


def test_scale_validation(tmp_path):
    path = write_trace(tmp_path, "timestamp_s,value\n0,10\n60,20\n")
    with pytest.raises(DomainError):
        traces.from_csv(path, time_scale=0.0)
    with pytest.raises(DomainError):
        traces.from_csv(path, rate_scale=-1.0)


@pytest.mark.parametrize("make", [
    lambda bad: traces.constant(bad),
    lambda bad: traces.step(bad, 1000.0, 60_000),
    lambda bad: traces.step(1000.0, bad, 60_000),
    lambda bad: traces.step(1000.0, 2000.0, bad),
    lambda bad: traces.SinusoidRate(bad, 300.0, 60_000),
    lambda bad: traces.SinusoidRate(1000.0, bad, 60_000),
    lambda bad: traces.SinusoidRate(1000.0, 300.0, bad),
], ids=["constant", "step-before", "step-after", "step-switch", "sinusoid-base",
        "sinusoid-amplitude", "sinusoid-period"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(make, bad):
    with pytest.raises(DomainError, match="finite"):
        make(bad)


@pytest.mark.parametrize("scales", [
    {"time_scale": math.nan}, {"time_scale": math.inf},
    {"rate_scale": math.nan}, {"rate_scale": math.inf},
    {"time_scale": 1e306},  # finite, but the scaled timestamps overflow
    {"rate_scale": 1e307},  # finite, but the scaled rates overflow
])
def test_non_finite_scales_rejected(tmp_path, scales):
    path = write_trace(tmp_path, "timestamp_s,value\n0,10\n60,20\n")
    for count_mode in (False, True):
        with pytest.raises(DomainError, match="finite"):
            traces.from_csv(path, count_mode=count_mode, **scales)


@pytest.mark.parametrize("make", [
    lambda peak: traces.constant(peak),
    lambda peak: traces.step(peak, 1000.0, 60_000),
    lambda peak: traces.step(1000.0, peak, 60_000),
    lambda peak: traces.SinusoidRate(peak - 300.0, 300.0, 60_000),
], ids=["constant", "step-before", "step-after", "sinusoid"])
def test_rates_capped_at_max_rate(make):
    make(traces.MAX_RATE)
    for peak in (traces.MAX_RATE * 1.001, 1e308):
        with pytest.raises(DomainError, match="MAX_RATE"):
            make(peak)


def test_csv_rates_capped_at_max_rate(tmp_path):
    path = write_trace(tmp_path, "timestamp_s,value\n0,10\n60,20\n")
    for count_mode, peak in ((False, 20.0), (True, 20.0 / 60.0)):
        traces.from_csv(path, count_mode=count_mode, rate_scale=traces.MAX_RATE / peak)
        with pytest.raises(DomainError, match="MAX_RATE"):
            traces.from_csv(path, count_mode=count_mode,
                            rate_scale=traces.MAX_RATE / peak * 1.001)


def test_sinusoid_whose_integral_overflows_rejected():
    traces.SinusoidRate(1000.0, 0.0, 1e308)  # flat: nothing to overflow
    with pytest.raises(DomainError, match="too large"):
        traces.SinusoidRate(1000.0, 400.0, 1e308)


def test_sinusoid_too_short_for_max_time_rejected():
    # 2 pi / period overflows to inf, and cos(inf * t) is a math domain error.
    with pytest.raises(DomainError, match="too short"):
        traces.SinusoidRate(1000.0, 400.0, 1e-320)
    with pytest.raises(DomainError, match="too short"):
        traces.SinusoidRate(1000.0, 400.0, 3e-292)  # finite w, but w * 2**53 is not
    traces.SinusoidRate(1000.0, 400.0, 4e-292)


@settings(max_examples=300, deadline=None)
@given(base=st.floats(0.0, 2e9) | st.floats(), amplitude=st.floats(0.0, 2e9) | st.floats(),
       period=st.floats(0.0, 1e-280) | st.floats(0.0, 1e9) | st.floats(),
       share=st.floats(0.0, 1.0))
@example(1000.0, 400.0, 1e-320, 0.5)
def test_sinusoid_is_rejected_or_finite_up_to_max_time(base, amplitude, period, share):
    try:
        f = traces.SinusoidRate(base, amplitude, period)
    except DomainError:
        return
    for block, n in ((1, 64), (200, 256), (10**6, 3)):
        last = traces.MAX_TIME_MS - n * block  # every block edge <= MAX_TIME_MS
        for start in (0, int(share * last), last):
            assert all(map(math.isfinite, f.block_integrals(start, block, n)))
