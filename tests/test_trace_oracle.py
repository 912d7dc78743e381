"""Bit-exact checks of the CSV trace classes against linear-scan oracles.

The oracles are the straightforward full scans over every segment. The
traces bisect to the segments a window touches instead; they must return
exactly the same floats, because the engine rounds each block's expected
count and a last-bit difference could flip a record.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from edgebatch import traces

ORACLE = settings(max_examples=300, deadline=None)


def scan_constant_rate(f, t_ms):
    bp = f.breakpoints
    if t_ms < bp[0] or t_ms >= bp[-1]:
        return 0.0
    for i in range(len(f.rates)):
        if t_ms < bp[i + 1]:
            return f.rates[i]
    return 0.0


def scan_constant_integral(f, t0_ms, t1_ms):
    bp = f.breakpoints
    total = 0.0
    for i, r in enumerate(f.rates):
        lo = max(t0_ms, bp[i])
        hi = min(t1_ms, bp[i + 1])
        if hi > lo:
            total += r * (hi - lo)
    return total / 1000.0


def scan_linear_rate(f, t_ms):
    pts = f.points
    if t_ms <= pts[0][0]:
        return pts[0][1]
    if t_ms >= pts[-1][0]:
        return pts[-1][1]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if t_ms < x1:
            frac = (t_ms - x0) / (x1 - x0)
            return y0 + frac * (y1 - y0)
    return pts[-1][1]


def scan_linear_integral(f, t0_ms, t1_ms):
    if t1_ms == t0_ms:
        return 0.0
    edges = [t0_ms, t1_ms]
    edges += [x for (x, _) in f.points if t0_ms < x < t1_ms]
    edges.sort()
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        total += 0.5 * (scan_linear_rate(f, a) + scan_linear_rate(f, b)) * (b - a)
    return total / 1000.0


TIMES = st.lists(st.floats(-1e6, 1e7, allow_nan=False), min_size=2, max_size=16,
                 unique=True).map(sorted)
RATES = st.floats(0.0, 1e6, allow_nan=False)


@st.composite
def constant_traces(draw):
    bp = draw(TIMES)
    rates = draw(st.lists(RATES, min_size=len(bp) - 1, max_size=len(bp) - 1))
    return traces.PiecewiseConstantTrace(tuple(bp), tuple(rates))


@st.composite
def linear_traces(draw):
    times = draw(TIMES)
    rates = draw(st.lists(RATES, min_size=len(times), max_size=len(times)))
    return traces.PiecewiseLinearTrace(tuple(zip(times, rates)))


@st.composite
def windows(draw, times):
    """(t0, t1) before, straddling or after the trace, edges often exactly on
    a breakpoint, sometimes zero-width, as ints or floats like the engine's."""
    lo, hi = times[0] - 1e6, times[-1] + 1e6
    point = st.one_of(st.sampled_from(times), st.floats(lo, hi),
                      st.integers(int(lo), int(hi)))
    t0 = draw(point)
    t1 = t0 if draw(st.booleans()) and draw(st.booleans()) else draw(point)
    return min(t0, t1), max(t0, t1)


@ORACLE
@given(st.data())
def test_constant_trace_matches_scan(data):
    f = data.draw(constant_traces())
    t0, t1 = data.draw(windows(f.breakpoints))
    assert f.integral(t0, t1) == scan_constant_integral(f, t0, t1)
    assert f.rate(t0) == scan_constant_rate(f, t0)
    assert f.rate(t1) == scan_constant_rate(f, t1)


@ORACLE
@given(st.data())
def test_linear_trace_matches_scan(data):
    f = data.draw(linear_traces())
    t0, t1 = data.draw(windows([x for x, _ in f.points]))
    assert f.integral(t0, t1) == scan_linear_integral(f, t0, t1)
    assert f.rate(t0) == scan_linear_rate(f, t0)
    assert f.rate(t1) == scan_linear_rate(f, t1)


def test_day_trace_blocks_match_scan():
    # Every 200 ms block of the day preset's trace, the engine's exact calls.
    f = traces.from_csv(traces.day_trace_path(), count_mode=True,
                        time_scale=1 / 60, rate_scale=60 * 24)
    for end in range(200, 720_200, 200):
        start, now = end - 200, float(end)
        assert f.integral(start, now) == scan_constant_integral(f, start, now)
