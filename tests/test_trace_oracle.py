"""Bit-exact checks of the trace classes against straightforward oracles.

The oracles for ``rate`` and ``integral`` are the full scans over every
segment; the CSV traces bisect to the segments a window touches instead.
The constant and step traces are also checked against the closed forms of
their integrals. The
oracle for ``block_integrals`` is ``integral`` called block by block; the
count trace sweeps runs of blocks inside one segment and the sinusoid shares
each block edge's cosine instead. All must return exactly the same floats,
because the engine rounds each block's expected count and a last-bit
difference could flip a record.
"""

from functools import partial

import pytest
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


def per_block(f, start, block, n):
    return [f.integral(a, a + block) for a in range(start, start + n * block, block)]


@st.composite
def count_traces(draw):
    """Count-mode traces as from_csv builds them: whole-second rows times
    1000 * time_scale ms, so fractional edges at time_scale 1/6, and some
    zero-length segments."""
    to_ms = 1000.0 * draw(st.sampled_from([1.0, 1 / 6, 1 / 60, 0.37]))
    seconds = draw(st.lists(st.integers(-100, 100), min_size=2, max_size=12).map(sorted))
    edges = [t * to_ms for t in seconds]
    rates = draw(st.lists(RATES, min_size=len(edges) - 1, max_size=len(edges) - 1))
    return traces.PiecewiseConstantTrace(tuple(edges), tuple(rates))


@ORACLE
@given(st.data())
def test_count_trace_block_integrals_match_integral(data):
    f = data.draw(count_traces())
    bp = f.breakpoints
    block = data.draw(st.sampled_from([1, 7, 100, 200, 333, 1000, 5000]))
    # From before bp[0] to past bp[-1], so runs straddle every edge.
    start = data.draw(st.integers(int(bp[0]) - 3 * block, int(bp[-1]) + block))
    n = data.draw(st.integers(0, max(int(bp[-1] - start) // block + 3, 0)))
    assert f.block_integrals(start, block, n) == per_block(f, start, block, n)
    assert f.block_integrals(start, block, 0) == []


def test_count_trace_run_ends_on_a_rounded_edge():
    # 599.9999999999999 - (-2000) rounds to 2600.0, 13 blocks of 200 ms, but
    # only 12 end by the edge; the 13th straddles it.
    f = traces.PiecewiseConstantTrace((-2000.0, 599.9999999999999, 1000.0), (1000.0, 3000.0))
    assert f.block_integrals(-2000, 200, 20) == per_block(f, -2000, 200, 20)


@ORACLE
@given(base=RATES, share=st.floats(0.0, 1.0), period=st.floats(1.0, 1e9),
       start=st.integers(0, 2**40), block=st.integers(1, 10**6), n=st.integers(0, 64))
def test_sinusoid_block_integrals_match_integral(base, share, period, start, block, n):
    f = traces.SinusoidRate(base, base * share, period)
    assert f.block_integrals(start, block, n) == per_block(f, start, block, n)


@pytest.mark.parametrize("f", [
    traces.PiecewiseLinearTrace(((0.0, 100.0), (333.3, 2000.0), (5000.0, 0.0))),
], ids=["linear"])
def test_default_block_integrals_call_integral_per_block(f):
    for start, n in ((0, 0), (0, 300), (29_000, 40)):
        assert f.block_integrals(start, 200, n) == per_block(f, start, 200, n)


# -- constant and step traces against their closed forms -----------------------


def closed_constant(v, t0_ms, t1_ms):
    return v * (t1_ms - t0_ms) / 1000.0


def closed_step(before, after, switch_ms, t0_ms, t1_ms):
    lo = min(max(switch_ms, t0_ms), t1_ms)
    return (before * (lo - t0_ms) + after * (t1_ms - lo)) / 1000.0


MAX_MS = traces.MAX_TIME_MS
TRACE_RATES = st.one_of(st.just(0.0), st.floats(0.0, traces.MAX_RATE))
SWITCHES = st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6), st.just(0),
                     st.integers(MAX_MS, 2**60), st.floats(float(MAX_MS), 1e300))
# Windows inside [0, MAX_TIME_MS]: near the start, where the switches are,
# and at the end.
WINDOW_MS = st.one_of(st.integers(0, 2 * 10**6), st.floats(0.0, 2e6),
                      st.integers(MAX_MS - 10**6, MAX_MS))
# A run of up to 64 blocks of up to 1e5 ms from a start ends by MAX_TIME_MS,
# past which a trace is 0 and the closed forms are not.
STARTS = st.one_of(st.integers(0, 2 * 10**6), st.integers(MAX_MS - 10**7, MAX_MS - 64 * 10**5))


def closed_form_case(draw):
    """(trace, closed form of its integral) for a drawn constant or step."""
    if draw(st.booleans()):
        v = draw(TRACE_RATES)
        return traces.constant(v), partial(closed_constant, v)
    before, after, switch = draw(TRACE_RATES), draw(TRACE_RATES), draw(SWITCHES)
    return traces.step(before, after, switch), partial(closed_step, before, after, switch)


def closed_blocks(closed, start, block, n):
    return [closed(a, a + block) for a in range(start, start + n * block, block)]


@ORACLE
@given(data=st.data())
def test_constant_and_step_integral_match_closed_forms(data):
    f, closed = closed_form_case(data.draw)
    t0, t1 = sorted((data.draw(WINDOW_MS), data.draw(WINDOW_MS)))
    assert repr(f.integral(t0, t1)) == repr(closed(t0, t1))


@ORACLE
@given(data=st.data(), block=st.integers(1, 10**5), n=st.integers(0, 64))
def test_constant_and_step_block_integrals_match_closed_forms(data, block, n):
    f, closed = closed_form_case(data.draw)
    start = data.draw(STARTS)
    assert repr(f.block_integrals(start, block, n)) == repr(closed_blocks(closed, start, block, n))


EDGE_SWITCHES = {"inside-a-block": 30_100, "fractional": 30_100.5, "zero": 0,
                 "max-time": MAX_MS, "past-max-time": MAX_MS + 1, "huge": 1e300}


@pytest.mark.parametrize("f, closed", [
    (traces.constant(1234.5), partial(closed_constant, 1234.5)),
    *((traces.step(500.0, 1500.0, s), partial(closed_step, 500.0, 1500.0, s))
      for s in EDGE_SWITCHES.values()),
], ids=["constant", *(f"step-{name}" for name in EDGE_SWITCHES)])
def test_constant_and_step_edges_match_closed_forms(f, closed):
    assert f.breakpoints == tuple(sorted(f.breakpoints))  # a switch past the end is clamped
    for start, n in ((0, 0), (0, 300), (29_000, 40), (MAX_MS - 40 * 200, 40)):
        assert repr(f.block_integrals(start, 200, n)) == repr(closed_blocks(closed, start, 200, n))
    for t0, t1 in ((0, 30_000), (30_000, 30_200), (30_100, 30_100.5), (0, MAX_MS)):
        assert repr(f.integral(t0, t1)) == repr(closed(t0, t1))


def test_day_workload_blocks_match_integral():
    # The benchmark's day trace (time scale 1/6, fractional edges), every
    # 200 ms block of its 2 h, in the engine's chunks and in one call.
    f = traces.from_csv(traces.day_trace_path(), count_mode=True,
                        time_scale=1 / 6, rate_scale=21.6)
    whole = per_block(f, 0, 200, 36_000)
    chunked = [x for a in range(0, 36_000, 256)
               for x in f.block_integrals(a * 200, 200, min(256, 36_000 - a))]
    assert chunked == whole == f.block_integrals(0, 200, 36_000)
