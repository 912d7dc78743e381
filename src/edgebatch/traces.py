"""Input-rate functions for the engine: constant, step, sinusoid, CSV replay.

Every rate function reports records/second at a millisecond timestamp and
can integrate itself exactly over an arbitrary window, so the engine can
quantize arrivals per block without numerical drift.

Three classes cover the four trace shapes. ``PiecewiseConstantTrace`` holds
the constant and step traces, which ``constant`` and ``step`` build over
[0, MAX_TIME_MS), and the count-mode CSV trace; ``SinusoidRate`` is the
sinusoid, built directly since it needs no builder function, and
``PiecewiseLinearTrace`` the rate-mode CSV trace. A constant or
step trace gives the same floats as its closed form: with non-negative
terms, ``(0.0 + before * (lo - t0)) + after * (t1 - lo)`` adds the same
values as ``before * (lo - t0) + after * (t1 - lo)``, and ``0.0 + x`` is x.

The engine asks for a run of equal blocks at once: ``block_integrals(start,
block, n)`` returns the same n floats, bit for bit, as ``integral`` block by
block, which is what the default does. An override may only change how the
floats are reached, never which floats come out, because the engine rounds
each block's expected count and a last-bit difference could flip a record.

Cost per call: the sinusoid is O(1). The piecewise traces bisect to the
first segment a window touches, so ``rate`` is O(log n) and ``integral`` is
O(log n + k) for n breakpoints and k segments overlapping the window; the
terms are summed in segment order, as a full scan would sum them. A constant
or step trace has at most three breakpoints, so each call is O(1) there.
``block_integrals`` costs n ``integral`` calls by default, which only the
rate-mode CSV trace takes. The piecewise-constant trace overrides it with
O(log n) work per run of blocks inside one segment plus one ``integral``
call per block on a segment edge; the sinusoid with one ``cos`` per block
edge, n + 1 in all instead of 2n.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter
from pathlib import Path

from .errors import DomainError, TraceParseError

HEADER = "timestamp_s,value"

# The highest rate a trace may reach, in records/s. It is far above any edge
# node's input (the presets peak near 2,400 records/s) and keeps a block's
# expected count, and every sum or product of counts, well inside float range.
MAX_RATE = 1e9
MAX_TIME_MS = 2**53  # every integer up to here is exact as a float

_time = itemgetter(0)  # of a (t_ms, rate) sample


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"trace parameters must be finite, got {v}")


def _check_peak(peak: float) -> None:
    if peak > MAX_RATE:
        raise DomainError(f"rate {peak:g} records/s is above MAX_RATE ({MAX_RATE:g})")


class RateFunction:
    """Records/second over simulated time, with an exact window integral."""

    kind = "abstract"

    def rate(self, t_ms: float) -> float:
        raise NotImplementedError

    def integral(self, t0_ms: float, t1_ms: float) -> float:
        """Expected record count arriving in [t0_ms, t1_ms)."""
        raise NotImplementedError

    def block_integrals(self, start: int, block: int, n: int) -> list[float]:
        """``integral`` over each of the n blocks of ``block`` ms from
        ``start`` on (all ints, block > 0), as exactly the same floats."""
        integral = self.integral
        return [integral(a, a + block) for a in range(start, start + n * block, block)]

    def _check_window(self, t0_ms: float, t1_ms: float) -> None:
        if t1_ms < t0_ms:
            raise DomainError(f"window end {t1_ms} before start {t0_ms}")


@dataclass(frozen=True)
class SinusoidRate(RateFunction):
    base: float
    amplitude: float
    period_ms: float
    kind = "sinusoid"

    def __post_init__(self):
        _check_finite(self.base, self.amplitude, self.period_ms)
        _check_peak(self.base + self.amplitude)
        if self.amplitude < 0:
            raise DomainError("amplitude must be >= 0")
        if self.base < self.amplitude:
            raise DomainError("base must be >= amplitude or the rate would go negative")
        if self.period_ms <= 0:
            raise DomainError("period must be positive")
        # cos(w * t) needs w * t finite for every time the engine can reach.
        if not math.isfinite(2.0 * math.pi / self.period_ms * MAX_TIME_MS):
            raise DomainError(f"period {self.period_ms!r} ms is too short")
        if not math.isfinite(self.amplitude / (2.0 * math.pi / self.period_ms)):
            raise DomainError("amplitude times period is too large to integrate")

    def rate(self, t_ms: float) -> float:
        return self.base + self.amplitude * math.sin(2.0 * math.pi * t_ms / self.period_ms)

    def integral(self, t0_ms: float, t1_ms: float) -> float:
        self._check_window(t0_ms, t1_ms)
        w = 2.0 * math.pi / self.period_ms
        swing = (self.amplitude / w) * (math.cos(w * t0_ms) - math.cos(w * t1_ms))
        return (self.base * (t1_ms - t0_ms) + swing) / 1000.0

    def block_integrals(self, start: int, block: int, n: int) -> list[float]:
        # integral's expressions in its order; adjacent blocks share an edge,
        # so each edge's cosine is evaluated once. t1 - t0 is block exactly.
        w = 2.0 * math.pi / self.period_ms
        scale, flat, cos = self.amplitude / w, self.base * block, math.cos
        edges = [cos(w * t) for t in range(start, start + (n + 1) * block, block)]
        return [(flat + scale * (c0 - c1)) / 1000.0 for c0, c1 in zip(edges, edges[1:])]


@dataclass(frozen=True)
class PiecewiseConstantTrace(RateFunction):
    """rates[i] records/s over [breakpoints[i], breakpoints[i + 1]), 0 outside:
    the constant and step traces, and the count-mode CSV trace, whose rows'
    counts spread evenly over their intervals."""

    breakpoints: tuple[float, ...]  # non-decreasing segment edges in ms, one more than rates
    rates: tuple[float, ...]
    kind = "trace_counts"

    def __post_init__(self):
        if len(self.breakpoints) != len(self.rates) + 1:
            raise DomainError("breakpoints must be one longer than rates")

    def rate(self, t_ms: float) -> float:
        bp = self.breakpoints
        if t_ms < bp[0] or t_ms >= bp[-1]:
            return 0.0
        return self.rates[bisect_right(bp, t_ms) - 1]

    def integral(self, t0_ms: float, t1_ms: float) -> float:
        self._check_window(t0_ms, t1_ms)
        bp, rates = self.breakpoints, self.rates
        total = 0.0
        i = max(bisect_right(bp, t0_ms) - 1, 0)  # segments before i end by t0_ms
        while i < len(rates) and bp[i] < t1_ms:
            lo = max(t0_ms, bp[i])
            hi = min(t1_ms, bp[i + 1])
            if hi > lo:
                total += rates[i] * (hi - lo)
            i += 1
        return total / 1000.0

    def block_integrals(self, start: int, block: int, n: int) -> list[float]:
        # A block inside segment i gets what integral computes for it,
        # (0.0 + rates[i] * block) / 1000.0, so a run of such blocks shares
        # one float. Blocks on an edge, before bp[0] or from bp[-1] on call
        # integral.
        bp, rates = self.breakpoints, self.rates
        out: list[float] = []
        k = 0  # blocks done
        while k < n:
            a = start + k * block
            i = bisect_right(bp, a) - 1  # bp[i] <= a < bp[i + 1]
            m = 0  # blocks from a on that end by bp[i + 1]
            if 0 <= i < len(rates):
                end = bp[i + 1]
                m = min(int((end - a) // block), n - k)
                # end - a can round up onto a block multiple when end is
                # fractional; the exact int/float comparison settles it.
                while m and a + m * block > end:
                    m -= 1
            if m:
                out += [(0.0 + rates[i] * block) / 1000.0] * m
                k += m
            else:
                out.append(self.integral(a, a + block))
                k += 1
        return out


@dataclass(frozen=True)
class PiecewiseLinearTrace(RateFunction):
    """Rate-sample trace: linear between samples, flat beyond the ends."""

    points: tuple[tuple[float, float], ...]  # (t_ms, rate), t_ms non-decreasing
    kind = "trace_rates"

    def rate(self, t_ms: float) -> float:
        pts = self.points
        if t_ms <= pts[0][0]:
            return pts[0][1]
        if t_ms >= pts[-1][0]:
            return pts[-1][1]
        i = bisect_right(pts, t_ms, key=_time)  # first sample after t_ms
        (x0, y0), (x1, y1) = pts[i - 1], pts[i]
        frac = (t_ms - x0) / (x1 - x0)
        return y0 + frac * (y1 - y0)

    def integral(self, t0_ms: float, t1_ms: float) -> float:
        self._check_window(t0_ms, t1_ms)
        if t1_ms == t0_ms:
            return 0.0
        pts = self.points
        inner = pts[bisect_right(pts, t0_ms, key=_time):bisect_left(pts, t1_ms, key=_time)]
        edges = [t0_ms, *(x for x, _ in inner), t1_ms]
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            total += 0.5 * (self.rate(a) + self.rate(b)) * (b - a)
        return total / 1000.0


def _check_rates(*rates: float) -> None:
    _check_finite(*rates)
    _check_peak(max(rates))
    if min(rates) < 0:
        raise DomainError(f"rates must be >= 0, got {min(rates)}")


def constant(rate: float) -> PiecewiseConstantTrace:
    """``rate`` records/s over [0, MAX_TIME_MS)."""
    _check_rates(rate)
    return PiecewiseConstantTrace((0, MAX_TIME_MS), (rate,))


def step(before: float, after: float, switch_ms: float) -> PiecewiseConstantTrace:
    """``before`` records/s until ``switch_ms``, then ``after``, over
    [0, MAX_TIME_MS); a switch from MAX_TIME_MS on never comes."""
    _check_finite(switch_ms)
    _check_rates(before, after)
    if switch_ms < 0:
        raise DomainError("switch time must be >= 0")
    return PiecewiseConstantTrace((0, min(switch_ms, MAX_TIME_MS), MAX_TIME_MS),
                                  (before, after))


def load_trace_rows(path: str | Path) -> list[tuple[float, float]]:
    """Parse a trace CSV: a 'timestamp_s,value' header, then numeric rows.

    Blank lines and '#' comments are skipped. Timestamps must be strictly
    increasing and values non-negative.
    """
    rows: list[tuple[float, float]] = []
    seen_header = False
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if not seen_header:
            if body.replace(" ", "") != HEADER:
                raise TraceParseError(f"expected header {HEADER!r}, got {body!r}", row=lineno)
            seen_header = True
            continue
        parts = body.split(",")
        if len(parts) != 2:
            raise TraceParseError(f"expected two fields, got {len(parts)}", row=lineno)
        try:
            ts, value = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise TraceParseError(f"bad number: {exc}", row=lineno) from exc
        if not (math.isfinite(ts) and math.isfinite(value)):
            raise TraceParseError("values must be finite", row=lineno)
        if value < 0:
            raise TraceParseError(f"negative value {value}", row=lineno)
        if rows and ts <= rows[-1][0]:
            raise TraceParseError(f"timestamp {ts} not increasing", row=lineno)
        rows.append((ts, value))
    if not seen_header:
        raise TraceParseError("empty trace file")
    if len(rows) < 2:
        raise TraceParseError("need at least two data rows")
    return rows


def from_csv(path: str | Path, count_mode: bool = False,
             time_scale: float = 1.0, rate_scale: float = 1.0) -> RateFunction:
    """Build a rate function from a trace file.

    In count mode each row's value is the record count for the span up to the
    next row (the final row reuses the previous spacing). Otherwise values
    are rate samples in records/s, interpolated linearly. ``time_scale``
    multiplies timestamps, ``rate_scale`` multiplies rates; the trace
    integral is preserved when rate_scale == 1 / time_scale.
    """
    _check_finite(time_scale, rate_scale)
    if time_scale <= 0 or rate_scale <= 0:
        raise DomainError("scales must be positive")
    rows = load_trace_rows(path)
    to_ms = 1000.0 * time_scale
    if count_mode:
        edges = [ts * to_ms for ts, _ in rows]
        edges.append(rows[-1][0] * to_ms + (edges[-1] - edges[-2]))
        spans_s = [b - a for (a, _), (b, _) in zip(rows, rows[1:])]
        spans_s.append(spans_s[-1])
        rates = [rate_scale * count / span_s for (_, count), span_s in zip(rows, spans_s)]
        # Rows are finite, increasing and >= 0, so only scaling can overflow,
        # and it does so first at the extremes.
        peak = max(rates)
        _check_finite(edges[0], edges[-1], peak)
        _check_peak(peak)
        return PiecewiseConstantTrace(tuple(edges), tuple(rates))
    points = tuple((ts * to_ms, value * rate_scale) for ts, value in rows)
    peak = max(v for _, v in points)
    _check_finite(points[0][0], points[-1][0], peak)
    _check_peak(peak)
    return PiecewiseLinearTrace(points)


def day_trace_path() -> Path:
    """Path of the bundled synthetic day-shape trace (counts per 10 minutes)."""
    return Path(str(resources.files("edgebatch").joinpath("data/day_trace.csv")))
