"""Test helpers: a run's rows collected from its flush and split by kind,
and a run's block counts computed one block at a time, independently of the
engine."""

import math
import random

from edgebatch.engine import ROW_CHUNK, BatchRow, MicrobatchEngine
from edgebatch.tracker import WindowRow


def collect(config, trace):
    """(log, rows) of one run: the engine's totals and every row it handed
    its flush, in order. It checks the one flush rule on the way: every
    chunk but the last holds exactly ``ROW_CHUNK`` rows, and the last fewer."""
    rows, sizes = [], []

    def flush(chunk):
        sizes.append(len(chunk))
        rows.extend(chunk)

    log = MicrobatchEngine(config, trace, flush).run()
    assert sizes[:-1] == [ROW_CHUNK] * (len(sizes) - 1), sizes
    assert sizes[-1] < ROW_CHUNK, sizes
    return log, rows


def split_rows(rows):
    """(batch rows, control-tick rows, window rows) of a run's rows, each in
    time order."""
    batches, ticks, windows = [], [], []
    for row in rows:
        kind = type(row)
        (batches if kind is BatchRow else windows if kind is WindowRow else ticks).append(row)
    return batches, ticks, windows


def per_block_counts(config, trace):
    """Record counts of every block of the run, one block at a time: the
    block's integral, scaled by a jitter factor from ``uniform(-1.0, 1.0)``
    on the config's seed, rounded by ``floor(x + 0.5)``."""
    rng = random.Random(config.seed)
    block = config.block_interval
    counts = []
    for end in range(block, config.duration + 1, block):
        expected = trace.integral(end - block, end)
        if config.jitter > 0.0:
            expected *= 1.0 + config.jitter * rng.uniform(-1.0, 1.0)
        counts.append(math.floor(expected + 0.5))
    return counts
