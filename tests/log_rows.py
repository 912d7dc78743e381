"""Test helpers: a MetricsLog's rows split by kind, and a run's block
counts computed one block at a time, independently of the engine."""

import math
import random

from edgebatch.engine import BatchRow


def split_rows(log):
    """(batch rows, control-tick rows) of log, each in time order."""
    batches, ticks = [], []
    for row in log.rows:
        (batches if type(row) is BatchRow else ticks).append(row)
    return batches, ticks


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
