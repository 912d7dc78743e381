"""A MetricsLog's rows split by kind, for the tests."""

from edgebatch.engine import BatchRow


def split_rows(log):
    """(batch rows, control-tick rows) of log, each in time order."""
    batches, ticks = [], []
    for row in log.rows:
        (batches if type(row) is BatchRow else ticks).append(row)
    return batches, ticks
