import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebatch import fuzzy
from edgebatch.errors import DomainError
from edgebatch.fuzzy import (
    ControllerConfig,
    _bracket,
    _snap,
    adjust_interval,
    clamp,
    compute_traffic_change,
    compute_workload_deviation,
    infer,
)

NB, NS, ZO, PS, PB = range(5)


def fuzzify(x):
    """The nonzero snapped membership degrees infer reads at a tie, for x in
    [-0.2, 0.2]."""
    i, lo, hi = _bracket(x)
    return {label: w for label, w in ((i, _snap(lo)), (i + 1, _snap(hi))) if w > 0.0}


def test_fuzzify_at_center_is_crisp():
    assert fuzzify(0.0) == {ZO: 1.0}
    assert fuzzify(-0.2) == {NB: 1.0}
    assert fuzzify(0.2) == {PB: 1.0}


def test_fuzzify_midpoint_splits_evenly():
    degrees = fuzzify(0.05)
    assert degrees == pytest.approx({ZO: 0.5, PS: 0.5})


def test_fuzzify_clamps_out_of_range():
    # C and D are clamped once, as they are computed, so out-of-range
    # inputs reach infer saturated.
    assert fuzzify(compute_workload_deviation(1.5)) == {PB: 1.0}
    assert fuzzify(compute_traffic_change(-2000.0, 1000.0)) == {NB: 1.0}


@given(st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=300)
def test_partition_of_unity(x):
    degrees = fuzzify(clamp(x))
    assert len(degrees) <= 2
    assert math.isclose(sum(degrees.values()), 1.0, rel_tol=1e-9)


def test_default_table_shape_and_corners():
    levels = fuzzy.DEFAULT_RULES  # rows by the D label, columns by the C label
    assert levels[NB][NB] == -2
    assert levels[PB][PB] == 2
    assert levels[ZO][ZO] == 0
    assert levels[NB][ZO] == -1
    assert levels[PB][ZO] == 1


def test_infer_neutral():
    assert infer(0.0, 0.0) == 0


def test_infer_extremes():
    assert infer(0.2, 0.2) == 2
    assert infer(-0.2, -0.2) == -2


def test_infer_mixed_example():
    # C and D both 0.15: four rules fire at 0.5, levels 1,1,1,2 -> mean 1.25.
    assert infer(0.15, 0.15) == 1


def test_infer_overload_with_flat_traffic():
    assert infer(0.0, 0.2) == 1
    assert infer(0.0, -0.2) == -1


def test_infer_small_deviation_is_dead_zone():
    assert infer(0.0, -0.05) == 0
    assert infer(0.0, 0.1) == 0
    assert infer(0.0, -0.149) == 0
    assert infer(0.0, -0.15) == -1


@given(st.floats(-0.25, 0.25), st.floats(-0.25, 0.25))
@settings(max_examples=300)
def test_infer_odd_symmetry(c, d):
    c, d = clamp(c), clamp(d)
    assert infer(c, d) == -infer(-c, -d)


def test_infer_monotone_over_grid():
    grid = [round(-0.2 + 0.01 * k, 4) for k in range(41)]
    for d in grid:
        prev = None
        for c in grid:
            val = infer(c, d)
            if prev is not None:
                assert val >= prev
            prev = val
    for c in grid:
        prev = None
        for d in grid:
            val = infer(c, d)
            if prev is not None:
                assert val >= prev
            prev = val


def test_clamp_helpers():
    assert compute_traffic_change(1200.0, 1000.0) == pytest.approx(0.2)
    assert compute_traffic_change(5000.0, 1000.0) == 0.2
    assert compute_traffic_change(0.0, 1000.0) == -0.2
    assert compute_traffic_change(500.0, 0.0) == 0.0
    assert compute_workload_deviation(0.95) == pytest.approx(-0.05)
    assert compute_workload_deviation(27.0) == 0.2


def cfg(**kw):
    base = dict(min_interval=400, max_interval=6000)
    base.update(kw)
    return ControllerConfig(**base)


def test_adjust_interval_steps_and_clamps():
    c = cfg()
    assert adjust_interval(2000, -1, 200, c) == 1800
    assert adjust_interval(2000, 2, 200, c) == 2400
    assert adjust_interval(400, -2, 200, c) == 400
    assert adjust_interval(6000, 1, 200, c) == 6000


def test_adjust_interval_always_block_multiple_in_range():
    c = cfg()
    for current in range(400, 6001, 200):
        for level in range(-2, 3):
            out = adjust_interval(current, level, 200, c)
            assert out % 200 == 0
            assert 400 <= out <= 6000


def test_controller_config_validation():
    with pytest.raises(DomainError):
        cfg(control_period=0)
