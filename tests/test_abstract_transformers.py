"""Tests for the standalone abstract transformers (including the cwnd map)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract import transformers
from repro.abstract.box import Box
from repro.abstract.interval import Interval
from repro.cc.base import MIN_CWND
from repro.orca.agent import cwnd_from_action as controller_cwnd


class TestElementwise:
    def test_add_independent_boxes(self):
        a = Box([1.0], [0.5])
        b = Box([2.0], [1.0])
        result = transformers.add(a, b)
        assert result.lo[0] == pytest.approx(1.5)
        assert result.hi[0] == pytest.approx(4.5)

    def test_subtract_independent_boxes(self):
        a = Box([1.0], [0.5])
        b = Box([2.0], [1.0])
        result = transformers.subtract(a, b)
        assert result.lo[0] == pytest.approx(-2.5)
        assert result.hi[0] == pytest.approx(0.5)

    def test_monotone_exp(self):
        box = Box([0.0], [1.0])
        result = transformers.monotone(box, np.exp)
        assert result.lo[0] == pytest.approx(np.exp(-1.0))
        assert result.hi[0] == pytest.approx(np.exp(1.0))

    def test_exp2(self):
        result = transformers.exp2(Box([1.0], [1.0]))
        assert result.lo[0] == pytest.approx(1.0)
        assert result.hi[0] == pytest.approx(4.0)

    def test_interval_of_accepts_both(self):
        assert isinstance(transformers.interval_of(Box([0.0], [1.0])), Interval)
        assert isinstance(transformers.interval_of(Interval(0.0, 1.0)), Interval)
        with pytest.raises(TypeError):
            transformers.interval_of(42)


class TestCwndMap:
    def test_point_action_matches_equation(self):
        action = Box.point([0.5])
        cwnd = transformers.cwnd_from_action(action, cwnd_tcp=10.0)
        expected = 2.0 ** (2 * 0.5) * 10.0
        assert cwnd.lo[0] == pytest.approx(expected)
        assert cwnd.hi[0] == pytest.approx(expected)

    def test_full_action_range_bounds(self):
        action = Box.from_bounds([-1.0], [1.0])
        cwnd = transformers.cwnd_from_action(action, cwnd_tcp=10.0)
        assert cwnd.lo[0] == pytest.approx(2.5)   # 2^-2 * 10
        assert cwnd.hi[0] == pytest.approx(40.0)  # 2^2 * 10

    def test_action_clipping(self):
        action = Box.from_bounds([-5.0], [5.0])
        cwnd = transformers.cwnd_from_action(action, cwnd_tcp=10.0)
        assert cwnd.lo[0] == pytest.approx(2.5)
        assert cwnd.hi[0] == pytest.approx(40.0)

    def test_negative_cwnd_tcp_rejected(self):
        with pytest.raises(ValueError):
            transformers.cwnd_from_action(Box.point([0.0]), cwnd_tcp=-1.0)

    def test_delta_cwnd(self):
        cwnd = Box.from_bounds([8.0], [12.0])
        delta = transformers.delta_cwnd(cwnd, cwnd_prev=10.0)
        assert delta.lo[0] == pytest.approx(-2.0)
        assert delta.hi[0] == pytest.approx(2.0)

    def test_cwnd_change_fraction(self):
        cwnd = Box.from_bounds([9.0], [11.0])
        frac = transformers.cwnd_change_fraction(cwnd, cwnd_ref=10.0)
        assert frac.lo[0] == pytest.approx(-0.1)
        assert frac.hi[0] == pytest.approx(0.1)

    def test_cwnd_change_fraction_requires_positive_reference(self):
        with pytest.raises(ValueError):
            transformers.cwnd_change_fraction(Box.point([10.0]), cwnd_ref=0.0)


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 500.0),
)
@settings(max_examples=60, deadline=None)
def test_cwnd_map_soundness(a, b, t, cwnd_tcp):
    lo, hi = min(a, b), max(a, b)
    action_box = Box.from_bounds([lo], [hi])
    concrete_action = lo + t * (hi - lo)
    concrete_cwnd = 2.0 ** (2 * concrete_action) * cwnd_tcp
    abstract = transformers.cwnd_from_action(action_box, cwnd_tcp)
    assert abstract.contains([concrete_cwnd], tol=1e-6 * max(1.0, concrete_cwnd))


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 500.0),
)
@settings(max_examples=60, deadline=None)
def test_floored_cwnd_map_matches_controller(a, b, t, cwnd_tcp):
    """cwnd_from_action + clamp_min(MIN_CWND) contains the controller's own window."""
    lo, hi = min(a, b), max(a, b)
    action_box = Box.from_bounds([lo], [hi])
    concrete_cwnd = controller_cwnd(lo + t * (hi - lo), cwnd_tcp)
    abstract = transformers.clamp_min(transformers.cwnd_from_action(action_box, cwnd_tcp), MIN_CWND)
    assert abstract.contains([concrete_cwnd], tol=1e-6 * max(1.0, concrete_cwnd))
    assert abstract.lo[0] >= MIN_CWND - 1e-12


def test_clamp_min_leaves_unbound_rows_untouched():
    box = Box(np.array([[5.0], [1.0]]), np.array([[1.0], [2.0]]))
    clamped = transformers.clamp_min(box, 2.0)
    assert clamped.center[0, 0] == 5.0 and clamped.deviation[0, 0] == 1.0
    assert clamped.lo[1, 0] == pytest.approx(2.0)
    assert clamped.hi[1, 0] == pytest.approx(3.0)
