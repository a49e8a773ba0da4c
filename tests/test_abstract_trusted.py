"""The trusted internal constructors of the abstract domain, and NaN at the boundary.

``Box._trusted`` / ``Interval._trusted`` wrap freshly computed float64
arrays without the public constructors' conversion, broadcast and copies.
They must reject exactly what the public constructors reject, build
bit-identical objects from what both accept, and hand anything that is not
two float64 arrays of equal shape to the public constructor.
"""

import numpy as np
import pytest

from repro.abstract import transformers
from repro.abstract.box import Box
from repro.abstract.interval import Interval

NAN = float("nan")


def _bits(*arrays):
    return [np.asarray(array).tobytes() for array in arrays]


def _both_box(center, deviation):
    """(public, trusted) outcomes: the Box built, or the exception type raised."""
    outcomes = []
    for build in (Box, Box._trusted):
        try:
            outcomes.append(build(np.array(center, dtype=np.float64), np.array(deviation, dtype=np.float64)))
        except ValueError as error:
            outcomes.append(type(error))
    return outcomes


def _both_interval(lo, hi):
    outcomes = []
    for build in (Interval, Interval._trusted):
        try:
            outcomes.append(build(np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)))
        except ValueError as error:
            outcomes.append(type(error))
    return outcomes


class TestNaNRejectedAtTheBoundary:
    def test_interval_nan_bound(self):
        with pytest.raises(ValueError):
            Interval(np.nan, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, np.nan)
        with pytest.raises(ValueError):
            Interval([0.0, np.nan], [1.0, 2.0])

    def test_box_nan_deviation(self):
        with pytest.raises(ValueError):
            Box([0.0], [np.nan])

    def test_box_from_bounds_nan(self):
        with pytest.raises(ValueError):
            Box.from_bounds([np.nan], [1.0])
        with pytest.raises(ValueError):
            Box.from_bounds([0.0], [np.nan])

    def test_inf_bounds_still_accepted(self):
        interval = Interval(-np.inf, np.inf)
        assert interval.lo == -np.inf and interval.hi == np.inf
        assert Box([0.0], [np.inf]).deviation[0] == np.inf


class TestTrustedRejectsLikePublic:
    @pytest.mark.parametrize("center, deviation", [
        ([0.0, 1.0], [1.0, -1.0]),
        ([0.0], [-2e-12]),
        ([0.0], [NAN]),
        ([[0.0, 1.0], [2.0, 3.0]], [[0.5, NAN], [0.0, 0.0]]),
    ])
    def test_box_rejections(self, center, deviation):
        assert _both_box(center, deviation) == [ValueError, ValueError]

    @pytest.mark.parametrize("lo, hi", [
        ([1.0], [0.0]),
        ([0.0, 2.0 + 1e-11], [1.0, 2.0]),
        ([NAN], [1.0]),
        ([0.0], [NAN]),
        (NAN, NAN),
    ])
    def test_interval_rejections(self, lo, hi):
        assert _both_interval(lo, hi) == [ValueError, ValueError]

    def test_box_tolerance_and_clamp_agree(self):
        public, trusted = _both_box([0.0, 1.0, -0.0], [-1e-13, 0.0, 2.0])
        assert _bits(public.center, public.deviation) == _bits(trusted.center, trusted.deviation)
        assert np.all(trusted.deviation >= 0.0)

    def test_interval_tolerance_agrees(self):
        public, trusted = _both_interval([1.0 + 1e-13], [1.0])
        assert _bits(public.lo, public.hi) == _bits(trusted.lo, trusted.hi)

    def test_random_boxes_bit_identical(self):
        rng = np.random.default_rng(0)
        for shape in [(), (3,), (4, 5)]:
            center = rng.normal(size=shape) * 1e3
            deviation = np.abs(rng.normal(size=shape))
            public, trusted = Box(center, deviation), Box._trusted(center.copy(), deviation.copy())
            assert _bits(public.center, public.deviation, public.lo, public.hi) == \
                _bits(trusted.center, trusted.deviation, trusted.lo, trusted.hi)


class TestTrustedSkipsCopies:
    def test_box_keeps_center_and_clamps_deviation_into_a_fresh_array(self):
        center, deviation = np.array([1.0, 2.0]), np.array([0.5, 0.0])
        box = Box._trusted(center, deviation)
        assert box.center is center
        assert box.deviation is not deviation
        assert _bits(box.deviation) == _bits(deviation)

    def test_interval_keeps_both_arrays(self):
        lo, hi = np.array([0.0, 1.0]), np.array([1.0, 1.0])
        interval = Interval._trusted(lo, hi)
        assert interval.lo is lo and interval.hi is hi


class TestTrustedFallsBack:
    def test_box_shape_mismatch_broadcasts_like_public(self):
        box = Box._trusted(np.zeros((3, 2)), np.array([0.5, 1.0]))
        assert box.center.shape == box.deviation.shape == (3, 2)
        assert np.all(box.deviation == [0.5, 1.0])

    def test_box_dtype_mismatch_converts_like_public(self):
        box = Box._trusted(np.array([1, 2]), np.array([0.5, 1.0], dtype=np.float32))
        assert box.center.dtype == box.deviation.dtype == np.float64
        public = Box([1, 2], np.array([0.5, 1.0], dtype=np.float32))
        assert _bits(box.center, box.deviation) == _bits(public.center, public.deviation)

    def test_box_non_arrays_fall_back(self):
        box = Box._trusted([1.0], 0.5)
        assert box.center.shape == box.deviation.shape == (1,)
        with pytest.raises(ValueError):
            Box._trusted([1.0], -1.0)

    def test_interval_shape_and_dtype_mismatch_fall_back(self):
        interval = Interval._trusted(np.zeros(3), np.array(1.0))
        assert interval.lo.shape == interval.hi.shape == (3,)
        interval = Interval._trusted(np.array([0, 1]), np.array([1.0, 2.0], dtype=np.float32))
        assert interval.lo.dtype == interval.hi.dtype == np.float64
        with pytest.raises(ValueError):
            Interval._trusted(np.array([2, 3]), np.array([1.0, 2.0], dtype=np.float32))

    def test_fallback_copies_the_caller_arrays(self):
        center = np.array([1, 2])
        box = Box._trusted(center, np.array([0.0, 0.0]))
        center[0] = 7
        assert box.center[0] == 1.0

    def test_shift_by_a_broadcasting_offset(self):
        box = Box(np.zeros((1, 1)), np.ones((1, 1)))
        shifted = box.shift(np.array([[1.0], [2.0], [3.0]]))
        assert shifted.center.shape == shifted.deviation.shape == (3, 1)
        assert np.all(shifted.deviation == 1.0)
        assert np.all(shifted.center.reshape(-1) == [1.0, 2.0, 3.0])


class TestTransformersStillValidate:
    def test_nan_action_box_is_rejected(self):
        action = Box._trusted(np.array([[0.1]]), np.array([[0.2]]))
        nan_action = Box(np.array([[NAN]]), np.array([[0.0]]))
        assert transformers.cwnd_from_action(action, 10.0).deviation.shape == (1, 1)
        with pytest.raises(ValueError):
            transformers.cwnd_from_action(nan_action, 10.0)

    def test_transformer_results_do_not_alias_inputs(self):
        box = Box(np.array([0.5, -0.5]), np.array([0.25, 0.25]))
        for result in (box.shift(1.0), box.scale(2.0), box.relu(), box.tanh(),
                       transformers.clamp_min(box, 0.0), box.affine(np.eye(2))):
            assert not np.shares_memory(result.deviation, box.deviation)
