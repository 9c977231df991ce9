import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowtrack.errors import DataError
from slowtrack.metrics import BoxTrace, center_error, overlap_rate

finite_box = st.tuples(
    st.floats(-100, 100),
    st.floats(-100, 100),
    st.floats(0.5, 50),
    st.floats(0.5, 50),
)


def trace(*boxes):
    return BoxTrace(np.array(boxes, dtype=float))


class TestCenterError:
    def test_identical_traces_zero(self):
        t = trace([0, 0, 4, 4], [1, 2, 4, 4])
        per_frame, avg = center_error(t, t)
        np.testing.assert_array_equal(per_frame, [0.0, 0.0])
        assert avg == 0.0

    def test_pythagorean_offset(self):
        gt = trace([0, 0, 2, 2], [5, 5, 2, 2])
        pred = trace([3, 4, 2, 2], [8, 9, 2, 2])
        per_frame, avg = center_error(pred, gt)
        np.testing.assert_array_equal(per_frame, [5.0, 5.0])
        assert avg == 5.0

    def test_single_frame_average(self):
        per_frame, avg = center_error(trace([0, 0, 2, 2]), trace([1, 0, 2, 2]))
        assert avg == per_frame[0] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            center_error(trace([0, 0, 1, 1]), trace([0, 0, 1, 1], [0, 0, 1, 1]))

    @settings(max_examples=50, deadline=None)
    @given(finite_box, finite_box, st.floats(-50, 50), st.floats(-50, 50))
    def test_translation_equivariance(self, a, b, dx, dy):
        shift = np.array([dx, dy, 0.0, 0.0])
        base, _ = center_error(trace(a), trace(b))
        moved, _ = center_error(
            trace(np.array(a) + shift), trace(np.array(b) + shift)
        )
        assert abs(base[0] - moved[0]) < 1e-9

    def test_distance_beyond_float64_reads_inf(self):
        per_frame, avg = center_error(trace([0, -1e308, 2, 2]), trace([0, 1e308, 2, 2]))
        assert per_frame[0] == avg == np.inf

    def test_mean_finite_whenever_it_truly_is(self):
        per_frame, avg = center_error(
            trace([0, -1e308, 2, 2], [0, 0, 2, 2]), trace([0, 1e308, 2, 2], [0, 0, 2, 2])
        )
        np.testing.assert_array_equal(per_frame, [np.inf, 0.0])
        assert avg == pytest.approx(1e308, rel=1e-15)
        # each 1e308 apart: their sum overflows, their mean does not
        per_frame, avg = center_error(
            trace(*[[0, -0.5e308, 2, 2]] * 2), trace(*[[0, 0.5e308, 2, 2]] * 2)
        )
        assert avg == pytest.approx(1e308, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(finite_box, finite_box), min_size=1, max_size=20))
    def test_ordinary_boxes_match_the_plain_formulas(self, pairs):
        pred, gt = trace(*[p for p, _ in pairs]), trace(*[g for _, g in pairs])
        diff = pred.centers() - gt.centers()
        plain = np.hypot(diff[:, 0], diff[:, 1])
        per_frame, avg = center_error(pred, gt)
        np.testing.assert_array_equal(per_frame, plain)
        assert avg == plain.mean()
        a, b = pred.boxes, gt.boxes
        lo, hi = np.maximum(a[:, :2], b[:, :2]), np.minimum(a[:, :2] + a[:, 2:], b[:, :2] + b[:, 2:])
        inter = np.prod(np.maximum(0.0, hi - lo), axis=1) / 2
        iou = np.clip(inter / (a[:, 2] * a[:, 3] / 2 + b[:, 2] * b[:, 3] / 2 - inter), 0.0, 1.0)
        np.testing.assert_array_equal(overlap_rate(pred, gt)[0], iou)


class TestOverlapRate:
    def test_identical_boxes(self):
        t = trace([3, 4, 10, 12])
        _, avg = overlap_rate(t, t)
        assert avg == 1.0

    def test_disjoint_boxes(self):
        _, avg = overlap_rate(trace([0, 0, 2, 2]), trace([10, 10, 2, 2]))
        assert avg == 0.0

    def test_one_third_fixture(self):
        # intersection 2, union 6
        per_frame, avg = overlap_rate(trace([0, 0, 2, 2]), trace([1, 0, 2, 2]))
        assert avg == pytest.approx(1.0 / 3.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(finite_box, finite_box)
    def test_symmetric_and_bounded(self, a, b):
        ab, _ = overlap_rate(trace(a), trace(b))
        ba, _ = overlap_rate(trace(b), trace(a))
        assert abs(ab[0] - ba[0]) < 1e-12
        assert 0.0 <= ab[0] <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(finite_box, finite_box)
    def test_equals_one_iff_identical(self, a, b):
        v, _ = overlap_rate(trace(a), trace(b))
        if v[0] == 1.0:
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_non_positive_dims_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            trace([0, 0, 0, 2])

    @pytest.mark.parametrize(
        "box", [[1e308, 0, 1e308, 10], [0, 1e308, 10, 1e308], [0, 0, 1e200, 1e200]],
        ids=["right-edge", "bottom-edge", "area"],
    )
    def test_overflowing_box_rejected(self, box):
        with pytest.raises(ValueError, match="finite"):
            trace(box)

    def test_far_apart_disjoint_boxes(self):
        per_frame, avg = overlap_rate(trace([0, -1e308, 2, 2]), trace([0, 1e308, 2, 2]))
        assert per_frame[0] == avg == 0.0

    def test_union_of_huge_finite_areas(self):
        # each area is 1.69e308, so their plain sum overflows
        t = trace([0, 0, 1.3e154, 1.3e154])
        assert overlap_rate(t, t)[1] == 1.0
        half = trace([0, 0, 1.3e154, 0.65e154])
        assert overlap_rate(half, t)[1] == pytest.approx(0.5, abs=1e-12)
