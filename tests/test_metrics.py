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

    def test_union_of_huge_finite_areas(self):
        # each area is 1.69e308, so their plain sum overflows
        t = trace([0, 0, 1.3e154, 1.3e154])
        assert overlap_rate(t, t)[1] == 1.0
        half = trace([0, 0, 1.3e154, 0.65e154])
        assert overlap_rate(half, t)[1] == pytest.approx(0.5, abs=1e-12)
