import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowtrack.errors import DataError, PgmFormatError
from slowtrack.patches import (
    Frame,
    Patch,
    PatchSequence,
    TrainingSet,
    extract_patch,
    load_frame,
    load_frame_dir,
    normalize_values,
    read_boxes_csv,
    sample_training_set,
    save_frame,
    write_boxes_csv,
)


def write_pgm(path, width, height, payload, maxval=255, magic=b"P5"):
    path.write_bytes(magic + f"\n{width} {height}\n{maxval}\n".encode() + payload)


class TestLoadFrame:
    def test_2x2_values_scaled_by_255(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 2, 2, bytes([0, 255, 128, 64]))
        frame = load_frame(p)
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        np.testing.assert_array_equal(frame.pixels, expected)

    def test_ascii_pgm_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 2, 2, b"0 0 0 0", magic=b"P2")
        with pytest.raises(PgmFormatError, match="offset 0"):
            load_frame(p)

    def test_all_zero_frame(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 16, 16, bytes(256))
        frame = load_frame(p)
        assert frame.pixels.shape == (16, 16)
        assert not frame.pixels.any()

    def test_truncated_payload_names_offset(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 4, 4, bytes(10))
        with pytest.raises(PgmFormatError, match="truncated at byte offset"):
            load_frame(p)

    def test_bad_header_token_names_offset(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\nfour 4\n255\n" + bytes(16))
        with pytest.raises(PgmFormatError, match="byte offset 3"):
            load_frame(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 2, 2, bytes(8), maxval=65535)
        with pytest.raises(PgmFormatError, match="maxval"):
            load_frame(p)

    def test_comments_allowed_in_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n# comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        frame = load_frame(p)
        assert frame.width == 2 and frame.height == 2

    def test_frame_pixels_allocated_once(self, tmp_path):
        # a 320x240 frame keeps 0.61 MB of float64; building it twice peaked
        # at 1.38 MB
        p = tmp_path / "big.pgm"
        rng = np.random.default_rng(1)
        write_pgm(p, 320, 240, rng.integers(0, 256, 320 * 240, dtype=np.uint8).tobytes())
        load_frame(p)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            frame = load_frame(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frame.pixels.nbytes == 320 * 240 * 8
        assert peak <= 0.75e6
        assert not frame.pixels.flags.writeable

    def test_caller_array_is_copied(self):
        px = np.full((3, 4), 0.25)
        frame = Frame(4, 3, px)
        px[0, 0] = 0.75
        assert frame.pixels[0, 0] == 0.25
        assert px.flags.writeable and not frame.pixels.flags.writeable

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = Frame(7, 5, rng.integers(0, 256, (5, 7)) / 255.0)
        save_frame(frame, tmp_path / "f.pgm")
        back = load_frame(tmp_path / "f.pgm")
        np.testing.assert_array_equal(back.pixels, frame.pixels)


class TestNormalization:
    def test_constant_window_is_all_zero(self):
        frame = Frame(32, 32, np.full((32, 32), 0.7))
        patch = extract_patch(frame, (16, 16), 16)
        assert not patch.values.any()

    def test_affine_ramp_invariance(self):
        ramp = np.tile(np.arange(32) / 64.0, (32, 1))
        f1 = Frame(32, 32, 0.1 + 0.5 * ramp)
        f2 = Frame(32, 32, 0.3 + 1.2 * ramp)
        p1 = extract_patch(f1, (16, 16), 16)
        p2 = extract_patch(f2, (16, 16), 16)
        np.testing.assert_allclose(p1.values, p2.values, atol=1e-12)

    def test_checkerboard_normalizes_to_plus_minus_one(self):
        # mean 0.5, population variance 0.25 -> values (v - 0.5) / 0.5
        board = np.indices((16, 16)).sum(axis=0) % 2
        frame = Frame(16, 16, board.astype(float))
        patch = extract_patch(frame, (8, 8), 16)
        np.testing.assert_allclose(np.sort(np.unique(patch.values)), [-1.0, 1.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=256, max_size=256), st.integers(0, 5))
    def test_idempotent(self, values, _):
        once = normalize_values(np.array(values))
        twice = normalize_values(once)
        assert np.max(np.abs(once - twice)) <= 1e-12

    def test_patch_invariants_enforced(self):
        with pytest.raises(ValueError, match="not zero-mean"):
            Patch(16, np.ones(256))
        with pytest.raises(ValueError, match="unsupported patch side"):
            Patch(8, np.zeros(64))


class TestExtractPatch:
    def test_unsupported_side(self):
        frame = Frame(64, 64, np.zeros((64, 64)))
        with pytest.raises(ValueError, match="unsupported patch side"):
            extract_patch(frame, (32, 32), 24)

    def test_window_exceeding_frame(self):
        frame = Frame(8, 8, np.zeros((8, 8)))
        with pytest.raises(DataError, match="exceeds frame"):
            extract_patch(frame, (4, 4), 16)

    def test_clamped_to_bounds(self):
        rng = np.random.default_rng(1)
        frame = Frame(32, 32, rng.random((32, 32)))
        near_corner = extract_patch(frame, (2, 2), 16)
        at_corner = extract_patch(frame, (8, 8), 16)
        np.testing.assert_array_equal(near_corner.values, at_corner.values)

    def test_window_resampled_nearest(self):
        rng = np.random.default_rng(2)
        frame = Frame(64, 64, rng.random((64, 64)))
        patch = extract_patch(frame, (32, 32), 16, window=32)
        idx = (2 * np.arange(16) + 1) * 32 // 32
        block = frame.pixels[16:48, 16:48][np.ix_(idx, idx)]
        np.testing.assert_allclose(patch.values, normalize_values(block))


class TestSampleTrainingSet:
    def frames(self, n, w=64, h=64, seed=0):
        rng = np.random.default_rng(seed)
        return [Frame(w, h, rng.random((h, w))) for _ in range(n)]

    def test_single_cell(self):
        frames = self.frames(2)
        boxes = [(10, 12, 16, 16)] * 2
        out = sample_training_set([frames], [boxes], 16, 16)
        ts = out.training_set
        assert len(ts.sequences) == 1
        assert len(ts.sequences[0]) == 2
        assert out.skipped_sequences == 0

    def test_2x2_grid(self):
        frames = self.frames(3)
        boxes = [(8, 8, 32, 32)] * 3
        ts = sample_training_set([frames], [boxes], 16, 16).training_set
        assert len(ts.sequences) == 4
        assert ts.n == 12

    def test_empty_input(self):
        out = sample_training_set([], [], 16, 16)
        assert out.training_set.n == 0

    def test_small_box_skipped_with_count(self):
        frames = self.frames(2)
        out = sample_training_set(
            [frames, frames], [[(0, 0, 8, 8)] * 2, [(0, 0, 16, 16)] * 2], 16, 16
        )
        assert out.skipped_sequences == 1
        assert len(out.training_set.sequences) == 1

    def test_grid_correspondence_identical_pixel_coordinates(self):
        frames = self.frames(4, seed=5)
        # boxes move, the sampling grid must not
        boxes = [(8 + t, 8, 32, 32) for t in range(4)]
        ts = sample_training_set([frames], [boxes], 16, 16).training_set
        for seq in ts.sequences:
            _, coords = seq.sequence_id.split(":")
            gx, gy = (int(v) for v in coords.split(","))
            for t, patch in enumerate(seq.patches):
                window = frames[t].pixels[gy : gy + 16, gx : gx + 16]
                np.testing.assert_array_equal(patch.values, normalize_values(window))

    def test_n_bookkeeping(self):
        frames = self.frames(5)
        boxes = [(8, 8, 32, 32)] * 5
        ts = sample_training_set([frames], [boxes], 16, 16).training_set
        assert ts.n == ts.pair_count + len(ts.sequences)


class TestSequenceTypes:
    def test_sequence_must_be_nonempty(self):
        with pytest.raises(ValueError, match="empty"):
            PatchSequence(())

    def test_mixed_sides_rejected(self):
        p16 = Patch(16, np.zeros(256))
        p32 = Patch(32, np.zeros(1024))
        with pytest.raises(ValueError, match="mixed"):
            PatchSequence((p16, p32))

    def test_training_set_n(self):
        p = Patch(16, np.zeros(256))
        ts = TrainingSet((PatchSequence((p, p)), PatchSequence((p,))))
        assert ts.n == 3
        assert ts.pair_count == 1


class TestBoxCsv:
    def test_round_trip(self, tmp_path):
        boxes = np.array([[1.5, 2.25, 30.0, 40.0], [2.0, 3.0, 30.0, 40.0]])
        path = tmp_path / "b.csv"
        write_boxes_csv(path, boxes)
        np.testing.assert_array_equal(read_boxes_csv(path), boxes)
        text = path.read_text()
        assert text.splitlines()[0] == "0,1.5,2.25,30.0,40.0"

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("0,1,2,3,4\n1,oops,2,3,4\n")
        with pytest.raises(DataError, match="line 2"):
            read_boxes_csv(path)

    def test_out_of_order_index(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("0,1,2,3,4\n2,1,2,3,4\n")
        with pytest.raises(DataError, match="out of order"):
            read_boxes_csv(path)


class TestLoadFrameDir:
    def test_sorted_by_filename(self, tmp_path):
        rng = __import__("numpy").random.default_rng(0)
        for i in (2, 0, 1):
            frame = Frame(4, 4, rng.random((4, 4)))
            save_frame(frame, tmp_path / f"{i:06d}.pgm")
        frames = load_frame_dir(tmp_path)
        assert len(frames) == 3

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no .pgm frames"):
            load_frame_dir(tmp_path)
