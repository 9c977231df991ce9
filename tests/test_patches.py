import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corruptions, normalize_values
from slowtrack import patches
from slowtrack.errors import DataError, PgmFormatError
from slowtrack.hierarchy import PretrainConfig, pretrain
from slowtrack.patches import (
    Patch,
    load_frame,
    read_boxes_csv,
    sample_training_set,
    save_frame,
    stream_frame_dir,
    write_boxes_csv,
)
from slowtrack.tracker import candidate_patches


def write_pgm(path, width, height, payload, maxval=255, magic=b"P5"):
    path.write_bytes(magic + f"\n{width} {height}\n{maxval}\n".encode() + payload)


def cut(frame, x, y, side):
    """The normalized side x side training patch at (x, y) of one frame."""
    (seq,) = sample_training_set([frame], [(x, y, side, side)], side, side)
    return seq[0]


class TestLoadFrame:
    def test_2x2_values_scaled_by_255(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 2, 2, bytes([0, 255, 128, 64]))
        frame = load_frame(p)
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        np.testing.assert_array_equal(frame, expected)

    def test_ascii_pgm_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 2, 2, b"0 0 0 0", magic=b"P2")
        with pytest.raises(PgmFormatError, match="offset 0"):
            load_frame(p)

    def test_all_zero_frame(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 16, 16, bytes(256))
        frame = load_frame(p)
        assert frame.shape == (16, 16)
        assert not frame.any()

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
        assert frame.shape == (2, 2)

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
        assert frame.nbytes == 320 * 240 * 8
        assert peak <= 0.75e6
        assert not frame.flags.writeable

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, (5, 7)) / 255.0
        save_frame(frame, tmp_path / "f.pgm")
        back = load_frame(tmp_path / "f.pgm")
        np.testing.assert_array_equal(back, frame)

    @pytest.mark.parametrize(
        "frame",
        [
            np.array([[np.nan, 0.5], [0.5, 0.5]]),
            np.array([[-0.01, 0.5], [0.5, 0.5]]),
            np.array([[1.01, 0.5], [0.5, 0.5]]),
            np.full((2, 2, 1), 0.5),
        ],
        ids=["nan", "below-0", "above-1", "3-d"],
    )
    def test_save_rejects_bad_frame_and_writes_nothing(self, tmp_path, frame):
        with pytest.raises(ValueError, match="2-D array of intensities in"):
            save_frame(frame, tmp_path / "f.pgm")
        assert not (tmp_path / "f.pgm").exists()


class TestNormalization:
    def test_constant_window_is_all_zero(self):
        frame = np.full((32, 32), 0.7)
        assert not cut(frame, 8, 8, 16).any()

    def test_affine_ramp_invariance(self):
        ramp = np.tile(np.arange(32) / 64.0, (32, 1))
        f1 = 0.1 + 0.5 * ramp
        f2 = 0.3 + 1.2 * ramp
        np.testing.assert_allclose(cut(f1, 8, 8, 16), cut(f2, 8, 8, 16), atol=1e-12)

    def test_checkerboard_normalizes_to_plus_minus_one(self):
        # mean 0.5, population variance 0.25 -> values (v - 0.5) / 0.5
        board = np.indices((16, 16)).sum(axis=0) % 2
        frame = board.astype(float)
        np.testing.assert_allclose(np.sort(np.unique(cut(frame, 0, 0, 16))), [-1.0, 1.0])

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
    """Windows cut from a frame: the training sampler and the tracker's gather."""

    def test_unsupported_side(self):
        frame = np.zeros((64, 64))
        with pytest.raises(ValueError, match="unsupported patch side"):
            sample_training_set([frame], [(0, 0, 32, 32)], 24, 8)

    def test_window_exceeding_frame(self):
        # no grid cell of a 16x16 window fits an 8x8 frame: nothing is cut
        frame = np.zeros((8, 8))
        assert sample_training_set([frame], [(0, 0, 16, 16)], 16, 16) == []

    def test_window_resampled_nearest(self):
        # a 64x64 box sampled on the 32x32 candidate grid reads every other pixel
        rng = np.random.default_rng(2)
        frame = rng.random((64, 64))
        values, valid = candidate_patches(frame, np.array([[32.0, 32.0, 1.0, 0.0]]), 64.0, 64.0)
        idx = (2 * np.arange(32) + 1) * 64 // 64
        block = frame[np.ix_(idx, idx)]
        assert valid[0]
        np.testing.assert_array_equal(values[0], block.ravel())


class TestSampleTrainingSet:
    def frames(self, n, w=64, h=64, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.random((h, w)) for _ in range(n)]

    def test_single_cell(self):
        frames = self.frames(2)
        boxes = [(10, 12, 16, 16)] * 2
        seqs = sample_training_set(frames, boxes, 16, 16)
        assert len(seqs) == 1
        assert seqs[0].shape == (2, 256)

    def test_2x2_grid(self):
        frames = self.frames(3)
        boxes = [(8, 8, 32, 32)] * 3
        seqs = sample_training_set(frames, boxes, 16, 16)
        assert len(seqs) == 4
        assert sum(len(s) for s in seqs) == 12

    def test_empty_input(self):
        assert sample_training_set([], [], 16, 16) == []

    def test_small_box_skipped(self):
        frames = self.frames(2)
        assert sample_training_set(frames, [(0, 0, 8, 8)] * 2, 16, 16) is None
        assert len(sample_training_set(frames, [(0, 0, 16, 16)] * 2, 16, 16)) == 1

    def test_grid_correspondence_identical_pixel_coordinates(self):
        frames = self.frames(4, seed=5)
        # boxes move, the sampling grid must not; cells run in row-major order
        boxes = [(8 + t, 8, 32, 32) for t in range(4)]
        seqs = sample_training_set(frames, boxes, 16, 16)
        cells = [(gx, gy) for gy in (8, 24) for gx in (8, 24)]
        assert len(seqs) == len(cells)
        for seq, (gx, gy) in zip(seqs, cells):
            for t, values in enumerate(seq):
                window = frames[t][gy : gy + 16, gx : gx + 16]
                np.testing.assert_array_equal(values, normalize_values(window))

    def test_n_bookkeeping(self):
        frames = self.frames(5)
        boxes = [(8, 8, 32, 32)] * 5
        seqs = sample_training_set(frames, boxes, 16, 16)
        assert [s.shape for s in seqs] == [(5, 256)] * 4

    def test_directory_holds_one_decoded_frame_at_a_time(self, tmp_path, monkeypatch):
        for t, frame in enumerate(self.frames(6, seed=7)):
            save_frame(frame, tmp_path / f"{t:06d}.pgm")
        boxes = [(8, 8, 32, 32)] * 6
        eager = sample_training_set(list(stream_frame_dir(tmp_path)), boxes, 16, 16)
        refs = []  # each frame decoded

        def spy(path):
            # every frame decoded before the latest one is freed already
            assert [ref() for ref in refs[:-1]] == [None] * len(refs[:-1])
            frame = load_frame(path)
            refs.append(weakref.ref(frame))
            return frame

        monkeypatch.setattr(patches, "load_frame", spy)
        lazy = sample_training_set(stream_frame_dir(tmp_path), boxes, 16, 16)
        assert len(refs) == 6 and all(ref() is None for ref in refs)
        assert len(lazy) == len(eager) == 4
        for got, want in zip(lazy, eager):
            np.testing.assert_array_equal(got, want)

    def test_frame_count_checked_before_any_frame_is_read(self):
        class Unread(list):
            def __iter__(self):
                raise AssertionError("a frame was read")

        with pytest.raises(DataError, match=r"^3 frames but 2 boxes$"):
            sample_training_set(Unread(self.frames(3)), [(8, 8, 32, 32)] * 2, 16, 16)


class TestSequenceTypes:
    """Training sequences are (L, side**2) arrays; pretrain checks them."""

    FAST = PretrainConfig(f1=2, f2=2)

    def test_sequence_must_be_nonempty(self):
        with pytest.raises(DataError, match="empty"):
            pretrain([np.zeros((0, 256))], [np.zeros((2, 1024))], self.FAST)

    def test_mixed_sides_rejected(self):
        with pytest.raises(DataError, match="expected 16x16"):
            pretrain([np.zeros((2, 256)), np.zeros((2, 1024))], [np.zeros((2, 1024))], self.FAST)


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


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "b.csv"
        path.write_text(f"0,1,2,3,4\n1,{value},2,3,4\n")
        with pytest.raises(DataError, match="non-finite value at line 2"):
            read_boxes_csv(path)

    def test_undecodable_bytes_name_offset(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"0,1,2,3,4\n1,\xd2,2,3,4\n")
        with pytest.raises(DataError, match="not UTF-8 text.*offset 12"):
            read_boxes_csv(path)


class TestLoadFrameDir:
    def test_sorted_by_filename(self, tmp_path):
        rng = __import__("numpy").random.default_rng(0)
        for i in (2, 0, 1):
            frame = rng.random((4, 4))
            save_frame(frame, tmp_path / f"{i:06d}.pgm")
        frames = list(stream_frame_dir(tmp_path))
        assert len(frames) == 3

    def test_length_is_the_file_count_and_decodes_nothing(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1)
        for i in range(3):
            save_frame(rng.random((4, 5)), tmp_path / f"{i:06d}.pgm")
        decoded = []
        monkeypatch.setattr(patches, "load_frame", lambda p: decoded.append(p.name) or load_frame(p))
        frames = stream_frame_dir(tmp_path)
        assert len(frames) == 3 and len(frames[1:]) == 2 and decoded == []
        np.testing.assert_array_equal(frames[-1], load_frame(tmp_path / "000002.pgm"))
        assert decoded == ["000002.pgm"]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no .pgm frames"):
            stream_frame_dir(tmp_path)


class TestParserFuzz:
    """Corrupt bytes give a result or the parser's typed error, never another."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pgm(self, tmp_path_factory, data):
        header = b"P5\n# c\n6 5\n255\n"
        valid = header + bytes(range(0, 240, 8))
        path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        path.write_bytes(data.draw(corruptions(valid)))
        try:
            load_frame(path)
        except PgmFormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_boxes_csv(self, tmp_path_factory, data):
        valid = b"0,144.0,104.0,32.0,32.0\n1,145.5,104.25,32.0,32.0\n2,147.0,103.0,33.5,31.0\n"
        path = tmp_path_factory.getbasetemp() / "fuzz_gt.csv"
        path.write_bytes(data.draw(corruptions(valid)))
        try:
            boxes = read_boxes_csv(path)
        except DataError:
            return
        assert boxes.ndim == 2 and boxes.shape[1] == 4 and np.all(np.isfinite(boxes))
