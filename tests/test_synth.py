import hashlib
import tracemalloc

import numpy as np
import pytest

from slowtrack.errors import DataError
from slowtrack.patches import load_frame, read_boxes_csv
from slowtrack.synth import (
    MotionScript,
    _bandlimited,
    _wrap_blur,
    deformation_script,
    frame_name,
    generate_sequence,
    rotation_script,
    scaling_script,
    translation_script,
    write_sequence,
)


class TestScripts:
    def test_schedule_lengths_validated(self):
        with pytest.raises(ValueError, match="frame count"):
            MotionScript(
                np.zeros((3, 2)),
                np.zeros(2),
                np.ones(3),
                np.zeros(3),
            )

    def test_factories_cover_patterns(self):
        # each factory moves exactly its own part of the pose
        scripts = {
            "centers": translation_script(5, (0, 0), (1, 0)),
            "rotations": rotation_script(5, (0, 0), 0.1),
            "scales": scaling_script(5, (0, 0), 1.01),
            "shear_amps": deformation_script(5, (0, 0), 2.0),
        }
        for moving, script in scripts.items():
            assert script.n_frames == 5
            for name in scripts:
                values = getattr(script, name)
                assert values.shape == ((5, 2) if name == "centers" else (5,))
                assert (np.ptp(values, axis=0).max() > 0) == (name == moving), (moving, name)

    def test_scalar_schedule_values_hold_for_every_frame(self):
        script = MotionScript(np.zeros((3, 2)), 0.5, 2.0, [0.0, 1.0, 2.0])
        assert script.rotations.tolist() == [0.5] * 3
        assert script.scales.tolist() == [2.0] * 3
        assert not script.scales.flags.writeable

    @pytest.mark.parametrize("field", ["centers", "rotations", "scales", "shear_amps"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_schedule_rejected(self, field, bad):
        values = {"centers": np.zeros((3, 2)), "rotations": np.zeros(3),
                  "scales": np.ones(3), "shear_amps": np.zeros(3)}
        values[field][-1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MotionScript(**values)

    @pytest.mark.parametrize("period", [0.0, -25.0, np.nan])
    def test_deformation_time_period_must_be_positive(self, period):
        with pytest.raises(ValueError, match="time period"):
            deformation_script(5, (0, 0), 2.0, time_period=period)


class TestGenerate:
    def test_zero_motion_is_static(self):
        script = translation_script(4, (60.0, 50.0), (0.0, 0.0))
        frames, gt = generate_sequence(script, (120, 100), seed=1)
        frames = list(frames)
        for f in frames[1:]:
            np.testing.assert_array_equal(f, frames[0])
        assert np.ptp(gt.boxes, axis=0).max() == 0.0

    def test_translation_box_progression(self):
        script = translation_script(5, (40.0, 50.0), (2.0, 0.0))
        _, gt = generate_sequence(script, (160, 100), seed=1)
        np.testing.assert_array_equal(np.diff(gt.boxes[:, 0]), [2.0] * 4)
        np.testing.assert_array_equal(np.diff(gt.boxes[:, 1]), [0.0] * 4)

    def test_quarter_turn_matches_rot90_oracle(self):
        k = 10
        script = rotation_script(k + 1, (80.0, 60.0), (np.pi / 2) / k)
        frames, gt = generate_sequence(script, (160, 120), seed=3)
        b0 = gt.boxes[0].astype(int)
        bn = gt.boxes[-1].astype(int)
        crop0 = frames[0][b0[1] : b0[1] + b0[3], b0[0] : b0[0] + b0[2]]
        cropn = frames[-1][bn[1] : bn[1] + bn[3], bn[0] : bn[0] + bn[2]]
        np.testing.assert_array_equal(cropn, np.rot90(crop0, -1))

    def test_deterministic_given_seed(self):
        script = deformation_script(6, (60.0, 50.0), 3.0)
        a, gt_a = generate_sequence(script, (120, 100), seed=9)
        b, gt_b = generate_sequence(script, (120, 100), seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        np.testing.assert_array_equal(gt_a.boxes, gt_b.boxes)

    def test_off_frame_schedule_names_frame(self):
        script = translation_script(30, (30.0, 50.0), (-3.0, 0.0))
        with pytest.raises(DataError, match="frame 3"):
            generate_sequence(script, (120, 100), seed=1)

    def test_scaling_grows_box(self):
        script = scaling_script(20, (60.0, 50.0), 1.02)
        _, gt = generate_sequence(script, (160, 120), seed=2)
        assert gt.boxes[-1, 2] > gt.boxes[0, 2]

    def test_shear_keeps_height_changes_width(self):
        script = deformation_script(13, (60.0, 50.0), 4.0, time_period=24)
        _, gt = generate_sequence(script, (160, 120), seed=2)
        # peak shear near frame 6 widens the box
        assert gt.boxes[6, 2] > gt.boxes[0, 2]
        assert gt.boxes[6, 3] == gt.boxes[0, 3]


class TestWriteSequence:
    def test_writes_numbered_pgms_and_gt(self, tmp_path):
        script = translation_script(3, (60.0, 50.0), (1.0, 0.0))
        frames, gt = generate_sequence(script, (120, 100), seed=4)
        out = tmp_path / "seq"
        write_sequence(frames, gt, out)
        files = sorted(p.name for p in out.glob("*.pgm"))
        assert files == ["000000.pgm", "000001.pgm", "000002.pgm"]
        np.testing.assert_array_equal(read_boxes_csv(out / "gt.csv"), gt.boxes)
        # in-memory frames are already 8-bit quantized: round trip exact
        back = load_frame(out / "000001.pgm")
        np.testing.assert_array_equal(back, frames[1])

    def test_memory_holds_one_frame_not_the_sequence(self, tmp_path):
        # 100 float64 frames of 320x240 are 61 MB; the sequence holds the
        # background and each frame's target footprint, and is written one
        # composed frame at a time
        script = rotation_script(100, (160.0, 120.0), np.deg2rad(1.5))
        tracemalloc.start()
        try:
            frames, gt = generate_sequence(script, (320, 240), seed=3)
            write_sequence(frames, gt, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert len(frames) == len(list(tmp_path.glob("*.pgm"))) == 100
        passes = [[hashlib.sha256(f.tobytes()).digest() for f in frames] for _ in range(2)]
        assert passes[0] == passes[1]
        for t in range(len(frames)):
            np.testing.assert_array_equal(load_frame(tmp_path / frame_name(t)), frames[t])


class TestWrapBlur:
    @pytest.mark.parametrize("sigma", [1.2, 3.0])
    def test_matches_scipy_gaussian_filter_bit_for_bit(self, sigma):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(round(sigma * 10))
        # sides below the radius (5 at 1.2, 12 at 3.0) wrap more than once
        shapes = [(1, 17), (17, 1), (1, 1), (4, 4), (10, 9), (32, 32), (240, 320)]
        shapes += [tuple(rng.integers(1, 200, 2)) for _ in range(30)]
        for shape in shapes:
            a = rng.random(shape)
            got = _wrap_blur(a, sigma)
            want = ndimage.gaussian_filter(a, sigma, mode="wrap")
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), shape


# SHA-256 of the float64 bytes of `_bandlimited` (seed 7) at the texture's
# and the background's sigma and range, as made when scipy's
# gaussian_filter still did the blur; unlike the 8-bit frames they change
# with the last bit of the blur
BANDLIMITED_SHA256 = {
    ((4, 4), 1.2, 0.02, 0.98): "d3366fdaffea8a0181cdd3b9ef5e637a52390f2b3ea10521d593c4d4b2317372",
    ((32, 32), 1.2, 0.02, 0.98): "68f7e70275e409a3e04599d4b1beda85eaacc8a39430e833361ffb2b05101a85",
    ((90, 120), 3.0, 0.35, 0.65): "e145e2536ea375d1ba7fc04a49202f6125d9356e16c6f274fe32af508f72212c",
}


@pytest.mark.parametrize(
    "args", list(BANDLIMITED_SHA256), ids=["texture-4x4", "texture-32x32", "background-120x90"]
)
def test_bandlimited_bytes_pinned(args):
    out = _bandlimited(np.random.default_rng(7), *args)
    assert out.flags.c_contiguous
    assert hashlib.sha256(out.tobytes()).hexdigest() == BANDLIMITED_SHA256[args]


# SHA-256 over the file names and bytes (frames and gt.csv, in name order)
# that write_sequence writes for each script, as made when scipy's
# gaussian_filter still smoothed the texture and the background
PINNED_SCRIPTS = {
    "translation": lambda: translation_script(4, (56.0, 45.0), (2.0, 1.0)),
    "rotation": lambda: rotation_script(4, (60.0, 45.0), 0.3),
    # a 4x4 texture is narrower than the texture blur's radius
    "scaling": lambda: scaling_script(4, (60.0, 45.0), 1.05, target_side=4),
    "deformation": lambda: deformation_script(4, (60.0, 45.0), 3.0, time_period=8.0),
}
SEQUENCE_SHA256 = {
    "deformation": "aa558f4a31431498d5ce99932067dffce8f34747be4d52e1040ebcbd1047a606",
    "rotation": "073853fccfcf4f854b72b591e95f866c4c5d08e76a3d32fd0460be0b03fc69cb",
    "scaling": "870caaec557ddec504f3028b2501b82810efe21225cd0464087d12b37723e074",
    "translation": "34ff22df59e6f300252f2c9d952ae2dd88ca0c0a945ea27cf84509d2a490a0a0",
}


@pytest.mark.parametrize("pattern", sorted(PINNED_SCRIPTS))
def test_sequence_bytes_pinned(pattern, tmp_path):
    frames, gt = generate_sequence(PINNED_SCRIPTS[pattern](), (120, 90), seed=7)
    write_sequence(frames, gt, tmp_path)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == SEQUENCE_SHA256[pattern]
