import numpy as np
import pytest

from slowtrack.errors import DataError
from slowtrack.patches import load_frame, read_boxes_csv
from slowtrack.synth import (
    MotionScript,
    deformation_script,
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
