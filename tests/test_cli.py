import argparse
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from slowtrack.cli import _build_parser
from slowtrack.hierarchy import PretrainConfig, load_model
from slowtrack.patches import read_boxes_csv
from slowtrack.tracker import TrackerConfig


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "slowtrack", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def synth(out, pattern="translation", frames=24, seed=5, **extra):
    args = ["synth", "--pattern", pattern, "--frames", frames, "--out", out,
            "--seed", seed, "--size", "140x120", "--target-side", "48"]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", value])
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    return res


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    synth(root / "a", pattern="translation", velocity="1,0")
    synth(root / "b", pattern="rotation", seed=6)
    return root


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli_model") / "model.hftm"
    res = run_cli(
        "pretrain", "--data", data_dir / "a", data_dir / "b", "--out", out,
        "--f1", 8, "--f2", 4, "--max-iters", 15, "--seed", 1,
    )
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def track_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_track")
    synth(root / "seq", pattern="translation", frames=30, seed=9,
          velocity="0.5,0", size="120x100", target_side="32")
    return root / "seq"


def init_box_of(seq_dir):
    row = read_boxes_csv(seq_dir / "gt.csv")[0]
    return ",".join(str(v) for v in row)


def test_cli_import_leaves_scipy_ndimage_out():
    # only synthesis smooths noise; every other command skips the import
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, slowtrack.cli; print('scipy.ndimage' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


class TestSynth:
    def test_writes_frames_and_gt(self, tmp_path):
        res = synth(tmp_path / "s", frames=10)
        assert "wrote 10 frames" in res.stdout
        assert len(list((tmp_path / "s").glob("*.pgm"))) == 10
        assert (tmp_path / "s" / "gt.csv").is_file()

    def test_zero_frames_usage_error(self, tmp_path):
        res = run_cli("synth", "--pattern", "rotation", "--frames", 0,
                      "--out", tmp_path / "x", "--seed", 1)
        assert res.returncode == 2

    def test_byte_identical_reruns(self, tmp_path):
        synth(tmp_path / "one", frames=6, seed=3)
        synth(tmp_path / "two", frames=6, seed=3)
        for name in [p.name for p in (tmp_path / "one").iterdir()]:
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()


class TestPretrain:
    def test_missing_gt_exits_3_naming_dir(self, tmp_path):
        (tmp_path / "empty").mkdir()
        res = run_cli("pretrain", "--data", tmp_path / "empty", "--out",
                      tmp_path / "m.hftm", "--f1", 8, "--f2", 4)
        assert res.returncode == 3
        assert "empty" in res.stderr

    def test_identical_invocations_identical_models(self, tmp_path, data_dir):
        for name in ("m1.hftm", "m2.hftm"):
            res = run_cli("pretrain", "--data", data_dir / "a", "--out",
                          tmp_path / name, "--f1", 8, "--f2", 4,
                          "--max-iters", 5, "--seed", 2)
            assert res.returncode == 0, res.stderr
        assert (tmp_path / "m1.hftm").read_bytes() == (tmp_path / "m2.hftm").read_bytes()

    def test_reports_objectives(self, model_path):
        model = load_model(model_path)
        assert model.layer1.weights.shape[0] == 8

    def test_stdout_says_what_the_optimizer_did(self, tmp_path, data_dir):
        res = run_cli("pretrain", "--data", data_dir / "a", "--out",
                      tmp_path / "m.hftm", "--f1", 8, "--f2", 4, "--max-iters", 3)
        assert res.returncode == 0, res.stderr
        for layer in ("layer1", "layer2"):
            m = re.search(
                rf"^{layer} objective: (\S+) -> (\S+) "
                r"\(3 iterations, (\d+) evals, max_iters\)$",
                res.stdout,
                re.MULTILINE,
            )
            assert m, res.stdout
            assert float(m[2]) < float(m[1]) and int(m[3]) >= 4

    def test_stdout_says_what_whitening_kept(self, tmp_path, data_dir):
        res = run_cli("pretrain", "--data", data_dir / "a", "--out",
                      tmp_path / "m.hftm", "--f1", 8, "--f2", 4, "--max-iters", 3)
        assert res.returncode == 0, res.stderr
        m = re.search(r"^whitening: (\d+) of (\d+) dimensions kept \((\S+) of the variance\)$",
                      res.stdout, re.MULTILINE)
        assert m, res.stdout
        whitening = load_model(tmp_path / "m.hftm").whitening
        assert (int(m[1]), int(m[2])) == (whitening.retained_dim, whitening.input_dim)
        assert 0.99 <= float(m[3]) <= 1.0

    def test_lambda_warning_outside_range(self, tmp_path, data_dir):
        res = run_cli("pretrain", "--data", data_dir / "a", "--out",
                      tmp_path / "m.hftm", "--f1", 8, "--f2", 4,
                      "--max-iters", 2, "--lambda", 30.0)
        assert res.returncode == 0
        assert "warning" in res.stderr and "lambda" in res.stderr


class TestAdapt:
    def test_missing_model_exits_2(self, tmp_path, track_dir):
        res = run_cli("adapt", "--model", tmp_path / "nope.hftm", "--frames",
                      track_dir, "--init-box", init_box_of(track_dir),
                      "--out", tmp_path / "o.hftm")
        assert res.returncode == 2

    def test_huge_gamma_small_relative_change(self, tmp_path):
        # rotation decorrelates the bootstrap patches and the small whitened
        # dim keeps the layer-2 data spanning, so the large-gamma pull can
        # pin both layers; warm-started adaptation stays in the
        # few-iteration regime
        synth(tmp_path / "rot", pattern="rotation", frames=25, seed=9,
              size="120x100", target_side="32")
        res = run_cli("pretrain", "--data", tmp_path / "rot", "--out",
                      tmp_path / "m.hftm", "--f1", 8, "--f2", 4,
                      "--max-iters", 60, "--whiten-dim", 8, "--seed", 1)
        assert res.returncode == 0, res.stderr
        res = run_cli("adapt", "--model", tmp_path / "m.hftm", "--frames",
                      tmp_path / "rot", "--init-box", init_box_of(tmp_path / "rot"),
                      "--gamma", 1e6, "--out", tmp_path / "adapted.hftm",
                      "--init-frames", 20, "--max-iters", 10)
        assert res.returncode == 0, res.stderr
        rels = [
            float(line.rsplit(" ", 1)[-1].rstrip(")"))
            for line in res.stdout.splitlines()
            if line.startswith("layer") and "relative" in line
        ]
        assert len(rels) == 2
        assert all(r < 1e-2 for r in rels)
        assert "warning" in res.stderr  # gamma outside [90, 110]

    def test_output_model_loads_and_differs(self, tmp_path, model_path, track_dir):
        out = tmp_path / "adapted.hftm"
        res = run_cli("adapt", "--model", model_path, "--frames", track_dir,
                      "--init-box", init_box_of(track_dir), "--gamma", 100,
                      "--out", out, "--init-frames", 10)
        assert res.returncode == 0, res.stderr
        before = load_model(model_path)
        after = load_model(out)
        assert not np.array_equal(before.layer1.weights, after.layer1.weights)


    def test_reads_only_the_frames_it_uses(self, tmp_path, model_path, track_dir):
        # a truncated late frame is never decoded by a 5-frame adaptation
        seq = tmp_path / "seq"
        seq.mkdir()
        for path in track_dir.iterdir():
            (seq / path.name).write_bytes(path.read_bytes())
        last = sorted(seq.glob("*.pgm"))[-1]
        last.write_bytes(last.read_bytes()[:100])
        res = run_cli("adapt", "--model", model_path, "--frames", seq,
                      "--init-box", init_box_of(seq), "--out", tmp_path / "o.hftm",
                      "--init-frames", 5, "--max-iters", 3)
        assert res.returncode == 0, res.stderr
        assert load_model(tmp_path / "o.hftm").layer1.weights.shape[0] == 8

    def test_too_few_frames_exits_3(self, tmp_path, model_path, track_dir):
        res = run_cli("adapt", "--model", model_path, "--frames", track_dir,
                      "--init-box", init_box_of(track_dir), "--out", tmp_path / "o.hftm",
                      "--init-frames", 40)
        assert res.returncode == 3
        assert "need at least 40 frames, found 30" in res.stderr


class TestTrack:
    def test_raw_only_boxes_match_committed_bytes(self, tmp_path):
        # the box CSV is a byte contract: a change that moves any byte of
        # this short rotating track must say why and refresh the fixture
        seq = tmp_path / "rot"
        synth(seq, pattern="rotation", frames=12, seed=9, size="120x100", target_side="32")
        res = run_cli("track", "--raw-only", "--frames", seq, "--init-box", init_box_of(seq),
                      "--out", tmp_path / "boxes.csv", "--particles", 100, "--topk", 5,
                      "--seed", 3)
        assert res.returncode == 0, res.stderr
        want = (Path(__file__).parent / "fixtures" / "raw_track_rotation.csv").read_bytes()
        assert (tmp_path / "boxes.csv").read_bytes() == want

    def test_static_zero_noise_returns_init_box(self, tmp_path, model_path):
        synth(tmp_path / "static", frames=8, seed=4, velocity="0,0",
              size="120x100", target_side="32")
        gt = read_boxes_csv(tmp_path / "static" / "gt.csv")
        res = run_cli("track", "--model", model_path, "--frames", tmp_path / "static",
                      "--init-box", init_box_of(tmp_path / "static"),
                      "--out", tmp_path / "boxes.csv", "--particles", 50,
                      "--topk", 5, "--init-frames", 4, "--std-xy", 0,
                      "--std-scale", 0, "--std-rotation", 0)
        assert res.returncode == 0, res.stderr
        boxes = read_boxes_csv(tmp_path / "boxes.csv")
        np.testing.assert_allclose(boxes, np.tile(gt[0], (8, 1)))

    def test_topk_above_particles_usage_error(self, tmp_path, model_path, track_dir):
        res = run_cli("track", "--model", model_path, "--frames", track_dir,
                      "--init-box", init_box_of(track_dir),
                      "--out", tmp_path / "b.csv", "--particles", 10, "--topk", 20)
        assert res.returncode == 2

    def test_deterministic_outputs_and_log(self, tmp_path, model_path, track_dir):
        box = init_box_of(track_dir)
        for tag in ("r1", "r2"):
            res = run_cli("track", "--model", model_path, "--frames", track_dir,
                          "--init-box", box, "--out", tmp_path / f"{tag}.csv",
                          "--particles", 60, "--topk", 6, "--init-frames", 10,
                          "--update-every", 10, "--seed", 3)
            assert res.returncode == 0, res.stderr
        a = (tmp_path / "r1.csv").read_bytes()
        assert a == (tmp_path / "r2.csv").read_bytes()
        log = (tmp_path / "r1.csv.log").read_text()
        assert log == (tmp_path / "r2.csv.log").read_text()
        assert "kind=init frames=10" in log
        assert "kind=update frames=20" in log

    def test_raw_only_needs_no_model(self, tmp_path, track_dir):
        res = run_cli("track", "--frames", track_dir, "--init-box",
                      init_box_of(track_dir), "--out", tmp_path / "raw.csv",
                      "--particles", 50, "--topk", 5, "--raw-only")
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "raw.csv.log").read_text() == ""


class TestEval:
    def test_identity(self, tmp_path, track_dir):
        res = run_cli("eval", "--pred", track_dir / "gt.csv", "--gt", track_dir / "gt.csv")
        assert res.returncode == 0
        assert res.stdout.strip() == "ACE=0.0000 AOR=1.0000"

    def test_one_third_fixture(self, tmp_path):
        (tmp_path / "a.csv").write_text("0,0,0,2,2\n")
        (tmp_path / "b.csv").write_text("0,1,0,2,2\n")
        res = run_cli("eval", "--pred", tmp_path / "a.csv", "--gt", tmp_path / "b.csv")
        assert "AOR=0.3333" in res.stdout
        assert "ACE=1.0000" in res.stdout

    def test_malformed_row_names_line(self, tmp_path):
        (tmp_path / "a.csv").write_text("0,0,0,2,2\nbad row\n")
        (tmp_path / "b.csv").write_text("0,0,0,2,2\n")
        res = run_cli("eval", "--pred", tmp_path / "a.csv", "--gt", tmp_path / "b.csv")
        assert res.returncode == 3
        assert "line 2" in res.stderr

    def test_length_mismatch_exits_3(self, tmp_path):
        (tmp_path / "a.csv").write_text("0,0,0,2,2\n1,0,0,2,2\n")
        (tmp_path / "b.csv").write_text("0,0,0,2,2\n")
        res = run_cli("eval", "--pred", tmp_path / "a.csv", "--gt", tmp_path / "b.csv")
        assert res.returncode == 3


class TestErrorPaths:
    def test_track_empty_frames_dir_exits_3(self, tmp_path, model_path):
        (tmp_path / "empty").mkdir()
        res = run_cli("track", "--model", model_path, "--frames", tmp_path / "empty",
                      "--init-box", "0,0,32,32", "--out", tmp_path / "b.csv")
        assert res.returncode == 3

    def test_missing_config_file_exits_2(self, tmp_path):
        res = run_cli("synth", "--config", tmp_path / "nope.cfg", "--pattern",
                      "rotation", "--frames", 3, "--out", tmp_path / "s")
        assert res.returncode == 2

    def test_bad_config_line_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        res = run_cli("synth", "--config", cfg, "--pattern", "rotation",
                      "--frames", 3, "--out", tmp_path / "s")
        assert res.returncode == 3
        assert "line 1" in res.stderr

    def test_tracking_lost_exits_5_with_partial_boxes(self, tmp_path):
        synth(tmp_path / "tiny", frames=6, seed=2, velocity="0,0",
              size="64x64", target_side="32")
        gt = read_boxes_csv(tmp_path / "tiny" / "gt.csv")
        # absurd motion noise throws every candidate outside the tiny frame
        res = run_cli("track", "--frames", tmp_path / "tiny",
                      "--init-box", init_box_of(tmp_path / "tiny"),
                      "--out", tmp_path / "b.csv", "--particles", 50,
                      "--topk", 5, "--raw-only", "--std-xy", 500,
                      "--std-scale", 0, "--std-rotation", 0, "--seed", 0)
        assert res.returncode == 5
        assert "tracking lost at frame 1" in res.stderr
        boxes = read_boxes_csv(tmp_path / "b.csv")
        np.testing.assert_allclose(boxes, gt[:1])
        assert "tracking lost" in (tmp_path / "b.csv.log").read_text()

    def test_empty_init_box_exits_3(self, tmp_path, track_dir):
        res = run_cli("track", "--frames", track_dir, "--init-box", "10,10,0,32",
                      "--out", tmp_path / "b.csv", "--raw-only")
        assert res.returncode == 3
        assert "empty" in res.stderr

    def test_init_box_outside_frame_exits_3(self, tmp_path, model_path, track_dir):
        res = run_cli("track", "--model", model_path, "--frames", track_dir,
                      "--init-box", "500,500,32,32", "--out", tmp_path / "b.csv")
        assert res.returncode == 3


def assert_data_error(res):
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert any(line.startswith("error: ") for line in res.stderr.splitlines())


class TestTypedDataErrors:
    """Undecodable or non-finite input files end in exit 3, not a traceback."""

    def test_eval_undecodable_box_file(self, tmp_path, track_dir):
        (tmp_path / "bad.csv").write_bytes(b"0,1,2,3,4\n\xd2\n")
        res = run_cli("eval", "--pred", tmp_path / "bad.csv", "--gt", track_dir / "gt.csv")
        assert_data_error(res)
        assert "UTF-8" in res.stderr

    def test_eval_infinite_box(self, tmp_path, track_dir):
        (tmp_path / "inf.csv").write_text("0,inf,0,2,2\n")
        (tmp_path / "b.csv").write_text("0,0,0,2,2\n")
        res = run_cli("eval", "--pred", tmp_path / "inf.csv", "--gt", tmp_path / "b.csv")
        assert_data_error(res)
        assert "ACE" not in res.stdout

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_pretrain_non_finite_first_box(self, tmp_path, data_dir, value):
        seq = tmp_path / "seq"
        seq.mkdir()
        for path in (data_dir / "a").iterdir():
            (seq / path.name).write_bytes(path.read_bytes())
        rows = (seq / "gt.csv").read_text().splitlines()
        rows[0] = "0," + value + "," + rows[0].split(",", 2)[2]
        (seq / "gt.csv").write_text("\n".join(rows) + "\n")
        res = run_cli("pretrain", "--data", seq, "--out", tmp_path / "m.hftm",
                      "--f1", 8, "--f2", 4, "--max-iters", 2)
        assert_data_error(res)
        assert "non-finite value at line 1" in res.stderr

    def test_track_nan_init_box(self, tmp_path, track_dir):
        res = run_cli("track", "--frames", track_dir, "--init-box", "nan,1,30,30",
                      "--out", tmp_path / "b.csv", "--raw-only")
        assert_data_error(res)
        assert "not finite" in res.stderr

    def test_undecodable_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"frames=3\n\xd2\n")
        res = run_cli("synth", "--config", cfg, "--pattern", "rotation",
                      "--out", tmp_path / "s")
        assert_data_error(res)
        assert "UTF-8" in res.stderr


class TestBadFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ("track", "--sigma", 0),
            ("track", "--particles", 0, "--topk", 0),
            ("track", "--std-xy", -1),
            ("track", "--topk", 0),
            ("track", "--topk", -1),
            ("track", "--gamma", -1),
            ("track", "--lambda", -1),
            ("adapt", "--gamma", -1),
            ("adapt", "--lambda", -1),
            ("pretrain", "--stride", 0),
            ("pretrain", "--f1", 3),
            ("pretrain", "--lambda", -1),
            ("pretrain", "--whiten-dim", 0),
            ("pretrain", "--max-iters", -1),
            ("pretrain", "--lambda", "nan"),
            ("pretrain", "--lambda", "inf"),
            ("pretrain", "--grad-tol", "nan"),
            ("track", "--gamma", "nan"),
            ("track", "--sigma", "nan"),
            ("track", "--std-xy", "nan"),
            ("track", "--std-rotation", "inf"),
            ("synth", "--seed", -1),
            ("pretrain", "--seed", -1),
            ("adapt", "--seed", -1),
            ("track", "--seed", -1),
            ("synth", "--size", "0x0"),
            ("synth", "--target-side", 0),
            ("synth", "--config"),
        ],
        ids=lambda flags: " ".join(str(f) for f in flags),
    )
    def test_invalid_value_exits_2(self, tmp_path, model_path, data_dir, track_dir, flags):
        command, *bad = flags
        if command == "track":
            args = ["track", "--model", model_path, "--frames", track_dir,
                    "--init-box", init_box_of(track_dir), "--out", tmp_path / "b.csv"]
        elif command == "adapt":
            args = ["adapt", "--model", model_path, "--frames", track_dir,
                    "--init-box", init_box_of(track_dir), "--out", tmp_path / "o.hftm"]
        elif command == "synth":
            args = ["synth", "--pattern", "rotation", "--frames", 3, "--out", tmp_path / "s",
                    "--size", "140x120", "--target-side", 48]
        else:
            args = ["pretrain", "--data", data_dir / "a", "--out", tmp_path / "m.hftm"]
        res = run_cli(*args, *bad)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert any(line.startswith("error: ") for line in res.stderr.splitlines())

    def test_track_corrupt_last_frame_exits_3_without_boxes(self, tmp_path, track_dir):
        seq = tmp_path / "seq"
        seq.mkdir()
        for path in track_dir.iterdir():
            (seq / path.name).write_bytes(path.read_bytes())
        last = sorted(seq.glob("*.pgm"))[-1]
        last.write_bytes(last.read_bytes()[:100])
        res = run_cli("track", "--frames", seq, "--init-box", init_box_of(seq),
                      "--out", tmp_path / "b.csv", "--particles", 30, "--topk", 5,
                      "--raw-only")
        assert res.returncode == 3
        assert last.name in res.stderr and "truncated" in res.stderr
        assert not (tmp_path / "b.csv").exists()


class TestOverflow:
    """An objective that overflows is an optimization failure, not a crash."""

    def test_pretrain_exits_4(self, tmp_path, data_dir):
        res = run_cli("pretrain", "--data", data_dir / "a", "--out", tmp_path / "m.hftm",
                      "--f1", 8, "--f2", 4, "--max-iters", 3, "--lambda", 1e300)
        assert res.returncode == 4, res.stderr
        assert "Traceback" not in res.stderr
        # minimize checks every point it accepts; the overflow warnings of
        # its failed probes would only be noise
        assert "RuntimeWarning" not in res.stderr
        assert "error: layer1: line search failed during training" in res.stderr

    def test_track_logs_failed_adaptations(self, tmp_path, model_path, track_dir):
        res = run_cli("track", "--model", model_path, "--frames", track_dir,
                      "--init-box", init_box_of(track_dir), "--out", tmp_path / "b.csv",
                      "--particles", 60, "--topk", 6, "--init-frames", 10,
                      "--update-every", 10, "--lambda", 1e300)
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        assert "RuntimeWarning" not in res.stderr
        assert len(read_boxes_csv(tmp_path / "b.csv")) == 30
        lines = (tmp_path / "b.csv.log").read_text().splitlines()
        assert [line.split()[2] for line in lines] == ["frames=10", "frames=20", "frames=30"]
        for line in lines:
            assert line.startswith("adapt kind=failed")
            assert "line search failed during adaptation" in line


def settable(cfg) -> list[str]:
    """Names of a config's settable values, nested configs' included."""
    names = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        names += settable(value) if is_dataclass(value) else [f.name]
    return names


def test_config_census():
    # a new setting has to change this test on purpose
    pretrain_values = settable(PretrainConfig())
    track_values = settable(TrackerConfig())
    assert pretrain_values == [
        "lam", "f1", "f2", "whiten_dim", "sub_patch_stride", "max_iters", "grad_tol", "seed",
    ]
    assert track_values == [
        "n_candidates", "top_k", "update_period", "init_frames",
        "std_xy", "std_scale", "std_rotation", "lam", "gamma", "sigma", "seed",
        "raw_only", "max_iters", "grad_tol",
    ]
    assert len(pretrain_values) + len(track_values) == 22

    # every flag but the paths sets a config value and has no default of its own
    paths = {"help", "data", "out", "model", "frames", "init_box", "log"}
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, values in (("pretrain", pretrain_values), ("adapt", track_values),
                            ("track", track_values)):
        flags = [a for a in commands[command]._actions if a.dest not in paths]
        assert flags
        for action in flags:
            assert action.dest in values, (command, action.option_strings)
            assert action.default is argparse.SUPPRESS, (command, action.option_strings)


class TestConfigFile:
    def test_config_merges_before_flags(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("frames=6\nseed=11\npattern=rotation\n")
        res = run_cli("synth", "--config", cfg, "--out", tmp_path / "s",
                      "--size", "140x120", "--target-side", "48", "--seed", 12)
        assert res.returncode == 0, res.stderr
        # explicit --seed wins over the config value; frames come from config
        assert len(list((tmp_path / "s").glob("*.pgm"))) == 6
        other = tmp_path / "other"
        synth(other, pattern="rotation", frames=6, seed=12)
        assert (tmp_path / "s" / "000003.pgm").read_bytes() == (
            other / "000003.pgm"
        ).read_bytes()
