import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from slowtrack import _blas_thread_setter, objectives
from slowtrack.cli import _build_parser, main
from slowtrack.hierarchy import PretrainConfig, load_model, pretrain, save_model
from slowtrack.objectives import SlownessObjective
from slowtrack.patches import read_boxes_csv, sample_training_set, stream_frame_dir
from slowtrack.tracker import TrackerConfig


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "slowtrack", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def blas_env(threads):
    """This environment, with OPENBLAS_NUM_THREADS unset (None) or set to `threads`.

    `src` goes first on PYTHONPATH, so a child imports slowtrack from any cwd.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


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


def directory_sequences(seq_dir, side):
    """The library's `side` training sequences of one data directory."""
    frames = list(stream_frame_dir(seq_dir))
    return sample_training_set(frames, read_boxes_csv(seq_dir / "gt.csv"), side, 16) or []


@pytest.fixture(scope="module")
def track_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_track")
    synth(root / "seq", pattern="translation", frames=30, seed=9,
          velocity="0.5,0", size="120x100", target_side="32")
    return root / "seq"


def init_box_of(seq_dir):
    row = read_boxes_csv(seq_dir / "gt.csv")[0]
    return ",".join(str(v) for v in row)


def copy_with_tiny_frame(src, dst, index):
    """A copy of a sequence directory whose frame `index` is a 2x2 PGM."""
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    (dst / f"{index:06d}.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([128] * 4))
    return dst


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

    @pytest.mark.parametrize(
        "frames_before, stray, stale",
        [(30, None, 18), (12, "000012.pgm", 1), (12, "notes.pgm", 1), (12, "0000001.pgm", 1)],
    )
    def test_frames_it_would_not_write_refused(self, tmp_path, frames_before, stray, stale):
        # the frames of a longer earlier sequence, or a stray .pgm, in --out
        out = tmp_path / "s"
        synth(out, frames=frames_before)
        if stray:
            (out / stray).write_bytes(b"P5\n1 1\n255\n\0")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        res = run_cli("synth", "--pattern", "rotation", "--frames", 12, "--out", out)
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"{stale} .pgm frame(s)" in lines[0]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_same_length_rewrite_replaces_every_file(self, tmp_path):
        synth(tmp_path / "s", frames=6, seed=3)
        synth(tmp_path / "s", frames=6, seed=4, pattern="rotation")
        synth(tmp_path / "fresh", frames=6, seed=4, pattern="rotation")
        names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == names
        for name in names:
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_border_crossing_mid_sequence_writes_nothing(self, tmp_path):
        # a target growing 5% a frame first comes within the border margin
        # at frame t > 0; frames 0..t-1 are valid, yet none is written
        def grow(out):
            return run_cli("synth", "--pattern", "scaling", "--rate", 1.05, "--frames", 20,
                           "--size", "140x120", "--target-side", 48, "--out", out)

        res = grow(tmp_path / "fresh")
        assert res.returncode == 3 and res.stdout == ""
        match = re.fullmatch(r"error: target closer than 8 px to the frame border at frame (\d+)\n",
                             res.stderr)
        assert match, res.stderr
        t = int(match[1])
        assert 0 < t < 20
        assert not any((tmp_path / "fresh").glob("*.pgm"))
        assert not (tmp_path / "fresh" / "gt.csv").exists()
        synth(tmp_path / "valid", pattern="scaling", frames=t, rate=1.05)
        # an earlier same-length sequence survives the failing rerun
        synth(tmp_path / "kept", frames=20)
        before = {p.name: p.read_bytes() for p in (tmp_path / "kept").iterdir()}
        assert grow(tmp_path / "kept").stderr == res.stderr
        assert {p.name: p.read_bytes() for p in (tmp_path / "kept").iterdir()} == before

    def test_byte_identical_reruns(self, tmp_path):
        synth(tmp_path / "one", frames=6, seed=3)
        synth(tmp_path / "two", frames=6, seed=3)
        for name in [p.name for p in (tmp_path / "one").iterdir()]:
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()


class TestBlasThreads:
    """Outputs do not depend on OPENBLAS_NUM_THREADS: BLAS runs on one thread.

    With two threads OpenBLAS splits a product's inner dimension, so this
    model, the track's log and the adapted model differ in their last
    digits unless slowtrack holds BLAS to one thread.
    """

    OUTPUTS = ("model.hftm", "boxes.csv", "boxes.csv.log", "adapted.hftm")

    @staticmethod
    def commands(data_dir, track_dir):
        seq = ["--frames", str(track_dir), "--init-box", init_box_of(track_dir)]
        return [
            ["pretrain", "--data", str(data_dir / "a"), str(data_dir / "b"), "--out",
             "model.hftm", "--f1", "64", "--f2", "32", "--max-iters", "15", "--seed", "1"],
            ["track", "--model", "model.hftm", *seq, "--out", "boxes.csv", "--particles",
             "60", "--topk", "6", "--init-frames", "10", "--update-every", "10", "--seed", "3"],
            ["adapt", "--model", "model.hftm", *seq, "--out", "adapted.hftm",
             "--init-frames", "10"],
        ]

    @pytest.fixture(scope="class")
    def by_threads(self, tmp_path_factory, data_dir, track_dir):
        """Each command's stdout and each output's bytes, per thread setting."""
        found = {}
        for threads in (None, "1", "2"):
            out = tmp_path_factory.mktemp(f"threads_{threads}")
            stdout = []
            for argv in self.commands(data_dir, track_dir):
                res = run_cli(*argv, cwd=out, env=blas_env(threads))
                assert res.returncode == 0, res.stderr
                stdout.append(res.stdout)
            found[threads] = stdout, [(out / name).read_bytes() for name in self.OUTPUTS]
        return found

    def test_outputs_do_not_depend_on_the_thread_count(self, by_threads):
        assert by_threads[None] == by_threads["1"] == by_threads["2"]

    def test_numpy_imported_first_writes_the_same_bytes(self, tmp_path, by_threads, data_dir,
                                                        track_dir):
        # the order the scripts use: numpy has read the environment before
        # slowtrack is imported, so only OpenBLAS's own setter binds
        if _blas_thread_setter() is None:
            pytest.skip("numpy's OpenBLAS exports no thread-count setter")
        code = (
            "import json, sys\n"
            "import numpy\n"
            "from slowtrack.cli import main\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code, json.dumps(self.commands(data_dir, track_dir))],
            capture_output=True, text=True, cwd=tmp_path, env=blas_env("2"),
        )
        assert res.returncode == 0, res.stderr
        outputs = [(tmp_path / name).read_bytes() for name in self.OUTPUTS]
        assert outputs == by_threads["1"][1]


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

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_one_cpu_writes_the_same_model(self, tmp_path, data_dir):
        # layer 1 is large enough to split its evaluations onto a helper
        # thread; confined to one CPU, that thread shares the caller's
        dirs = [data_dir / "a", data_dir / "b"]
        rows = sum(len(s) for d in dirs for s in directory_sequences(d, 16))
        assert rows * 128 * 256 >= objectives.SPLIT_MIN_WORK
        one_cpu = min(os.sched_getaffinity(0))
        models = []
        for name, preexec in (("any", None), ("one", lambda: os.sched_setaffinity(0, {one_cpu}))):
            out = tmp_path / f"{name}.hftm"
            res = subprocess.run(
                [sys.executable, "-m", "slowtrack", "pretrain", "--data", *map(str, dirs),
                 "--out", str(out), "--f1", "128", "--f2", "8", "--max-iters", "5"],
                capture_output=True, text=True, env=blas_env(None), preexec_fn=preexec,
            )
            assert res.returncode == 0, res.stderr
            models.append(out.read_bytes())
        assert models[0] == models[1]

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

    def test_tol_sets_the_stop(self, tmp_path, data_dir):
        # any decrease is within a huge tolerance, so the first full window stops each layer
        res = run_cli("pretrain", "--data", data_dir / "a", "--out", tmp_path / "m.hftm",
                      "--f1", 8, "--f2", 4, "--max-iters", 30, "--tol", 1e9)
        assert res.returncode == 0, res.stderr
        for layer in ("layer1", "layer2"):
            pattern = rf"^{layer} objective: \S+ -> \S+ \(5 iterations, \d+ evals, converged\)$"
            assert re.search(pattern, res.stdout, re.MULTILINE), res.stdout

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

    def test_small_box_skipped_for_one_side(self, tmp_path, data_dir):
        # a 24 px box holds 16x16 patches but no 32x32 one
        synth(tmp_path / "small", frames=6, target_side="24")
        flags = ("--out", tmp_path / "m.hftm", "--f1", 8, "--f2", 4, "--max-iters", 2)
        res = run_cli("pretrain", "--data", tmp_path / "small", *flags)
        assert res.returncode == 3
        assert res.stderr == (
            "warning: 1 sequence(s) skipped for side 32 (box smaller than the patch)\n"
            "error: no 32x32 training patches sampled\n"
        )
        res = run_cli("pretrain", "--data", tmp_path / "small", data_dir / "a",
                      tmp_path / "small", *flags)
        assert res.returncode == 0, res.stderr
        assert res.stderr == (
            "warning: 2 sequence(s) skipped for side 32 (box smaller than the patch)\n"
        )

    def test_holds_one_directory_of_frames(self, tmp_path, capsys):
        # in process, so the peak is pretrain's own and not the test runner's
        dirs = [tmp_path / f"d{i}" for i in range(6)]
        for i, d in enumerate(dirs):
            assert main(["synth", "--pattern", "translation", "--frames", "10",
                         "--out", str(d), "--seed", str(i), "--target-side", "48"]) == 0

        def traced_peak(data):
            tracemalloc.start()
            try:
                assert main(["pretrain", "--data", *map(str, data),
                             "--out", str(tmp_path / "m.hftm"),
                             "--f1", "8", "--f2", "8", "--max-iters", "2"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_dir_of_frames = 10 * 320 * 240 * 8  # ten decoded float64 frames
        assert traced_peak(dirs) - traced_peak(dirs[:1]) < one_dir_of_frames

    def test_layer1_trains_without_the_32x32_patches(self, tmp_path, monkeypatch, capsys):
        # in process; the traced memory as layer 1's objective is first evaluated.
        # 270 rows a directory, so every run's objective holds a Gram matrix
        dirs = [tmp_path / f"d{i}" for i in range(6)]
        for i, d in enumerate(dirs):
            assert main(["synth", "--pattern", "translation", "--frames", "30", "--out", str(d),
                         "--seed", str(i), "--size", "140x120", "--target-side", "48"]) == 0
        evaluate = SlownessObjective.evaluate
        at_first_evaluation = []

        def traced_evaluate(obj, w):
            if not at_first_evaluation:
                at_first_evaluation.append(tracemalloc.get_traced_memory()[0])
            return evaluate(obj, w)

        monkeypatch.setattr(SlownessObjective, "evaluate", traced_evaluate)

        def traced_at_layer1(data):
            at_first_evaluation.clear()
            tracemalloc.start()
            try:
                assert main(["pretrain", "--data", *map(str, data),
                             "--out", str(tmp_path / "m.hftm"),
                             "--f1", "8", "--f2", "8", "--max-iters", "2"]) == 0
            finally:
                tracemalloc.stop()
            return at_first_evaluation[0]

        extra_seqs32 = sum(s.nbytes for d in dirs[1:] for s in directory_sequences(d, 32))
        grown = traced_at_layer1(dirs) - traced_at_layer1(dirs[:1])
        assert grown < extra_seqs32, (grown, extra_seqs32)

    def test_model_equals_the_library_model(self, tmp_path, data_dir, capsys):
        # a 24 px box yields 16x16 sequences but no 32x32 ones
        synth(tmp_path / "small", frames=6, target_side="24")
        dirs = [data_dir / "a", tmp_path / "small", data_dir / "b"]
        assert main(["pretrain", "--data", *map(str, dirs), "--out", str(tmp_path / "cli.hftm"),
                     "--f1", "8", "--f2", "4", "--max-iters", "5", "--seed", "2"]) == 0
        defaults = PretrainConfig()
        cfg = replace(defaults, f1=8, f2=4, seed=2,
                      optimizer=replace(defaults.optimizer, max_iters=5))
        seqs = {side: [s for d in dirs for s in directory_sequences(d, side)] for side in (16, 32)}
        save_model(pretrain(seqs[16], seqs[32], cfg).model, tmp_path / "lib.hftm")
        assert (tmp_path / "cli.hftm").read_bytes() == (tmp_path / "lib.hftm").read_bytes()

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
        # rotation decorrelates the first window's patches and the small whitened
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

    def test_stdout_says_how_each_layer_stopped(self, tmp_path, model_path, track_dir):
        # in the form pretrain prints, with the counts a track's init event logs
        flags = ("--model", model_path, "--frames", track_dir,
                 "--init-box", init_box_of(track_dir), "--init-frames", 10)
        res = run_cli("adapt", *flags, "--out", tmp_path / "o.hftm")
        assert res.returncode == 0, res.stderr
        stops = re.findall(r"^(layer[12]): \|W - W_old\|_F = \S+ "
                           r"\((\d+) iterations, (\d+) evals, (converged|max_iters); "
                           r"relative \S+\)$", res.stdout, re.MULTILINE)
        assert [stop[0] for stop in stops] == ["layer1", "layer2"], res.stdout
        res = run_cli("track", *flags, "--out", tmp_path / "b.csv")
        assert res.returncode == 0, res.stderr
        event = (tmp_path / "b.csv.log").read_text().splitlines()[0]
        assert event.startswith("adapt kind=init frames=10 "), event
        tokens = dict(t.split("=", 1) for t in event.split()[1:])
        logged = [(layer, tokens[f"{layer}_iters"], tokens[f"{layer}_evals"],
                   tokens[f"{layer}_status"]) for layer in ("layer1", "layer2")]
        assert logged == stops

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

    def test_zero_particles_usage_error(self, tmp_path, model_path, track_dir):
        # the counts are checked before top_k is compared with the particles
        res = run_cli("track", "--model", model_path, "--frames", track_dir,
                      "--init-box", init_box_of(track_dir),
                      "--out", tmp_path / "b.csv", "--particles", 0)
        assert res.returncode == 2
        assert "counts must be >= 1" in res.stderr and "top_k" not in res.stderr

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

    def test_far_apart_boxes_without_warnings(self, tmp_path):
        (tmp_path / "a.csv").write_text("0,0,-1e308,2,2\n")
        (tmp_path / "b.csv").write_text("0,0,1e308,2,2\n")
        res = run_cli("eval", "--pred", tmp_path / "a.csv", "--gt", tmp_path / "b.csv")
        assert (res.returncode, res.stdout, res.stderr) == (0, "ACE=inf AOR=0.0000\n", "")

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
        assert (tmp_path / "b.csv.log").read_text() == "tracking lost at frame 1\n"

    def test_tracking_lost_log_keeps_earlier_adaptations(self, tmp_path, model_path):
        synth(tmp_path / "tiny", frames=6, seed=2, velocity="0,0",
              size="64x64", target_side="32")
        # with one init frame the init adaptation runs before step 1, where the track is lost
        res = run_cli("track", "--model", model_path, "--frames", tmp_path / "tiny",
                      "--init-box", init_box_of(tmp_path / "tiny"),
                      "--out", tmp_path / "b.csv", "--init-frames", 1, "--particles", 50,
                      "--topk", 5, "--std-xy", 500, "--std-scale", 0,
                      "--std-rotation", 0, "--seed", 0)
        assert res.returncode == 5
        assert res.stderr == "error: tracking lost at frame 1\n"
        event, lost = (tmp_path / "b.csv.log").read_text().splitlines()
        assert event.startswith("adapt kind=init frames=1 layer1_before=")
        assert lost == "tracking lost at frame 1"

    def test_adapt_tracking_lost_in_bootstrap_exits_5(self, tmp_path, model_path, track_dir):
        # frame 1 is 2x2, so no candidate has half its samples inside it
        seq = copy_with_tiny_frame(track_dir, tmp_path / "seq", 1)
        for command, out in (("adapt", "o.hftm"), ("track", "b.csv")):
            res = run_cli(command, "--model", model_path, "--frames", seq,
                          "--init-box", init_box_of(seq), "--out", tmp_path / out,
                          "--init-frames", 4)
            assert res.returncode == 5, (command, res.stderr)
            assert res.stderr == "error: tracking lost at frame 1\n"
        assert not (tmp_path / "o.hftm").exists()

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

    def test_eval_zero_size_box(self, tmp_path):
        (tmp_path / "flat.csv").write_text("0,1,1,0,5\n")
        (tmp_path / "b.csv").write_text("0,0,0,2,2\n")
        res = run_cli("eval", "--pred", tmp_path / "flat.csv", "--gt", tmp_path / "b.csv")
        assert_data_error(res)
        assert "flat.csv" in res.stderr and "positive" in res.stderr

    @pytest.mark.parametrize("row", ["0,1e308,0,1e308,10", "0,0,0,1.7e308,1.7e308"],
                             ids=["edge", "area"])
    def test_eval_overflowing_box(self, tmp_path, row):
        (tmp_path / "huge.csv").write_text(row + "\n")
        res = run_cli("eval", "--pred", tmp_path / "huge.csv", "--gt", tmp_path / "huge.csv")
        assert_data_error(res)
        assert "RuntimeWarning" not in res.stderr
        assert "huge.csv" in res.stderr and "finite" in res.stderr

    def test_synth_huge_shear_amplitude(self, tmp_path):
        res = run_cli("synth", "--pattern", "deformation", "--amp", 1e300, "--frames", 3,
                      "--out", tmp_path / "s", "--size", "140x120", "--target-side", 48)
        assert_data_error(res)
        assert "RuntimeWarning" not in res.stderr

    def test_pretrain_mixed_frame_sizes(self, tmp_path, data_dir):
        seq = copy_with_tiny_frame(data_dir / "a", tmp_path / "seq", 3)
        res = run_cli("pretrain", "--data", seq, "--out", tmp_path / "m.hftm",
                      "--f1", 8, "--f2", 4, "--max-iters", 2)
        assert_data_error(res)
        assert f"error: {seq}: frame 3 is 2x2, frame 0 is " in res.stderr

    def test_pretrain_frame_and_box_counts(self, tmp_path, data_dir):
        seq = tmp_path / "seq"
        seq.mkdir()
        for path in (data_dir / "a").iterdir():
            (seq / path.name).write_bytes(path.read_bytes())
        rows = (seq / "gt.csv").read_text().splitlines()
        (seq / "gt.csv").write_text("\n".join(rows[:-1]) + "\n")
        res = run_cli("pretrain", "--data", data_dir / "b", seq, "--out", tmp_path / "m.hftm",
                      "--f1", 8, "--f2", 4, "--max-iters", 2)
        assert_data_error(res)
        assert res.stderr == f"error: {seq}: 24 frames but 23 boxes\n"

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
            ("pretrain", "--tol", "nan"),
            ("pretrain", "--tol", "inf"),
            ("pretrain", "--tol", -1),
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
            ("synth", "--config", "--frames", 3),
            ("synth", "--pattern", "translation", "--velocity", "nan,0"),
            ("synth", "--pattern", "scaling", "--rate", "inf"),
            ("synth", "--pattern", "scaling", "--rate", "nan"),
            ("synth", "--pattern", "deformation", "--amp", "nan"),
            ("synth", "--pattern", "deformation", "--time-period", 0),
            ("synth", "--rate", "nan"),
            ("synth", "--pattern", "deformation", "--amp", "inf"),
            ("synth", "--pattern", "scaling", "--rate", "1e300"),
            # sizes numpy refuses outright: a 6.94 EiB texture, above any
            # address space, and 1.6e19 pixels, above its largest array
            ("synth", "--target-side", 1_000_000_000),
            ("synth", "--size", "4000000000x4000000000"),
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
        assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr
        assert sum(line.startswith("error: ") for line in res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("given_by", ["flag", "config"])
    def test_renamed_grad_tol_is_unrecognized(self, tmp_path, data_dir, given_by):
        # `--tol` replaced `--grad-tol`; the old name is argparse's usage error
        cfg = tmp_path / "old.cfg"
        cfg.write_text("grad-tol=1e-4\n")
        old = ["--grad-tol", "1e-4"] if given_by == "flag" else ["--config", cfg]
        res = run_cli("pretrain", *old, "--data", data_dir / "a", "--out", tmp_path / "m.hftm")
        assert res.returncode == 2, res.stderr
        assert res.stderr.endswith("slowtrack: error: unrecognized arguments: --grad-tol 1e-4\n")
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "m.hftm").exists()

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


@pytest.fixture(scope="module")
def rotation_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_rotation") / "seq"
    res = run_cli("synth", "--pattern", "rotation", "--frames", 25, "--seed", 22, "--out", out)
    assert res.returncode == 0, res.stderr
    return out


class TestHugeMotionStd:
    """A candidate whose perturbed state is not finite is rejected like one outside the frame."""

    @pytest.mark.parametrize(
        "flag, code", [("--std-scale", 0), ("--std-rotation", 0), ("--std-xy", 5)]
    )
    def test_no_runtime_warning(self, tmp_path, rotation_dir, flag, code):
        res = run_cli("track", "--raw-only", "--particles", 50, "--topk", 5,
                      "--frames", rotation_dir, "--init-box", init_box_of(rotation_dir),
                      "--out", tmp_path / "b.csv", flag, 1e308)
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        assert "RuntimeWarning" not in res.stderr


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
        "lam", "f1", "f2", "whiten_dim", "sub_patch_stride", "max_iters", "tol", "seed",
    ]
    assert track_values == [
        "n_candidates", "top_k", "update_period", "init_frames",
        "std_xy", "std_scale", "std_rotation", "lam", "gamma", "sigma", "seed",
        "max_iters", "tol",
    ]
    assert len(pretrain_values) + len(track_values) == 21

    # every flag but those choosing inputs and outputs sets a config value
    # and has no default of its own
    paths = {"help", "data", "out", "model", "raw_only", "frames", "init_box", "log"}
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, values in (("pretrain", pretrain_values), ("adapt", track_values),
                            ("track", track_values)):
        flags = [a for a in commands[command]._actions if a.dest not in paths]
        assert flags
        for action in flags:
            assert action.dest in values, (command, action.option_strings)
            assert action.default is argparse.SUPPRESS, (command, action.option_strings)


class TestTinySigma:
    """A σ whose 2σ² underflows weighs the nearest candidates 1, not NaN."""

    @pytest.mark.parametrize("raw_only", [True, False], ids=["raw", "learned"])
    def test_no_runtime_warning(self, tmp_path, model_path, rotation_dir, raw_only):
        mode = ["--raw-only"] if raw_only else ["--model", model_path, "--init-frames", 10,
                                                  "--update-every", 10]
        res = run_cli("track", *mode, "--particles", 50, "--topk", 5, "--sigma", 1e-300,
                      "--frames", rotation_dir, "--init-box", init_box_of(rotation_dir),
                      "--out", tmp_path / "b.csv")
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""


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

    @staticmethod
    def frames_of(seq):
        return [p.read_bytes() for p in sorted(seq.glob("*.pgm"))]

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "FLAGS", "--seed", 12, "--config={cfg}"),
            ("--config", "{cfg}", "synth", "FLAGS", "--seed", 12),
            # an explicit flag before --config still beats the file's value
            ("synth", "--seed", 12, "--config", "{cfg}", "FLAGS"),
            ("synth", "--config", "{first}", "FLAGS", "--seed", 12, "--config", "{cfg}"),
        ],
        ids=["equals", "before-subcommand", "flag-before-config", "last-config-wins"],
    )
    def test_config_placements(self, tmp_path, argv):
        cfg, first = tmp_path / "sweep.cfg", tmp_path / "first.cfg"
        # blank lines and comments are skipped
        cfg.write_text("# a sweep\n\nframes = 4\n   \n  # frames=9\nseed=11\npattern=rotation\n")
        first.write_text("frames=6\npattern=translation\n")
        flags = ["--out", tmp_path / "s", "--size", "140x120", "--target-side", 48]
        args = []
        for arg in argv:
            args += flags if arg == "FLAGS" else [str(arg).format(cfg=cfg, first=first)]
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        synth(tmp_path / "other", pattern="rotation", frames=4, seed=12)
        assert self.frames_of(tmp_path / "s") == self.frames_of(tmp_path / "other")
