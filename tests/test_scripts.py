"""Smoke tests: the experiment and tooling scripts run end to end on small inputs."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import build_model
from slowtrack.hierarchy import save_model
from slowtrack.patches import load_frame

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import grid_gate  # noqa: E402
from visualize_filters import filters_as_patches  # noqa: E402


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def test_visualize_filters_writes_a_tile_sheet(tmp_path):
    save_model(build_model(f1=8, f2=4), tmp_path / "m.hftm")
    res = run_script("visualize_filters.py", tmp_path / "m.hftm", "--out", tmp_path / "f.pgm")
    assert res.returncode == 0, res.stderr
    assert "wrote 8 layer-1 filters" in res.stdout
    # 3x3 tiles of 16 pixels with 2-pixel gutters
    frame = load_frame(tmp_path / "f.pgm")
    assert frame.shape == (56, 56)


class TestFiltersAsPatches:
    def test_constant_row_maps_to_half(self):
        images = filters_as_patches(np.full((2, 4), 3.0), 2)
        np.testing.assert_array_equal(images[0], np.full((2, 2), 0.5))

    def test_count_preserved(self):
        rng = np.random.default_rng(5)
        assert len(filters_as_patches(rng.standard_normal((6, 9)), 3)) == 6

    def test_min_max_scaling(self):
        img = filters_as_patches(np.array([[0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1.0]]), 2)[0]
        np.testing.assert_allclose(img, [[0.0, 1 / 3], [2 / 3, 1.0]])

    def test_side_mismatch(self):
        with pytest.raises(ValueError):
            filters_as_patches(np.eye(2, 4), 3)


def pretrained_line(label):
    """The line the benchmark script prints after one 2-iteration pre-training."""
    layers = "; ".join(
        rf"{tag} \S+ -> \S+ in 2 iterations, max_iters" for tag in ("layer1", "layer2")
    )
    return rf"^pre-trained{re.escape(label)} in \d+s \({layers}; whitening kept \d+ of 64 dimensions\)$"


def test_synthetic_benchmark_prints_six_rows():
    res = run_script("run_synthetic_benchmark.py", "--frames", 22, "--pretrain-iters", 2)
    assert res.returncode == 0, res.stderr
    assert re.search(pretrained_line(""), res.stdout, re.MULTILINE), res.stdout
    rows = re.findall(
        r"^(translation|rotation|shear) +(learned|raw) +\d+\.\d\d +\d\.\d{3} +\d+s$",
        res.stdout,
        re.MULTILINE,
    )
    assert len(rows) == 6, res.stdout
    assert {r[1] for r in rows} == {"learned", "raw"}


def test_synthetic_benchmark_grid_prints_twenty_cases_and_both_counts():
    res = run_script("run_synthetic_benchmark.py", "--grid", "--frames", 22, "--pretrain-iters", 2)
    assert res.returncode == 0, res.stderr
    rows = re.findall(
        r"^(translation|rotation|shear|scaling) +([0-4])(?: +\d+\.\d\d +\d\.\d{3}){3}$",
        res.stdout,
        re.MULTILINE,
    )
    names = ("translation", "rotation", "shear", "scaling")
    assert rows == [(name, str(seed)) for name in names for seed in range(5)], res.stdout
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    assert f"\nOPENBLAS_NUM_THREADS={threads}\nlearned beats raw: " in res.stdout, res.stdout
    for label in ("learned beats raw", "adaptation beats no adaptation"):
        pattern = rf"^{label}: \d+/20; worst [a-z]+ seed [0-4] \([+-]\d+\.\d\d px\)$"
        assert re.search(pattern, res.stdout, re.MULTILINE), res.stdout
    kinds = ", ".join(rf"{kind} \d+\.\d" for kind in ("learned", "raw", "no-adapt"))
    seconds = rf"^wall seconds of the 20 tracks of each kind: {kinds}$"
    assert re.search(seconds, res.stdout, re.MULTILINE), res.stdout

    # three pre-training replicates, and the spread of each case's ACE over them
    replicates = ("script order", "reversed", "rotated by 3")
    lines = res.stdout.splitlines()
    assert [re.fullmatch(pretrained_line(f" ({label})"), line) is not None
            for label, line in zip(replicates, lines)] == [True] * 3, res.stdout
    ace, spread = r" +\d+\.\d\d", r" +(\d+\.\d\d)"
    rows = re.findall(
        rf"^(translation|rotation|shear|scaling) +([0-4])(?:{ace * 3}{spread}){{2}}$",
        res.stdout,
        re.MULTILINE,
    )
    assert [row[:2] for row in rows] == [(name, str(seed)) for name in names for seed in range(5)]
    for kind in ("learned", "no-adapt"):
        pattern = (rf"^{kind} ACE spread: median \d+\.\d\d px, max \d+\.\d\d px "
                   r"\([a-z]+ seed [0-4]\), above 0\.25 px in \d+/20$")
        assert re.search(pattern, res.stdout, re.MULTILINE), res.stdout
    for label in replicates:
        pattern = (rf"^replicate {label}: learned beats raw: \d+/20; worst [a-z]+ seed [0-4] "
                   r"\([+-]\d+\.\d\d px\); adaptation beats no adaptation: \d+/20; ")
        assert re.search(pattern, res.stdout, re.MULTILINE), res.stdout

    # the gate reads both tables and the counts; the first table's learned
    # ACE is the script-order replicate's
    grid = grid_gate.parse_grid(res.stdout)
    assert grid["cases"] == [(name, seed) for name in names for seed in range(5)]
    assert [grid[kind].shape for kind in ("learned", "no-adapt")] == [(20, 3)] * 2
    assert grid["spread"].shape == grid["raw"].shape == (20,)
    assert list(grid["beats_raw"]) == list(replicates)
    first = re.findall(rf"^[a-z]+ +[0-4] +(\d+\.\d\d) +\d\.\d{{3}}(?:{ace} +\d\.\d{{3}}){{2}}$",
                       res.stdout, re.MULTILINE)
    assert grid["learned"][:, 0].tolist() == [float(v) for v in first]
    assert grid_gate.item2_flags(grid, grid) == []

    # the within-tree intervals, over the 20 cases x 3 replicates
    assert "\npaired ACE differences over 20 cases x 3 replicates\n" in res.stdout
    for other in ("raw", "no-adapt"):
        pattern = (rf"^learned - {other}: mean [+-]\d+\.\d{{3}} px, 95% bootstrap interval "
                   r"\[[+-]\d+\.\d{3}, [+-]\d+\.\d{3}\] px; \d+ rose, \d+ fell, \d+ tied; "
                   r"sign test p = \d\.\d{3}$")
        assert re.search(pattern, res.stdout, re.MULTILINE), res.stdout


def test_synthetic_benchmark_raw_gate_prints_one_line_per_track():
    res = run_script("run_synthetic_benchmark.py", "--raw-gate", "--frames", 6)
    assert res.returncode == 0, res.stderr
    assert "pre-trained" not in res.stdout
    raw = grid_gate.parse_raw(res.stdout)
    names = ("translation", "rotation", "shear", "scaling")
    assert raw["cases"] == [(name, seed) for name in names for seed in range(40, 80)]
    assert len(res.stdout.splitlines()) == 160
    assert raw["ace"].shape == raw["aor"].shape == (160,) and np.all(raw["aor"] <= 1.0)


def test_grid_gate_statistics_on_a_fixed_vector():
    # 20 cases x 3 replicates; nine pairs fell by 0.5 px and one rose by 0.25 px
    d = np.zeros((20, 3))
    d[:9, 0], d[9, 1] = -0.5, 0.25
    stats = grid_gate.paired_statistics(d, margin=0.0)
    assert (stats["rises"], stats["falls"], stats["ties"]) == (1, 9, 50)
    assert stats["sign_p"] == 2 * (1 + 10) / 2**10
    assert stats["mean"] == pytest.approx(-4.25 / 60, abs=1e-15)
    # the percentiles of 10,000 resampled means, each a mean over the pairs of 20 drawn cases
    draws = np.random.default_rng(0).integers(0, 20, size=(10_000, 20))
    means = [d[cases].mean() for cases in draws]
    want = np.percentile(means, [2.5, 97.5])
    assert [stats["low"], stats["high"]] == pytest.approx(want, abs=1e-12)
    assert [stats["low"], stats["high"]] == pytest.approx([-6.5 / 60, -2 / 60], abs=1e-12)
    assert stats["pass"]
    assert not grid_gate.paired_statistics(d, margin=stats["high"])["pass"]

    # no change: every pair tied, a degenerate interval at 0, and no margin of 0 to pass
    zero = grid_gate.paired_statistics(np.zeros((20, 3)), margin=0.0)
    assert (zero["sign_p"], zero["low"], zero["high"], zero["pass"]) == (1.0, 0.0, 0.0, False)
    assert grid_gate.paired_statistics(np.zeros((20, 3)), margin=0.1)["pass"]


def test_grid_gate_raw_rule_passes_just_below_a_tenth_of_the_ref_mean():
    # 160 raw tracks of ACE 2.5: the margin is 0.25 px; every pair moving by
    # the margin fails, and by a little less passes
    ref = np.full(160, 2.5)
    assert grid_gate.raw_rule(ref, ref)["margin"] == 0.25
    at = grid_gate.raw_rule(ref, ref + 0.25)
    assert (at["low"], at["high"], at["pass"]) == (0.25, 0.25, False)
    below = grid_gate.raw_rule(ref, ref + 0.2499)
    assert below["high"] < 0.25 and below["pass"]

    # one pair per track, resampled one track at a time
    d = np.zeros(160)
    d[:40], d[40:50] = -0.5, 1.0
    stats = grid_gate.raw_rule(ref, ref + d)
    assert stats == grid_gate.paired_statistics(d[:, None], 0.25)
    assert (stats["rises"], stats["falls"], stats["ties"]) == (10, 40, 110)
    assert stats["pass"]


def raw_runs(ace):
    """A parsed `--raw-gate` run: the grid's four cases at seeds 40-79, with fixed AORs."""
    names = ("translation", "rotation", "shear", "scaling")
    return {"cases": [(name, seed) for name in names for seed in range(40, 80)],
            "ace": np.asarray(ace, dtype=np.float64), "aor": np.full(160, 0.8)}


def gate_grid(learned, no_adapt):
    """A parsed grid of 20 cases x 3 replicates, with fixed spreads, raw ACEs and counts."""
    names = ("translation", "rotation", "shear", "scaling")
    return {
        "cases": [(name, seed) for name in names for seed in range(5)],
        "learned": learned,
        "spread": np.full(20, 0.1),
        "no-adapt": no_adapt,
        "no-adapt spread": np.full(20, 0.2),
        "raw": np.full(20, 4.0),
        "beats_raw": {"script order": 18, "reversed": 18, "rotated by 3": 17},
    }


def test_grid_gate_reports_the_no_adapt_pairs_without_gating(capsys):
    # the no-adaptation pairs are the fixed vector above: their mean, sign
    # test and interval are printed, and only the learned pairs decide
    d = np.zeros((20, 3))
    d[:9, 0], d[9, 1] = -0.5, 0.25
    ace = np.full((20, 3), 2.0)
    raw = raw_runs(np.full(160, 2.5))
    assert grid_gate.report(gate_grid(ace, ace), gate_grid(ace, ace + d), raw, raw)
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("no-adapt")] == [
        "no-adapt pairs not 0: 10 of 60",
        "no-adapt (not gating): mean change -0.071 px over 60 pairs: 1 rose, 9 fell, 50 tied; "
        "sign test p = 0.021",
        "no-adapt (not gating): 95% bootstrap interval of the mean change: [-0.108, -0.033] px "
        "(10000 case resamples)",
        "no-adapt (not gating): the ref's median per-case no-adapt replicate spread, 0.200 px",
    ]
    assert "raw pairs not 0: 0 of 20" in out and out[-1] == "pass"

    # every no-adaptation pair 1 px worse still passes; learned pairs 1 px worse fail
    assert grid_gate.report(gate_grid(ace, ace), gate_grid(ace, ace + 1.0), raw, raw)
    assert "no-adapt (not gating): mean change +1.000 px over 60 pairs: 60 rose, 0 fell, 0 tied; " \
        "sign test p = 0.000" in capsys.readouterr().out.splitlines()
    assert not grid_gate.report(gate_grid(ace, ace), gate_grid(ace + 1.0, ace), raw, raw)
    assert capsys.readouterr().out.splitlines()[-1] == "fail"


def test_grid_gate_fails_on_the_raw_rule_alone(capsys):
    # unchanged learned pairs, and shear's raw tracks 1 px worse: the
    # pattern's change is printed, and the raw bound fails the gate
    ace = np.full((20, 3), 2.0)
    ref = raw_runs(np.full(160, 2.5))
    tree = raw_runs(ref["ace"] + np.repeat([0.0, 0.0, 1.0, 0.0], 40))
    assert not grid_gate.report(gate_grid(ace, ace), gate_grid(ace, ace), ref, tree)
    out = capsys.readouterr().out.splitlines()
    assert "raw shear (not gating): mean change +1.000 px; AOR 0.800 -> 0.800" in out
    assert "raw translation (not gating): mean change +0.000 px; AOR 0.800 -> 0.800" in out
    assert "raw margin: a tenth of the ref's mean raw ACE, 0.250 px" in out
    assert out[-1] == "fail"


def test_round_trip_writes_one_file_per_command(tmp_path):
    res = run_script("round_trip.py", tmp_path / "out", "--frames", 22, "--aux-frames", 10)
    assert res.returncode == 0, res.stdout
    names = ["synth", "synth", "pretrain", "synth", "track", "eval", "track", "eval", "adapt"]
    files = [f"{i:02d}-{name}.txt" for i, name in enumerate(names, start=1)]
    assert sorted(p.name for p in (tmp_path / "out").glob("*.txt")) == files
    for name in files:
        assert "\nexit 0\n" in (tmp_path / "out" / name).read_text(), name


def test_diff_outputs_finds_the_working_tree_identical_to_head(tmp_path):
    # a fresh checkout whose HEAD is this tree's scripts/ and src/, so the
    # test does not depend on whether this checkout has uncommitted changes
    if not shutil.which("git"):
        pytest.skip("needs git")
    repo = tmp_path / "repo"
    for name in ("scripts", "src"):
        shutil.copytree(ROOT / name, repo / name, ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-c", "user.name=test", "-c", "user.email=test@example.com",
           "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "scripts", "src"], ["commit", "-q", "-m", "tree"]):
        subprocess.run([*git, *cmd], cwd=repo, check=True, capture_output=True)
    res = subprocess.run(
        [sys.executable, str(repo / "scripts" / "diff_outputs.py"), str(tmp_path / "d"),
         "--frames", "22", "--aux-frames", "10"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert re.search(r"^0 of \d+ outputs differ from HEAD$", res.stdout, re.MULTILINE), res.stdout
    assert (tmp_path / "d" / "tree-out" / "09-adapt.txt").is_file()


def test_measure_reports_the_command_and_passes_its_exit_code_through():
    res = run_script("measure.py", "--", sys.executable, "-c", "pass")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert sorted(report) == ["cpu_s", "exit", "peak_rss_mb", "wall_s"]
    assert report["exit"] == 0
    # the launcher imports no numpy, so a bare interpreter's peak stays small
    assert 0 < report["peak_rss_mb"] < 30
    res = run_script("measure.py", "--", sys.executable, "-c", "raise SystemExit(3)")
    assert res.returncode == 3
    assert json.loads(res.stdout.splitlines()[-1])["exit"] == 3


def test_cpu_probe_prints_one_json_line():
    res = run_script("cpu_probe.py", "--size", 8, "--products", 1, "--runs", 2)
    assert res.returncode == 0, res.stderr
    [line] = res.stdout.splitlines()
    probe = json.loads(line)
    assert set(probe) == {"ratio", "ratios", "warmup", "size", "products", "runs",
                          "openblas_core"}
    assert (probe["size"], probe["products"], probe["runs"]) == (8, 1, 2)
    # the warm-up runs are timed apart and left out of the median
    assert len(probe["ratios"]) == 2 and probe["ratio"] > 0
    assert 1 <= len(probe["warmup"]) <= 10 and min(probe["warmup"]) > 0
    assert probe["ratio"] == pytest.approx(sum(probe["ratios"]) / 2, abs=2e-4)
    assert probe["openblas_core"] is None or isinstance(probe["openblas_core"], str)


def test_cpu_probe_rejects_an_empty_run():
    res = run_script("cpu_probe.py", "--runs", 0)
    assert res.returncode == 2 and "--runs" in res.stderr
