"""Each output check fails on a deliberately wrong input."""

from __future__ import annotations

import numpy as np
import pytest

import checks
import run


@pytest.fixture(scope="module")
def learned(small_run):
    small_run("track-learned")
    work = run.WORK / "track-learned"
    return {"work": work, "boxes": work / "out" / "boxes.csv", "gt": work / "seq" / "gt.csv",
            "log": work / "out" / "boxes.csv.log", "model": work / "setup-model.hftm",
            "frames": len(checks.read_boxes(work / "seq" / "gt.csv"))}


def _eval_line(boxes, gt):
    ace, aor = checks.centre_error_and_iou(checks.read_boxes(boxes), checks.read_boxes(gt))
    return f"ACE={ace:.4f} AOR={aor:.4f}\n"


def test_track_check_passes_on_real_output(learned):
    problems, _ = checks.check_track(
        learned["boxes"], learned["gt"], _eval_line(learned["boxes"], learned["gt"]), learned["frames"]
    )
    assert problems == []


def test_boxes_shifted_by_20px_fail(learned, tmp_path):
    boxes = checks.read_boxes(learned["boxes"])
    boxes[:, 0] += 20.0
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("".join(f"{i},{x},{y},{w},{h}\n" for i, (x, y, w, h) in enumerate(boxes.tolist())))
    problems, (ace, _) = checks.check_track(
        shifted, learned["gt"], _eval_line(shifted, learned["gt"]), learned["frames"]
    )
    assert ace > checks.ACE_CEILING_PX
    assert any("ceiling" in p for p in problems)


def test_eval_disagreement_fails(learned):
    problems, _ = checks.check_track(learned["boxes"], learned["gt"], "ACE=9.9999 AOR=0.1000", learned["frames"])
    assert any("slowtrack eval says" in p for p in problems)


def test_missing_frame_fails(learned, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("".join(learned["boxes"].read_text().splitlines(keepends=True)[:-1]))
    problems, _ = checks.check_track(short, learned["gt"], "", learned["frames"])
    assert problems


def test_log_check_passes_on_real_log(learned):
    assert checks.check_learned_log(learned["log"], learned["frames"]) == []


def test_failed_adaptation_line_fails(learned, tmp_path):
    lines = learned["log"].read_text().splitlines()
    lines[-1] = f"adapt kind=failed frames={learned['frames'] - learned['frames'] % 20} error=line search"
    log = tmp_path / "failed.log"
    log.write_text("\n".join(lines) + "\n")
    assert any("failed adaptation" in p for p in checks.check_learned_log(log, learned["frames"]))


def test_rising_objective_fails(learned, tmp_path):
    line = learned["log"].read_text().splitlines()[0]
    fields = dict(tok.split("=", 1) for tok in line.split()[1:])
    bad = line.replace(f"layer1_after={fields['layer1_after']}", "layer1_after=1.0e+99")
    log = tmp_path / "rising.log"
    log.write_text(bad + "\n")
    assert any("rose" in p for p in checks.check_learned_log(log, 20))


def test_perturbed_encoder_weight_fails(learned):
    from slowtrack.hierarchy import load_model

    model = load_model(learned["model"])
    params = checks.read_model(learned["model"])
    rng = np.random.default_rng(0)
    patches = [checks.normalize(rng.random((32, 32))) for _ in range(2)]
    assert checks.check_encoder(model, params, patches) == []
    for key in ("w1", "w2"):
        bad = dict(params)
        bad[key] = params[key].copy()
        bad[key][3, 7] += 1e-4
        assert checks.check_encoder(model, bad, patches), key


@pytest.fixture(scope="module")
def pretrained(small_run):
    small_run("pretrain")
    work = run.WORK / "pretrain"
    return {
        "stdout": (work / "out.stdout").read_text(),
        "params": checks.read_model(work / "out" / "model.hftm"),
        "aux": sorted((work / "aux").iterdir()),
        "heldout": sorted((work / "heldout").iterdir()),
    }


def _check_pretrain(p, **override):
    args = {**p, **override}
    return checks.check_pretrain(
        args["stdout"], args["params"], args["aux"], args["heldout"],
        run.PRETRAIN_F1, run.PRETRAIN_F2, run.PRETRAIN_STRIDE,
    )


def test_pretrain_check_passes_on_real_output(pretrained):
    assert _check_pretrain(pretrained) == []


def test_objective_that_does_not_fall_fails(pretrained):
    stdout = "layer1 objective: 1.0e+00 -> 2.0e+00 (3 iterations, max_iters)\n" + \
        pretrained["stdout"].splitlines()[1]
    assert any("did not fall" in p for p in _check_pretrain(pretrained, stdout=stdout))


def test_broken_whitening_fails(pretrained):
    params = dict(pretrained["params"])
    params["projection"] = params["projection"] * 1.2
    assert any("covariance" in p for p in _check_pretrain(pretrained, params=params))


def test_filters_no_slower_than_random_fail(pretrained):
    params = dict(pretrained["params"])
    # the very filters the check compares against cannot be slower than themselves
    params["w1"] = checks.random_orthonormal(run.PRETRAIN_F1, 256, checks.RANDOM_FILTER_SEED)
    problems = _check_pretrain(pretrained, params=params)
    assert any("not slower" in p for p in problems)
