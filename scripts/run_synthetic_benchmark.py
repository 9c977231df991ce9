#!/usr/bin/env python3
"""End-to-end desk-scale benchmark: learned features vs raw-pixel tracking.

Generates pre-training sequences, trains the two-layer model, then tracks
three 100-frame test sequences (translation, in-plane rotation, shear
deformation) with and without learned-feature re-ranking and prints an
ACE/AOR table. Everything is seeded, so reruns reproduce the table
exactly.

With `--grid`, it tracks the fixed seed grid instead: tracker seeds 0-4
on the three sequences plus a scaling one, each learned, raw-only and
learned without adaptation (`adapt_optimizer.max_iters=0`), and prints
how often learned features beat raw pixels and adaptation beats none on
ACE, with the worst case of each, under the `OPENBLAS_NUM_THREADS` value
it ran with (1: importing slowtrack sets it), and the summed wall seconds
of each kind's tracks.
"""

import argparse
import os
import time

import numpy as np

from slowtrack.hierarchy import PretrainConfig, pretrain
from slowtrack.metrics import BoxTrace, center_error, overlap_rate
from slowtrack.optimizer import LbfgsConfig
from slowtrack.patches import sample_training_set
from slowtrack.synth import (
    deformation_script,
    generate_sequence,
    rotation_script,
    scaling_script,
    translation_script,
)
from slowtrack.tracker import TrackerConfig, run_tracker


def pretraining_data(n_frames=40):
    """The 16 and 32 px training sequences of five tracked videos."""
    scripts = [
        translation_script(n_frames, (60.0, 60.0), (1.0, 0.0), target_side=48),
        translation_script(n_frames, (70.0, 52.0), (-0.8, 0.6), target_side=48),
        rotation_script(n_frames, (64.0, 60.0), np.deg2rad(2.0), target_side=48),
        scaling_script(n_frames, (64.0, 60.0), 1.004, target_side=48),
        deformation_script(n_frames, (64.0, 60.0), 3.0, target_side=48),
    ]
    # every 48 px box holds both patch sides, so no video is skipped
    seqs16, seqs32 = [], []
    for i, script in enumerate(scripts):
        frames, gt = generate_sequence(script, (140, 120), seed=11 + i)
        seqs16 += sample_training_set(frames, gt.boxes, 16, 16)
        seqs32 += sample_training_set(frames, gt.boxes, 32, 16)
    return seqs16, seqs32


def track(frames, gt, model, cfg):
    """ACE and AOR of one run."""
    pred = BoxTrace(run_tracker(frames, tuple(gt.boxes[0]), model, cfg).boxes)
    return center_error(pred, gt)[1], overlap_rate(pred, gt)[1]


def summary(label, diffs):
    """One summary line: the win count and the case where the first side fared worst."""
    wins = sum(d < 0 for d in diffs.values())
    (name, seed), d = max(diffs.items(), key=lambda item: item[1])
    return f"{label}: {wins}/{len(diffs)}; worst {name} seed {seed} ({d:+.2f} px)"


def run_grid(model, cases, args):
    """Track every (case, seed) pair three ways; print the rows and the win counts."""
    kinds = {
        "learned": (model, {}),
        "raw": (None, {}),
        "no-adapt": (model, {"adapt_optimizer": LbfgsConfig(max_iters=0)}),
    }
    header = "".join(f" {k + ' ACE':>12} {'AOR':>6}" for k in kinds)
    print(f"\n{'sequence':<12} {'seed':>4}{header}")
    beats_raw, beats_fixed = {}, {}
    seconds = dict.fromkeys(kinds, 0.0)
    for name, (script, texture_seed) in cases.items():
        frames, gt = generate_sequence(script, (320, 240), seed=texture_seed)
        for seed in range(5):
            ace = {}
            row = f"{name:<12} {seed:>4}"
            for kind, (kind_model, fields) in kinds.items():
                cfg = TrackerConfig(seed=seed, lam=args.lam, gamma=args.gamma, **fields)
                t0 = time.perf_counter()
                ace[kind], aor = track(frames, gt, kind_model, cfg)
                seconds[kind] += time.perf_counter() - t0
                row += f" {ace[kind]:>12.2f} {aor:>6.3f}"
            print(row)
            beats_raw[name, seed] = ace["learned"] - ace["raw"]
            beats_fixed[name, seed] = ace["learned"] - ace["no-adapt"]
    # slowtrack holds BLAS to one thread, so this reads 1; older grids ran on two
    print(f"\nOPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(summary("learned beats raw", beats_raw))
    print(summary("adaptation beats no adaptation", beats_fixed))
    # learned minus no-adapt is what adaptation costs
    spent = ", ".join(f"{kind} {s:.1f}" for kind, s in seconds.items())
    print(f"wall seconds of the {len(beats_raw)} tracks of each kind: {spent}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--f1", type=int, default=32)
    parser.add_argument("--f2", type=int, default=64)
    parser.add_argument("--lambda", dest="lam", type=float, default=5.0)
    parser.add_argument("--gamma", type=float, default=100.0)
    parser.add_argument("--pretrain-iters", type=int, default=100)
    parser.add_argument("--frames", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--grid", action="store_true",
                        help="track the fixed seed grid instead of the table")
    args = parser.parse_args()

    t0 = time.time()
    seqs16, seqs32 = pretraining_data()
    cfg = PretrainConfig(
        lam=args.lam,
        f1=args.f1,
        f2=args.f2,
        optimizer=LbfgsConfig(max_iters=args.pretrain_iters, grad_tol=1e-4),
        seed=0,
    )
    result = pretrain(seqs16, seqs32, cfg)
    model = result.model
    print(
        f"pre-trained in {time.time() - t0:.0f}s "
        f"(layer1 {result.layer1_opt.trace[0][0]:.3g} -> {result.layer1_opt.value:.3g}, "
        f"layer2 {result.layer2_opt.trace[0][0]:.3g} -> {result.layer2_opt.value:.3g})"
    )

    n = args.frames
    cases = {
        "translation": (translation_script(n, (160.0 - (n - 1), 120.0), (2.0, 0.0)), 21),
        "rotation": (rotation_script(n, (160.0, 120.0), np.deg2rad(1.5)), 22),
        "shear": (deformation_script(n, (160.0, 120.0), 4.0, time_period=25.0), 23),
    }
    if args.grid:
        cases["scaling"] = (scaling_script(n, (160.0, 120.0), 1.006), 24)
        run_grid(model, cases, args)
        return
    print(f"\n{'sequence':<12} {'features':<8} {'ACE px':>8} {'AOR':>6} {'time':>6}")
    for name, (script, seed) in cases.items():
        frames, gt = generate_sequence(script, (320, 240), seed=seed)
        for raw in (False, True):
            t1 = time.time()
            tcfg = TrackerConfig(seed=args.seed, lam=args.lam, gamma=args.gamma)
            ace, aor = track(frames, gt, None if raw else model, tcfg)
            label = "raw" if raw else "learned"
            print(
                f"{name:<12} {label:<8} {ace:>8.2f} {aor:>6.3f} {time.time() - t1:>5.0f}s"
            )


if __name__ == "__main__":
    main()
