#!/usr/bin/env python3
"""End-to-end desk-scale benchmark: learned features vs raw-pixel tracking.

Generates pre-training sequences, trains the two-layer model, then tracks
three 100-frame test sequences (translation, in-plane rotation, shear
deformation) with and without learned-feature re-ranking and prints an
ACE/AOR table. Everything is seeded, so reruns reproduce the table
exactly.

Pre-training uses the `pretrain` command's optimizer settings with only
the iteration cap replaced (`--pretrain-iters`), and prints each layer's
stop iteration and status.

With `--grid`, it tracks the fixed seed grid instead: tracker seeds 0-4
on the three sequences plus a scaling one, each learned, raw-only and
learned without adaptation (`adapt_optimizer.max_iters=0`), and prints
how often learned features beat raw pixels and adaptation beats none on
ACE, with the worst case of each, under the `OPENBLAS_NUM_THREADS` value
it ran with (1: importing slowtrack sets it), and the summed wall seconds
of each kind's tracks. The grid pre-trains three replicates, which pass
the five pre-training videos in the script's order, reversed and rotated
by three, so that only the summation order differs; the table and counts
are the first replicate's. It then prints each case's learned and
no-adaptation ACE under every replicate, their spread (max - min), and
each replicate's counts. Last come the paired learned - raw and learned -
no-adaptation ACE differences over cases x replicates: their mean, sign
test and 95% bootstrap interval (`grid_gate.paired_statistics`).

With `--raw-gate`, it tracks only the raw-pixel runs that
`grid_gate.py`'s raw rule pairs: the grid's four cases at tracker seeds
`grid_gate.RAW_SEEDS`. It prints one `raw CASE SEED ACE AOR` line per
track and pre-trains nothing.
"""

import argparse
import os
import statistics
import time
from dataclasses import replace

import numpy as np

from grid_gate import RAW_SEEDS, paired_statistics
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


# the order in which each grid replicate passes the five pre-training videos
REPLICATES = {
    "script order": (0, 1, 2, 3, 4),
    "reversed": (4, 3, 2, 1, 0),
    "rotated by 3": (3, 4, 0, 1, 2),
}


def pretraining_data(n_frames=40):
    """The 16 and 32 px training sequences of each of five tracked videos."""
    scripts = [
        translation_script(n_frames, (60.0, 60.0), (1.0, 0.0), target_side=48),
        translation_script(n_frames, (70.0, 52.0), (-0.8, 0.6), target_side=48),
        rotation_script(n_frames, (64.0, 60.0), np.deg2rad(2.0), target_side=48),
        scaling_script(n_frames, (64.0, 60.0), 1.004, target_side=48),
        deformation_script(n_frames, (64.0, 60.0), 3.0, target_side=48),
    ]
    # every 48 px box holds both patch sides, so no video is skipped
    videos = []
    for i, script in enumerate(scripts):
        frames, gt = generate_sequence(script, (140, 120), seed=11 + i)
        videos.append(tuple(sample_training_set(frames, gt.boxes, side, 16) for side in (16, 32)))
    return videos


def pretrain_model(videos, order, cfg, label):
    """The model pre-trained on `videos` in `order`, after printing how the run went."""
    t0 = time.time()
    result = pretrain([s for i in order for s in videos[i][0]],
                      [s for i in order for s in videos[i][1]], cfg)
    layers = "; ".join(
        f"{tag} {opt.trace[0][0]:.3g} -> {opt.value:.3g} in {opt.iterations} iterations, {opt.status}"
        for tag, opt in (("layer1", result.layer1_opt), ("layer2", result.layer2_opt))
    )
    whit = result.model.whitening
    print(f"pre-trained{label} in {time.time() - t0:.0f}s ({layers}; "
          f"whitening kept {whit.retained_dim} of {whit.input_dim} dimensions)")
    return result.model


def track(frames, gt, model, cfg):
    """ACE and AOR of one run."""
    pred = BoxTrace(run_tracker(frames, tuple(gt.boxes[0]), model, cfg).boxes)
    return center_error(pred, gt)[1], overlap_rate(pred, gt)[1]


def summary(label, diffs):
    """One summary line: the win count and the case where the first side fared worst."""
    wins = sum(d < 0 for d in diffs.values())
    (name, seed), d = max(diffs.items(), key=lambda item: item[1])
    return f"{label}: {wins}/{len(diffs)}; worst {name} seed {seed} ({d:+.2f} px)"


def grid_tracks(cases, runs, args, seeds=range(5)):
    """(ACE, AOR) of every run on every (case, tracker seed) pair, and each run's summed seconds.

    `runs` maps a key to the (model, TrackerConfig fields) it tracks with.
    """
    scores, seconds = {}, dict.fromkeys(runs, 0.0)
    for name, (script, texture_seed) in cases.items():
        frames, gt = generate_sequence(script, (320, 240), seed=texture_seed)
        frames = list(frames)  # composed once for all of the case's tracks
        for seed in seeds:
            for key, (model, fields) in runs.items():
                cfg = TrackerConfig(seed=seed, lam=args.lam, gamma=args.gamma, **fields)
                t0 = time.perf_counter()
                scores[key, name, seed] = track(frames, gt, model, cfg)
                seconds[key] += time.perf_counter() - t0
    return scores, seconds


def run_grid(models, cases, args):
    """Track the grid raw and under each replicate's model; print rows, counts and spreads."""
    runs = {("raw", None): (None, {})}
    for label, model in models.items():
        runs["learned", label] = (model, {})
        runs["no-adapt", label] = (model, {"adapt_optimizer": LbfgsConfig(max_iters=0)})
    scores, seconds = grid_tracks(cases, runs, args)
    pairs = [(name, seed) for name in cases for seed in range(5)]

    def score(kind, label, case):
        return scores[(kind, None if kind == "raw" else label), *case]

    def diffs(label, kind, other):
        return {case: score(kind, label, case)[0] - score(other, label, case)[0] for case in pairs}

    first = next(iter(models))
    kinds = ("learned", "raw", "no-adapt")
    header = "".join(f" {k + ' ACE':>12} {'AOR':>6}" for k in kinds)
    print(f"\n{'sequence':<12} {'seed':>4}{header}")
    for case in pairs:
        row = "".join(f" {ace:>12.2f} {aor:>6.3f}" for ace, aor in (score(k, first, case) for k in kinds))
        print(f"{case[0]:<12} {case[1]:>4}{row}")

    # slowtrack holds BLAS to one thread, so this reads 1; older grids ran on two
    print(f"\nOPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(summary("learned beats raw", diffs(first, "learned", "raw")))
    print(summary("adaptation beats no adaptation", diffs(first, "learned", "no-adapt")))
    # learned minus no-adapt is what adaptation costs
    spent = ", ".join(f"{k} {seconds[k, None if k == 'raw' else first]:.1f}" for k in kinds)
    print(f"wall seconds of the {len(pairs)} tracks of each kind: {spent}")

    print(f"\nACE under the replicates {', '.join(models)}, and its spread (max - min)")
    print(f"{'sequence':<12} {'seed':>4} {'learned':>20} {'spread':>6} {'no-adapt':>20} {'spread':>6}")
    spreads = {"learned": {}, "no-adapt": {}}
    for case in pairs:
        row = f"{case[0]:<12} {case[1]:>4}"
        for kind, kind_spreads in spreads.items():
            values = [score(kind, label, case)[0] for label in models]
            kind_spreads[case] = max(values) - min(values)
            row += f" {' '.join(f'{v:6.2f}' for v in values):>20} {kind_spreads[case]:>6.2f}"
        print(row)
    for kind, kind_spreads in spreads.items():
        (name, seed), worst = max(kind_spreads.items(), key=lambda item: item[1])
        above = sum(d > 0.25 for d in kind_spreads.values())
        print(f"{kind} ACE spread: median {statistics.median(kind_spreads.values()):.2f} px, "
              f"max {worst:.2f} px ({name} seed {seed}), above 0.25 px in {above}/{len(pairs)}")
    for label in models:
        print(f"replicate {label}: "
              + summary("learned beats raw", diffs(label, "learned", "raw")) + "; "
              + summary("adaptation beats no adaptation", diffs(label, "learned", "no-adapt")))

    print(f"\npaired ACE differences over {len(pairs)} cases x {len(models)} replicates")
    for other in ("raw", "no-adapt"):
        d = np.array([[diffs(label, "learned", other)[case] for label in models] for case in pairs])
        stats = paired_statistics(d, margin=0.0)
        print(f"learned - {other}: mean {stats['mean']:+.3f} px, 95% bootstrap interval "
              f"[{stats['low']:+.3f}, {stats['high']:+.3f}] px; {stats['rises']} rose, "
              f"{stats['falls']} fell, {stats['ties']} tied; sign test p = {stats['sign_p']:.3f}")


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
    parser.add_argument("--raw-gate", action="store_true",
                        help="track only the raw-pixel runs of grid_gate.py's raw rule")
    args = parser.parse_args()

    n = args.frames
    cases = {
        "translation": (translation_script(n, (160.0 - (n - 1), 120.0), (2.0, 0.0)), 21),
        "rotation": (rotation_script(n, (160.0, 120.0), np.deg2rad(1.5)), 22),
        "shear": (deformation_script(n, (160.0, 120.0), 4.0, time_period=25.0), 23),
    }
    grid_cases = {**cases, "scaling": (scaling_script(n, (160.0, 120.0), 1.006), 24)}
    if args.raw_gate:
        scores, _ = grid_tracks(grid_cases, {"raw": (None, {})}, args, RAW_SEEDS)
        for (_, name, seed), (ace, aor) in scores.items():
            print(f"raw {name} {seed} {ace:.6f} {aor:.6f}")
        return
    videos = pretraining_data()
    optimizer = replace(PretrainConfig().optimizer, max_iters=args.pretrain_iters)
    cfg = PretrainConfig(lam=args.lam, f1=args.f1, f2=args.f2, optimizer=optimizer, seed=0)
    if args.grid:
        models = {label: pretrain_model(videos, order, cfg, f" ({label})")
                  for label, order in REPLICATES.items()}
        run_grid(models, grid_cases, args)
        return
    model = pretrain_model(videos, REPLICATES["script order"], cfg, "")
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
