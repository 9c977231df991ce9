"""Workload inputs, generated from the seed, and the timed commands.

Set-up writes every input a command needs as files: synthetic sequences
as numbered PGM frames plus ``gt.csv`` (through slowtrack's synth API),
and, for ``track-learned``, a model pre-trained by the ``slowtrack
pretrain`` command. The timed command then receives only those files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("pretrain", "track-learned")


@dataclass(frozen=True)
class Size:
    track_frames: int  # the tracked 320x240 rotating sequence
    aux_frames: int  # each of the eight pre-training sequences
    heldout_frames: int  # each held-out translating sequence (slowness check)
    setup_aux_frames: int  # each of the four set-up pre-training sequences
    setup_max_iters: int  # L-BFGS cap of the set-up pre-training


SIZES = {
    "full": Size(track_frames=60, aux_frames=40, heldout_frames=20, setup_aux_frames=30, setup_max_iters=50),
    # the same code path at a size the benchmark's own tests can afford
    "small": Size(track_frames=22, aux_frames=10, heldout_frames=8, setup_aux_frames=10, setup_max_iters=10),
}

AUX_SIZE = (140, 120)
AUX_TARGET = 48
TRACK_SIZE = (320, 240)

# (kind, parameter) of the eight pre-training sequences: two of each motion
AUX_SPECS = (
    ("translation", (1.0, 0.0)),
    ("translation", (0.0, 1.0)),
    ("rotation", math.radians(1.5)),
    ("rotation", -math.radians(2.0)),
    ("scaling", 1.004),
    ("scaling", 0.996),
    ("deformation", (3.0, 25.0)),
    ("deformation", (2.0, 20.0)),
)
# one sequence of each motion for the set-up pre-training of track-learned
SETUP_AUX_SPECS = AUX_SPECS[0::2]
HELDOUT_SPECS = (("translation", (1.0, 0.0)), ("translation", (0.0, -1.0)))


def _script(kind: str, param, n: int, size, target: int):
    from slowtrack import synth

    cx, cy = size[0] / 2.0, size[1] / 2.0
    if kind == "translation":
        vx, vy = param
        start = (cx - vx * (n - 1) / 2.0, cy - vy * (n - 1) / 2.0)
        return synth.translation_script(n, start, (vx, vy), target_side=target)
    if kind == "rotation":
        return synth.rotation_script(n, (cx, cy), param, target_side=target)
    if kind == "scaling":
        return synth.scaling_script(n, (cx, cy), param, target_side=target)
    amp, period = param
    return synth.deformation_script(n, (cx, cy), amp, time_period=period, target_side=target)


def write_sequence(directory: Path, kind, param, n, size, target, seed) -> Path:
    from slowtrack import synth

    frames, boxes = synth.generate_sequence(_script(kind, param, n, size, target), size, seed=seed)
    synth.write_sequence(frames, boxes, directory)
    return directory


def _sequences(root: Path, specs, n, size, target, seed0) -> list[Path]:
    return [
        write_sequence(root / f"{k}-{kind}", kind, param, n, size, target, seed0 + k)
        for k, (kind, param) in enumerate(specs)
    ]


def init_box(seq_dir: Path) -> str:
    """The first gt.csv row as ``x,y,w,h``, the box a user starts from."""
    first = (seq_dir / "gt.csv").read_text(encoding="utf-8").splitlines()[0]
    return first.split(",", 1)[1]


def setup(workload: str, seed: int, work: Path, size: Size, run_cli) -> dict:
    """Write the workload's inputs under `work` and return their paths.

    `run_cli(args, name)` runs one slowtrack CLI command for set-up work
    (the pre-training of track-learned) and raises if it fails. Textures
    and backgrounds of every sequence come from `seed`; the motions are
    fixed, so the amount of work does not depend on the seed.
    """
    base = seed * 100  # each sequence draws its textures from its own seed
    inputs = {}
    if workload == "pretrain":
        inputs["aux"] = _sequences(work / "aux", AUX_SPECS, size.aux_frames, AUX_SIZE, AUX_TARGET, base)
        inputs["heldout"] = _sequences(
            work / "heldout", HELDOUT_SPECS, size.heldout_frames, AUX_SIZE, AUX_TARGET, base + 50
        )
        return inputs
    seq = write_sequence(
        work / "seq", "rotation", math.radians(1.5), size.track_frames, TRACK_SIZE, 32, base + 99
    )
    inputs.update(seq=seq, init_box=init_box(seq), n_frames=size.track_frames)
    aux = _sequences(
        work / "setup-aux", SETUP_AUX_SPECS, size.setup_aux_frames, AUX_SIZE, AUX_TARGET, base + 20
    )
    model = work / "setup-model.hftm"
    run_cli(
        ["pretrain", "--data", *map(str, aux), "--out", str(model),
         "--max-iters", str(size.setup_max_iters)],
        "setup-pretrain",
    )
    inputs["model"] = model
    return inputs


def command(workload: str, inputs: dict, out: Path) -> list[str]:
    """The timed slowtrack CLI arguments: program defaults, no --threads."""
    if workload == "pretrain":
        return ["pretrain", "--data", *map(str, inputs["aux"]), "--out", str(out / "model.hftm")]
    return ["track", "--model", str(inputs["model"]), "--frames", str(inputs["seq"]),
            "--init-box", inputs["init_box"], "--out", str(out / "boxes.csv")]
