"""Command-line entry point: synth, pretrain, adapt, track, eval.

Exit codes are a stable scripting contract: 0 success, 2 usage, IO or a
size too large to allocate, 3 data, 4 optimization, 5 tracking lost.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from dataclasses import fields, is_dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataError, OptimizationError, TrackingLostError
from .hierarchy import PretrainConfig, load_model, pretrain, save_model
from .metrics import BoxTrace, center_error, overlap_rate
from .patches import (
    read_boxes_csv,
    sample_training_set,
    stream_frame_dir,
    write_boxes_csv,
)
from .synth import (
    deformation_script,
    frame_name,
    generate_sequence,
    rotation_script,
    scaling_script,
    translation_script,
    write_sequence,
)
from .tracker import TrackerConfig, format_event, run_tracker

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_OPTIMIZATION = 4
EXIT_TRACKING_LOST = 5

LAMBDA_SOFT_RANGE = (0.5, 20.0)
GAMMA_SOFT_RANGE = (90.0, 110.0)


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _check_tradeoffs(lam, gamma=None) -> None:
    if not (LAMBDA_SOFT_RANGE[0] <= lam <= LAMBDA_SOFT_RANGE[1]):
        _warn(f"lambda={lam:g} outside the usual range {LAMBDA_SOFT_RANGE}")
    if gamma is not None and not (GAMMA_SOFT_RANGE[0] <= gamma <= GAMMA_SOFT_RANGE[1]):
        _warn(f"gamma={gamma:g} outside the usual range {GAMMA_SOFT_RANGE}")


def _pair(text: str, n: int = 2) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"expected {n} comma-separated values")
    return tuple(float(p) for p in parts)


def _size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected WIDTHxHEIGHT")
    return int(parts[0]), int(parts[1])


def _config(build, *args, **kwargs):
    """Build a config or script from flag values; an invalid value is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _configure(cfg, args):
    """`cfg` with each field, nested configs' too, replaced by its flag if given.

    Config flags have no argparse default, so `args` holds only the given
    ones, each under the name of the field it sets.
    """
    given = vars(args)
    changes = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            changes[f.name] = _configure(value, args)
        elif f.name in given:
            changes[f.name] = given[f.name]
    return _config(replace, cfg, **changes)


def _merge_config(argv: list[str] | None) -> list[str]:
    """Expand `--config FILE` into flags inserted right after the subcommand.

    Explicit flags come later on the command line, so they win; of two
    `--config`s the last counts. `argv` None reads `sys.argv[1:]`.
    """
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        known, out = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        raise UsageError("--config requires a file path") from None
    config_path = known.config
    if config_path is None:
        return out
    flags = []
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"{config_path}: not UTF-8 text (byte offset {err.start})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{config_path}: line {lineno} is not key=value")
        flags.extend([f"--{key.strip()}", value.strip()])
    return out[:1] + flags + out[1:]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowtrack",
        description="slow-feature learning and particle-filter tracking",
        epilog=(
            "every subcommand also accepts --config FILE with key=value "
            "lines merged in before the flags"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic sequence with ground truth")
    p.add_argument(
        "--pattern",
        required=True,
        choices=["translation", "rotation", "scaling", "deformation"],
    )
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=_size, default=(320, 240), help="frame WIDTHxHEIGHT")
    p.add_argument("--target-side", type=int, default=32)
    p.add_argument("--velocity", type=_pair, default=(2.0, 0.0), help="px/frame VX,VY")
    p.add_argument("--rate", type=float, default=None, help="rad/frame (rotation) or per-frame scale factor (scaling)")
    p.add_argument("--amp", type=float, default=3.0, help="peak shear amplitude, px")
    p.add_argument("--time-period", type=float, default=25.0)
    p.add_argument("--shear-period", type=float, default=16.0)

    # each pretrain, adapt and track flag but the paths sets the config
    # field its dest names; SUPPRESS leaves an absent flag out of the
    # args, so the config's own default holds
    p = sub.add_parser(
        "pretrain",
        help="learn the two-layer model from tracked videos",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--data", nargs="+", required=True, help="dirs of frames + gt.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--f1", type=int)
    p.add_argument("--f2", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--stride", dest="sub_patch_stride", metavar="STRIDE", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--whiten-dim", type=int)

    p = sub.add_parser(
        "adapt",
        help="adapt a pre-trained model to one target",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--model", required=True)
    p.add_argument("--frames", required=True, help="dir of PGM frames")
    p.add_argument("--init-box", type=lambda s: _pair(s, 4), required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--init-frames", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser(
        "track",
        help="run the tracker over a frame directory",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--model", default=None)
    p.add_argument("--frames", required=True)
    p.add_argument("--init-box", type=lambda s: _pair(s, 4), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="diagnostics log (default OUT.log)")
    p.add_argument("--particles", dest="n_candidates", metavar="PARTICLES", type=int)
    p.add_argument("--topk", dest="top_k", metavar="TOPK", type=int)
    p.add_argument("--update-every", dest="update_period", metavar="UPDATE_EVERY", type=int)
    p.add_argument("--init-frames", type=int)
    p.add_argument("--raw-only", action="store_true", default=False)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--std-xy", type=float)
    p.add_argument("--std-scale", type=float)
    p.add_argument("--std-rotation", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("eval", help="score predicted boxes against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    return parser


def _synth_script(args):
    """The motion script the synth flags describe."""
    width, height = args.size
    center = (width / 2.0, height / 2.0)
    n = args.frames
    if args.pattern == "translation":
        vx, vy = args.velocity
        start = (
            center[0] - vx * (n - 1) / 2.0,
            center[1] - vy * (n - 1) / 2.0,
        )
        script = translation_script(n, start, (vx, vy), target_side=args.target_side)
    elif args.pattern == "rotation":
        rate = args.rate if args.rate is not None else np.deg2rad(1.5)
        script = rotation_script(n, center, rate, target_side=args.target_side)
    elif args.pattern == "scaling":
        rate = args.rate if args.rate is not None else 1.004
        script = scaling_script(n, center, rate, target_side=args.target_side)
    else:
        script = deformation_script(
            n,
            center,
            args.amp,
            time_period=args.time_period,
            shear_period=args.shear_period,
            target_side=args.target_side,
        )
    return script


def cmd_synth(args) -> int:
    if args.frames < 1:
        raise UsageError("--frames must be >= 1")
    if min(args.size) < 1:
        raise UsageError(f"--size must be at least 1x1, got {args.size[0]}x{args.size[1]}")
    # a frame this run does not overwrite would join the sequence it writes
    stale = [
        p for p in Path(args.out).glob("*.pgm")
        if not (p.stem.isdecimal() and int(p.stem) < args.frames
                and p.name == frame_name(int(p.stem)))
    ]
    if stale:
        raise UsageError(f"--out {args.out} holds {len(stale)} .pgm frame(s) this run would not write")
    # an infinite flag can overflow the schedule, which MotionScript rejects
    with np.errstate(over="ignore", invalid="ignore"):
        script = _config(_synth_script, args=args)
    # numpy refuses a size above its maximum array size with a ValueError
    frames, boxes = _config(generate_sequence, script, args.size, seed=args.seed)
    write_sequence(frames, boxes, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    return EXIT_OK


def _sample_directory(directory: Path, stride: int, sides: dict[int, int | None]) -> dict:
    """Training sequences of one data directory, None where its box is too small.

    Each side's are cut from the first `sides[side]` frames, or from all
    of them for None. Its frames are freed on return, before the next
    directory is read.
    """
    gt = directory / "gt.csv"
    if not gt.is_file():
        raise DataError(f"missing gt.csv in data directory {directory}")
    frames = list(stream_frame_dir(directory))
    boxes = read_boxes_csv(gt)
    try:
        return {side: sample_training_set(frames[:n], boxes[:n], side, stride)
                for side, n in sides.items()}
    except DataError as err:
        raise DataError(f"{directory}: {err}") from None


def _sample_layer1(dirs: list[Path], stride: int, kept32: list[Path]) -> list[np.ndarray]:
    """Pass 1: every directory's 16x16 training sequences.

    Appends to `kept32` each directory that yields 32x32 sequences. Their
    grid depends only on the first frame and box, so it is decided here
    from those; the patches are cut on a second read (`_sample_layer2`).
    """
    sampled = [_sample_directory(d, stride, {16: None, 32: 1}) for d in dirs]
    for side in (16, 32):
        skipped = sum(cells[side] is None for cells in sampled)
        if skipped:
            _warn(f"{skipped} sequence(s) skipped for side {side} (box smaller than the patch)")
        if not any(cells[side] for cells in sampled):
            raise DataError(f"no {side}x{side} training patches sampled")
    kept32.extend(d for d, cells in zip(dirs, sampled) if cells[32])
    return [seq for cells in sampled for seq in cells[16] or ()]


def _sample_layer2(dirs: list[Path], stride: int) -> Iterator[np.ndarray]:
    """Pass 2: the 32x32 training sequences of `dirs`, read again one directory at a time."""
    for directory in dirs:
        yield from _sample_directory(directory, stride, {32: None})[32] or ()


def cmd_pretrain(args) -> int:
    cfg = _configure(PretrainConfig(), args)
    _check_tradeoffs(cfg.lam)
    dirs, kept32 = [Path(d) for d in args.data], []
    # no name holds pass 1's list, so layer 1's objective keeps the only copy;
    # pass 2 runs after layer 1 trains, over the directories pass 1 kept
    result = pretrain(_sample_layer1(dirs, cfg.sub_patch_stride, kept32),
                      _sample_layer2(kept32, cfg.sub_patch_stride), cfg)
    save_model(result.model, args.out)
    for tag, opt in (("layer1", result.layer1_opt), ("layer2", result.layer2_opt)):
        print(
            f"{tag} objective: {opt.trace[0][0]:.6e} -> {opt.value:.6e} "
            f"({opt.iterations} iterations, {opt.evals} evals, {opt.status})"
        )
    whit = result.model.whitening
    print(
        f"whitening: {whit.retained_dim} of {whit.input_dim} dimensions kept "
        f"({whit.variance_fraction:.6f} of the variance)"
    )
    print(f"wrote model to {args.out}")
    return EXIT_OK


def _load_model_arg(path):
    if not Path(path).is_file():
        raise UsageError(f"model file not found: {path}")
    return load_model(path)


def cmd_adapt(args) -> int:
    cfg = _configure(TrackerConfig(), args)
    _check_tradeoffs(cfg.lam, cfg.gamma)
    model = _load_model_arg(args.model)
    # only the first init_frames frames are read, so later ones are never decoded
    frames = list(islice(stream_frame_dir(args.frames), cfg.init_frames))
    if len(frames) < cfg.init_frames:
        raise DataError(
            f"need at least {cfg.init_frames} frames, found {len(frames)}"
        )
    result = run_tracker(frames, args.init_box, model, cfg)
    # init_frames frames hold exactly one scheduled adaptation
    (event,) = result.events
    if event.kind == "failed":
        raise OptimizationError(f"adaptation failed: {event.error}")
    for st in event.layers:
        print(
            f"{st.layer}: |W - W_old|_F = {st.frobenius_change:.6e} "
            f"({st.iterations} iterations, {st.evals} evals, {st.status}; "
            f"relative {st.relative_change:.6e})"
        )
    save_model(result.model, args.out)
    print(f"wrote model to {args.out}")
    return EXIT_OK


def cmd_track(args) -> int:
    cfg = _configure(TrackerConfig(), args)
    _check_tradeoffs(cfg.lam, cfg.gamma)
    # a model given with --raw-only is still read and checked, then not used
    model = None if args.model is None else _load_model_arg(args.model)
    if model is None and not args.raw_only:
        raise UsageError("--model is required unless --raw-only is set")
    frames = stream_frame_dir(args.frames)
    log_path = args.log if args.log is not None else args.out + ".log"
    try:
        result = run_tracker(frames, args.init_box, None if args.raw_only else model, cfg)
    except TrackingLostError as err:
        if err.boxes is not None and len(err.boxes):
            write_boxes_csv(args.out, err.boxes)
        lines = [format_event(e) for e in err.events] + [str(err)]
        Path(log_path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        raise
    write_boxes_csv(args.out, result.boxes)
    lines = [format_event(e) for e in result.events]
    Path(log_path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(result.boxes)} boxes to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = BoxTrace.from_csv(args.pred)
    gt = BoxTrace.from_csv(args.gt)
    _, ace = center_error(pred, gt)
    _, aor = overlap_rate(pred, gt)
    print(f"ACE={ace:.4f} AOR={aor:.4f}")
    return EXIT_OK


class UsageError(Exception):
    pass


# the exit code of each error a command may end in, subclasses included
_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    MemoryError: EXIT_USAGE,
    DataError: EXIT_DATA,
    OptimizationError: EXIT_OPTIMIZATION,
    TrackingLostError: EXIT_TRACKING_LOST,
}

_COMMANDS = {
    "synth": cmd_synth,
    "pretrain": cmd_pretrain,
    "adapt": cmd_adapt,
    "track": cmd_track,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        argv = _merge_config(argv)
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
