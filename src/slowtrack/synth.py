"""Synthetic grayscale sequences with exact ground truth.

A band-limited noise texture (smoothed white noise, so patches have rich
gradients at any rotation) is composited over an independent lower
contrast noise background and transformed per frame: translation,
in-plane rotation, scaling, and a sinusoidal horizontal shear of the
target's rows standing in for non-rigid deformation. Rendering is
inverse-mapped nearest neighbor; the ground-truth box is the tight
axis-aligned bounding box of the rendered target mask. Frames are
quantized to 8-bit levels so in-memory sequences equal their PGM round
trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .geometry import snapped_cos_sin
from .metrics import BoxTrace
from .patches import Frame, save_frame, write_boxes_csv

SCRIPT_KINDS = ("translation", "rotation", "scaling", "deformation")

# required clearance between the target and the frame border, in pixels
BORDER_MARGIN = 8


@dataclass(frozen=True)
class MotionScript:
    """Per-frame target pose schedule; one entry per frame."""

    kind: str
    centers: np.ndarray  # (n, 2) target center per frame
    rotations: np.ndarray  # (n,) radians
    scales: np.ndarray  # (n,)
    shear_amps: np.ndarray  # (n,) horizontal shear amplitude in texture pixels
    shear_period: float = 16.0
    target_side: int = 32

    def __post_init__(self):
        if self.kind not in SCRIPT_KINDS:
            raise ValueError(f"unknown script kind {self.kind!r}")
        centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 2)
        n = centers.shape[0]
        rot = np.asarray(self.rotations, dtype=np.float64).ravel()
        sc = np.asarray(self.scales, dtype=np.float64).ravel()
        sh = np.asarray(self.shear_amps, dtype=np.float64).ravel()
        if n == 0:
            raise ValueError("schedule must cover at least one frame")
        if not (rot.size == sc.size == sh.size == n):
            raise ValueError("schedule arrays must all have the frame count length")
        if np.any(sc <= 0):
            raise ValueError("scales must be positive")
        if self.shear_period <= 0 or self.target_side < 4:
            raise ValueError("invalid shear period or target side")
        for name, arr in (
            ("centers", centers),
            ("rotations", rot),
            ("scales", sc),
            ("shear_amps", sh),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_frames(self) -> int:
        return self.centers.shape[0]


def _schedule(kind, centers, rotations, scales, shear_amps, **kw) -> MotionScript:
    n = len(centers)
    return MotionScript(
        kind,
        np.asarray(centers, dtype=np.float64),
        np.asarray(rotations, dtype=np.float64).ravel() if np.ndim(rotations) else np.full(n, float(rotations)),
        np.asarray(scales, dtype=np.float64).ravel() if np.ndim(scales) else np.full(n, float(scales)),
        np.asarray(shear_amps, dtype=np.float64).ravel() if np.ndim(shear_amps) else np.full(n, float(shear_amps)),
        **kw,
    )


def translation_script(n_frames, start, velocity, target_side=32) -> MotionScript:
    t = np.arange(n_frames)[:, None]
    centers = np.asarray(start, dtype=np.float64) + t * np.asarray(velocity, dtype=np.float64)
    return _schedule("translation", centers, 0.0, 1.0, 0.0, target_side=target_side)


def rotation_script(n_frames, center, rate, target_side=32) -> MotionScript:
    centers = np.tile(np.asarray(center, dtype=np.float64), (n_frames, 1))
    rotations = rate * np.arange(n_frames, dtype=np.float64)
    return _schedule("rotation", centers, rotations, 1.0, 0.0, target_side=target_side)


def scaling_script(n_frames, center, rate, target_side=32) -> MotionScript:
    centers = np.tile(np.asarray(center, dtype=np.float64), (n_frames, 1))
    scales = float(rate) ** np.arange(n_frames, dtype=np.float64)
    return _schedule("scaling", centers, 0.0, scales, 0.0, target_side=target_side)


def deformation_script(
    n_frames, center, amplitude, time_period=25.0, shear_period=16.0, target_side=32
) -> MotionScript:
    centers = np.tile(np.asarray(center, dtype=np.float64), (n_frames, 1))
    amps = amplitude * np.sin(2.0 * math.pi * np.arange(n_frames) / time_period)
    return _schedule(
        "deformation",
        centers,
        0.0,
        1.0,
        amps,
        shear_period=shear_period,
        target_side=target_side,
    )


def _bandlimited(rng: np.random.Generator, shape, sigma, lo, hi) -> np.ndarray:
    # imported here: scipy.ndimage costs every command that imports
    # slowtrack about 0.4 s, and only synthesis uses it
    from scipy.ndimage import gaussian_filter

    noise = rng.random(shape)
    smooth = gaussian_filter(noise, sigma=sigma, mode="wrap")
    lo_v, hi_v = smooth.min(), smooth.max()
    if hi_v - lo_v < 1e-12:
        return np.full(shape, (lo + hi) / 2.0)
    return lo + (smooth - lo_v) / (hi_v - lo_v) * (hi - lo)


def _render_target(texture, cx, cy, c, s, scale, amp, period, width, height):
    """Nearest-neighbor inverse map of the transformed texture into the frame.

    `c` and `s` are the snapped cosine and sine of the rotation. Returns
    (ys, xs, values) of the covered frame pixels.
    """
    ts = texture.shape[0]
    radius = 0.5 * ts * scale * math.sqrt(2.0) + abs(amp) * scale + 2.0
    ix0 = max(int(math.floor(cx - radius)), 0)
    ix1 = min(int(math.ceil(cx + radius)) + 1, width)
    iy0 = max(int(math.floor(cy - radius)), 0)
    iy1 = min(int(math.ceil(cy + radius)) + 1, height)
    if ix0 >= ix1 or iy0 >= iy1:
        return np.empty(0, int), np.empty(0, int), np.empty(0)
    xs = np.arange(ix0, ix1, dtype=np.float64) + 0.5 - cx
    ys = np.arange(iy0, iy1, dtype=np.float64) + 0.5 - cy
    dx, dy = np.meshgrid(xs, ys)
    px = (dx * c + dy * s) / scale
    py = (-dx * s + dy * c) / scale
    v = py + ts / 2.0
    u = px + ts / 2.0
    if amp != 0.0:
        u = u - amp * np.sin(2.0 * math.pi * v / period)
    iu = np.floor(u).astype(np.int64)
    iv = np.floor(v).astype(np.int64)
    inside = (iu >= 0) & (iu < ts) & (iv >= 0) & (iv < ts)
    rows, cols = np.nonzero(inside)
    vals = texture[iv[inside], iu[inside]]
    return rows + iy0, cols + ix0, vals


def generate_sequence(
    script: MotionScript, frame_size=(320, 240), seed: int = 0
) -> tuple[list[Frame], BoxTrace]:
    """Render the script; returns frames and the exact ground-truth trace."""
    width, height = int(frame_size[0]), int(frame_size[1])
    rng = np.random.default_rng(seed)
    texture = _bandlimited(rng, (script.target_side, script.target_side), 1.2, 0.02, 0.98)
    background = _bandlimited(rng, (height, width), 3.0, 0.35, 0.65)
    cos, sin = snapped_cos_sin(script.rotations)
    frames = []
    boxes = []
    for t in range(script.n_frames):
        img = background.copy()
        ys, xs, vals = _render_target(
            texture,
            script.centers[t, 0],
            script.centers[t, 1],
            cos[t],
            sin[t],
            script.scales[t],
            script.shear_amps[t],
            script.shear_period,
            width,
            height,
        )
        if ys.size == 0:
            raise DataError(f"schedule drives the target off-frame at frame {t}")
        img[ys, xs] = vals
        x0, x1 = int(xs.min()), int(xs.max())
        y0, y1 = int(ys.min()), int(ys.max())
        if (
            x0 < BORDER_MARGIN
            or y0 < BORDER_MARGIN
            or x1 >= width - BORDER_MARGIN
            or y1 >= height - BORDER_MARGIN
        ):
            raise DataError(
                f"target closer than {BORDER_MARGIN} px to the frame border "
                f"at frame {t}"
            )
        img = np.rint(img * 255.0) / 255.0
        frames.append(Frame(width, height, img))
        boxes.append((float(x0), float(y0), float(x1 - x0 + 1), float(y1 - y0 + 1)))
    return frames, BoxTrace(np.asarray(boxes))


def write_sequence(frames, boxes: BoxTrace, directory) -> None:
    """Write numbered PGM frames plus gt.csv into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        save_frame(frame, directory / f"{i:06d}.pgm")
    write_boxes_csv(directory / "gt.csv", boxes.boxes)
