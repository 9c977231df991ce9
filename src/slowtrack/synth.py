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
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError
from .geometry import snapped_cos_sin
from .metrics import BoxTrace
from .patches import LazyFrames, save_frame, write_boxes_csv

# required clearance between the target and the frame border, in pixels
BORDER_MARGIN = 8


@dataclass(frozen=True)
class MotionScript:
    """Per-frame target pose schedule; one entry per frame.

    A scalar rotation, scale or shear amplitude holds for every frame.
    """

    centers: np.ndarray  # (n, 2) target center per frame
    rotations: np.ndarray  # (n,) radians
    scales: np.ndarray  # (n,)
    shear_amps: np.ndarray  # (n,) horizontal shear amplitude in texture pixels
    shear_period: float = 16.0
    target_side: int = 32

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 2)
        n = centers.shape[0]
        if n == 0:
            raise ValueError("schedule must cover at least one frame")
        schedule = {"centers": centers}
        for name in ("rotations", "scales", "shear_amps"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            schedule[name] = np.full(n, arr) if arr.ndim == 0 else arr.ravel()
            if schedule[name].size != n:
                raise ValueError("schedule arrays must all have the frame count length")
        for name, arr in schedule.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"schedule {name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.scales <= 0):
            raise ValueError("scales must be positive")
        if not self.shear_period > 0 or self.target_side < 4:
            raise ValueError("invalid shear period or target side")

    @property
    def n_frames(self) -> int:
        return self.centers.shape[0]


def translation_script(n_frames, start, velocity, target_side=32) -> MotionScript:
    t = np.arange(n_frames)[:, None]
    centers = np.asarray(start, dtype=np.float64) + t * np.asarray(velocity, dtype=np.float64)
    return MotionScript(centers, 0.0, 1.0, 0.0, target_side=target_side)


def rotation_script(n_frames, center, rate, target_side=32) -> MotionScript:
    centers = np.tile(np.asarray(center, dtype=np.float64), (n_frames, 1))
    rotations = rate * np.arange(n_frames, dtype=np.float64)
    return MotionScript(centers, rotations, 1.0, 0.0, target_side=target_side)


def scaling_script(n_frames, center, rate, target_side=32) -> MotionScript:
    centers = np.tile(np.asarray(center, dtype=np.float64), (n_frames, 1))
    scales = float(rate) ** np.arange(n_frames, dtype=np.float64)
    return MotionScript(centers, 0.0, scales, 0.0, target_side=target_side)


def deformation_script(
    n_frames, center, amplitude, time_period=25.0, shear_period=16.0, target_side=32
) -> MotionScript:
    if not time_period > 0:
        raise ValueError(f"time period must be positive, got {time_period}")
    centers = np.tile(np.asarray(center, dtype=np.float64), (n_frames, 1))
    amps = amplitude * np.sin(2.0 * math.pi * np.arange(n_frames) / time_period)
    return MotionScript(
        centers, 0.0, 1.0, amps, shear_period=shear_period, target_side=target_side
    )


def _wrap_blur(a: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2-D array with wrap-around edges.

    Bit for bit scipy's `gaussian_filter(a, sigma, mode="wrap")`: the same
    normalized kernel and radius, axis 0 first, and each output summed
    from the centre tap, then the symmetric tap pairs from the outermost in.
    """
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    for _ in range(2):  # axis 1 is axis 0 of the transpose
        n = a.shape[0]
        p = np.pad(a, ((r, r), (0, 0)), mode="wrap")
        out = p[r : r + n] * w[r]
        for j in range(r, 0, -1):
            out += (p[r - j : r - j + n] + p[r + j : r + j + n]) * w[r + j]
        a = np.ascontiguousarray(out.T)
    return a


def _bandlimited(rng: np.random.Generator, shape, sigma, lo, hi) -> np.ndarray:
    noise = rng.random(shape)
    smooth = _wrap_blur(noise, sigma)
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
    # floor(u) is in [0, ts) exactly when u is; only those samples are cast,
    # so a huge or non-finite coordinate never reaches the integer cast
    inside = (u >= 0) & (u < ts) & (v >= 0) & (v < ts)
    rows, cols = np.nonzero(inside)
    vals = texture[v[inside].astype(np.int64), u[inside].astype(np.int64)]
    return rows + iy0, cols + ix0, vals


def _compose(background, footprint) -> np.ndarray:
    """The read-only frame of `background` with one target footprint scattered in."""
    ys, xs, vals = footprint
    img = background.copy()
    img[ys, xs] = vals
    img.setflags(write=False)
    return img


def generate_sequence(
    script: MotionScript, frame_size=(320, 240), seed: int = 0
) -> tuple[LazyFrames, BoxTrace]:
    """Render the script and check every box; returns lazy read-only frames and the exact trace."""
    width, height = int(frame_size[0]), int(frame_size[1])
    rng = np.random.default_rng(seed)
    texture = _bandlimited(rng, (script.target_side, script.target_side), 1.2, 0.02, 0.98)
    background = _bandlimited(rng, (height, width), 3.0, 0.35, 0.65)
    cos, sin = snapped_cos_sin(script.rotations)
    footprints = []
    boxes = []
    for t in range(script.n_frames):
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
        footprints.append((ys, xs, np.rint(vals * 255.0) / 255.0))
        boxes.append((float(x0), float(y0), float(x1 - x0 + 1), float(y1 - y0 + 1)))
    background = np.rint(background * 255.0) / 255.0
    return LazyFrames(partial(_compose, background), footprints), BoxTrace(np.asarray(boxes))


def frame_name(index: int) -> str:
    """The file name of frame `index` of a written sequence."""
    return f"{index:06d}.pgm"


def write_sequence(frames, boxes: BoxTrace, directory) -> None:
    """Write numbered PGM frames, one at a time, plus gt.csv into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        save_frame(frame, directory / frame_name(i))
    write_boxes_csv(directory / "gt.csv", boxes.boxes)
