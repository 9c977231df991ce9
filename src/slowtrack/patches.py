"""Grayscale frames, normalized patches, and training-set assembly.

A frame is a read-only (height, width) float64 array of intensities in
[0, 1], read from and written to binary 8-bit PGM (P5) files; the range
is checked where a frame is written. Patches are square windows
normalized to zero mean and unit variance so downstream objectives see
inputs on a common scale; constant windows normalize to the all-zero
patch. Training data is a list of (L, side**2) arrays, one per sequence,
so sequence boundaries stay explicit: consecutive-frame feature
differences are only meaningful within one video.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, PgmFormatError

PATCH_SIDES = (16, 32)

# below this standard deviation a window counts as constant
_CONST_STD = 1e-12


@dataclass(frozen=True)
class Patch:
    """A normalized square window: zero mean and unit variance, or all zeros."""

    side: int
    values: np.ndarray  # flat, length side**2

    def __post_init__(self):
        if self.side not in PATCH_SIDES:
            raise ValueError(
                f"unsupported patch side {self.side}; expected one of {PATCH_SIDES}"
            )
        v = np.array(self.values, dtype=np.float64).ravel()
        if v.size != self.side * self.side:
            raise ValueError(
                f"patch has {v.size} values, expected {self.side * self.side}"
            )
        if np.any(v):
            if abs(v.mean()) > 1e-9 or abs(v.var() - 1.0) > 1e-9:
                raise ValueError("patch values are not zero-mean unit-variance")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Rows scaled to zero mean and unit variance; constant rows map to zeros."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    std = centered.std(axis=1, keepdims=True)
    return np.divide(centered, std, out=np.zeros_like(centered), where=std >= _CONST_STD)


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int, int]:
    """Skip whitespace/comments; return (token, token_start, next_pos)."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmFormatError(f"unexpected end of header at byte offset {pos}")
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace() and buf[pos : pos + 1] != b"#":
        pos += 1
    return buf[start:pos], start, pos


def load_frame(path) -> np.ndarray:
    """Load a binary 8-bit PGM (P5) file; intensities are divided by 255."""
    buf = Path(path).read_bytes()
    if buf[:2] != b"P5":
        got = buf[:2].decode("latin-1") if buf else "<empty>"
        raise PgmFormatError(
            f"{path}: unsupported magic {got!r} at byte offset 0 (binary P5 required)"
        )
    pos = 2
    header = {}
    for name in ("width", "height", "maxval"):
        tok, start, pos = _next_token(buf, pos)
        try:
            header[name] = int(tok)
        except ValueError:
            raise PgmFormatError(
                f"{path}: bad {name} token {tok!r} at byte offset {start}"
            ) from None
        if header[name] <= 0:
            raise PgmFormatError(
                f"{path}: non-positive {name} at byte offset {start}"
            )
    if header["maxval"] != 255:
        raise PgmFormatError(
            f"{path}: unsupported maxval {header['maxval']} (8-bit, 255 required)"
        )
    if pos >= len(buf) or not buf[pos : pos + 1].isspace():
        raise PgmFormatError(
            f"{path}: expected single whitespace before payload at byte offset {pos}"
        )
    pos += 1
    width, height = header["width"], header["height"]
    need = width * height
    present = len(buf) - pos
    if present < need:
        raise PgmFormatError(
            f"{path}: payload truncated at byte offset {pos + present} "
            f"({need} bytes required, {present} present)"
        )
    raw = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
    pixels = raw.reshape(height, width).astype(np.float64)
    pixels /= 255.0  # in place: one float64 block per frame
    pixels.setflags(write=False)
    return pixels


def save_frame(frame: np.ndarray, path) -> None:
    """Write a 2-D frame as binary 8-bit PGM; intensities are scaled by 255.

    ValueError, and no file, unless every intensity lies in [0, 1] (NaN
    does not).
    """
    if not (frame.ndim == 2 and frame.min() >= 0.0 and frame.max() <= 1.0):
        raise ValueError(
            f"a frame must be a 2-D array of intensities in [0, 1], got shape {frame.shape}"
        )
    data = np.rint(frame * 255.0).astype(np.uint8)
    height, width = frame.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def stream_frame_dir(directory) -> Iterator[np.ndarray]:
    """Lazily load a directory's *.pgm files by filename; DataError if none."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.pgm"))
    if not paths:
        raise DataError(f"no .pgm frames found in {directory}")
    return map(load_frame, paths)


def sample_training_set(frames, boxes, side: int, stride: int) -> list[np.ndarray] | None:
    """Cut a fixed stride grid of patch sequences from one tracked video.

    The grid is anchored at the first box and kept at identical pixel
    coordinates across all frames, so grid cell k in frame t corresponds
    spatially to cell k in frame t+1. Returns one (L, side**2) array of
    normalized patches per grid cell, cells in row-major order, or None
    when the first box is smaller than `side`.
    """
    if side not in PATCH_SIDES:
        raise ValueError(f"unsupported patch side {side}; expected one of {PATCH_SIDES}")
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    frames = list(frames)
    if not frames:
        return []
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if len(boxes) != len(frames):
        raise DataError(f"{len(frames)} frames but {len(boxes)} boxes")
    bx, by, bw, bh = (int(round(v)) for v in boxes[0])
    if bw < side or bh < side:
        return None
    height, width = frames[0].shape
    for t, f in enumerate(frames):
        if f.shape != (height, width):
            raise DataError(
                f"frame {t} is {f.shape[1]}x{f.shape[0]}, frame 0 is {width}x{height}"
            )
    xs = [x for x in range(bx, bx + bw - side + 1, stride) if 0 <= x <= width - side]
    ys = [y for y in range(by, by + bh - side + 1, stride) if 0 <= y <= height - side]
    return [
        normalize_rows(np.stack([f[gy : gy + side, gx : gx + side].ravel() for f in frames]))
        for gy in ys
        for gx in xs
    ]


def read_boxes_csv(path) -> np.ndarray:
    """Read `frame_index,x,y,w,h` rows into an (n, 4) array.

    Frame indices must be 0-based and contiguous.
    """
    rows = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"box file not found: {path}") from None
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text (byte offset {err.start})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise DataError(f"{path}: malformed row at line {lineno}")
        try:
            idx = int(parts[0])
            vals = [float(p) for p in parts[1:]]
        except ValueError:
            raise DataError(f"{path}: malformed row at line {lineno}") from None
        if not np.all(np.isfinite(vals)):
            raise DataError(f"{path}: non-finite value at line {lineno}")
        if idx != len(rows):
            raise DataError(
                f"{path}: frame index {idx} out of order at line {lineno}"
            )
        rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no box rows")
    return np.asarray(rows, dtype=np.float64)


def write_boxes_csv(path, boxes) -> None:
    """Write (n, 4) boxes as `frame_index,x,y,w,h` lines (LF, no header)."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    lines = [
        ",".join([str(i)] + [repr(float(v)) for v in row])
        for i, row in enumerate(boxes)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
