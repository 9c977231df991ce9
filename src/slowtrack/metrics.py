"""Tracking evaluation: center location error and overlap rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .patches import read_boxes_csv


@dataclass(frozen=True)
class BoxTrace:
    """Per-frame axis-aligned boxes (x, y, w, h), one per frame."""

    boxes: np.ndarray  # (n, 4)

    def __post_init__(self):
        b = np.asarray(self.boxes, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] != 4 or b.shape[0] == 0:
            raise ValueError(f"boxes must be a nonempty (n, 4) array, got {b.shape}")
        if np.any(b[:, 2:] <= 0):
            raise ValueError("box widths and heights must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            right_bottom_area = np.column_stack([b[:, :2] + b[:, 2:], b[:, 2] * b[:, 3]])
        if not np.isfinite(right_bottom_area).all():
            raise ValueError("box right and bottom edges and areas must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "boxes", b)

    def __len__(self) -> int:
        return self.boxes.shape[0]

    def centers(self) -> np.ndarray:
        return self.boxes[:, :2] + self.boxes[:, 2:] / 2.0

    @classmethod
    def from_csv(cls, path) -> "BoxTrace":
        try:
            return cls(read_boxes_csv(path))
        except ValueError as err:
            raise DataError(f"{path}: {err}") from None


def _check_lengths(pred: BoxTrace, gt: BoxTrace) -> None:
    if len(pred) != len(gt):
        raise DataError(
            f"trace length mismatch: {len(pred)} predictions vs {len(gt)} ground truths"
        )


def center_error(pred: BoxTrace, gt: BoxTrace) -> tuple[np.ndarray, float]:
    """Per-frame Euclidean center distance in pixels, plus the mean.

    A distance beyond float64 reads inf; the mean is finite whenever it truly is.
    """
    _check_lengths(pred, gt)
    # a power-of-two scale, exact in binary, keeps the differences, their
    # norms and the sum of all n norms finite
    scale = 2.0 ** -(2 + len(pred).bit_length())
    diff = pred.centers() * scale - gt.centers() * scale
    scaled = np.hypot(diff[:, 0], diff[:, 1])
    with np.errstate(over="ignore"):
        return scaled / scale, float(scaled.mean() / scale)


def overlap_rate(pred: BoxTrace, gt: BoxTrace) -> tuple[np.ndarray, float]:
    """Per-frame intersection-over-union in [0, 1], plus the mean."""
    _check_lengths(pred, gt)
    a, b = pred.boxes, gt.boxes
    x1 = np.maximum(a[:, 0], b[:, 0])
    y1 = np.maximum(a[:, 1], b[:, 1])
    x2 = np.minimum(a[:, 0] + a[:, 2], b[:, 0] + b[:, 2])
    y2 = np.minimum(a[:, 1] + a[:, 3], b[:, 1] + b[:, 3])
    # an empty overlap reads 0 without forming x2 - x1, which can overflow;
    # halving every area, exact in binary, keeps two finite areas' union finite
    inter = (np.maximum(x2, x1) - x1) * (np.maximum(y2, y1) - y1) / 2
    union = a[:, 2] * a[:, 3] / 2 + b[:, 2] * b[:, 3] / 2 - inter
    # rounding can push the ratio a few ulps outside [0, 1]
    per_frame = np.clip(inter / union, 0.0, 1.0)
    return per_frame, float(per_frame.mean())
