"""Small shared geometry helpers for rotated-box sampling."""

from __future__ import annotations

import math

import numpy as np


def wrap_angle(theta) -> np.ndarray:
    """Wrap each angle of an array (or a single angle) to (-pi, pi]."""
    w = np.remainder(np.add(theta, math.pi), 2.0 * math.pi) - math.pi
    return np.where(w <= -math.pi, math.pi, w)


def snapped_cos_sin(theta) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of each angle, with values within 1e-12 of {-1, 0, 1} snapped exactly.

    Keeps nearest-neighbor sampling stable at exact quarter-turn angles,
    where round-off in sin/cos would otherwise flip floor() results.
    """
    c, s = np.cos(theta), np.sin(theta)
    for target in (-1.0, 0.0, 1.0):
        c = np.where(np.abs(c - target) < 1e-12, target, c)
        s = np.where(np.abs(s - target) < 1e-12, target, s)
    return c, s
