"""Linear filters with pairwise square pooling.

A patch vector x is encoded as z = sqrt(H (W x)^2 + eps): each row of W
responds linearly, responses are squared element-wise, the fixed pooling
map H sums non-overlapping adjacent pairs, and the square root brings the
result back to the input scale. Each pooled output is therefore the
Euclidean norm of a filter-response pair, which makes it invariant to
filter sign and, for quadrature pairs, to local phase. The small eps
keeps the square root differentiable at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_EPS_SQRT = 1e-8


@dataclass(frozen=True)
class LayerEncoder:
    """One learning module: filters W (F, D), F even, pooled in pairs by `forward`."""

    weights: np.ndarray
    eps_sqrt: float = DEFAULT_EPS_SQRT

    def __post_init__(self):
        # owned contiguous copy so matmuls take one BLAS path: encodings
        # then match bit-exactly across construction and file round trips
        w = np.array(self.weights, dtype=np.float64, order="C")
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if w.shape[0] < 2 or w.shape[0] % 2 != 0:
            raise ValueError(f"filter count must be even and >= 2, got {w.shape[0]}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        # `nan < 0` is False, so the sign test alone would let NaN through
        if not math.isfinite(self.eps_sqrt):
            raise ValueError(f"eps_sqrt must be finite, got {self.eps_sqrt}")
        if self.eps_sqrt < 0:
            raise ValueError(f"eps_sqrt must be >= 0, got {self.eps_sqrt}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights.shape[0] // 2


def forward(
    w: np.ndarray, eps: float, x: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Responses a = x W^T and pooled z[j] = sqrt(a[2j]^2 + a[2j+1]^2 + eps).

    `x` is (..., D); stacked inputs get one matrix product per stack entry.
    `out` is None or arrays (a, z, scratch) shaped (..., F), (..., F/2),
    (..., F/2) to write into; the values are the same either way.
    """
    a, z, scratch = (None, None, None) if out is None else out
    a = np.matmul(x, w.T, out=a)
    q0, q1 = a[..., ::2], a[..., 1::2]
    z = np.multiply(q0, q0, out=z)
    z += np.multiply(q1, q1, out=scratch)
    z += eps
    return a, np.sqrt(z, out=z)


def encode(enc: LayerEncoder, x: np.ndarray) -> np.ndarray:
    """Pooled outputs of `enc` for input vectors `x` of shape (..., D)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != enc.input_dim:
        raise ValueError(
            f"input has dim {x.shape[-1]}, encoder expects {enc.input_dim}"
        )
    return forward(enc.weights, enc.eps_sqrt, x)[1]
