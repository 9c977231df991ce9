"""PCA whitening of concatenated layer-1 features.

The transform centers inputs and projects onto the leading principal
directions, each scaled by 1 / sqrt(eigenvalue + eps_reg), so the
training distribution becomes approximately zero mean with identity
covariance on the retained subspace. Covariances use the population
(1/N) convention. Eigenvector signs are fixed by forcing the
largest-magnitude entry positive, which makes the fit deterministic for
a fixed input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

DEFAULT_EPS_REG = 1e-5
DEFAULT_VARIANCE_FRACTION = 0.99
DEFAULT_MAX_DIM = 256

# eigenvalues below this fraction of the largest count as numerically zero
_RANK_RTOL = 1e-9


@dataclass(frozen=True)
class WhiteningTransform:
    mean: np.ndarray  # (D,)
    projection: np.ndarray  # (d, D); rows ordered by descending eigenvalue
    eps_reg: float = DEFAULT_EPS_REG
    # share of the fitted samples' variance on the retained directions;
    # model files do not store it, so a loaded transform has NaN
    variance_fraction: float = field(default=float("nan"), compare=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64, order="C").ravel()
        proj = np.array(self.projection, dtype=np.float64, order="C")
        if proj.ndim != 2 or proj.shape[1] != mean.size:
            raise ValueError(
                f"projection shape {proj.shape} does not match mean dim {mean.size}"
            )
        if proj.shape[0] > proj.shape[1]:
            raise ValueError("retained dim exceeds input dim")
        mean.setflags(write=False)
        proj.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "projection", proj)

    @property
    def input_dim(self) -> int:
        return self.mean.size

    @property
    def retained_dim(self) -> int:
        return self.projection.shape[0]


def fit_whitening(
    samples,
    d: int | None = None,
    variance_fraction: float = DEFAULT_VARIANCE_FRACTION,
    max_dim: int = DEFAULT_MAX_DIM,
    eps_reg: float = DEFAULT_EPS_REG,
) -> WhiteningTransform:
    """Fit the transform on (N, D) samples.

    With d=None the smallest dimension capturing `variance_fraction` of
    the variance is kept, capped at `max_dim` and the covariance rank.
    An explicit d larger than the rank is an error.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"samples must be a 2-D array, got shape {x.shape}")
    n, dim = x.shape
    if n < 2:
        raise DataError(f"need at least 2 samples to fit whitening, got {n}")
    if eps_reg < 0:
        raise ValueError(f"eps_reg must be >= 0, got {eps_reg}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / n
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    evals = np.maximum(evals, 0.0)
    rank = int(np.count_nonzero(evals > evals[0] * _RANK_RTOL)) if evals[0] > 0 else 0
    if rank == 0:
        raise DataError("covariance has rank 0; cannot whiten constant data")
    cum = np.cumsum(evals) / evals.sum()
    if d is None:
        d = int(np.searchsorted(cum, variance_fraction) + 1)
        d = min(d, rank, max_dim)
    else:
        d = int(d)
        if d < 1:
            raise ValueError(f"retained dim must be >= 1, got {d}")
        if d > rank:
            raise DataError(
                f"requested {d} components but the covariance rank is {rank}"
            )
    vectors = evecs[:, :d].copy()
    for j in range(d):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    scale = 1.0 / np.sqrt(evals[:d] + eps_reg)
    projection = vectors.T * scale[:, None]
    return WhiteningTransform(mean, projection, float(eps_reg), float(cum[d - 1]))


def apply_whitening(w: WhiteningTransform, x) -> np.ndarray:
    """projection @ (x - mean); accepts (D,) or (N, D)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != w.input_dim:
        raise ValueError(
            f"input has dim {x.shape[-1]}, whitening expects {w.input_dim}"
        )
    return (x - w.mean) @ w.projection.T
