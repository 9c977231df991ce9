"""Temporal-slowness objectives with closed-form gradients.

Pre-training minimizes, over the filter matrix W,

    lam * sum_i sum_j s(z_i[j] - z_{i+1}[j]) + sum_i ||x_i - W^T W x_i||^2

where z = sqrt(H (W x)^2 + eps_sqrt) is the pooled encoder output,
s(u) = sqrt(u^2 + eps_abs) is the smoothed absolute value that replaces
the non-differentiable L1 slowness penalty, and the pair sum (i, i+1)
runs only within each sequence, never across sequence boundaries. The
second term is a tied-weight autoencoder reconstruction cost.

Adaptation adds gamma * sum_i ||W x_i - W_old x_i||^2, a quadratic pull
toward the frozen pre-learned filters, evaluated on the target object's
own patches.

Gradients are hand-derived closed forms (no autodiff), so a central
finite difference is a genuinely independent oracle.
The reconstruction term and the adaptation pull are evaluated from the
Gram matrix C = X^T X, computed once per objective, so an evaluation
touches the N data rows only in the slowness term. A rerun repeats every
bit; a different BLAS thread count can move the last digits, because the
matrix products split their work by thread count.

An objective owns the work arrays of its slowness term: they are
allocated on its first evaluation (again when the filter count changes)
and every later evaluation writes into them, so an objective is not
re-entrant. `evaluate(w)` returns the pair (value, gradient), the
gradient a fresh (F, D) array; either may be non-finite, and
`optimizer.minimize` checks every point it accepts.
"""

from __future__ import annotations

import math

import numpy as np

from .encoder import DEFAULT_EPS_SQRT, forward
from .errors import DataError

DEFAULT_EPS_ABS = 1e-6


def _check_weight(name: str, value: float) -> float:
    # `nan < 0` is False, so a plain sign test would let NaN through
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


def _as_sequences(sequences) -> list[np.ndarray]:
    seqs = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not seqs:
        raise DataError("objective undefined on empty training data")
    for s in seqs:
        if s.ndim != 2 or s.shape[0] == 0:
            raise DataError("each sequence must be a nonempty (L, D) array")
    dims = {s.shape[1] for s in seqs}
    if len(dims) != 1:
        raise DataError(f"sequences have mixed dims {sorted(dims)}")
    return seqs


class SlownessObjective:
    """Slowness plus reconstruction objective over vector sequences.

    `sequences` is a list of (L_i, D) arrays; rows are consecutive-frame
    patch vectors.
    """

    def __init__(
        self,
        sequences,
        lam: float,
        eps_sqrt: float = DEFAULT_EPS_SQRT,
        eps_abs: float = DEFAULT_EPS_ABS,
    ):
        self.lam = _check_weight("lambda", lam)
        if eps_sqrt < 0 or eps_abs < 0:
            raise ValueError("eps values must be >= 0")
        seqs = _as_sequences(sequences)
        self.eps_sqrt = float(eps_sqrt)
        self.eps_abs = float(eps_abs)
        self._all = np.vstack(seqs)
        # the data never changes during a minimization, so the
        # reconstruction term is evaluated from its Gram matrix
        self._gram = self._all.T @ self._all
        # 1 for each consecutive row pair inside a sequence, 0 across a break
        starts = np.cumsum([s.shape[0] for s in seqs])[:-1]
        self._pair_mask = np.ones(self.n - 1)
        self._pair_mask[starts - 1] = 0.0
        self._work = None

    @property
    def dim(self) -> int:
        return self._all.shape[1]

    @property
    def n(self) -> int:
        return self._all.shape[0]

    def _check_w(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != self.dim:
            raise ValueError(
                f"W has shape {w.shape}, data dim is {self.dim}"
            )
        if w.shape[0] % 2 != 0 or w.shape[0] < 2:
            raise ValueError(f"filter count must be even and >= 2, got {w.shape[0]}")
        return w

    def evaluate(self, w) -> tuple[float, np.ndarray]:
        return self._terms(self._check_w(w))

    def _buffers(self, f):
        """Work arrays a, z, scratch, s, c, u, u^T X for F filters, made per F."""
        if self._work is None or self._work[0].shape[1] != f:
            n, h, d = self.n, f // 2, self.dim
            shapes = [(n, f), (n, h), (n, h), (n - 1, h), (n + 1, h), (n, f), (f, d)]
            self._work = [np.empty(shape) for shape in shapes]
        return self._work

    def _terms(self, w):
        # reconstruction from C = X^T X, with G = W C, K = G W^T, M = W W^T:
        #   ||X - X W^T W||^2 = tr C - 2 tr K + <K, M>
        #   gradient          = -4 G + 2 K W + 2 M G
        g = w @ self._gram
        k = g @ w.T
        m = w @ w.T
        value = float(np.trace(self._gram) - 2.0 * np.trace(k) + (k * m).sum())
        grad = -4.0 * g + 2.0 * (k @ w) + 2.0 * (m @ g)

        if self.lam > 0:
            x = self._all
            a, z, t, s, c, u, ux = self._buffers(w.shape[0])
            forward(w, self.eps_sqrt, x, out=(a, z, t))  # (N, F) a, (N, F/2) z
            d = np.subtract(z[:-1], z[1:], out=t[:-1])
            np.multiply(d, d, out=s)
            s += self.eps_abs
            np.sqrt(s, out=s)
            value += self.lam * float((self._pair_mask @ s).sum())
            # derivative of s(u) is u / s(u); 0/0 only when eps_abs == 0.
            # c holds it per pair, zero-padded at both ends, so the
            # gradient with respect to z_i is c_i - c_{i-1}; the divide
            # skips pairs with s == 0, so c is zeroed first
            c.fill(0.0)
            np.divide(d, s, out=c[1:-1], where=s > 0)
            c[1:-1] *= self._pair_mask[:, None]
            # gradient with respect to z, divided by z; where z == 0
            # both responses are 0, so u is 0 regardless
            ratio = np.subtract(c[1:], c[:-1], out=t)
            np.divide(ratio, z, out=ratio, where=z > 0)
            np.multiply(a[:, ::2], ratio, out=u[:, ::2])
            np.multiply(a[:, 1::2], ratio, out=u[:, 1::2])
            np.matmul(u.T, x, out=ux)
            ux *= self.lam
            grad += ux
        return value, grad


class AdaptationObjective:
    """Slowness objective plus a quadratic pull toward frozen filters W_old."""

    def __init__(self, base: SlownessObjective, gamma: float, w_old):
        self.gamma = _check_weight("gamma", gamma)
        w_old = np.asarray(w_old, dtype=np.float64)
        if w_old.ndim != 2 or w_old.shape[1] != base.dim:
            raise ValueError(
                f"W_old has shape {w_old.shape}, data dim is {base.dim}"
            )
        self.base = base
        self.w_old = w_old

    def evaluate(self, w) -> tuple[float, np.ndarray]:
        w = self.base._check_w(w)
        if w.shape != self.w_old.shape:
            raise ValueError(
                f"W has shape {w.shape}, W_old has shape {self.w_old.shape}"
            )
        # the base's `_terms`, not its `evaluate`: a count of slowness
        # evaluations stays a count of pre-training work
        value, grad = self.base._terms(w)
        if self.gamma > 0:
            # ||X D^T||^2 = <D C, D> and its gradient is 2 D C, D = W - W_old
            delta = w - self.w_old
            dc = delta @ self.base._gram
            value += self.gamma * float((dc * delta).sum())
            grad = grad + 2.0 * self.gamma * dc
        return value, grad

