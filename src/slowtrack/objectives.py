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

Each objective picks the form of its reconstruction term once, from the
shape of its data X (N rows of D dims):

- N >= D, as in pre-training: from the Gram matrix C = X^T X, computed
  once, so an evaluation touches the N rows only in the slowness term.
- N < D, as in the tracker's adaptations: from the residual R = X - A W, where
  A = X W^T are the responses the slowness term needs anyway; no D x D
  product is formed.

The adaptation pull is gamma ||A - A_old||^2 in both forms, with the old
responses A_old = X W_old^T computed once per objective. A rerun repeats
every bit. Importing slowtrack holds BLAS to one thread (see the package
docstring), because a different thread count can move the last digits:
the matrix products split their work by thread count.

An objective owns the work arrays of its row terms: they are allocated
on its first evaluation (again when the filter count changes) and every
later evaluation writes into them, so an objective is not re-entrant.
Pre-training's evaluations write the (N, F) gradient coefficients over
the responses they come from, so they hold one (N, F) array, not two.
`evaluate(w)` returns the pair (value, gradient), the gradient a fresh
(F, D) array; either may be non-finite, and `optimizer.minimize` checks
every point it accepts.

Inside `helper_thread()`, a large Gram-form evaluation runs its row
terms as two row halves, one on the calling thread and one on the
helper, and U^T X as two filter halves. The bytes do not change: each
elementwise value is the same operation on the same operands as in one
pass, the two products are cut where their halves sum as the whole
products do (SPLIT_BLOCK), and the reductions run over whole arrays
after the join.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import queue
import threading
from collections.abc import Iterator

import numpy as np

from .encoder import DEFAULT_EPS_SQRT, forward
from .errors import DataError

DEFAULT_EPS_ABS = 1e-6

# Multiply-adds of X W^T (N F D) below which an evaluation runs in one
# pass even with a helper thread. Split, an evaluation at 480 x 111 x 128
# (6.8e6) took 1-14% less wall time and 21-34% more CPU time; at
# 1080 x 256 x 64 (1.8e7) 21-24% less and 17-19% more; at 2880 x 256 x 64
# (4.7e7) 42% less and no more.
SPLIT_MIN_WORK = 2**23

# Rows and filters split at a multiple of this many, so that each half
# product sums as the whole one does. OpenBLAS picks its kernels by
# shape, and a narrower kernel, which rounds differently, takes the
# columns that a cut leaves short of a block. With numpy 2.4's OpenBLAS
# 0.3.31 on an AVX-512 Xeon, halves cut at a multiple of 12 reproduced
# the whole product bit for bit in 150 of 150 random shapes above
# SPLIT_MIN_WORK; cut at a multiple of 8, the filter halves of U^T X
# differed in 48. Halves of 12 or more rows and filters above
# SPLIT_MIN_WORK also stay clear of OpenBLAS's small-matrix kernel
# (below about 1e6 multiply-adds) and of a one-row matrix-vector product.
SPLIT_BLOCK = 12

_HELPER: contextvars.ContextVar[_Helper | None] = contextvars.ContextVar("helper", default=None)


# Not `concurrent.futures.ThreadPoolExecutor(1)`: on a 2-CPU x86-64 Xeon its no-op round
# trip took 33-35 µs against this class's 17-18 µs, and its import loads `logging` (6 ms, 0.6 MB).
class _Helper:
    """A second thread that runs one task at a time for the thread that posts it."""

    def __init__(self):
        self._tasks = queue.SimpleQueue()
        self._done = queue.SimpleQueue()
        self._thread = threading.Thread(target=_serve, args=(self._tasks, self._done), daemon=True)
        self._thread.start()

    def run(self, fn, theirs, mine) -> None:
        """`fn(*theirs)` on the helper while `fn(*mine)` runs here; return when both end.

        The helper's call runs in a copy of this thread's context, so
        numpy's error state (`np.errstate`) holds there too; what it
        raised is re-raised here.
        """
        self._tasks.put((contextvars.copy_context(), fn, theirs))
        try:
            fn(*mine)
        finally:
            error = self._done.get()
            if error is not None:
                raise error

    def stop(self) -> None:
        self._tasks.put(None)
        self._thread.join()


def _serve(tasks, done):
    while (task := tasks.get()) is not None:
        ctx, fn, args = task
        # hold nothing of a finished task while waiting for the next one,
        # so its objective and data are freed with their owner
        del task
        try:
            ctx.run(fn, *args)
            done.put(None)
        except BaseException as error:
            done.put(error)
        del ctx, fn, args


@contextlib.contextmanager
def helper_thread():
    """Let the Gram-form objectives evaluated inside split their rows onto a second thread.

    The thread starts on entry and is joined on exit, however the block ends.
    """
    helper = _Helper()
    token = _HELPER.set(helper)
    try:
        yield
    finally:
        _HELPER.reset(token)
        helper.stop()


def _half(m: int) -> int:
    """The multiple of SPLIT_BLOCK nearest m / 2, where m rows or filters split."""
    return SPLIT_BLOCK * round(m / (2 * SPLIT_BLOCK))


def _check_nonnegative(name: str, value: float) -> float:
    # `nan < 0` is False, so a plain sign test would let NaN through
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


def checked_sequences(seqs, tag: str, side: int | None = None) -> Iterator[np.ndarray]:
    """Each training sequence as a nonempty (L, D) array, checked as it arrives.

    D is side² for flattened side x side patches, else the first sequence's.
    Every error is a DataError whose message starts with `tag`.
    """
    dim, empty = (None if side is None else side * side), True
    for s in seqs:
        s = np.asarray(s, dtype=np.float64)
        if side is not None and (s.ndim != 2 or s.shape[1] != dim):
            raise DataError(f"{tag}: expected {side}x{side} patches, got an array of shape "
                            f"{s.shape}")
        if s.ndim != 2:
            raise DataError(f"{tag}: expected (L, D) sequences, got an array of shape {s.shape}")
        if dim is not None and s.shape[1] != dim:
            raise DataError(f"{tag}: sequences have mixed dims {sorted({dim, s.shape[1]})}")
        if not len(s):
            raise DataError(f"{tag}: a training sequence is empty")
        dim, empty = s.shape[1], False
        yield s
    if empty:
        raise DataError(f"{tag}: training set is empty")


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
        self.lam = _check_nonnegative("lambda", lam)
        self.eps_sqrt = _check_nonnegative("eps_sqrt", eps_sqrt)
        self.eps_abs = _check_nonnegative("eps_abs", eps_abs)
        seqs = list(checked_sequences(sequences, "objective"))
        self._all = np.vstack(seqs)
        # the data never changes during a minimization; with at least as
        # many rows as dims, the reconstruction term is cheaper from its
        # Gram matrix, and with fewer, from the rows themselves
        self._gram = self._all.T @ self._all if self.n >= self.dim else None
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

    def _buffers(self, f, pull):
        """Work arrays a, z, scratch, s, c, u, (N, F)^T X for F filters, made per F.

        The row form adds the residual R and its (N, F) coefficients. The
        first and last rows of c stay zero. A Gram-form evaluation without
        a pull reads the responses a only to form u, so u is a itself and
        is written over it; the row form and the pull read a after u is
        formed, so they get u as an array of its own, made when first needed.
        """
        n, h, d = self.n, f // 2, self.dim
        if self._work is None or self._work[0].shape[1] != f:
            shapes = [(n, f), (n, h), (n, h), (n - 1, h), (n + 1, h), (f, d)]
            if self._gram is None:
                shapes += [(n, d), (n, f)]
            self._work = [np.zeros(shape) for shape in shapes]
            self._work.insert(5, self._work[0])
        if (self._gram is None or pull is not None) and self._work[5] is self._work[0]:
            self._work[5] = np.zeros((n, f))
        return self._work

    def _rows(self, w, lo, hi):
        """Responses, pair terms and u of rows lo..hi-1, as far as they need no other row.

        That leaves the pair (hi-1, hi) and the u of rows lo and hi-1,
        except at the ends of the data.
        """
        a, z, t = self._work[:3]
        forward(w, self.eps_sqrt, self._all[lo:hi], out=(a[lo:hi], z[lo:hi], t[lo:hi]))
        self._pairs(lo, hi - 1)
        self._grads(lo + (lo > 0), hi - (hi < self.n))

    def _pairs(self, p0, p1):
        """Smoothed differences s and their derivatives c of pairs p0..p1-1."""
        _, z, t, s, c = self._work[:5]
        d = np.subtract(z[p0:p1], z[p0 + 1 : p1 + 1], out=t[p0:p1])
        s = s[p0:p1]
        np.multiply(d, d, out=s)
        s += self.eps_abs
        np.sqrt(s, out=s)
        # derivative of s(u) is u / s(u); 0/0 only when eps_abs == 0.
        # c holds it per pair, zero-padded at both ends, so the gradient
        # with respect to z_i is c_i - c_{i-1}; the divide skips pairs
        # with s == 0, so c is zeroed first
        c = c[p0 + 1 : p1 + 1]
        c.fill(0.0)
        np.divide(d, s, out=c, where=s > 0)
        c *= self._pair_mask[p0:p1, None]

    def _grads(self, r0, r1):
        """u = dE/da of rows r0..r1-1, from c and the responses."""
        a, z, t, _, c, u = self._work[:6]
        # gradient with respect to z, divided by z; where z == 0 both
        # responses are 0, so u is 0 regardless
        ratio = np.subtract(c[r0 + 1 : r1 + 1], c[r0:r1], out=t[r0:r1])
        z = z[r0:r1]
        np.divide(ratio, z, out=ratio, where=z > 0)
        a, u = a[r0:r1], u[r0:r1]
        np.multiply(a[:, ::2], ratio, out=u[:, ::2])
        np.multiply(a[:, 1::2], ratio, out=u[:, 1::2])

    def _ux(self, f0, f1):
        """Rows f0..f1-1 of U^T X."""
        u, ux = self._work[5:7]
        np.matmul(u[:, f0:f1].T, self._all, out=ux[f0:f1])

    def _terms(self, w, pull=None):
        """Value and gradient at `w`; `pull` is None or (gamma, A_old)."""
        x, lam, gram = self._all, self.lam, self._gram
        if gram is not None:
            # reconstruction from C = X^T X, with G = W C, K = G W^T, M = W W^T:
            #   ||X - X W^T W||^2 = tr C - 2 tr K + <K, M>
            #   gradient          = -4 G + 2 K W + 2 M G
            g = w @ gram
            k = g @ w.T
            m = w @ w.T
            value = float(np.trace(gram) - 2.0 * np.trace(k) + (k * m).sum())
            grad = -4.0 * g + 2.0 * (k @ w) + 2.0 * (m @ g)
            if lam == 0 and pull is None:
                return value, grad
        else:
            value = 0.0
        f = w.shape[0]
        a, _, _, s, _, u, ux, *rows = self._buffers(f, pull)

        if lam > 0:
            split = (gram is not None and min(self.n, f) >= 2 * SPLIT_BLOCK
                     and self.n * f * self.dim >= SPLIT_MIN_WORK)
            helper = _HELPER.get() if split else None
            if helper is None:
                self._rows(w, 0, self.n)
            else:
                # both halves, then the pair across the cut and its two rows
                cut = _half(self.n)
                helper.run(self._rows, (w, cut, self.n), (w, 0, cut))
                self._pairs(cut - 1, cut)
                self._grads(cut - 1, cut + 1)
            value += lam * float((self._pair_mask @ s).sum())
            if gram is not None:  # pre-training's order, which model bytes pin
                if helper is None:
                    self._ux(0, f)
                else:
                    cut = _half(f)
                    helper.run(self._ux, (cut, f), (0, cut))
                ux *= lam
                grad += ux
        else:
            np.matmul(x, w.T, out=a)

        # every remaining gradient term is coef^T X for an (N, F) coef,
        # and the row form sums them into one product
        coef = None
        if gram is None:
            # from the residual R = X - A W: the value is ||R||^2 and the
            # gradient -2 A^T R - 2 (R W^T)^T X
            r, coef = rows
            np.subtract(x, np.matmul(a, w, out=r), out=r)
            value += float(np.vdot(r, r))
            grad = a.T @ r
            grad *= -2.0
            np.matmul(r, w.T, out=coef)
            coef *= -2.0
            if lam > 0:
                u *= lam
                coef += u
        if pull is not None:
            gamma, a_old = pull
            diff = np.subtract(a, a_old, out=u)
            value += gamma * float(np.vdot(diff, diff))
            diff *= 2.0 * gamma
            if coef is None:
                coef = diff
            else:
                coef += diff
        if coef is not None:
            np.matmul(coef.T, x, out=ux)
            grad += ux
        return value, grad


class AdaptationObjective:
    """Slowness objective plus a quadratic pull toward frozen filters W_old."""

    def __init__(self, base: SlownessObjective, gamma: float, w_old):
        self.gamma = _check_nonnegative("gamma", gamma)
        w_old = np.asarray(w_old, dtype=np.float64)
        if w_old.ndim != 2 or w_old.shape[1] != base.dim:
            raise ValueError(
                f"W_old has shape {w_old.shape}, data dim is {base.dim}"
            )
        self.base = base
        self.w_old = w_old
        # gamma ||X W^T - X W_old^T||^2 needs the old responses only once
        self._pull = (self.gamma, base._all @ w_old.T) if self.gamma > 0 else None

    def evaluate(self, w) -> tuple[float, np.ndarray]:
        w = self.base._check_w(w)
        if w.shape != self.w_old.shape:
            raise ValueError(
                f"W has shape {w.shape}, W_old has shape {self.w_old.shape}"
            )
        # the base's `_terms`, not its `evaluate`: a count of slowness
        # evaluations stays a count of pre-training work
        return self.base._terms(w, self._pull)
