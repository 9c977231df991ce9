"""Limited-memory BFGS with a strong Wolfe line search.

The search direction comes from the standard two-loop recursion over the
m most recent curvature pairs (s_i, y_i), each stored with its
rho_i = 1 / (s_i' y_i); the implicit initial inverse Hessian is
b0_scale * I, where b0_scale is the usual s'y / y'y heuristic from the
latest stored pair. Pairs failing the curvature condition s'y > 0 are
never stored, which keeps the implicit matrix positive definite and every
direction a descent direction.

Objective closures take a flat float vector and return (value, gradient).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import LineSearchError, OptimizationError

# relative threshold for accepting a curvature pair
_CURVATURE_RTOL = 1e-12

# textbook quasi-Newton defaults (Nocedal & Wright 2006, sections 3.1 and
# 7.2): history size m, the strong Wolfe constants c1 < c2, and the
# objective evaluations one line search may spend
MEMORY = 5
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_LINE_SEARCH_STEPS = 20


class LbfgsHistory:
    """Ring buffer of at most m entries (s, y, 1 / s'y), oldest first.

    s = theta_{k+1} - theta_k and y = grad_{k+1} - grad_k, flat float
    vectors of one length.
    """

    def __init__(self, m: int = MEMORY):
        if m < 1:
            raise ValueError(f"memory size must be >= 1, got {m}")
        self._pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=m)

    def push(self, s, y) -> bool:
        """Store (s, y) if it passes the curvature condition; report whether stored."""
        s = np.asarray(s, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        sy = float(s @ y)
        bound = _CURVATURE_RTOL * float(np.linalg.norm(s) * np.linalg.norm(y))
        if sy <= bound:
            return False
        self._pairs.append((s, y, 1.0 / sy))
        return True

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs)


@dataclass(frozen=True)
class LbfgsConfig:
    max_iters: int = 100
    grad_tol: float = 1e-5  # threshold on the max-norm of the gradient

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not math.isfinite(self.grad_tol):
            raise ValueError(f"grad_tol must be finite, got {self.grad_tol}")


@dataclass
class OptimizeResult:
    w_final: np.ndarray
    value: float
    grad_norm: float  # max-norm at w_final
    iterations: int
    evals: int  # objective evaluations, the start and every line-search probe
    converged: bool
    status: str  # converged | max_iters | line_search_failed
    trace: list  # (value, grad max-norm) per iterate, including the start


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    x: np.ndarray
    value: float
    gradient: np.ndarray
    evals: int


def two_loop_direction(grad, hist: LbfgsHistory, b0_scale: float = 1.0) -> np.ndarray:
    """Search direction p = -H_k grad via the two-loop recursion.

    H_k is the inverse-BFGS matrix implicitly built from the stored pairs
    on top of B0^{-1} = b0_scale * I. `grad` has the length of the pairs.
    """
    if b0_scale <= 0:
        raise ValueError(f"b0_scale must be positive, got {b0_scale}")
    q = np.array(grad, dtype=np.float64).ravel()
    pairs = list(hist)  # oldest first
    alphas = [0.0] * len(pairs)
    for i in range(len(pairs) - 1, -1, -1):  # newest to oldest
        s, y, rho = pairs[i]
        alphas[i] = rho * float(s @ q)
        q -= alphas[i] * y
    r = b0_scale * q
    for (s, y, rho), alpha in zip(pairs, alphas):  # oldest to newest
        beta = rho * float(y @ r)
        r += s * (alpha - beta)
    return -r


def _interpolate(lo, f_lo, d_lo, hi, f_hi):
    # minimizer of the quadratic through (lo, f_lo) with slope d_lo and
    # (hi, f_hi), clamped a safeguard margin inside the bracket so the
    # interval shrinks geometrically even for very stiff objectives
    span = hi - lo
    denom = 2.0 * (f_hi - f_lo - d_lo * span)
    if denom != 0.0:
        t = lo - d_lo * span * span / denom
    else:
        t = lo + 0.5 * span
    if not np.isfinite(t):
        t = lo + 0.5 * span
    lo_, hi_ = (lo, hi) if lo < hi else (hi, lo)
    margin = 0.1 * (hi_ - lo_)
    return min(max(t, lo_ + margin), hi_ - margin)


def wolfe_line_search(f, x, p, f0: float, g0) -> LineSearchResult:
    """Find alpha satisfying the strong Wolfe conditions along x + alpha p.

    Bracketing starts at alpha = 1 and doubles; zoom interpolates inside
    the bracket. Raises LineSearchError (carrying the best point found)
    when no acceptable step exists within MAX_LINE_SEARCH_STEPS
    evaluations.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    g0 = np.asarray(g0, dtype=np.float64)
    d0 = float(g0 @ p)
    if d0 >= 0:
        raise ValueError(f"p is not a descent direction (p'g = {d0})")
    c1, c2, budget = WOLFE_C1, WOLFE_C2, MAX_LINE_SEARCH_STEPS

    best = LineSearchResult(0.0, x, f0, g0, 0)
    evals = 0

    def probe(alpha):
        nonlocal evals, best
        xa = x + alpha * p
        fa, ga = f(xa)
        evals += 1
        if fa < best.value:
            best = LineSearchResult(alpha, xa, fa, ga, evals)
        return fa, ga

    # bracketing phase
    alpha_prev, f_prev, d_prev = 0.0, f0, d0
    alpha = 1.0
    bracket = None
    while evals < budget:
        fa, ga = probe(alpha)
        da = float(ga @ p)
        if fa > f0 + c1 * alpha * d0 or (evals > 1 and fa >= f_prev):
            bracket = (alpha_prev, f_prev, d_prev, alpha, fa)
            break
        if abs(da) <= -c2 * d0:
            return LineSearchResult(alpha, x + alpha * p, fa, ga, evals)
        if da >= 0:
            bracket = (alpha, fa, da, alpha_prev, f_prev)
            break
        alpha_prev, f_prev, d_prev = alpha, fa, da
        alpha *= 2.0

    if bracket is None:
        raise LineSearchError(
            f"no Wolfe step within {budget} evaluations (bracketing)",
            best.alpha,
            best.x,
            best.value,
            best.gradient,
        )

    # zoom phase: invariant is that lo satisfies sufficient decrease and the
    # minimizer lies between lo and hi
    lo, f_lo, d_lo, hi, f_hi = bracket
    while evals < budget:
        alpha = _interpolate(lo, f_lo, d_lo, hi, f_hi)
        fa, ga = probe(alpha)
        if fa > f0 + c1 * alpha * d0 or fa >= f_lo:
            hi, f_hi = alpha, fa
        else:
            da = float(ga @ p)
            if abs(da) <= -c2 * d0:
                return LineSearchResult(alpha, x + alpha * p, fa, ga, evals)
            if da * (hi - lo) >= 0:
                hi, f_hi = lo, f_lo
            lo, f_lo, d_lo = alpha, fa, da
    raise LineSearchError(
        f"no Wolfe step within {budget} evaluations (zoom)",
        best.alpha,
        best.x,
        best.value,
        best.gradient,
    )


def _check_finite(value, grad, where):
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise OptimizationError(f"non-finite objective at {where}")


# every point minimize accepts is checked above, so the floating-point
# warnings of an overflowing probe are noise; the probe fails the line
# search or the check instead
@np.errstate(over="ignore", invalid="ignore")
def minimize(f, x0, cfg: LbfgsConfig | None = None) -> OptimizeResult:
    """Run L-BFGS from x0 until the gradient max-norm drops below grad_tol.

    Stops on convergence, the iteration cap, or a line-search failure; the
    converged flag is set only in the first case. On line-search failure
    the best point the search saw is kept if it improves on the current
    iterate.
    """
    cfg = cfg or LbfgsConfig()
    evals = 0

    def counted(x):
        nonlocal evals
        evals += 1
        return f(x)

    x = np.array(x0, dtype=np.float64).ravel()
    value, grad = counted(x)
    grad = np.asarray(grad, dtype=np.float64).ravel()
    _check_finite(value, grad, "the starting point")
    ginf = float(np.max(np.abs(grad))) if grad.size else 0.0
    trace = [(value, ginf)]
    hist = LbfgsHistory()
    b0 = 1.0
    iterations = 0
    status = "max_iters"
    if ginf <= cfg.grad_tol:
        status = "converged"
    else:
        for _ in range(cfg.max_iters):
            p = two_loop_direction(grad, hist, b0)
            try:
                ls = wolfe_line_search(counted, x, p, value, grad)
            except LineSearchError as err:
                status = "line_search_failed"
                if err.value < value:
                    x, value, grad = err.x, err.value, np.asarray(err.gradient)
                    ginf = float(np.max(np.abs(grad)))
                    trace.append((value, ginf))
                break
            s = ls.x - x
            y = ls.gradient - grad
            x, value = ls.x, ls.value
            grad = np.asarray(ls.gradient, dtype=np.float64).ravel()
            _check_finite(value, grad, f"iteration {iterations + 1}")
            if hist.push(s, y):
                b0 = float(s @ y) / float(y @ y)
            ginf = float(np.max(np.abs(grad)))
            trace.append((value, ginf))
            iterations += 1
            if ginf <= cfg.grad_tol:
                status = "converged"
                break
    return OptimizeResult(
        w_final=x,
        value=value,
        grad_norm=ginf,
        iterations=iterations,
        evals=evals,
        converged=status == "converged",
        status=status,
        trace=trace,
    )
