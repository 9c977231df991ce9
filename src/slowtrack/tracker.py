"""Particle-filter tracking with hierarchical features.

A step is a short run of array stages over plain (N, 4) states, one
(cx, cy, scale, rotation) row per particle over a fixed base box, and
(N,) weights:

- `propose`: systematically resample the previous particles and add
  Gaussian motion noise;
- `candidate_patches`: sample every candidate's centred 16x16
  half-resolution ranking grid from the frame, a block at a time;
- `coarse_distances`: rank all candidates by raw-pixel distance to the
  previous prediction's 16x16 row, in correlation form, from each row's
  product with that row, sum and sum of squares;
- `fine_distances`: in a learned track, re-rank the top few by
  hierarchical features of their 32x32 patches, with one product
  against the exemplar library's rows;
- `weigh`: a Gaussian kernel over the distances; the maximum-weight
  candidate becomes the prediction.

Every step ranks on the 16x16 grid. A learned track samples only the
top-k at 32x32 (coarse-to-fine search, Lewis 1995); a raw-pixel track
weighs every valid candidate by its coarse distance and samples nothing
at 32x32.

The feature filters and the exemplar library are re-adapted on the
tracked object's own patches every M frames, warm-started from the
current filters.

The appearance model is a nearest-exemplar Gaussian kernel over
unit-normalized combined features, standing in for the structural sparse
model of the surrounding tracking system while preserving the same
features-in, weights-out contract.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, OptimizationError, TrackingLostError
from .geometry import snapped_cos_sin, wrap_angle
from .hierarchy import ADAPT_OPTIMIZER, HierarchicalModel, adapt, hier_features, subpatches
from .optimizer import LbfgsConfig
from .patches import _CONST_STD, normalize_rows

CANDIDATE_SIDE = 32
COARSE_SIDE = 16  # the ranking grid of every step

# a candidate needs at least this fraction of its samples inside the frame
_MIN_INSIDE_FRACTION = 0.5

# candidates sampled per block on the 32x32 grid: a (16, 32, 32) float64
# buffer is 128 KiB; a smaller grid scales the rows to the same bytes
_BLOCK = 16


@dataclass(frozen=True)
class MotionModel:
    """Independent Gaussian perturbation scales for each state field.

    `std_xy` is the scale of both centre coordinates.
    """

    std_xy: float = 4.0
    std_scale: float = 0.02
    std_rotation: float = 0.10

    def __post_init__(self):
        stds = (self.std_xy, self.std_scale, self.std_rotation)
        if not all(math.isfinite(v) and v >= 0 for v in stds):
            raise ValueError(f"motion stds must be finite and >= 0, got {stds}")


class ExemplarLibrary:
    """The newest `capacity` unit-normalized combined features, as the rows of one array."""

    capacity = 10

    def __init__(self):
        self._rows = np.empty((0, 0))

    def add(self, combined) -> None:
        """Append each row of a (K, D) or (D,) array, dropping the oldest past capacity."""
        self._rows = np.vstack([*self._rows, *_unit_rows(combined)])[-self.capacity :]

    def __len__(self) -> int:
        return len(self._rows)

    def min_distance(self, combined) -> np.ndarray:
        """(K,) distance of each (K, D) feature row, unit-normalized, to its nearest exemplar."""
        if not len(self):
            raise DataError("exemplar library is empty")
        f, e = _unit_rows(combined), self._rows
        # ‖f − e‖² = ‖f‖² + ‖e‖² − 2⟨f, e⟩, clipped at zero against round-off
        d2 = np.einsum("ij,ij->i", f, f)[:, None] + np.einsum("ij,ij->i", e, e) - 2.0 * (f @ e.T)
        return np.sqrt(np.maximum(d2.min(axis=1), 0.0))


@dataclass(frozen=True)
class TrackerConfig:
    n_candidates: int = 600
    top_k: int = 20
    update_period: int = 20  # M: adapt every M frames after initialization
    init_frames: int = 20  # the first adaptation's window, in frames
    motion: MotionModel = field(default_factory=MotionModel)
    lam: float = 5.0
    gamma: float = 100.0
    sigma: float = 0.2
    seed: int = 0
    adapt_optimizer: LbfgsConfig = ADAPT_OPTIMIZER

    def __post_init__(self):
        if min(self.top_k, self.update_period, self.init_frames, self.n_candidates) < 1:
            raise ValueError("counts must be >= 1")
        if self.top_k > self.n_candidates:
            raise ValueError(
                f"top_k ({self.top_k}) must not exceed n_candidates "
                f"({self.n_candidates})"
            )
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not all(math.isfinite(v) and v >= 0 for v in (self.lam, self.gamma)):
            raise ValueError(
                f"lambda ({self.lam}) and gamma ({self.gamma}) must be finite and >= 0"
            )


class AdaptEvent(NamedTuple):
    """One scheduled adaptation, as recorded in the diagnostics log."""

    frames_processed: int
    kind: str  # init | update | failed
    layers: tuple = ()  # LayerAdaptStats per layer when successful
    error: str = ""


class TrackResult(NamedTuple):
    boxes: np.ndarray  # (n_frames, 4)
    model: HierarchicalModel
    events: tuple[AdaptEvent, ...]


def _unit_rows(rows) -> np.ndarray:
    """Rows scaled to unit length; rows of norm up to 1e-12 are kept as they are."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.divide(rows, norms, out=rows.copy(), where=norms > 1e-12)


def boxes_of(states: np.ndarray, base_w: float, base_h: float) -> np.ndarray:
    """Axis-aligned bounding box (x, y, w, h) of each rotated (N, 4) state."""
    w = base_w * states[:, 2]
    h = base_h * states[:, 2]
    c, s = snapped_cos_sin(states[:, 3])
    ext_x = 0.5 * (np.abs(w * c) + np.abs(h * s))
    ext_y = 0.5 * (np.abs(w * s) + np.abs(h * c))
    return np.stack(
        [states[:, 0] - ext_x, states[:, 1] - ext_y, 2.0 * ext_x, 2.0 * ext_y], axis=1
    )


def _perturb(states: np.ndarray, motion: MotionModel, rng: np.random.Generator):
    """Independent Gaussian noise on every (cx, cy, scale, rotation) row.

    A huge finite std can take a row to inf or NaN, which
    `candidate_patches` rejects like a box outside the frame.
    """
    stds = np.array([motion.std_xy, motion.std_xy, motion.std_scale, motion.std_rotation])
    noise = rng.standard_normal(states.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        out = states + noise * stds
        np.maximum(out[:, 2], 1e-3, out=out[:, 2])
        out[:, 3] = wrap_angle(out[:, 3])
    return out


def _systematic_resample(weights: np.ndarray, n: int, rng: np.random.Generator):
    """Indices of n systematically resampled particles."""
    positions = (np.arange(n) + rng.random()) / n
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard against round-off
    return np.searchsorted(cum, positions, side="left")


def propose(states, weights, motion: MotionModel, n: int, rng: np.random.Generator):
    """n candidate states: resampled by weight, then perturbed."""
    return _perturb(states[_systematic_resample(weights, n, rng)], motion, rng)


# a state that is not finite, or a box too large for float64, has no
# finite sample coordinate inside the frame: the inside count rejects it,
# and the arithmetic's floating-point warnings on the way are noise
@np.errstate(over="ignore", invalid="ignore")
def candidate_patches(
    frame: np.ndarray, states: np.ndarray, base_w: float, base_h: float,
    grid: int = CANDIDATE_SIDE,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample every rotated, scaled box into a raw grid x grid patch.

    `states` holds one (cx, cy, scale, rotation) row per candidate; sample
    (i, j) is at the box offset ((j + 0.5)·w/grid − w/2, (i + 0.5)·h/grid −
    h/2), rotated. Returns `(raw, valid)`: (N, grid²) frame intensities,
    not normalized; and an (N,) mask, False where less than half of a
    candidate's samples lie inside the frame (samples outside are clamped
    to the border). Candidates run in blocks of 128 KiB of samples.
    """
    states = np.asarray(states, dtype=np.float64).reshape(-1, 4)
    height, width = frame.shape
    n = grid
    per_block = _BLOCK * CANDIDATE_SIDE**2 // (n * n)
    raw = np.empty((len(states), n * n))
    valid = np.empty(len(states), dtype=bool)
    shape = (min(per_block, len(states)), n, n)
    xs_buf, ys_buf = np.empty(shape), np.empty(shape)
    xi_buf, index_buf = np.empty(shape, dtype=np.intp), np.empty(shape, dtype=np.intp)
    # the grid sums as K=2 products, one rounding each as in a sum:
    # [1, -xb[i]] @ [xa[j], 1] for x and [1, yb[i]] @ [ya[j], 1] for y
    left, right = np.ones((shape[0], n, 2)), np.ones((shape[0], 2, n))
    cos, sin = snapped_cos_sin(states[:, 3:4])
    w, h = base_w * states[:, 2:3], base_h * states[:, 2:3]
    at = np.arange(n) + 0.5
    off_u = at * w / n - w / 2.0
    off_v = at * h / n - h / 2.0
    # sample (i, j) of a candidate is at (xa[j] - xb[i], ya[j] + yb[i])
    xa, xb = states[:, 0:1] + off_u * cos, off_v * sin
    ya, yb = states[:, 1:2] + off_u * sin, off_v * cos

    # every step of a term rounds a monotone function of the grid position,
    # and so does the sum of two terms, so a coordinate's extremes over the
    # grid are sums of the terms' values at the grid's ends: a candidate
    # whose extreme samples are inside has every sample inside
    e = np.s_[:, [0, -1]]  # the grid's two ends
    lo_x, hi_x = xa[e].min(axis=1) - xb[e].max(axis=1), xa[e].max(axis=1) - xb[e].min(axis=1)
    lo_y, hi_y = ya[e].min(axis=1) + yb[e].min(axis=1), ya[e].max(axis=1) + yb[e].max(axis=1)
    inside_all = (lo_x >= 0) & (hi_x < width) & (lo_y >= 0) & (hi_y < height)
    for lo in range(0, len(states), per_block):
        rows = slice(lo, lo + per_block)
        k = len(states[rows])
        xs, ys, xi, index = xs_buf[:k], ys_buf[:k], xi_buf[:k], index_buf[:k]
        np.negative(xb[rows], out=left[:k, :, 1])
        right[:k, 0] = xa[rows]
        np.matmul(left[:k], right[:k], out=xs)
        left[:k, :, 1] = yb[rows]
        right[:k, 0] = ya[rows]
        np.matmul(left[:k], right[:k], out=ys)
        if inside_all[rows].all():
            valid[rows] = True
        else:  # a box in this block crosses the border: count and clamp
            # a pixel coordinate is the sample's floor, which lies in
            # [0, width) exactly when the sample does
            inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
            valid[rows] = np.count_nonzero(inside, axis=(1, 2)) >= _MIN_INSIDE_FRACTION * n * n
            # fmax maps NaN to the border, so no NaN reaches the integer cast
            np.fmin(np.fmax(xs, 0, out=xs), width - 1, out=xs)
            np.fmin(np.fmax(ys, 0, out=ys), height - 1, out=ys)
        # the flat index of each sample's pixel: every coordinate is now
        # non-negative, so the cast truncates as a floor would
        np.copyto(xi, xs, casting="unsafe")
        np.copyto(index, ys, casting="unsafe")
        index *= width
        index += xi
        # "clip" mode writes straight into `raw`, where "raise" would buffer
        frame.take(index.reshape(k, n * n), out=raw[rows], mode="clip")
    return raw, valid


def coarse_distances(raw: np.ndarray, valid: np.ndarray, template) -> np.ndarray:
    """Distance between each candidate's and the template's unit patches.

    With â the centred row over its norm and t̂ the unit template,
    ‖â − t̂‖² = live + ‖t̂‖² − 2ρ where ρ = ⟨â, t̂⟩ (normalized cross
    correlation). `live` is 0 for a constant row (std below the constant
    threshold), whose normalized patch is all zeros, and ‖t̂‖² is 1, or 0
    for a constant template. Round-off can push the square below zero, so
    it is clipped there. Rejected rows are at inf.

    ρ comes from each row's moments (product p with the template, sum s1,
    sum of squares s2), each a row-wise sum, not a BLAS product, which
    rounds a row by the rows it groups it with; so a row's distance does
    not depend on the rows beside it. The centred row has squared norm
    v = s2 − s1²/n and product p − s1·Σt/n with t. Cancellation costs v
    digits (a constant row of 0.7 has v = 3.6e-12, not 0): the error in d²
    is up to 1e-14·s2/v, so rows with v < 1e-2·s2 are centred exactly.
    """
    t = np.asarray(template, dtype=np.float64).ravel()
    t_norm = np.linalg.norm(t)
    t_live = t_norm > 1e-12
    n = raw.shape[1]
    p, s1, s2 = np.einsum("ij,j->i", raw, t), raw.sum(axis=1), np.einsum("ij,ij->i", raw, raw)
    var = s2 - s1 * s1 / n
    product = p - s1 * (t.sum() / n)
    exact = var < 1e-2 * s2
    centred = raw[exact] - raw[exact].mean(axis=1, keepdims=True)
    var[exact] = np.einsum("ij,ij->i", centred, centred)
    product[exact] = np.einsum("ij,j->i", centred, t)
    norms = np.sqrt(var)
    live = norms >= _CONST_STD * np.sqrt(n)  # std >= _CONST_STD
    rho = np.divide(product, norms * t_norm, out=np.zeros(len(raw)), where=live & t_live)
    d2 = live + float(t_live) - 2.0 * rho
    dist = np.sqrt(np.maximum(d2, 0.0))
    dist[~valid] = np.inf
    return dist


def fine_distances(model: HierarchicalModel, lib: ExemplarLibrary, x32) -> np.ndarray:
    """Nearest-exemplar distance of each normalized patch's hierarchical feature."""
    return lib.min_distance(hier_features(model, x32))


def weigh(dist: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel exp(-d²/2σ²), rescaled so its largest value is 1.

    Subtracting the minimum before exponentiating is a positive rescaling
    of every kernel value, harmless for the argmax and immune to underflow.
    A σ so small that 2σ² underflows gives the σ→0 limit: weight 1 on the
    nearest candidates, 0 on the rest.
    """
    d2 = dist * dist
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = (d2 - d2.min()) / (2.0 * sigma * sigma)
    z[d2 == d2.min()] = 0.0
    return np.exp(-z)


def step(
    frame: np.ndarray,
    states: np.ndarray,
    weights: np.ndarray,
    base: tuple[float, float],
    template: np.ndarray,
    model: HierarchicalModel | None,
    lib: ExemplarLibrary,
    cfg: TrackerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray | None, np.ndarray]:
    """One tracking step; see the module docstring for the stages.

    `template` is the previous prediction's normalized 16x16 row, and the
    16x16 rows also give the valid mask. A library that holds exemplars
    (a learned track) re-ranks the top-k; an empty one (a raw-pixel track)
    weighs every valid candidate by its coarse distance. Returns
    `(states, weights, best, patch, template)`: the new (N, 4) particles,
    their (N,) weights, the index of the prediction, its normalized
    (1024,) patch (None in a raw-pixel track, which samples no 32x32
    patch), and its normalized 16x16 row for the next step.
    """
    states = propose(states, weights, cfg.motion, cfg.n_candidates, rng)
    raw, valid = candidate_patches(frame, states, *base, COARSE_SIDE)
    if not valid.any():
        raise TrackingLostError()
    dist = coarse_distances(raw, valid, template)

    weights = np.zeros(len(states))
    if len(lib):
        top = np.argsort(dist, kind="stable")[: cfg.top_k]
        top = top[np.isfinite(dist[top])]
        x32 = normalize_rows(candidate_patches(frame, states[top], *base)[0])
        weights[top] = weigh(fine_distances(model, lib, x32), cfg.sigma)
    else:
        weights[valid] = weigh(dist[valid], cfg.sigma)
    weights /= weights.sum()

    best = int(np.argmax(weights))  # ties resolve to the lowest index
    template = normalize_rows(raw[best : best + 1])[0]
    patch = x32[top == best][0] if len(lib) else None  # a copy, not a view of x32
    return states, weights, best, patch, template


def run_tracker(
    frames: Iterable[np.ndarray], init_box, model: HierarchicalModel | None, cfg: TrackerConfig
) -> TrackResult:
    """Track through an iterable of frames from a first-frame box.

    Frames are read once, in order, so a lazy iterable keeps one frame in
    memory at a time; a frame whose size is not frame 0's is a DataError,
    raised before it is sampled. A step's particles live until the next
    step ends. With no model, this is the raw-pixel tracker.

    A model's features of frame 0's patch are the exemplar library's
    first row. Adaptation runs on the first init_frames patches and
    re-runs every update_period frames on the patches tracked since,
    warm-started from the current filters; each success adds features to
    the library. A failed adaptation is logged and changes nothing.
    """
    frames = iter(frames)
    f0 = next(frames, None)
    if f0 is None:
        raise DataError("no frames to track")
    x, y, w, h = (float(v) for v in init_box)
    height, width = shape = f0.shape
    if (
        not np.all(np.isfinite([x, y, w, h]))
        or w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > width or y + h > height
    ):
        raise DataError(
            f"initial box {init_box} is empty, not finite or not inside frame 0 "
            f"({width}x{height})"
        )
    rng = np.random.default_rng(cfg.seed)
    states = np.array([[x + w / 2.0, y + h / 2.0, 1.0, 0.0]])
    weights = np.ones(1)
    chosen = [states[0]]  # the predicted state of each frame
    # a box inside the frame has every sample inside, so it is never rejected
    template = normalize_rows(candidate_patches(f0, states, w, h, grid=COARSE_SIDE)[0])[0]
    window = []  # (1024,) patches tracked since the last scheduled adaptation
    lib = ExemplarLibrary()
    events: list[AdaptEvent] = []
    current = model

    def maybe_adapt(frames_processed: int):
        nonlocal current
        if frames_processed < cfg.init_frames:
            return
        is_init = frames_processed == cfg.init_frames
        if not is_init and (frames_processed - cfg.init_frames) % cfg.update_period:
            return
        x32 = np.stack(window)
        window.clear()
        # one 16x16 sequence per sub-window cell, one 32x32 object sequence
        subs = subpatches(x32, current.sub_patch_stride)
        try:
            result = adapt(
                current,
                [subs[:, k] for k in range(subs.shape[1])],
                [x32],
                cfg.lam,
                cfg.gamma,
                cfg.adapt_optimizer,
            )
        except OptimizationError as err:
            events.append(
                AdaptEvent(frames_processed, "failed", error=str(err))
            )
            return
        current = result.model
        events.append(
            AdaptEvent(
                frames_processed,
                "init" if is_init else "update",
                layers=result.layers,
            )
        )
        lib.add(hier_features(current, x32 if is_init else x32[-1]))

    if model is not None:  # a raw-pixel track keeps no window and never adapts
        window.append(normalize_rows(candidate_patches(f0, states, w, h)[0])[0])
        lib.add(hier_features(model, window[0]))
        maybe_adapt(1)
    del f0
    for t, frame in enumerate(frames, start=1):
        if frame.shape != shape:
            raise DataError(
                f"frame {t} is {frame.shape[1]}x{frame.shape[0]}, frame 0 is {width}x{height}"
            )
        try:
            states, weights, best, patch, template = step(
                frame, states, weights, (w, h), template, current, lib, cfg, rng
            )
        except TrackingLostError:
            raise TrackingLostError(t, boxes_of(np.array(chosen), w, h), tuple(events)) from None
        chosen.append(states[best].copy())  # a view would keep every step's particles
        if model is not None:
            window.append(patch)
            maybe_adapt(t + 1)
    return TrackResult(boxes_of(np.array(chosen), w, h), current, tuple(events))


def format_event(event: AdaptEvent) -> str:
    """One diagnostics-log line per adaptation event."""
    if event.kind == "failed":
        return f"adapt kind=failed frames={event.frames_processed} error={event.error}"
    parts = [f"adapt kind={event.kind} frames={event.frames_processed}"]
    for st in event.layers:
        parts.append(
            f"{st.layer}_before={st.value_before:.6e} "
            f"{st.layer}_after={st.value_after:.6e} "
            f"{st.layer}_rel_change={st.relative_change:.6e} "
            f"{st.layer}_iters={st.iterations} "
            f"{st.layer}_status={st.status} "
            f"{st.layer}_evals={st.evals}"
        )
    return " ".join(parts)
