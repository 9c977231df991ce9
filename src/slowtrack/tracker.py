"""Particle-filter tracking with hierarchical features.

Each frame: candidate states are Gaussian perturbations of
systematically-resampled previous particles; all candidates are ranked
cheaply by raw-pixel distance to the previous predicted patch, the top
few are re-ranked with hierarchical features against an exemplar
library, and the maximum-weight candidate becomes the prediction. The
feature filters and the exemplar library are re-adapted on the tracked
object's own patches every M frames, warm-started from the current
filters.

The appearance model is a nearest-exemplar Gaussian kernel over
unit-normalized combined features, standing in for the structural sparse
model of the surrounding tracking system while preserving the same
features-in, weights-out contract.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, OptimizationError, TrackingLostError
from .geometry import snapped_cos_sin, wrap_angle
from .hierarchy import HierarchicalModel, adapt, hier_features, subpatches
from .optimizer import LbfgsConfig
from .patches import Frame, normalize_rows

CANDIDATE_SIDE = 32

# a candidate needs at least this fraction of its samples inside the frame
_MIN_INSIDE_FRACTION = 0.5


@dataclass(frozen=True)
class TrackState:
    """Target pose: center, scale and in-plane rotation over a fixed base box."""

    cx: float
    cy: float
    scale: float
    rotation: float  # radians, in (-pi, pi]
    base_w: float
    base_h: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not (-math.pi < self.rotation <= math.pi):
            raise ValueError(f"rotation {self.rotation} outside (-pi, pi]")
        if self.base_w <= 0 or self.base_h <= 0:
            raise ValueError("base box dims must be positive")

    @classmethod
    def from_box(cls, box) -> "TrackState":
        x, y, w, h = (float(v) for v in box)
        return cls(x + w / 2.0, y + h / 2.0, 1.0, 0.0, w, h)

    def box(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box (x, y, w, h) of the rotated box."""
        w = self.base_w * self.scale
        h = self.base_h * self.scale
        c, s = snapped_cos_sin(self.rotation)
        ext_x = 0.5 * (abs(w * c) + abs(h * s))
        ext_y = 0.5 * (abs(w * s) + abs(h * c))
        return (self.cx - ext_x, self.cy - ext_y, 2.0 * ext_x, 2.0 * ext_y)


@dataclass(frozen=True)
class MotionModel:
    """Independent Gaussian perturbation scales for each state field."""

    std_cx: float = 4.0
    std_cy: float = 4.0
    std_scale: float = 0.02
    std_rotation: float = 0.10

    def __post_init__(self):
        if min(self.std_cx, self.std_cy, self.std_scale, self.std_rotation) < 0:
            raise ValueError("motion stds must be >= 0")


@dataclass(frozen=True)
class ParticleSet:
    """Weighted poses over one base box.

    `states` holds one (cx, cy, scale, rotation) row per particle; weights
    are nonnegative and sum to 1.
    """

    states: np.ndarray  # (N, 4)
    weights: np.ndarray  # (N,)
    base_w: float
    base_h: float

    def __post_init__(self):
        # own copy: the set must stay immutable without freezing the caller's array
        states = np.array(self.states, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if len(states) != w.size or not w.size:
            raise ValueError(
                f"{len(states)} states but {w.size} weights (both nonempty required)"
            )
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        states.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", w)

    @classmethod
    def single(cls, state: TrackState) -> "ParticleSet":
        row = [[state.cx, state.cy, state.scale, state.rotation]]
        return cls(np.array(row), np.array([1.0]), state.base_w, state.base_h)

    def state(self, i: int) -> TrackState:
        cx, cy, scale, rotation = (float(v) for v in self.states[i])
        return TrackState(cx, cy, scale, rotation, self.base_w, self.base_h)


class ExemplarLibrary:
    """Bounded recency buffer of unit-normalized combined feature vectors."""

    def __init__(self, capacity: int = 10, sigma: float = 0.2):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.capacity = capacity
        self.sigma = float(sigma)
        self._exemplars: deque[np.ndarray] = deque(maxlen=capacity)

    def add(self, combined) -> None:
        self._exemplars.append(_unit(np.asarray(combined, dtype=np.float64).ravel()))

    def __len__(self) -> int:
        return len(self._exemplars)

    def min_distance(self, combined) -> float:
        if not self._exemplars:
            raise DataError("exemplar library is empty")
        f = _unit(np.asarray(combined, dtype=np.float64).ravel())
        return min(float(np.linalg.norm(f - e)) for e in self._exemplars)


@dataclass(frozen=True)
class TrackerConfig:
    n_candidates: int = 600
    top_k: int = 20
    update_period: int = 20  # M: adapt every M frames after initialization
    init_frames: int = 20  # bootstrap frames tracked by raw pixels only
    motion: MotionModel = field(default_factory=MotionModel)
    lam: float = 5.0
    gamma: float = 100.0
    sigma: float = 0.2
    library_capacity: int = 10
    seed: int = 0
    raw_only: bool = False
    adapt_optimizer: LbfgsConfig = field(
        default_factory=lambda: LbfgsConfig(max_iters=50, grad_tol=1e-5)
    )
    eps_sqrt: float = 1e-8
    eps_abs: float = 1e-6

    def __post_init__(self):
        if self.top_k > self.n_candidates:
            raise ValueError(
                f"top_k ({self.top_k}) must not exceed n_candidates "
                f"({self.n_candidates})"
            )
        if self.update_period < 1 or self.init_frames < 1 or self.n_candidates < 1:
            raise ValueError("counts must be >= 1")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class AdaptEvent:
    """One scheduled adaptation, as recorded in the diagnostics log."""

    frames_processed: int
    kind: str  # init | update | failed
    layers: tuple = ()  # LayerAdaptStats per layer when successful
    error: str = ""


@dataclass(frozen=True)
class StepResult:
    state: TrackState
    particles: ParticleSet
    patch: np.ndarray  # (1024,) normalized values of the chosen candidate
    coarse_rank: int  # rank of the prediction among coarse candidates


@dataclass(frozen=True)
class TrackResult:
    boxes: np.ndarray  # (n_frames, 4)
    model: HierarchicalModel
    events: tuple[AdaptEvent, ...]


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 1e-12 else v.copy()


def _perturb(states: np.ndarray, motion: MotionModel, rng: np.random.Generator):
    """Independent Gaussian noise on every (cx, cy, scale, rotation) row."""
    stds = np.array([motion.std_cx, motion.std_cy, motion.std_scale, motion.std_rotation])
    out = states + rng.standard_normal(states.shape) * stds
    np.maximum(out[:, 2], 1e-3, out=out[:, 2])
    out[:, 3] = wrap_angle(out[:, 3])
    return out


def _systematic_resample(weights: np.ndarray, n: int, rng: np.random.Generator):
    """Indices of n systematically resampled particles."""
    positions = (np.arange(n) + rng.random()) / n
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard against round-off
    return np.searchsorted(cum, positions, side="left")


def _sample_indices(frame: Frame, states: np.ndarray, base_w: float, base_h: float):
    """Flat frame index of each candidate's grid samples, and the valid mask."""
    n = CANDIDATE_SIDE
    grid = np.arange(n) + 0.5
    w = base_w * states[:, 2:3]
    h = base_h * states[:, 2:3]
    off_u = (grid * w / n - w / 2.0)[:, None, :]
    off_v = (grid * h / n - h / 2.0)[:, :, None]
    # per row, not np.cos: the snapped values keep quarter turns exact
    cos_sin = np.array([snapped_cos_sin(r) for r in states[:, 3]]).reshape(-1, 2)
    c = cos_sin[:, 0, None, None]
    s = cos_sin[:, 1, None, None]
    # u varies along the last axis and v along the middle one, so only the
    # last operation on each line allocates a full (N, 32, 32) array
    xs = states[:, 0, None, None] + off_u * c - off_v * s
    ys = states[:, 1, None, None] + off_u * s + off_v * c
    inside = (xs >= 0) & (xs < frame.width) & (ys >= 0) & (ys < frame.height)
    valid = np.count_nonzero(inside, axis=(1, 2)) >= _MIN_INSIDE_FRACTION * n * n
    # clamp in float and build the flat index in place
    np.clip(np.floor(xs, out=xs), 0, frame.width - 1, out=xs)
    np.clip(np.floor(ys, out=ys), 0, frame.height - 1, out=ys)
    ys *= frame.width
    ys += xs
    return ys.astype(np.intp).reshape(len(states), n * n), valid


def candidate_patches(
    frame: Frame, states: np.ndarray, base_w: float, base_h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sample every rotated, scaled box into a normalized 32x32 patch.

    `states` holds one (cx, cy, scale, rotation) row per candidate. Returns
    `(values, valid)`: (N, 1024) patch values and an (N,) mask that is
    False where less than half of a candidate's sample grid lies inside
    the frame. Samples outside are clamped to the border; rejected rows
    are zero. All candidates are read from the frame in one gather.
    """
    states = np.asarray(states, dtype=np.float64).reshape(-1, 4)
    index, valid = _sample_indices(frame, states, base_w, base_h)
    values = normalize_rows(frame.pixels.take(index))
    values[~valid] = 0.0
    return values, valid


def step(
    frame: Frame,
    prev: ParticleSet,
    template: np.ndarray,
    model: HierarchicalModel | None,
    lib: ExemplarLibrary,
    cfg: TrackerConfig,
    frame_index: int,
    rng: np.random.Generator,
) -> StepResult:
    """One tracking step; see the module docstring for the ranking scheme.

    Learned re-ranking is active once the library is seeded (after the
    bootstrap frames) unless the config is raw-only.
    """
    parents = _systematic_resample(prev.weights, cfg.n_candidates, rng)
    states = _perturb(prev.states[parents], cfg.motion, rng)
    values, accepted = candidate_patches(frame, states, prev.base_w, prev.base_h)
    valid = np.flatnonzero(accepted)
    if not valid.size:
        raise TrackingLostError(frame_index, prev.state(int(np.argmax(prev.weights))))

    # one norm per row: a batched norm sums in another order and moves ulps
    t_unit = _unit(np.asarray(template, dtype=np.float64).ravel())
    dist = np.full(cfg.n_candidates, np.inf)
    for i in valid:
        dist[i] = np.linalg.norm(_unit(values[i]) - t_unit)

    use_features = (
        not cfg.raw_only
        and model is not None
        and len(lib) > 0
        and frame_index >= cfg.init_frames
    )
    weights = np.zeros(cfg.n_candidates)
    if use_features:
        order = np.argsort(dist, kind="stable")
        top = [int(i) for i in order[: cfg.top_k] if np.isfinite(dist[i])]
        fdist = np.array([lib.min_distance(f) for f in hier_features(model, values[top])])
        # subtract the minimum before exponentiating: a positive rescaling of
        # every kernel value, harmless for the argmax and immune to underflow
        d2 = fdist * fdist
        weights[top] = np.exp(-(d2 - d2.min()) / (2.0 * cfg.sigma * cfg.sigma))
    else:
        d = dist[valid]
        d2 = d * d
        weights[valid] = np.exp(-(d2 - d2.min()) / (2.0 * cfg.sigma * cfg.sigma))
    weights = weights / weights.sum()

    best = int(np.argmax(weights))  # ties resolve to the lowest index
    coarse_rank = int(np.count_nonzero(dist < dist[best]))
    particles = ParticleSet(states, weights, prev.base_w, prev.base_h)
    return StepResult(
        state=particles.state(best),
        particles=particles,
        patch=values[best].copy(),  # a copy, so the (N, 1024) block is freed
        coarse_rank=coarse_rank,
    )


def run_tracker(
    frames, init_box, model: HierarchicalModel | None, cfg: TrackerConfig
) -> TrackResult:
    """Track through an iterable of frames from a first-frame box.

    Frames are read once, in order, so a lazy iterable keeps one frame in
    memory at a time.

    The first init_frames frames run on raw-pixel ranking while object
    patches are collected; adaptation then runs on the collected patches
    and seeds the exemplar library, and re-runs every update_period
    frames on the most recent window, warm-started from the current
    filters. A failed adaptation is logged and tracking continues with
    the previous filters.
    """
    frames = iter(frames)
    f0 = next(frames, None)
    if f0 is None:
        raise DataError("no frames to track")
    if model is None and not cfg.raw_only:
        raise ValueError("a model is required unless raw_only is set")
    x, y, w, h = (float(v) for v in init_box)
    if (
        not np.all(np.isfinite([x, y, w, h]))
        or w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > f0.width or y + h > f0.height
    ):
        raise DataError(
            f"initial box {init_box} is empty, not finite or not inside frame 0 "
            f"({f0.width}x{f0.height})"
        )
    rng = np.random.default_rng(cfg.seed)
    state = TrackState.from_box(init_box)
    particles = ParticleSet.single(state)
    # a box inside the frame has every sample inside, so it is never rejected
    template = candidate_patches(f0, particles.states, w, h)[0][0]
    boxes = [state.box()]
    collected = [template]  # (1024,) patch values of each tracked frame
    lib = ExemplarLibrary(cfg.library_capacity, cfg.sigma)
    events: list[AdaptEvent] = []
    current = model

    def maybe_adapt(frames_processed: int):
        nonlocal current
        if cfg.raw_only or current is None:
            return
        if frames_processed < cfg.init_frames:
            return
        is_init = frames_processed == cfg.init_frames
        if not is_init and (frames_processed - cfg.init_frames) % cfg.update_period:
            return
        x32 = np.stack(collected if is_init else collected[-cfg.update_period :])
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
                eps_sqrt=cfg.eps_sqrt,
                eps_abs=cfg.eps_abs,
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
        for f in hier_features(current, x32 if is_init else collected[-1]):
            lib.add(f)

    maybe_adapt(1)
    for t, frame in enumerate(frames, start=1):
        try:
            res = step(frame, particles, template, current, lib, cfg, t, rng)
        except TrackingLostError as err:
            raise TrackingLostError(t, err.state, np.asarray(boxes)) from None
        state, particles, template = res.state, res.particles, res.patch
        boxes.append(state.box())
        collected.append(template)
        maybe_adapt(t + 1)
    return TrackResult(np.asarray(boxes), current, tuple(events))


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
