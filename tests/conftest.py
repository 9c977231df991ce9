import numpy as np
import pytest

from slowtrack.encoder import LayerEncoder
from slowtrack.hierarchy import (
    HierarchicalModel,
    PretrainConfig,
    _random_orthonormal_rows,
    pretrain,
)
from slowtrack.optimizer import LbfgsConfig
from slowtrack.patches import sample_training_set
from slowtrack.synth import (
    deformation_script,
    generate_sequence,
    rotation_script,
    scaling_script,
    translation_script,
)
from slowtrack.whitening import fit_whitening


def normalize_values(values):
    """One window normalized: the oracle `normalize_rows` must match per row.

    Zero mean and unit variance, or all zeros when the standard deviation
    is below 1e-12.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    centered = v - v.mean()
    std = centered.std()
    if std < 1e-12:
        return np.zeros_like(v)
    return centered / std


def finite_difference_gradient(f, w, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of the matrix W.

    The verification oracle for the analytic gradients of the objectives;
    O(F*D) evaluations, intended for small instances only.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    w = np.array(w, dtype=np.float64)
    grad = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        wp = w.copy()
        wp[idx] += h
        wm = w.copy()
        wm[idx] -= h
        grad[idx] = (f(wp) - f(wm)) / (2.0 * h)
    return grad


def build_model(f1=8, f2=4, eps_sqrt=1e-8, seed=0, stride=16, whiten_dim=None):
    """Assemble an untrained model with random orthonormal filters.

    Good enough for shape/determinism tests that do not need learned
    filters.
    """
    rng = np.random.default_rng(seed)
    w1 = _random_orthonormal_rows(f1, 256, rng)
    per_axis = (32 - 16) // stride + 1
    concat_dim = per_axis * per_axis * (f1 // 2)
    samples = rng.standard_normal((4 * concat_dim, concat_dim))
    whit = fit_whitening(samples, d=whiten_dim)
    w2 = _random_orthonormal_rows(f2, whit.retained_dim, rng)
    return HierarchicalModel(
        layer1=LayerEncoder(w1, eps_sqrt),
        whitening=whit,
        layer2=LayerEncoder(w2, eps_sqrt),
        sub_patch_stride=stride,
    )


def mixed_motion_data(n_frames=40, frame_size=(140, 120), seed0=11, target_side=48):
    """Short tracked sequences covering all motion patterns."""
    scripts = [
        translation_script(n_frames, (60.0, 60.0), (1.0, 0.0), target_side=target_side),
        translation_script(n_frames, (70.0, 52.0), (-0.8, 0.6), target_side=target_side),
        rotation_script(n_frames, (64.0, 60.0), np.deg2rad(2.0), target_side=target_side),
        scaling_script(n_frames, (64.0, 60.0), 1.004, target_side=target_side),
        deformation_script(n_frames, (64.0, 60.0), 3.0, target_side=target_side),
    ]
    frame_seqs, box_seqs = [], []
    for i, script in enumerate(scripts):
        frames, gt = generate_sequence(script, frame_size, seed=seed0 + i)
        frame_seqs.append(frames)
        box_seqs.append(gt.boxes)
    return frame_seqs, box_seqs


def translation_data(n_seqs, n_frames, seed0, velocity=1.0, target_side=48):
    """Translating-texture sequences in evenly spread directions."""
    rng = np.random.default_rng(seed0)
    frame_seqs, box_seqs = [], []
    for i in range(n_seqs):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        v = (velocity * np.cos(angle), velocity * np.sin(angle))
        start = (
            70.0 - v[0] * (n_frames - 1) / 2.0,
            60.0 - v[1] * (n_frames - 1) / 2.0,
        )
        script = translation_script(n_frames, start, v, target_side=target_side)
        frames, gt = generate_sequence((script), (140, 120), seed=seed0 + 100 + i)
        frame_seqs.append(frames)
        box_seqs.append(gt.boxes)
    return frame_seqs, box_seqs


@pytest.fixture(scope="session")
def trained_model():
    """A small model pre-trained on mixed-motion sequences (shared, ~5 s)."""
    frame_seqs, box_seqs = mixed_motion_data()
    seqs16, _ = sample_training_set(frame_seqs, box_seqs, 16, 16)
    seqs32, _ = sample_training_set(frame_seqs, box_seqs, 32, 16)
    cfg = PretrainConfig(
        lam=5.0,
        f1=32,
        f2=64,
        optimizer=LbfgsConfig(max_iters=100, grad_tol=1e-4),
        seed=0,
    )
    return pretrain(seqs16, seqs32, cfg).model


@pytest.fixture(scope="session")
def small_training_sets():
    """Tiny 16/32 training sets (lists of arrays) for fast adaptation tests."""
    frame_seqs, box_seqs = mixed_motion_data(n_frames=8, seed0=31)
    seqs16, _ = sample_training_set(frame_seqs[:2], box_seqs[:2], 16, 16)
    seqs32, _ = sample_training_set(frame_seqs[:2], box_seqs[:2], 32, 16)
    return seqs16, seqs32


def corruptions(data: bytes):
    """Hypothesis strategy: `data` with a few bytes overwritten, then truncated.

    Edits favour the first and last 256 bytes, where file headers and the
    small trailing sections sit.
    """
    from hypothesis import strategies as st

    n = len(data)
    position = st.one_of(
        st.integers(0, min(n, 256) - 1),
        st.integers(max(0, n - 256), n - 1),
        st.integers(0, n - 1),
    )
    edits = st.lists(st.tuples(position, st.integers(0, 255)), max_size=6)

    def apply(args):
        changes, cut = args
        buf = bytearray(data)
        for pos, value in changes:
            buf[pos] = value
        return bytes(buf[:cut])

    return st.tuples(edits, st.integers(0, n)).map(apply)
