"""Two-layer stacked architecture: training, encoding, adaptation, model file.

Layer 1 learns filters on 16x16 patches. A 32x32 patch is then divided
into 16x16 sub-windows on a stride grid; each sub-window is normalized
and encoded with layer 1, the pooled outputs are concatenated, PCA
whitening is fitted on those vectors, and layer 2 learns filters on the
whitened inputs. The hierarchical feature of a 32x32 patch is the
concatenation of its layer-1 part (all sub-windows) and its layer-2 part.

Adaptation re-optimizes each layer's filters on the target object's own
patches with a quadratic pull toward the pre-learned filters, bottom-up:
layer 1 first, then layer 2 on features from the adapted layer 1. The
whitening transform is frozen after pre-training so the layer-2 input
space stays fixed while its filters move.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__ as _pkg_version
from .encoder import LayerEncoder, encode
from .errors import DataError, ModelFormatError, OptimizationError
from .objectives import AdaptationObjective, SlownessObjective
from .optimizer import LbfgsConfig, OptimizeResult, minimize
from .patches import Patch, normalize_rows
from .whitening import WhiteningTransform, apply_whitening, fit_whitening

LAYER1_SIDE = 16
LAYER2_SIDE = 32
LAYER1_INPUT_DIM = LAYER1_SIDE * LAYER1_SIDE

_RESERVED_META_KEY = "sub_patch_stride"

# L-BFGS settings of an adaptation run, shared by `adapt` and the tracker
ADAPT_OPTIMIZER = LbfgsConfig(max_iters=50, grad_tol=1e-5)


@dataclass(frozen=True)
class HierFeature:
    """Concatenated two-layer feature of one 32x32 patch."""

    layer1_part: np.ndarray
    layer2_part: np.ndarray
    combined: np.ndarray

    def __post_init__(self):
        l1 = np.asarray(self.layer1_part, dtype=np.float64).ravel()
        l2 = np.asarray(self.layer2_part, dtype=np.float64).ravel()
        c = np.asarray(self.combined, dtype=np.float64).ravel()
        if c.size != l1.size + l2.size:
            raise ValueError(
                f"combined length {c.size} != {l1.size} + {l2.size}"
            )
        object.__setattr__(self, "layer1_part", l1)
        object.__setattr__(self, "layer2_part", l2)
        object.__setattr__(self, "combined", c)


@dataclass(frozen=True)
class HierarchicalModel:
    """Two stacked encoders joined by a frozen whitening transform."""

    layer1: LayerEncoder
    whitening: WhiteningTransform
    layer2: LayerEncoder
    sub_patch_stride: int = 16
    metadata: tuple = ()  # ordered (key, value) string pairs

    def __post_init__(self):
        if self.layer1.input_dim != LAYER1_INPUT_DIM:
            raise ValueError(
                f"layer 1 input dim must be {LAYER1_INPUT_DIM}, "
                f"got {self.layer1.input_dim}"
            )
        if self.sub_patch_stride < 1:
            raise ValueError("sub-patch stride must be >= 1")
        per_axis = (LAYER2_SIDE - LAYER1_SIDE) // self.sub_patch_stride + 1
        n_sub = per_axis * per_axis
        expected = n_sub * self.layer1.output_dim
        if self.whitening.input_dim != expected:
            raise ValueError(
                f"whitening input dim {self.whitening.input_dim} != "
                f"{n_sub} sub-patches x {self.layer1.output_dim} pooled dims"
            )
        if self.layer2.input_dim != self.whitening.retained_dim:
            raise ValueError(
                f"layer 2 input dim {self.layer2.input_dim} != "
                f"whitening retained dim {self.whitening.retained_dim}"
            )
        meta = tuple((str(k), str(v)) for k, v in self.metadata)
        for k, _ in meta:
            if k == _RESERVED_META_KEY:
                raise ValueError(f"metadata key {k!r} is reserved")
        object.__setattr__(self, "metadata", meta)

    @property
    def n_sub_patches(self) -> int:
        per_axis = (LAYER2_SIDE - LAYER1_SIDE) // self.sub_patch_stride + 1
        return per_axis * per_axis

    @property
    def feature_dim(self) -> int:
        return self.n_sub_patches * self.layer1.output_dim + self.layer2.output_dim


@dataclass(frozen=True)
class PretrainConfig:
    lam: float = 5.0
    f1: int = 64
    f2: int = 128
    whiten_dim: int | None = None
    sub_patch_stride: int = 16
    optimizer: LbfgsConfig = field(
        default_factory=lambda: LbfgsConfig(max_iters=150, grad_tol=1e-4)
    )
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if min(self.f1, self.f2) < 2 or self.f1 % 2 or self.f2 % 2:
            raise ValueError(f"f1 and f2 must be even and >= 2, got {self.f1}, {self.f2}")
        if self.sub_patch_stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.sub_patch_stride}")
        if self.whiten_dim is not None and self.whiten_dim < 1:
            raise ValueError(f"whitening dim must be >= 1, got {self.whiten_dim}")


@dataclass(frozen=True)
class LayerAdaptStats:
    layer: str
    value_before: float
    value_after: float
    frobenius_change: float
    relative_change: float
    iterations: int
    status: str
    evals: int


@dataclass(frozen=True)
class PretrainResult:
    model: HierarchicalModel
    layer1_opt: OptimizeResult
    layer2_opt: OptimizeResult


@dataclass(frozen=True)
class AdaptResult:
    model: HierarchicalModel
    layers: tuple[LayerAdaptStats, ...]


def subpatches(values32, stride: int = 16) -> np.ndarray:
    """Normalized 16x16 sub-windows of N 32x32 patches: (N, k, 256).

    Cells run in row-major order on a `stride` grid; each is normalized
    on its own.
    """
    img = np.asarray(values32, dtype=np.float64).reshape(-1, LAYER2_SIDE, LAYER2_SIDE)
    offsets = range(0, LAYER2_SIDE - LAYER1_SIDE + 1, stride)
    cells = np.stack(
        [img[:, oy : oy + LAYER1_SIDE, ox : ox + LAYER1_SIDE] for oy in offsets for ox in offsets],
        axis=1,
    )
    n, k = cells.shape[:2]
    rows = normalize_rows(cells.reshape(n * k, LAYER1_INPUT_DIM))
    return rows.reshape(n, k, LAYER1_INPUT_DIM)


def _layer1_features(layer1: LayerEncoder, values32, stride: int) -> np.ndarray:
    """Concatenated layer-1 outputs of every sub-window, one row per patch."""
    # a (N, k, 256) stack takes one product per patch, the same product
    # as encoding that patch alone; one flat (N k, 256) product would not
    z = encode(layer1, subpatches(values32, stride))
    return z.reshape(len(z), z.shape[1] * z.shape[2])


def _random_orthonormal_rows(f: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian rows orthonormalized; when f > d, in blocks of d rows."""
    blocks = []
    remaining = f
    while remaining > 0:
        k = min(remaining, d)
        g = rng.standard_normal((d, k))
        q, _ = np.linalg.qr(g)
        blocks.append(q.T[:k])
        remaining -= k
    return np.vstack(blocks)


def _fit_layer(obj, w0, cfg: LbfgsConfig, failure_message: str) -> OptimizeResult:
    """L-BFGS on `obj` from the filters `w0`, which the optimizer sees flat."""

    def f(x):
        value, grad = obj.evaluate(x.reshape(w0.shape))
        return value, grad.ravel()

    result = minimize(f, w0.ravel(), cfg)
    if result.status == "line_search_failed":
        raise OptimizationError(failure_message)
    return result


def _check_sequences(seqs, side: int, tag: str) -> list[np.ndarray]:
    """Training sequences as a list of nonempty (L, side**2) arrays."""
    seqs = [np.asarray(s, dtype=np.float64) for s in seqs]
    if not seqs:
        raise DataError(f"{tag}: training set is empty")
    for s in seqs:
        if s.ndim != 2 or s.shape[1] != side * side:
            raise DataError(
                f"{tag}: expected {side}x{side} patches, got an array of shape {s.shape}"
            )
        if not len(s):
            raise DataError(f"{tag}: a training sequence is empty")
    return seqs


def pretrain(seqs16, seqs32, cfg: PretrainConfig | None = None) -> PretrainResult:
    """Train layer 1, fit whitening on its pooled outputs, train layer 2.

    `seqs16` and `seqs32` are lists of (L, 256) and (L, 1024) arrays of
    normalized patches, one row per consecutive frame.
    """
    cfg = cfg or PretrainConfig()
    seqs16 = _check_sequences(seqs16, LAYER1_SIDE, "layer1")
    seqs32 = _check_sequences(seqs32, LAYER2_SIDE, "layer2")
    rng = np.random.default_rng(cfg.seed)

    w1_0 = _random_orthonormal_rows(cfg.f1, LAYER1_INPUT_DIM, rng)
    res1 = _fit_layer(SlownessObjective(seqs16, cfg.lam), w1_0, cfg.optimizer,
                      "layer1: line search failed during training")
    layer1 = LayerEncoder(res1.w_final.reshape(w1_0.shape))

    concat_seqs = [_layer1_features(layer1, s, cfg.sub_patch_stride) for s in seqs32]
    whit = fit_whitening(np.vstack(concat_seqs), d=cfg.whiten_dim)
    white_seqs = [apply_whitening(whit, v) for v in concat_seqs]

    w2_0 = _random_orthonormal_rows(cfg.f2, whit.retained_dim, rng)
    res2 = _fit_layer(SlownessObjective(white_seqs, cfg.lam), w2_0, cfg.optimizer,
                      "layer2: line search failed during training")
    layer2 = LayerEncoder(res2.w_final.reshape(w2_0.shape))

    metadata = (
        ("lambda", repr(cfg.lam)),
        ("f1", str(cfg.f1)),
        ("f2", str(cfg.f2)),
        ("seed", str(cfg.seed)),
        ("created_by", f"slowtrack {_pkg_version}"),
    )
    model = HierarchicalModel(
        layer1=layer1,
        whitening=whit,
        layer2=layer2,
        sub_patch_stride=cfg.sub_patch_stride,
        metadata=metadata,
    )
    return PretrainResult(model, res1, res2)


def hier_features(model: HierarchicalModel, x32) -> np.ndarray:
    """Hierarchical features of N normalized 32x32 patches: (N, feature_dim).

    Each row is the layer-1 part (every sub-window) followed by the
    layer-2 part, bit for bit what the patch gives when encoded alone.
    """
    l1 = _layer1_features(model.layer1, x32, model.sub_patch_stride)
    # whitening and layer 2 run on (N, 1, D) stacks: one product per patch
    wh = apply_whitening(model.whitening, l1[:, None, :])
    l2 = encode(model.layer2, wh)[:, 0]
    return np.concatenate([l1, l2], axis=1)


def encode_hier(model: HierarchicalModel, patch32: Patch) -> HierFeature:
    """Hierarchical feature of one 32x32 patch, split into its parts."""
    if patch32.side != LAYER2_SIDE:
        raise ValueError(f"expected a {LAYER2_SIDE}-patch, got side {patch32.side}")
    combined = hier_features(model, patch32.values)[0]
    n1 = model.n_sub_patches * model.layer1.output_dim
    return HierFeature(combined[:n1], combined[n1:], combined)


def adapt(
    model: HierarchicalModel,
    seqs16,
    seqs32,
    lam: float,
    gamma: float,
    optimizer_cfg: LbfgsConfig = ADAPT_OPTIMIZER,
) -> AdaptResult:
    """Adapt both layers to the object's patches; returns a new model.

    `seqs16` and `seqs32` are lists of (L, 256) and (L, 1024) arrays, as
    for `pretrain`. Each layer starts from and is pulled toward its
    current filters; the whitening transform is reused unchanged.
    """
    seqs16 = _check_sequences(seqs16, LAYER1_SIDE, "layer1")
    seqs32 = _check_sequences(seqs32, LAYER2_SIDE, "layer2")
    adapted, stats = {}, []
    for tag, enc in (("layer1", model.layer1), ("layer2", model.layer2)):
        if tag == "layer1":
            seqs = seqs16
        else:  # layer 2 learns on features of the adapted layer 1
            stride = model.sub_patch_stride
            seqs = [
                apply_whitening(model.whitening, _layer1_features(adapted["layer1"], s, stride))
                for s in seqs32
            ]
        w_old = enc.weights
        base = SlownessObjective(seqs, lam, eps_sqrt=enc.eps_sqrt)
        result = _fit_layer(AdaptationObjective(base, gamma, w_old), w_old, optimizer_cfg,
                            f"{tag}: line search failed during adaptation")
        w_new = result.w_final.reshape(w_old.shape)
        change = float(np.linalg.norm(w_new - w_old))
        denom = float(np.linalg.norm(w_old))
        stats.append(LayerAdaptStats(
            layer=tag,
            value_before=result.trace[0][0],
            value_after=result.value,
            frobenius_change=change,
            relative_change=change / denom if denom > 0 else change,
            iterations=result.iterations,
            status=result.status,
            evals=result.evals,
        ))
        adapted[tag] = LayerEncoder(w_new, enc.eps_sqrt)
    return AdaptResult(replace(model, **adapted), tuple(stats))


# ---------------------------------------------------------------------------
# model file format: magic "HFTM", version 0x01, then tagged sections, each
# tag (4 ascii bytes) + uint32 payload length + payload, in the order
# L1W L1P L1E WHIT L2W L2P L2E META. All integers are 32-bit
# little-endian; floats are 64-bit little-endian.

_MAGIC = b"HFTM"
_VERSION = 1


def _pack_section(tag: bytes, payload: bytes) -> bytes:
    return tag + struct.pack("<I", len(payload)) + payload


def _layer_sections(enc: LayerEncoder, prefix: bytes) -> list[bytes]:
    """Weights, pooling dims and eps of one layer: the `LnW`, `LnP`, `LnE` sections."""
    w = enc.weights
    f, d = w.shape
    return [
        _pack_section(prefix + b"W ", struct.pack("<II", f, d) + w.astype("<f8").tobytes()),
        _pack_section(prefix + b"P ", struct.pack("<II", f, f // 2)),
        _pack_section(prefix + b"E ", struct.pack("<d", enc.eps_sqrt)),
    ]


def save_model(model: HierarchicalModel, path) -> None:
    """Serialize the model; the round trip is bit-exact."""
    out = [_MAGIC, bytes([_VERSION])]
    out.extend(_layer_sections(model.layer1, b"L1"))
    whit = model.whitening
    wh_payload = (
        struct.pack("<II", whit.input_dim, whit.retained_dim)
        + struct.pack("<d", whit.eps_reg)
        + whit.mean.astype("<f8").tobytes()
        + whit.projection.astype("<f8").tobytes()
    )
    out.append(_pack_section(b"WHIT", wh_payload))
    out.extend(_layer_sections(model.layer2, b"L2"))
    lines = [f"{_RESERVED_META_KEY}={model.sub_patch_stride}"]
    lines.extend(f"{k}={v}" for k, v in model.metadata)
    meta_payload = [struct.pack("<I", len(lines))]
    for line in lines:
        raw = line.encode("utf-8")
        meta_payload.append(struct.pack("<I", len(raw)) + raw)
    out.append(_pack_section(b"META", b"".join(meta_payload)))
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise ModelFormatError(
                f"{self.path}: truncated while reading {what} at byte offset {self.pos}"
            )
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self.take(8, what))[0]

    def section(self, expected: bytes) -> "_Reader":
        tag = self.take(4, "section tag")
        if tag != expected:
            raise ModelFormatError(
                f"{self.path}: expected section {expected.decode()!r}, "
                f"found {tag!r} at byte offset {self.pos - 4}"
            )
        length = self.u32("section length")
        payload = self.take(length, f"section {expected.decode()!r}")
        return _Reader(payload, self.path)


def _read_weights(r: _Reader, field_name: str) -> np.ndarray:
    f = r.u32(f"{field_name} rows")
    d = r.u32(f"{field_name} cols")
    raw = r.take(8 * f * d, f"{field_name} values")
    w = np.frombuffer(raw, dtype="<f8").reshape(f, d).astype(np.float64)
    if not np.all(np.isfinite(w)):
        raise ModelFormatError(f"non-finite values in field {field_name}")
    return w


def load_model(path) -> HierarchicalModel:
    """Load a model written by save_model; errors name the offending field."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, path)
    magic = r.take(4, "magic")
    if magic != _MAGIC:
        raise ModelFormatError(f"{path}: bad magic at byte offset 0")
    version = r.take(1, "version")[0]
    if version != _VERSION:
        raise ModelFormatError(
            f"{path}: unsupported version {version} (expected {_VERSION})"
        )

    w1 = _read_weights(r.section(b"L1W "), "layer1 weights")
    p1 = r.section(b"L1P ")
    p1_in, p1_out = p1.u32("layer1 pooling input"), p1.u32("layer1 pooling output")
    if p1_in != w1.shape[0] or p1_out != p1_in // 2:
        raise ModelFormatError("inconsistent field layer1 pooling dims")
    eps1 = r.section(b"L1E ").f64("layer1 eps_sqrt")

    wh = r.section(b"WHIT")
    dim = wh.u32("whitening input dim")
    d = wh.u32("whitening retained dim")
    eps_reg = wh.f64("whitening eps_reg")
    mean = np.frombuffer(wh.take(8 * dim, "whitening mean"), dtype="<f8").astype(
        np.float64
    )
    proj = (
        np.frombuffer(wh.take(8 * d * dim, "whitening projection"), dtype="<f8")
        .reshape(d, dim)
        .astype(np.float64)
    )
    for name, arr in (("whitening mean", mean), ("whitening projection", proj)):
        if not np.all(np.isfinite(arr)):
            raise ModelFormatError(f"non-finite values in field {name}")
    if not np.isfinite(eps_reg):
        raise ModelFormatError("non-finite values in field whitening eps_reg")

    w2 = _read_weights(r.section(b"L2W "), "layer2 weights")
    p2 = r.section(b"L2P ")
    p2_in, p2_out = p2.u32("layer2 pooling input"), p2.u32("layer2 pooling output")
    if p2_in != w2.shape[0] or p2_out != p2_in // 2:
        raise ModelFormatError("inconsistent field layer2 pooling dims")
    eps2 = r.section(b"L2E ").f64("layer2 eps_sqrt")

    meta = r.section(b"META")
    count = meta.u32("metadata count")
    lines = []
    for i in range(count):
        n = meta.u32(f"metadata line {i} length")
        try:
            lines.append(meta.take(n, f"metadata line {i}").decode("utf-8"))
        except UnicodeDecodeError:
            raise ModelFormatError(f"invalid UTF-8 in field metadata line {i}") from None
    stride = 16
    pairs = []
    for i, line in enumerate(lines):
        key, sep, val = line.partition("=")
        if not sep:
            raise ModelFormatError(f"metadata line {i} is not key=value")
        if key == _RESERVED_META_KEY:
            if not val.isdecimal():
                raise ModelFormatError(f"{path}: metadata {key}={val!r} is not an integer")
            stride = int(val)
        else:
            pairs.append((key, val))
    for name, eps in (("layer1 eps_sqrt", eps1), ("layer2 eps_sqrt", eps2)):
        if not np.isfinite(eps):
            raise ModelFormatError(f"non-finite values in field {name}")

    try:
        return HierarchicalModel(
            layer1=LayerEncoder(w1, eps1),
            whitening=WhiteningTransform(mean, proj, eps_reg),
            layer2=LayerEncoder(w2, eps2),
            sub_patch_stride=stride,
            metadata=tuple(pairs),
        )
    except ValueError as err:
        raise ModelFormatError(f"{path}: {err}") from None
