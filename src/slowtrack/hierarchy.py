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
from typing import NamedTuple

import numpy as np

from ._version import __version__ as _pkg_version
from .encoder import LayerEncoder, encode
from .errors import DataError, LineSearchError, ModelFormatError, OptimizationError
from .objectives import AdaptationObjective, SlownessObjective, checked_sequences, helper_thread
from .optimizer import LbfgsConfig, OptimizeResult, minimize
from .patches import Patch, normalize_rows
from .whitening import WhiteningTransform, apply_whitening, fit_whitening

LAYER1_SIDE = 16
LAYER2_SIDE = 32
LAYER1_INPUT_DIM = LAYER1_SIDE * LAYER1_SIDE

_RESERVED_META_KEY = "sub_patch_stride"

# L-BFGS settings of an adaptation run, shared by `adapt` and the tracker;
# it stops on pre-training's tolerance, as soon as f stops moving
ADAPT_OPTIMIZER = LbfgsConfig(max_iters=50)


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
        n_sub = self.n_sub_patches
        if self.whitening.input_dim != n_sub * self.layer1.output_dim:
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


@dataclass(frozen=True)
class PretrainConfig:
    lam: float = 5.0
    f1: int = 64
    f2: int = 128
    whiten_dim: int | None = None
    sub_patch_stride: int = 16
    optimizer: LbfgsConfig = field(default_factory=lambda: LbfgsConfig(max_iters=150))
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


class LayerAdaptStats(NamedTuple):
    layer: str
    value_before: float
    value_after: float
    frobenius_change: float
    relative_change: float
    iterations: int
    status: str
    evals: int


class PretrainResult(NamedTuple):
    model: HierarchicalModel
    layer1_opt: OptimizeResult
    layer2_opt: OptimizeResult


class AdaptResult(NamedTuple):
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
    """L-BFGS on `obj` from the filters `w0`, which the optimizer sees flat.

    A failed line search raises OptimizationError(failure_message).
    """

    def f(x):
        value, grad = obj.evaluate(x.reshape(w0.shape))
        return value, grad.ravel()

    try:
        return minimize(f, w0.ravel(), cfg)
    except LineSearchError:
        raise OptimizationError(failure_message) from None


def pretrain(seqs16, seqs32, cfg: PretrainConfig | None = None) -> PretrainResult:
    """Train layer 1, fit whitening on its pooled outputs, train layer 2.

    Greedy, layer by layer. `seqs16` is an iterable of (L, 256) arrays and
    `seqs32` one of (L, 1024) arrays, each of normalized patches, one row
    per consecutive frame. Layer 1's objective stacks `seqs16`, and
    pretrain keeps no other reference to them. `seqs32` is read once, only
    after layer 1 is trained, and each sequence becomes its layer-1
    features as it arrives, so a generator that cuts the 32x32 patches
    then holds one sequence at a time. A malformed `seqs32` is reported
    after layer 1 trains. Each layer trains with a helper thread
    (`objectives.helper_thread`), which ends with its layer.
    """
    cfg = cfg or PretrainConfig()
    rng = np.random.default_rng(cfg.seed)

    w1_0 = _random_orthonormal_rows(cfg.f1, LAYER1_INPUT_DIM, rng)
    obj1 = SlownessObjective(checked_sequences(seqs16, "layer1", LAYER1_SIDE), cfg.lam)
    del seqs16  # stacked by the objective; a caller's temporary list is freed here
    with helper_thread():
        res1 = _fit_layer(obj1, w1_0, cfg.optimizer, "layer1: line search failed during training")
    del obj1
    layer1 = LayerEncoder(res1.w_final.reshape(w1_0.shape))

    concat_seqs = [
        _layer1_features(layer1, s, cfg.sub_patch_stride)
        for s in checked_sequences(seqs32, "layer2", LAYER2_SIDE)
    ]
    whit = fit_whitening(np.vstack(concat_seqs), d=cfg.whiten_dim)
    white_seqs = [apply_whitening(whit, v) for v in concat_seqs]

    w2_0 = _random_orthonormal_rows(cfg.f2, whit.retained_dim, rng)
    with helper_thread():
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
    """Hierarchical features of N normalized 32x32 patches, one row each.

    Each row is the layer-1 part (`n_sub_patches` windows of
    `layer1.output_dim`) followed by the layer-2 part (`layer2.output_dim`),
    bit for bit what the patch gives when encoded alone.
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
    seqs16 = list(checked_sequences(seqs16, "layer1", LAYER1_SIDE))
    seqs32 = list(checked_sequences(seqs32, "layer2", LAYER2_SIDE))
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
# little-endian; floats are 64-bit little-endian. META holds a line count
# and length-prefixed UTF-8 key=value lines, the first sub_patch_stride=<n>.

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
    """A cursor over a model file's bytes; inside a section, reads stop at its end."""

    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.limit = len(buf)
        self.path = path

    def error(self, message: str) -> ModelFormatError:
        return ModelFormatError(f"{self.path}: {message}")

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > self.limit:
            raise self.error(f"truncated while reading {what} at byte offset {self.pos}")
        self.pos += n
        return self.buf[self.pos - n : self.pos]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def floats(self, shape: tuple, what: str) -> np.ndarray:
        """Little-endian float64 values of `shape`; ModelFormatError unless all are finite."""
        values = np.frombuffer(self.take(8 * math.prod(shape), what), dtype="<f8").reshape(shape)
        if not np.isfinite(values).all():
            raise self.error(f"non-finite values in field {what}")
        return values

    def section(self, tag: bytes) -> None:
        """Check the next section's tag and length; reads then stop at its end."""
        name = tag.decode()
        found = self.take(4, "section tag")
        if found != tag:
            raise self.error(
                f"expected section {name!r}, found {found!r} at byte offset {self.pos - 4}"
            )
        length = self.u32("section length")
        if self.pos + length > self.limit:
            raise self.error(f"truncated while reading section {name!r} at byte offset {self.pos}")
        self.limit = self.pos + length

    def end(self, what: str) -> None:
        """Lift the section bound, raising if bytes remain after `what`, the last field read."""
        unread = self.limit - self.pos
        if unread:
            raise self.error(f"{unread} unread bytes after {what} at byte offset {self.pos}")
        self.limit = len(self.buf)


def _read_layer(r: _Reader, prefix: bytes, tag: str) -> LayerEncoder:
    """One layer's encoder, from the sections `_layer_sections` writes."""
    r.section(prefix + b"W ")
    f, d = r.u32(f"{tag} weights rows"), r.u32(f"{tag} weights cols")
    w = r.floats((f, d), f"{tag} weights")
    r.end(f"{tag} weights")
    r.section(prefix + b"P ")
    p_in, p_out = r.u32(f"{tag} pooling input"), r.u32(f"{tag} pooling output")
    if p_in != f or p_out != p_in // 2:
        raise r.error(f"inconsistent field {tag} pooling dims")
    r.end(f"{tag} pooling output")
    r.section(prefix + b"E ")
    eps = float(r.floats((), f"{tag} eps_sqrt"))
    r.end(f"{tag} eps_sqrt")
    return LayerEncoder(w, eps)


def _read_meta_line(r: _Reader, i: int) -> tuple[str, str]:
    """Key and value of metadata line `i`."""
    raw = r.take(r.u32(f"metadata line {i} length"), f"metadata line {i}")
    try:
        key, sep, val = raw.decode("utf-8").partition("=")
    except UnicodeDecodeError:
        raise r.error(f"invalid UTF-8 in field metadata line {i}") from None
    if not sep:
        raise r.error(f"metadata line {i} is not key=value")
    return key, val


def load_model(path) -> HierarchicalModel:
    """Load a model written by save_model; each error names the file, then the fault.

    The reader stops at the first fault in file order. A file loads only in
    the form save_model writes, so a loaded model re-saves to the same bytes.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    try:
        if r.take(4, "magic") != _MAGIC:
            raise r.error("bad magic at byte offset 0")
        version = r.take(1, "version")[0]
        if version != _VERSION:
            raise r.error(f"unsupported version {version} (expected {_VERSION})")
        layer1 = _read_layer(r, b"L1", "layer1")
        r.section(b"WHIT")
        dim, d = r.u32("whitening input dim"), r.u32("whitening retained dim")
        eps_reg = float(r.floats((), "whitening eps_reg"))
        mean = r.floats((dim,), "whitening mean")
        proj = r.floats((d, dim), "whitening projection")
        r.end("whitening projection")
        whitening = WhiteningTransform(mean, proj, eps_reg)
        layer2 = _read_layer(r, b"L2", "layer2")
        r.section(b"META")
        count = r.u32("metadata count")
        key, val = _read_meta_line(r, 0) if count else ("", "")
        if key != _RESERVED_META_KEY:
            raise r.error(f"metadata does not start with {_RESERVED_META_KEY}")
        # only the form save_model writes: ASCII digits, no leading zero
        try:
            canonical = val.isascii() and val.isdigit() and str(int(val)) == val
        except ValueError:  # more digits than int() converts
            canonical = False
        if not canonical:
            shown = repr(val) if len(val) <= 40 else f"{val[:40]!r}... ({len(val)} characters)"
            raise r.error(f"metadata {key}={shown} is not an integer")
        pairs = tuple(_read_meta_line(r, i) for i in range(1, count))
        r.end("metadata")
        r.end("section 'META'")
        return HierarchicalModel(layer1, whitening, layer2, sub_patch_stride=int(val), metadata=pairs)
    except ValueError as err:
        raise r.error(str(err)) from None
