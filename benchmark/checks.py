"""Output checks for the benchmark, against independent computations.

Every check returns a list of problems; an empty list means it passed.
The references here are the benchmark's own: a PGM reader, a model-file
reader, the pooled-square-root encoder, centre error and IoU. They
share no code with slowtrack, so a fault in the program cannot hide by
also being in the check.
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path

import numpy as np

# limits on every tracked sequence; README.md gives the figures they hold on
ACE_CEILING_PX = 8.0
AOR_FLOOR = 0.6
# slowtrack eval prints 4 decimals
EVAL_PRINT_TOL = 5.01e-5
# the random orthonormal filters learned layer-1 features must beat on slowness
RANDOM_FILTER_SEED = 2024

INIT_FRAMES = 20  # slowtrack track defaults: --init-frames and --update-every
UPDATE_EVERY = 20


# ---------------------------------------------------------------------------
# readers


def read_pgm(path) -> np.ndarray:
    """Binary 8-bit PGM as a float64 (height, width) array in [0, 1]."""
    buf = Path(path).read_bytes()
    if buf[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    fields = buf[2:].split(maxsplit=3)
    width, height, maxval = (int(f) for f in fields[:3])
    payload = fields[3][: width * height]
    if maxval != 255 or len(payload) != width * height:
        raise ValueError(f"{path}: unexpected PGM payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width) / 255.0


def read_frames(directory) -> list[np.ndarray]:
    return [read_pgm(p) for p in sorted(Path(directory).glob("*.pgm"))]


def read_boxes(path) -> np.ndarray:
    """``index,x,y,w,h`` rows as an (n, 4) array; indices must be 0..n-1."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        idx, *vals = line.split(",")
        if int(idx) != len(rows) or len(vals) != 4:
            raise ValueError(f"{path}: bad row {line!r}")
        rows.append([float(v) for v in vals])
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)


def read_model(path) -> dict:
    """The arrays of a ``.hftm`` file, parsed from its byte layout."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"HFTM" or buf[4] != 1:
        raise ValueError(f"{path}: bad magic or version")
    sections, pos = {}, 5
    while pos < len(buf):
        tag = buf[pos : pos + 4].decode("ascii").strip()
        (length,) = struct.unpack_from("<I", buf, pos + 4)
        sections[tag] = buf[pos + 8 : pos + 8 + length]
        pos += 8 + length

    def weights(raw):
        f, d = struct.unpack_from("<II", raw)
        return np.frombuffer(raw, "<f8", f * d, 8).reshape(f, d)

    whit = sections["WHIT"]
    dim, keep = struct.unpack_from("<II", whit)
    meta = sections["META"]
    (count,) = struct.unpack_from("<I", meta)
    lines, pos = [], 4
    for _ in range(count):
        (n,) = struct.unpack_from("<I", meta, pos)
        lines.append(meta[pos + 4 : pos + 4 + n].decode("utf-8"))
        pos += 4 + n
    meta_map = dict(line.split("=", 1) for line in lines)
    return {
        "w1": weights(sections["L1W"]),
        "eps1": struct.unpack("<d", sections["L1E"])[0],
        "mean": np.frombuffer(whit, "<f8", dim, 16),
        "projection": np.frombuffer(whit, "<f8", keep * dim, 16 + 8 * dim).reshape(keep, dim),
        "w2": weights(sections["L2W"]),
        "eps2": struct.unpack("<d", sections["L2E"])[0],
        "stride": int(meta_map["sub_patch_stride"]),
    }


# ---------------------------------------------------------------------------
# reference computations


def normalize(block: np.ndarray) -> np.ndarray:
    v = np.asarray(block, dtype=np.float64).ravel()
    c = v - v.mean()
    s = c.std()
    return c / s if s >= 1e-12 else np.zeros_like(v)


def encode(w: np.ndarray, eps: float, x: np.ndarray) -> np.ndarray:
    """sqrt((Wx)[2j]^2 + (Wx)[2j+1]^2 + eps) for each row of x."""
    a = np.asarray(x, dtype=np.float64) @ w.T
    return np.sqrt(a[..., 0::2] ** 2 + a[..., 1::2] ** 2 + eps)


def layer1_concat(params: dict, patch32: np.ndarray) -> np.ndarray:
    img = np.asarray(patch32, dtype=np.float64).reshape(32, 32)
    stride = params["stride"]
    subs = [
        normalize(img[oy : oy + 16, ox : ox + 16])
        for oy in range(0, 17, stride)
        for ox in range(0, 17, stride)
    ]
    return encode(params["w1"], params["eps1"], np.stack(subs)).ravel()


def whiten(params: dict, x: np.ndarray) -> np.ndarray:
    return (x - params["mean"]) @ params["projection"].T


def encode_hier(params: dict, patch32: np.ndarray) -> np.ndarray:
    l1 = layer1_concat(params, patch32)
    l2 = encode(params["w2"], params["eps2"], whiten(params, l1))
    return np.concatenate([l1, l2])


def grid_sequences(directory, side: int, stride: int) -> list[np.ndarray]:
    """Normalized patch sequences on a fixed grid anchored at the first gt box.

    Each sequence is one grid cell over all frames, shape (frames, side**2).
    """
    frames = read_frames(directory)
    bx, by, bw, bh = (int(round(v)) for v in read_boxes(Path(directory) / "gt.csv")[0])
    height, width = frames[0].shape
    xs = [x for x in range(bx, bx + bw - side + 1, stride) if 0 <= x <= width - side]
    ys = [y for y in range(by, by + bh - side + 1, stride) if 0 <= y <= height - side]
    return [
        np.stack([normalize(f[y : y + side, x : x + side]) for f in frames])
        for y in ys
        for x in xs
    ]


def consecutive_unit_distance(w: np.ndarray, eps: float, sequences) -> float:
    """Mean distance between unit-normalized features of consecutive frames."""
    dists = []
    for seq in sequences:
        z = encode(w, eps, seq)
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        dists.append(np.linalg.norm(np.diff(z, axis=0), axis=1))
    return float(np.concatenate(dists).mean())


def random_orthonormal(rows: int, cols: int, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((cols, rows)))
    return q.T


def centre_error_and_iou(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(mean centre distance in px, mean intersection-over-union)."""
    errors, ious = [], []
    for (px, py, pw, ph), (gx, gy, gw, gh) in zip(pred, gt):
        errors.append(math.hypot(px + pw / 2 - gx - gw / 2, py + ph / 2 - gy - gh / 2))
        iw = max(0.0, min(px + pw, gx + gw) - max(px, gx))
        ih = max(0.0, min(py + ph, gy + gh) - max(py, gy))
        inter = iw * ih
        ious.append(inter / (pw * ph + gw * gh - inter))
    return float(np.mean(errors)), float(np.mean(ious))


# ---------------------------------------------------------------------------
# checks


def check_track(boxes_path, gt_path, eval_stdout: str, n_frames: int):
    """Problems with a track's boxes, plus its (ACE, AOR) when readable."""
    try:
        pred = read_boxes(boxes_path)
    except (OSError, ValueError) as err:
        return [f"boxes unreadable: {err}"], None
    gt = read_boxes(gt_path)
    if pred.shape != (n_frames, 4):
        return [f"{len(pred)} boxes for {n_frames} frames"], None
    if not np.all(np.isfinite(pred)) or np.any(pred[:, 2:] <= 0):
        return ["a box is not finite or has no area"], None
    ace, aor = centre_error_and_iou(pred, gt)
    problems = []
    if not ace <= ACE_CEILING_PX:
        problems.append(f"ACE {ace:.3f} px above the {ACE_CEILING_PX} px ceiling")
    if not aor >= AOR_FLOOR:
        problems.append(f"AOR {aor:.4f} below the {AOR_FLOOR} floor")
    m = re.search(r"ACE=([-\d.eE+]+) AOR=([-\d.eE+]+)", eval_stdout)
    if m is None:
        problems.append(f"slowtrack eval printed no ACE/AOR: {eval_stdout!r}")
    elif abs(float(m[1]) - ace) > EVAL_PRINT_TOL or abs(float(m[2]) - aor) > EVAL_PRINT_TOL:
        problems.append(
            f"slowtrack eval says ACE={m[1]} AOR={m[2]}, recomputed {ace:.6f} {aor:.6f}"
        )
    return problems, (ace, aor)


def expected_schedule(n_frames: int) -> list[tuple[str, int]]:
    sched = [("init", INIT_FRAMES)] if n_frames >= INIT_FRAMES else []
    sched += [("update", f) for f in range(INIT_FRAMES + UPDATE_EVERY, n_frames + 1, UPDATE_EVERY)]
    return sched


def check_learned_log(log_path, n_frames: int) -> list[str]:
    """The adaptation schedule, and objectives that never rise."""
    events, problems = [], []
    for line in Path(log_path).read_text(encoding="utf-8").splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split()[1:] if "=" in tok)
        events.append((fields.get("kind"), int(fields.get("frames", -1))))
        if fields.get("kind") == "failed":
            problems.append(f"failed adaptation: {line}")
            continue
        for layer in ("layer1", "layer2"):
            before = float(fields.get(f"{layer}_before", "nan"))
            after = float(fields.get(f"{layer}_after", "nan"))
            if not after <= before:
                problems.append(f"{layer} objective rose {before} -> {after}: {line}")
    if events != expected_schedule(n_frames):
        problems.append(f"schedule {events} != expected {expected_schedule(n_frames)}")
    return problems


def program_encode_hier(model, patch32: np.ndarray) -> np.ndarray:
    """slowtrack's own hierarchical feature of one normalized 32x32 patch."""
    from slowtrack.hierarchy import encode_hier
    from slowtrack.patches import Patch

    return encode_hier(model, Patch(32, patch32)).combined


def check_encoder(model, params: dict, patches) -> list[str]:
    """slowtrack's encode_hier against the numpy reference on `patches`."""
    problems = []
    for k, patch in enumerate(patches):
        got = program_encode_hier(model, patch)
        want = encode_hier(params, patch)
        err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
        if not err <= 1e-9 * (1.0 + float(np.max(np.abs(want)))):
            problems.append(f"encode_hier differs from the reference on patch {k} by {err:.3g}")
    return problems


def check_pretrain(
    stdout: str, params: dict, aux_dirs, heldout_dirs, f1: int, f2: int, stride: int
) -> list[str]:
    """Objectives fall, shapes match flags, whitening whitens, layer 1 is slow."""
    problems = []
    objectives = re.findall(r"(layer[12]) objective: (\S+) -> (\S+)", stdout)
    if [o[0] for o in objectives] != ["layer1", "layer2"]:
        problems.append(f"objectives not printed for both layers: {stdout!r}")
    for layer, start, end in objectives:
        if not float(end) < float(start):
            problems.append(f"{layer} objective did not fall: {start} -> {end}")

    keep = params["projection"].shape[0]
    if params["w1"].shape != (f1, 256) or params["w2"].shape != (f2, keep):
        problems.append(f"filter shapes {params['w1'].shape}, {params['w2'].shape}")
        return problems

    concat = np.stack(
        [
            layer1_concat(params, p)
            for d in aux_dirs
            for seq in grid_sequences(d, 32, stride)
            for p in seq
        ]
    )
    white = whiten(params, concat)
    cov = white.T @ white / len(white)
    dev = float(np.max(np.abs(cov - np.eye(keep))))
    if not dev <= 0.05:
        problems.append(f"whitened layer-1 covariance is {dev:.3g} from identity")

    held = [s for d in heldout_dirs for s in grid_sequences(d, 16, 16)]
    learned = consecutive_unit_distance(params["w1"], params["eps1"], held)
    rand = consecutive_unit_distance(random_orthonormal(f1, 256, RANDOM_FILTER_SEED), params["eps1"], held)
    if not learned < rand:
        problems.append(
            f"learned layer 1 not slower than random filters: {learned:.4f} vs {rand:.4f}"
        )
    return problems
