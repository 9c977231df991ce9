"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines. The
expensive artifacts (pre-trained model, the five tracking runs) are
shared module-scoped fixtures; their wall time is measured and charged
against the stated runtime budgets.
"""

import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import (
    finite_difference_gradient,
    mixed_motion_data,
    normalize_values,
    translation_data,
)
from slowtrack.encoder import LayerEncoder, encode
from slowtrack.hierarchy import (
    PretrainConfig,
    _random_orthonormal_rows,
    adapt,
    load_model,
    pretrain,
    save_model,
)
from slowtrack.metrics import BoxTrace, center_error, overlap_rate
from slowtrack.objectives import AdaptationObjective, SlownessObjective
from slowtrack.optimizer import LbfgsConfig, LbfgsHistory, minimize, two_loop_direction
from slowtrack.patches import read_boxes_csv, sample_training_set
from slowtrack.synth import (
    deformation_script,
    generate_sequence,
    rotation_script,
    translation_script,
)
from slowtrack.tracker import TrackerConfig, format_event, run_tracker
from slowtrack.whitening import apply_whitening, fit_whitening


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -------------------------------------------------------------------- 1


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(24):
        d = int(rng.integers(2, 17))
        f = 2 * int(rng.integers(1, 5))
        n_total = int(rng.integers(1, 7))
        split = int(rng.integers(0, n_total + 1)) if n_total > 1 else 0
        lengths = [n for n in (split, n_total - split) if n > 0]
        seqs = [rng.standard_normal((n, d)) for n in lengths]
        lam = float(rng.choice([1.0, 5.0]))
        base = SlownessObjective(seqs, lam, eps_sqrt=1e-6, eps_abs=1e-6)
        if trial % 2 == 0:
            obj = base
        else:
            gamma = float(rng.choice([0.0, 100.0]))
            obj = AdaptationObjective(base, gamma, 0.5 * rng.standard_normal((f, d)))
        w = 0.5 * rng.standard_normal((f, d))
        _, analytic = obj.evaluate(w)
        fd = finite_difference_gradient(lambda v: obj.evaluate(v)[0], w, h=1e-5)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 60.0,
        f"analytic vs central-difference gradients: max rel err {worst:.2e} "
        f"(< 1e-4) over 24 instances in {elapsed:.1f}s (< 60s)",
    )


# -------------------------------------------------------------------- 2


def dense_inverse_bfgs(pairs, b0_scale, dim):
    h = b0_scale * np.eye(dim)
    for s, y in pairs:
        rho = 1.0 / float(y @ s)
        v = np.eye(dim) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    return h


def test_criterion_2_two_loop_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 21))
        n_pairs = int(rng.integers(0, 6))
        hist = LbfgsHistory(5)
        pairs = []
        while len(pairs) < n_pairs:
            s = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            if s @ y > 0.1 * np.linalg.norm(s) * np.linalg.norm(y):
                pairs.append((s, y))
                hist.push(s, y)
        b0 = float(rng.uniform(0.5, 2.0))
        g = rng.standard_normal(dim)
        p = two_loop_direction(g, hist, b0)
        p_ref = -dense_inverse_bfgs(pairs, b0, dim) @ g
        worst = max(worst, float(np.max(np.abs(p - p_ref))))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 1e-10 and elapsed < 10.0,
        f"two-loop vs dense recursive inverse-BFGS: max abs diff {worst:.2e} "
        f"(< 1e-10) over 100 histories in {elapsed:.1f}s (< 10s)",
    )


# -------------------------------------------------------------------- 3


def test_criterion_3_optimizer_sanity():
    def rosenbrock(x):
        a, b = x
        value = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
        grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
        return value, grad

    res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=100, grad_tol=1e-6))
    rosen_ok = (
        res.converged
        and res.iterations <= 100
        and res.grad_norm < 1e-6
        and float(np.max(np.abs(res.w_final - 1.0))) < 1e-5
    )
    quad = minimize(
        lambda x: (0.5 * float(x @ x), x.copy()),
        np.array([4.0, -4.0]),
        LbfgsConfig(grad_tol=1e-8),
    )
    quad_ok = quad.converged and quad.iterations <= 3
    report(
        3,
        rosen_ok and quad_ok,
        f"Rosenbrock: grad inf-norm {res.grad_norm:.1e} after {res.iterations} iters, "
        f"final {res.w_final}; quadratic solved in {quad.iterations} iters (<= 3)",
    )


# -------------------------------------------------------------------- 4


def unit_feature_distance(enc, sequences):
    dists = []
    for seq in sequences:
        z = encode(enc, seq)
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        zu = np.divide(z, norms, out=np.zeros_like(z), where=norms > 1e-12)
        dists.extend(np.linalg.norm(zu[:-1] - zu[1:], axis=1).tolist())
    return float(np.mean(dists))


def test_criterion_4_slowness_improvement():
    t0 = time.perf_counter()
    frame_seqs, box_seqs = translation_data(8, 50, seed0=42)
    ts16, _ = sample_training_set(frame_seqs, box_seqs, 16, 16)
    ts32, _ = sample_training_set(frame_seqs, box_seqs, 32, 16)
    cfg = PretrainConfig(
        lam=10.0, f1=32, f2=4, optimizer=LbfgsConfig(max_iters=200, grad_tol=1e-4), seed=0
    )
    model = pretrain(ts16, ts32, cfg).model

    held_frames, held_boxes = translation_data(3, 50, seed0=777)
    held16, _ = sample_training_set(held_frames, held_boxes, 16, 16)
    trained = unit_feature_distance(model.layer1, held16)
    w_rand = _random_orthonormal_rows(cfg.f1, 256, np.random.default_rng(2024))
    random_enc = LayerEncoder(w_rand)
    rand = unit_feature_distance(random_enc, held16)
    elapsed = time.perf_counter() - t0
    report(
        4,
        trained <= 0.5 * rand and elapsed < 300.0,
        f"held-out consecutive-feature distance: trained {trained:.4f} vs random "
        f"orthonormal {rand:.4f} (ratio {trained / rand:.3f} <= 0.5) in {elapsed:.0f}s (< 5 min)",
    )


# -------------------------------------------------------------------- 5


def full_rank_object_sets(rng, n16=512, n32=160):
    seq16 = np.stack([normalize_values(rng.random((16, 16))) for _ in range(n16)])
    seq32 = np.stack([normalize_values(rng.random((32, 32))) for _ in range(n32)])
    return [seq16], [seq32]


def test_criterion_5_adaptation_contract(trained_model):
    # (a) gamma = 0 objective equals the pre-training objective exactly
    rng = np.random.default_rng(3)
    seqs = [rng.standard_normal((4, 6)) for _ in range(2)]
    w = 0.5 * rng.standard_normal((4, 6))
    base = SlownessObjective(seqs, lam=5.0, eps_sqrt=1e-6, eps_abs=1e-6)
    adp = AdaptationObjective(base, 0.0, rng.standard_normal((4, 6)))
    (value_base, grad_base), (value_adp, grad_adp) = base.evaluate(w), adp.evaluate(w)
    gamma0_ok = (
        abs(value_base - value_adp) <= 1e-12
        and float(np.max(np.abs(grad_base - grad_adp))) <= 1e-12
    )

    # (b, c) pinning and monotone gamma on a fixed full-rank toy problem
    obj16, obj32 = full_rank_object_sets(np.random.default_rng(11))
    changes = {}
    for gamma in (0.0, 10.0, 100.0, 1000.0, 1e6):
        res = adapt(
            trained_model,
            obj16,
            obj32,
            lam=5.0,
            gamma=gamma,
            optimizer_cfg=LbfgsConfig(max_iters=50, grad_tol=1e-5),
        )
        changes[gamma] = [st.relative_change for st in res.layers]
    pin_ok = all(rel < 1e-2 for rel in changes[1e6])
    sweep = [max(changes[g]) for g in (0.0, 10.0, 100.0, 1000.0)]
    monotone_ok = all(b <= a * 1.05 for a, b in zip(sweep, sweep[1:]))
    report(
        5,
        gamma0_ok and pin_ok and monotone_ok,
        "gamma=0 matches slowness objective to 1e-12; gamma=1e6 per-layer rel change "
        f"{[f'{v:.1e}' for v in changes[1e6]]} (< 1e-2); max rel change over gamma "
        f"{{0,10,100,1000}} = {[f'{v:.3f}' for v in sweep]} non-increasing within 5%",
    )


# -------------------------------------------------------------------- 6


def test_criterion_6_whitening():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 6)) * np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
    eps = 1e-5
    w = fit_whitening(x, d=6, eps_reg=eps)
    u = apply_whitening(w, x)
    um = u.mean(axis=0)
    cov = (u.T @ u) / len(u) - np.outer(um, um)
    off = cov - np.diag(np.diag(cov))
    xc = x - x.mean(axis=0)
    evals = np.linalg.eigvalsh((xc.T @ xc) / len(x))[::-1]
    diag_err = float(np.max(np.abs(np.diag(cov) - evals / (evals + eps))))
    off_max = float(np.max(np.abs(off)))
    report(
        6,
        off_max < 1e-6 and diag_err < 1e-6,
        f"whitened covariance: max |off-diagonal| {off_max:.1e} (< 1e-6), "
        f"max |diag - eig/(eig+eps)| {diag_err:.1e} (< 1e-6)",
    )


# -------------------------------------------------------------------- 7


def test_criterion_7_metrics():
    a = BoxTrace(np.array([[0.0, 0.0, 2.0, 2.0], [5.0, 5.0, 3.0, 3.0]]))
    _, ace_same = center_error(a, a)
    _, aor_same = overlap_rate(a, a)
    third = overlap_rate(
        BoxTrace(np.array([[0.0, 0.0, 2.0, 2.0]])),
        BoxTrace(np.array([[1.0, 0.0, 2.0, 2.0]])),
    )[1]
    shifted = BoxTrace(a.boxes + np.array([3.0, 4.0, 0.0, 0.0]))
    _, ace_five = center_error(shifted, a)
    ok = (
        ace_same == 0.0
        and aor_same == 1.0
        and abs(third - 1.0 / 3.0) <= 1e-12
        and ace_five == 5.0
    )
    report(
        7,
        ok,
        f"identical traces ACE={ace_same} AOR={aor_same}; shifted-rectangle AOR={third:.12f} "
        f"(1/3 +- 1e-12); (3,4) offset ACE={ace_five} (exactly 5.0)",
    )


# -------------------------------------------------------------------- 8 / 10


@dataclass
class TrackCase:
    ace: float
    aor: float
    events: tuple
    boxes: np.ndarray


@pytest.fixture(scope="module")
def tracking_runs():
    t0 = time.perf_counter()
    frame_seqs, box_seqs = mixed_motion_data()
    ts16, _ = sample_training_set(frame_seqs, box_seqs, 16, 16)
    ts32, _ = sample_training_set(frame_seqs, box_seqs, 32, 16)
    model = pretrain(
        ts16,
        ts32,
        PretrainConfig(
            lam=5.0, f1=32, f2=64, optimizer=LbfgsConfig(max_iters=100, grad_tol=1e-4), seed=0
        ),
    ).model

    scripts = {
        "translation": (translation_script(100, (160.0 - 99.0, 120.0), (2.0, 0.0)), 21),
        "rotation": (rotation_script(100, (160.0, 120.0), np.deg2rad(1.5)), 22),
        "shear": (deformation_script(100, (160.0, 120.0), 4.0, time_period=25.0), 23),
    }
    runs = {}
    for name, (script, seed) in scripts.items():
        frames, gt = generate_sequence(script, (320, 240), seed=seed)
        for raw in (False, True):
            cfg = TrackerConfig(seed=7, raw_only=raw)
            res = run_tracker(frames, tuple(gt.boxes[0]), None if raw else model, cfg)
            pred = BoxTrace(res.boxes)
            _, ace = center_error(pred, gt)
            _, aor = overlap_rate(pred, gt)
            runs[(name, raw)] = TrackCase(ace, aor, res.events, res.boxes)
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_8_end_to_end_tracking(tracking_runs):
    runs, elapsed = tracking_runs
    rot_l, rot_r = runs[("rotation", False)], runs[("rotation", True)]
    sh_l, sh_r = runs[("shear", False)], runs[("shear", True)]
    tr_l = runs[("translation", False)]
    ok = (
        rot_l.ace <= rot_r.ace
        and sh_l.ace <= sh_r.ace
        and rot_l.aor >= 0.5
        and sh_l.aor >= 0.5
        and tr_l.ace <= 3.0
        and elapsed < 600.0
    )
    report(
        8,
        ok,
        f"rotation ACE learned {rot_l.ace:.2f} <= raw {rot_r.ace:.2f}, AOR {rot_l.aor:.3f} >= 0.5; "
        f"shear ACE learned {sh_l.ace:.2f} <= raw {sh_r.ace:.2f}, AOR {sh_l.aor:.3f} >= 0.5; "
        f"translation ACE {tr_l.ace:.2f} <= 3 px; total {elapsed:.0f}s (< 10 min)",
    )


def test_criterion_10_adaptation_schedule(tracking_runs):
    runs, _ = tracking_runs
    events = runs[("rotation", False)].events
    # parse the exact diagnostics-log content the CLI would write
    log_lines = [format_event(e) for e in events]
    frames_seen, kinds, decrease_ok = [], [], True
    for line in log_lines:
        tokens = dict(t.split("=", 1) for t in line.split()[1:])
        frames_seen.append(int(tokens["frames"]))
        kinds.append(tokens["kind"])
        for layer in ("layer1", "layer2"):
            before = float(tokens[f"{layer}_before"])
            after = float(tokens[f"{layer}_after"])
            decrease_ok = decrease_ok and after <= before
    ok = (
        frames_seen == [20, 40, 60, 80, 100]
        and kinds == ["init", "update", "update", "update", "update"]
        and decrease_ok
    )
    report(
        10,
        ok,
        f"diagnostics log has adaptation events at frames {frames_seen} (init + 4 "
        f"updates with M=20 over 100 frames); objective-after <= objective-before "
        f"in every logged layer: {decrease_ok}",
    )


# -------------------------------------------------------------------- 9


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "slowtrack", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def test_criterion_9_determinism_and_serialization(tmp_path, trained_model):
    checks = []

    def synth_dir(name, seed=13):
        out = tmp_path / name
        res = run_cli(
            "synth", "--pattern", "deformation", "--frames", 24, "--out", out,
            "--seed", seed, "--size", "140x120", "--target-side", "48",
        )
        assert res.returncode == 0, res.stderr
        return out

    d1, d2 = synth_dir("s1"), synth_dir("s2")
    synth_same = all(
        (d1 / p.name).read_bytes() == (d2 / p.name).read_bytes()
        for p in d1.iterdir()
    )
    checks.append(("synth", synth_same))

    for name in ("m1.hftm", "m2.hftm"):
        res = run_cli(
            "pretrain", "--data", d1, "--out", tmp_path / name,
            "--f1", 8, "--f2", 4, "--max-iters", 10, "--seed", 2,
        )
        assert res.returncode == 0, res.stderr
    checks.append(
        ("pretrain", (tmp_path / "m1.hftm").read_bytes() == (tmp_path / "m2.hftm").read_bytes())
    )

    box = ",".join(str(v) for v in read_boxes_csv(d1 / "gt.csv")[0])
    for name in ("a1.hftm", "a2.hftm"):
        res = run_cli(
            "adapt", "--model", tmp_path / "m1.hftm", "--frames", d1,
            "--init-box", box, "--gamma", 100, "--out", tmp_path / name,
            "--init-frames", 10, "--max-iters", 5,
        )
        assert res.returncode == 0, res.stderr
    checks.append(
        ("adapt", (tmp_path / "a1.hftm").read_bytes() == (tmp_path / "a2.hftm").read_bytes())
    )

    outs = {}
    for tag in ("t1", "t2"):
        res = run_cli(
            "track", "--model", tmp_path / "m1.hftm", "--frames", d1,
            "--init-box", box, "--out", tmp_path / f"{tag}.csv",
            "--particles", 80, "--topk", 8, "--init-frames", 8,
            "--update-every", 8, "--seed", 3,
        )
        assert res.returncode == 0, res.stderr
        outs[tag] = (tmp_path / f"{tag}.csv").read_bytes()
    checks.append(("track rerun", outs["t1"] == outs["t2"]))

    evals = [
        run_cli("eval", "--pred", d1 / "gt.csv", "--gt", d1 / "gt.csv").stdout
        for _ in range(2)
    ]
    checks.append(("eval", evals[0] == evals[1]))

    p1, p2 = tmp_path / "rt1.hftm", tmp_path / "rt2.hftm"
    save_model(trained_model, p1)
    save_model(load_model(p1), p2)
    checks.append(("save-load-save", p1.read_bytes() == p2.read_bytes()))

    ok = all(flag for _, flag in checks)
    report(
        9,
        ok,
        "byte-identical reruns: " + ", ".join(f"{n}={'ok' if f else 'FAIL'}" for n, f in checks),
    )
