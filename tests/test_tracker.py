import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowtrack.errors import DataError, TrackingLostError
from slowtrack.geometry import snapped_cos_sin, wrap_angle
from slowtrack.hierarchy import encode_hier
from slowtrack.patches import Frame, Patch, normalize_values
from slowtrack.synth import generate_sequence, translation_script
from slowtrack.tracker import (
    ExemplarLibrary,
    MotionModel,
    ParticleSet,
    TrackerConfig,
    TrackState,
    _perturb,
    candidate_patches,
    format_event,
    run_tracker,
    step,
)


def likelihood(lib, feature):
    """exp(-d^2 / (2 sigma^2)), d the nearest-exemplar unit-feature distance.

    The kernel `step` weights the top-k candidates by, before it rescales
    them by their maximum.
    """
    d = lib.min_distance(feature)
    return math.exp(-(d * d) / (2.0 * lib.sigma * lib.sigma))


def random_frame(w=96, h=96, seed=0):
    rng = np.random.default_rng(seed)
    return Frame(w, h, rng.random((h, w)))


def reference_candidate_patch(frame, state):
    """One candidate sampled on its own: the oracle for `candidate_patches`.

    Returns the normalized 32x32 values, or None when less than half of
    the sample grid lies inside the frame.
    """
    w = state.base_w * state.scale
    h = state.base_h * state.scale
    n = 32
    off_u = (np.arange(n) + 0.5) * w / n - w / 2.0
    off_v = (np.arange(n) + 0.5) * h / n - h / 2.0
    u, v = np.meshgrid(off_u, off_v)
    c, s = snapped_cos_sin(state.rotation)
    xs = state.cx + u * c - v * s
    ys = state.cy + u * s + v * c
    inside = (xs >= 0) & (xs < frame.width) & (ys >= 0) & (ys < frame.height)
    if inside.mean() < 0.5:
        return None
    ix = np.clip(np.floor(xs).astype(np.int64), 0, frame.width - 1)
    iy = np.clip(np.floor(ys).astype(np.int64), 0, frame.height - 1)
    return normalize_values(frame.pixels[iy, ix])


def sample_one(frame, state):
    """candidate_patches on a single TrackState: (values, accepted)."""
    row = [[state.cx, state.cy, state.scale, state.rotation]]
    values, valid = candidate_patches(frame, np.array(row), state.base_w, state.base_h)
    return values[0], bool(valid[0])


class TestWrapAngle:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-50.0, 50.0))
    def test_range_and_equivalence(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - theta, 2 * math.pi)) < 1e-9

    def test_boundary_maps_to_pi(self):
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == math.pi

    def test_snapped_trig_exact_at_quarter_turns(self):
        assert snapped_cos_sin(math.pi / 2) == (0.0, 1.0)
        assert snapped_cos_sin(math.pi) == (-1.0, 0.0)
        assert snapped_cos_sin(-math.pi / 2) == (0.0, -1.0)
        c, s = snapped_cos_sin(0.3)
        assert c == math.cos(0.3) and s == math.sin(0.3)


class TestPropagate:
    """Gaussian propagation of a particle array (`_perturb`)."""

    row = np.array([48.0, 40.0, 1.0, 0.0])

    def perturb(self, motion, n, seed):
        return _perturb(np.tile(self.row, (n, 1)), motion, np.random.default_rng(seed))

    def test_zero_noise_copies(self):
        states = self.perturb(MotionModel(0.0, 0.0, 0.0, 0.0), 5, 1)
        np.testing.assert_array_equal(states, np.tile(self.row, (5, 1)))

    def test_deterministic_given_seed(self):
        a = self.perturb(MotionModel(), 10, 42)
        b = self.perturb(MotionModel(), 10, 42)
        np.testing.assert_array_equal(a, b)

    def test_empirical_std_matches(self):
        states = self.perturb(MotionModel(std_cx=4.0), 100_000, 7)
        assert abs(states[:, 0].std() - 4.0) / 4.0 < 0.02

    def test_rotation_wrapped(self):
        states = self.perturb(MotionModel(std_rotation=10.0), 200, 3)
        assert np.all((-math.pi < states[:, 3]) & (states[:, 3] <= math.pi))

    def test_scale_floor(self):
        states = self.perturb(MotionModel(std_scale=10.0), 200, 4)
        assert states[:, 2].min() == 1e-3


class TestTrackState:
    def test_box_round_trip(self):
        st_ = TrackState.from_box((10.0, 20.0, 32.0, 48.0))
        assert st_.box() == (10.0, 20.0, 32.0, 48.0)

    def test_rotated_box_grows(self):
        st_ = TrackState(50, 50, 1.0, math.pi / 4, 32.0, 32.0)
        x, y, w, h = st_.box()
        assert w == pytest.approx(32 * math.sqrt(2))
        assert h == pytest.approx(32 * math.sqrt(2))

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            TrackState(0, 0, -1.0, 0.0, 32, 32)
        with pytest.raises(ValueError):
            TrackState(0, 0, 1.0, 4.0, 32, 32)


angles = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4]),
    st.floats(-math.pi, math.pi, exclude_min=True),
)


@st.composite
def candidate_case(draw):
    w = draw(st.integers(20, 80))
    h = draw(st.integers(20, 80))
    if draw(st.booleans()):
        frame = random_frame(w, h, seed=draw(st.integers(0, 3)))
    else:
        frame = Frame(w, h, np.full((h, w), 0.25))
    base = (draw(st.floats(2.0, 48.0)), draw(st.floats(2.0, 48.0)))
    states = [
        TrackState(
            draw(st.floats(-40.0, w + 40.0)),
            draw(st.floats(-40.0, h + 40.0)),
            draw(st.floats(0.05, 3.0)),
            draw(angles),
            *base,
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    return frame, states


class TestCandidatePatch:
    def test_identity_state_recovers_template(self):
        frame = random_frame(seed=3)
        box = (20.0, 24.0, 32.0, 32.0)
        values, accepted = sample_one(frame, TrackState.from_box(box))
        window = frame.pixels[24:56, 20:52]
        assert accepted
        np.testing.assert_array_equal(values, normalize_values(window))

    def test_uniform_frame_gives_zero_patch(self):
        frame = Frame(96, 96, np.full((96, 96), 0.5))
        values, accepted = sample_one(frame, TrackState(48.0, 48.0, 2.0, 0.0, 32.0, 32.0))
        assert accepted and not values.any()

    def test_half_turn_on_symmetric_checkerboard(self):
        # 2x2-cell blocks aligned with the window: symmetric under a half turn
        ii, jj = np.indices((96, 96))
        board = ((ii // 2) + (jj // 2)) % 2
        frame = Frame(96, 96, board.astype(float))
        a, _ = sample_one(frame, TrackState(48.0, 48.0, 1.0, 0.0, 32.0, 32.0))
        b, _ = sample_one(frame, TrackState(48.0, 48.0, 1.0, math.pi, 32.0, 32.0))
        np.testing.assert_array_equal(a, b)

    def test_outside_frame_rejected(self):
        frame = random_frame()
        values, accepted = sample_one(frame, TrackState(-30.0, 48.0, 1.0, 0.0, 32.0, 32.0))
        assert not accepted and not values.any()

    def test_mostly_inside_is_clamped_not_rejected(self):
        frame = random_frame()
        values, accepted = sample_one(frame, TrackState(10.0, 48.0, 1.0, 0.0, 32.0, 32.0))
        assert accepted and values.shape == (1024,)

    @settings(max_examples=200, deadline=None)
    @given(candidate_case())
    def test_matches_scalar_reference_bit_for_bit(self, case):
        frame, states = case
        rows = np.array([[s.cx, s.cy, s.scale, s.rotation] for s in states])
        values, valid = candidate_patches(frame, rows, states[0].base_w, states[0].base_h)
        assert values.shape == (len(states), 1024) and valid.shape == (len(states),)
        for got, ok, state in zip(values, valid, states):
            want = reference_candidate_patch(frame, state)
            assert ok == (want is not None)
            if want is None:
                assert not got.any()
            else:
                assert got.tobytes() == want.tobytes()


class TestExemplarLibrary:
    def test_stored_exemplar_has_likelihood_one(self):
        lib = ExemplarLibrary(capacity=4, sigma=0.2)
        v = np.array([1.0, 2.0, 2.0])
        lib.add(v)
        assert likelihood(lib, v) == pytest.approx(1.0)

    def test_flat_limit_large_sigma(self):
        lib = ExemplarLibrary(capacity=4, sigma=1e9)
        lib.add(np.array([1.0, 0.0]))
        assert likelihood(lib, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_unit_features(self):
        lib = ExemplarLibrary(capacity=4, sigma=1.0)
        lib.add(np.array([1.0, 0.0]))
        assert likelihood(lib, np.array([0.0, 1.0])) == pytest.approx(math.exp(-1.0))

    def test_capacity_bound(self):
        lib = ExemplarLibrary(capacity=3, sigma=0.2)
        for i in range(10):
            lib.add(np.eye(4)[i % 4])
        assert len(lib) == 3

    def test_empty_library_rejected(self):
        lib = ExemplarLibrary()
        with pytest.raises(DataError, match="empty"):
            likelihood(lib, np.ones(3))

    def test_nearest_exemplar_wins(self):
        lib = ExemplarLibrary(capacity=4, sigma=0.5)
        lib.add(np.array([1.0, 0.0]))
        lib.add(np.array([0.0, 1.0]))
        assert lib.min_distance(np.array([0.0, 2.0])) == pytest.approx(0.0)


class TestParticleSet:
    def test_weights_must_normalize(self):
        rows = np.tile([0.0, 0.0, 1.0, 0.0], (2, 1))
        with pytest.raises(ValueError):
            ParticleSet(rows, np.array([0.5, 0.2]), 8.0, 8.0)

    def test_single(self):
        s = TrackState(1.0, 2.0, 1.5, 0.25, 8.0, 6.0)
        ps = ParticleSet.single(s)
        assert ps.weights.sum() == 1.0
        assert ps.state(0) == s


class TestStep:
    def setup_case(self, model, use_lib):
        script = translation_script(3, (48.0, 48.0), (0.0, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=5)
        state = TrackState.from_box(tuple(gt.boxes[0]))
        template = Patch(32, sample_one(frames[0], state)[0])
        lib = ExemplarLibrary(capacity=4, sigma=0.2)
        if use_lib:
            lib.add(encode_hier(model, template).combined)
        return frames, state, template, lib

    def test_static_zero_noise_keeps_state(self, trained_model):
        frames, state, template, lib = self.setup_case(trained_model, use_lib=True)
        cfg = TrackerConfig(
            n_candidates=50, top_k=5, motion=MotionModel(0, 0, 0, 0), init_frames=1
        )
        rng = np.random.default_rng(0)
        res = step(frames[1], ParticleSet.single(state), template.values,
                   trained_model, lib, cfg, 1, rng)
        assert res.state == state

    def test_weights_normalized_and_sparse(self, trained_model):
        frames, state, template, lib = self.setup_case(trained_model, use_lib=True)
        cfg = TrackerConfig(n_candidates=60, top_k=5, init_frames=1)
        rng = np.random.default_rng(0)
        res = step(frames[1], ParticleSet.single(state), template.values,
                   trained_model, lib, cfg, 1, rng)
        assert abs(res.particles.weights.sum() - 1.0) < 1e-9
        assert np.count_nonzero(res.particles.weights) <= cfg.top_k

    def test_prediction_among_coarse_top_k(self, trained_model):
        frames, state, template, lib = self.setup_case(trained_model, use_lib=True)
        cfg = TrackerConfig(n_candidates=60, top_k=7, init_frames=1)
        rng = np.random.default_rng(1)
        res = step(frames[1], ParticleSet.single(state), template.values,
                   trained_model, lib, cfg, 1, rng)
        assert res.coarse_rank < cfg.top_k

    def test_sigma_does_not_change_argmax(self, trained_model):
        # the Gaussian kernel is monotone in distance for every sigma, so the
        # predicted state depends only on the ranking
        frames, state, template, lib = self.setup_case(trained_model, use_lib=True)
        states = []
        for sigma in (0.05, 0.2, 5.0):
            cfg = TrackerConfig(n_candidates=60, top_k=7, sigma=sigma, init_frames=1)
            rng = np.random.default_rng(2)
            res = step(frames[1], ParticleSet.single(state), template.values,
                       trained_model, lib, cfg, 1, rng)
            states.append(res.state)
        assert states[0] == states[1] == states[2]

    def test_all_candidates_rejected_raises(self, trained_model):
        frames, state, template, lib = self.setup_case(trained_model, use_lib=True)
        far = TrackState(-200.0, -200.0, 1.0, 0.0, 32.0, 32.0)
        cfg = TrackerConfig(
            n_candidates=20, top_k=5, motion=MotionModel(0, 0, 0, 0), init_frames=1
        )
        with pytest.raises(TrackingLostError):
            step(frames[1], ParticleSet.single(far), template.values,
                 trained_model, lib, cfg, 1, np.random.default_rng(0))


class TestRunTracker:
    def test_static_sequence_zero_noise_keeps_init_box(self, trained_model):
        script = translation_script(6, (48.0, 48.0), (0.0, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=6)
        cfg = TrackerConfig(
            n_candidates=40,
            top_k=5,
            motion=MotionModel(0, 0, 0, 0),
            init_frames=3,
            update_period=2,
            adapt_optimizer=__import__("slowtrack.optimizer", fromlist=["LbfgsConfig"]).LbfgsConfig(max_iters=3),
        )
        res = run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg)
        np.testing.assert_allclose(res.boxes, np.tile(gt.boxes[0], (6, 1)))

    def test_short_sequence_returns_model_unchanged(self, trained_model):
        script = translation_script(4, (48.0, 48.0), (0.0, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=7)
        cfg = TrackerConfig(n_candidates=30, top_k=5, init_frames=20)
        res = run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg)
        assert res.model is trained_model
        assert res.events == ()

    def test_adaptation_schedule(self, trained_model):
        script = translation_script(9, (48.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=8)
        from slowtrack.optimizer import LbfgsConfig

        cfg = TrackerConfig(
            n_candidates=30,
            top_k=5,
            init_frames=3,
            update_period=2,
            adapt_optimizer=LbfgsConfig(max_iters=2),
        )
        res = run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg)
        assert [e.frames_processed for e in res.events] == [3, 5, 7, 9]
        assert [e.kind for e in res.events] == ["init", "update", "update", "update"]

    def test_log_line_says_what_the_optimizer_did(self, trained_model):
        script = translation_script(3, (48.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=8)
        from slowtrack.optimizer import LbfgsConfig

        cfg = TrackerConfig(
            n_candidates=30, top_k=5, init_frames=3, adapt_optimizer=LbfgsConfig(max_iters=2)
        )
        (event,) = run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg).events
        line = format_event(event)
        tokens = dict(t.split("=", 1) for t in line.split()[1:])
        for st in event.layers:
            assert tokens[f"{st.layer}_iters"] == str(st.iterations) == "2"
            assert tokens[f"{st.layer}_status"] == st.status == "max_iters"
            assert int(tokens[f"{st.layer}_evals"]) == st.evals >= 3
            assert f"{st.layer}_before" in tokens and f"{st.layer}_after" in tokens

    def test_raw_only_never_adapts(self):
        script = translation_script(6, (48.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=9)
        cfg = TrackerConfig(
            n_candidates=30, top_k=5, init_frames=2, update_period=2, raw_only=True
        )
        res = run_tracker(frames, tuple(gt.boxes[0]), None, cfg)
        assert res.events == ()
        assert res.model is None
        assert len(res.boxes) == 6

    def test_rerun_determinism(self, trained_model):
        script = translation_script(8, (46.0, 48.0), (1.0, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=10)
        from slowtrack.optimizer import LbfgsConfig

        def run():
            cfg = TrackerConfig(
                n_candidates=40,
                top_k=6,
                init_frames=4,
                update_period=3,
                adapt_optimizer=LbfgsConfig(max_iters=2),
            )
            return run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg).boxes

        np.testing.assert_array_equal(run(), run())

    def test_frames_read_once_in_order(self, trained_model):
        script = translation_script(6, (48.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=13)
        read = []

        def stream():
            for k, frame in enumerate(frames):
                read.append(k)
                yield frame

        cfg = TrackerConfig(n_candidates=30, top_k=5, init_frames=20)
        lazy = run_tracker(stream(), tuple(gt.boxes[0]), trained_model, cfg)
        eager = run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg)
        assert read == list(range(6))
        np.testing.assert_array_equal(lazy.boxes, eager.boxes)

    def test_no_frames_rejected(self, trained_model):
        with pytest.raises(DataError, match="no frames"):
            run_tracker(iter(()), (0.0, 0.0, 32.0, 32.0), trained_model, TrackerConfig())

    def test_init_box_outside_frame_rejected(self, trained_model):
        script = translation_script(3, (48.0, 48.0), (0.0, 0.0))
        frames, _ = generate_sequence(script, (96, 96), seed=11)
        with pytest.raises(DataError, match="not inside"):
            run_tracker(frames, (90.0, 90.0, 32.0, 32.0), trained_model, TrackerConfig())

    @pytest.mark.parametrize("box", [(np.nan, 1.0, 30.0, 30.0), (1.0, 1.0, np.inf, 30.0)])
    def test_non_finite_init_box_rejected(self, trained_model, box):
        script = translation_script(3, (48.0, 48.0), (0.0, 0.0))
        frames, _ = generate_sequence(script, (96, 96), seed=11)
        with pytest.raises(DataError, match="not finite"):
            run_tracker(frames, box, trained_model, TrackerConfig())

    def test_library_bound_respected(self, trained_model):
        script = translation_script(12, (46.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=12)
        from slowtrack.optimizer import LbfgsConfig

        cfg = TrackerConfig(
            n_candidates=30,
            top_k=5,
            init_frames=2,
            update_period=1,
            library_capacity=3,
            adapt_optimizer=LbfgsConfig(max_iters=1),
        )
        res = run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg)
        # init at 2 then an update after every frame; the capacity-3 library
        # keeps absorbing new exemplars without error
        assert [e.frames_processed for e in res.events] == list(range(2, 13))


class TestConfigValidation:
    def test_topk_bound(self):
        with pytest.raises(ValueError, match="top_k"):
            TrackerConfig(n_candidates=10, top_k=20)

    def test_motion_stds_nonnegative(self):
        with pytest.raises(ValueError):
            MotionModel(std_cx=-1.0)

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            TrackerConfig(sigma=0.0)
