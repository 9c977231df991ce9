import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import normalize_values
from slowtrack.errors import DataError, OptimizationError, TrackingLostError
from slowtrack.geometry import snapped_cos_sin, wrap_angle
from slowtrack.hierarchy import ADAPT_OPTIMIZER, hier_features
from slowtrack.optimizer import LbfgsConfig
from slowtrack.patches import normalize_rows
from slowtrack import tracker
from slowtrack.synth import generate_sequence, translation_script
from slowtrack.tracker import (
    COARSE_SIDE,
    ExemplarLibrary,
    MotionModel,
    TrackerConfig,
    _perturb,
    boxes_of,
    candidate_patches,
    coarse_distances,
    fine_distances,
    format_event,
    propose,
    run_tracker,
    step,
)


def likelihood(lib, feature, sigma):
    """exp(-d^2 / (2 sigma^2)), d the nearest-exemplar unit-feature distance.

    The kernel `step` weights the top-k candidates by, before it rescales
    them by their maximum.
    """
    d = lib.min_distance(feature)[0]
    return math.exp(-(d * d) / (2.0 * sigma * sigma))


def reference_snapped_cos_sin(theta):
    """`math.cos`/`math.sin` of one angle, snapped within 1e-12 of {-1, 0, 1}."""
    c, s = math.cos(theta), math.sin(theta)
    for target in (-1.0, 0.0, 1.0):
        if abs(c - target) < 1e-12:
            c = target
        if abs(s - target) < 1e-12:
            s = target
    return c, s


def unit(v):
    n = np.linalg.norm(v)
    return v / n if n > 1e-12 else v.copy()


def reference_coarse_distances(raw, valid, template):
    """One row at a time: the oracle for `coarse_distances`.

    Each valid row is normalized, scaled to unit length and compared with
    the unit template; rejected rows are at inf.
    """
    values = normalize_rows(raw)
    t_unit = unit(np.asarray(template, dtype=np.float64).ravel())
    dist = np.full(len(raw), np.inf)
    for i in np.flatnonzero(valid):
        dist[i] = np.linalg.norm(unit(values[i]) - t_unit)
    return dist


def reference_min_distances(features, exemplars):
    """One feature row at a time: the oracle for `ExemplarLibrary.min_distance`.

    Each row is scaled to unit length and compared with each unit
    exemplar; rows of norm up to 1e-12 are kept as they are.
    """
    units = [unit(np.asarray(e, dtype=np.float64)) for e in exemplars]
    return np.array([min(np.linalg.norm(unit(f) - e) for e in units) for f in features])


def random_frame(w=96, h=96, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((h, w))


def reference_candidate_patch(frame, row, base_w, base_h):
    """One candidate sampled on its own: the oracle for `candidate_patches`.

    `row` is (cx, cy, scale, rotation). Returns the raw 32x32 samples
    (clamped to the border) and whether at least half of the sample grid
    lies inside the frame.
    """
    cx, cy, scale, rotation = row
    w = base_w * scale
    h = base_h * scale
    n = 32
    off_u = (np.arange(n) + 0.5) * w / n - w / 2.0
    off_v = (np.arange(n) + 0.5) * h / n - h / 2.0
    u, v = np.meshgrid(off_u, off_v)
    c, s = reference_snapped_cos_sin(rotation)
    xs = cx + u * c - v * s
    ys = cy + u * s + v * c
    height, width = frame.shape
    inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    ix = np.clip(np.floor(xs).astype(np.int64), 0, width - 1)
    iy = np.clip(np.floor(ys).astype(np.int64), 0, height - 1)
    return frame[iy, ix].ravel(), inside.mean() >= 0.5


@np.errstate(over="ignore", invalid="ignore")
def reference_candidate_patches(frame, states, base_w, base_h):
    """The sampler of broadcast grid sums: the bit-for-bit oracle for `candidate_patches`.

    Builds each 16-row block's terms from (16, 1) slices, and its sample
    coordinates as broadcast sums of them; `candidate_patches` builds the
    terms once and the sums as K=2 products, which round once, as a sum does.
    """
    states = np.asarray(states, dtype=np.float64).reshape(-1, 4)
    height, width = frame.shape
    n, block = 32, tracker._BLOCK
    raw = np.empty((len(states), n * n))
    valid = np.empty(len(states), dtype=bool)
    cos, sin = snapped_cos_sin(states[:, 3:4])
    w, h = base_w * states[:, 2:3], base_h * states[:, 2:3]
    grid = np.arange(n) + 0.5

    def terms(rows, at):
        off_u = at * w[rows] / n - w[rows] / 2.0
        off_v = at * h[rows] / n - h[rows] / 2.0
        c, s = cos[rows], sin[rows]
        return states[rows, 0:1] + off_u * c, off_v * s, states[rows, 1:2] + off_u * s, off_v * c

    xa, xb, ya, yb = terms(slice(None), grid[[0, -1]])
    lo_x, hi_x = xa.min(axis=1) - xb.max(axis=1), xa.max(axis=1) - xb.min(axis=1)
    lo_y, hi_y = ya.min(axis=1) + yb.min(axis=1), ya.max(axis=1) + yb.max(axis=1)
    inside_all = (lo_x >= 0) & (hi_x < width) & (lo_y >= 0) & (hi_y < height)
    for lo in range(0, len(states), block):
        rows = slice(lo, lo + block)
        xa, xb, ya, yb = terms(rows, grid)
        xs = np.floor(xa[:, None, :] - xb[:, :, None])
        ys = np.floor(ya[:, None, :] + yb[:, :, None])
        if inside_all[rows].all():
            valid[rows] = True
        else:
            inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
            valid[rows] = np.count_nonzero(inside, axis=(1, 2)) >= 0.5 * n * n
            xs = np.fmin(np.fmax(xs, 0), width - 1)
            ys = np.fmin(np.fmax(ys, 0), height - 1)
        index = (ys * width + xs).reshape(len(xs), n * n).astype(np.intp)
        frame.take(index, out=raw[rows], mode="clip")
    return raw, valid


@np.errstate(over="ignore", invalid="ignore")
def reference_coarse_candidate_patches(frame, states, base_w, base_h):
    """The 16x16 grid's broadcast sampler: the bit-for-bit oracle for `candidate_patches(grid=16)`.

    Takes every candidate's sample coordinates at once, as broadcast sums of
    its column and row terms, then counts and clamps every row, with no
    blocks and no shortcut for boxes inside the frame.
    """
    states = np.asarray(states, dtype=np.float64).reshape(-1, 4)
    height, width = frame.shape
    n = 16
    cos, sin = snapped_cos_sin(states[:, 3:4])
    w, h = base_w * states[:, 2:3], base_h * states[:, 2:3]
    at = np.arange(n) + 0.5
    off_u = at * w / n - w / 2.0
    off_v = at * h / n - h / 2.0
    xs = np.floor((states[:, 0:1] + off_u * cos)[:, None, :] - (off_v * sin)[:, :, None])
    ys = np.floor((states[:, 1:2] + off_u * sin)[:, None, :] + (off_v * cos)[:, :, None])
    inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    valid = np.count_nonzero(inside, axis=(1, 2)) >= 0.5 * n * n
    xs = np.fmin(np.fmax(xs, 0), width - 1)
    ys = np.fmin(np.fmax(ys, 0), height - 1)
    index = (ys * width + xs).reshape(len(states), n * n).astype(np.intp)
    return frame.take(index, mode="clip"), valid


def sample_one(frame, row, base=(32.0, 32.0)):
    """candidate_patches on a single state row: (normalized values, accepted)."""
    raw, valid = candidate_patches(frame, np.array([row], dtype=float), *base)
    return normalize_rows(raw)[0], bool(valid[0])


def record_samples(monkeypatch):
    """(grid, candidate count) of every `candidate_patches` call the tracker makes, in order."""
    calls, real = [], tracker.candidate_patches

    def recording(frame, states, base_w, base_h, out=None, grid=tracker.CANDIDATE_SIDE):
        calls.append((grid, len(np.reshape(states, (-1, 4)))))
        return real(frame, states, base_w, base_h, out, grid)

    monkeypatch.setattr(tracker, "candidate_patches", recording)
    return calls


def row_of_box(box):
    """The state row of an axis-aligned (x, y, w, h) box over itself."""
    x, y, w, h = box
    return [x + w / 2.0, y + h / 2.0, 1.0, 0.0]


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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50.0, 50.0), max_size=64))
    def test_array_form_matches_scalar_math_form(self, random_angles):
        quarter_turns = [k * math.pi / 2 for k in range(-4, 5)]
        theta = np.array([math.pi, -math.pi / 2, math.pi / 2, *quarter_turns, *random_angles])
        c, s = snapped_cos_sin(theta)
        want = np.array([reference_snapped_cos_sin(t) for t in theta]).reshape(-1, 2)
        assert c.tobytes() == want[:, 0].tobytes()
        assert s.tobytes() == want[:, 1].tobytes()


class TestPropagate:
    """Gaussian propagation of a particle array (`_perturb`)."""

    row = np.array([48.0, 40.0, 1.0, 0.0])

    def perturb(self, motion, n, seed):
        return _perturb(np.tile(self.row, (n, 1)), motion, np.random.default_rng(seed))

    def test_zero_noise_copies(self):
        states = self.perturb(MotionModel(0.0, 0.0, 0.0), 5, 1)
        np.testing.assert_array_equal(states, np.tile(self.row, (5, 1)))

    def test_deterministic_given_seed(self):
        a = self.perturb(MotionModel(), 10, 42)
        b = self.perturb(MotionModel(), 10, 42)
        np.testing.assert_array_equal(a, b)

    def test_empirical_std_matches(self):
        states = self.perturb(MotionModel(std_xy=4.0), 100_000, 7)
        assert abs(states[:, 0].std() - 4.0) / 4.0 < 0.02

    def test_rotation_wrapped(self):
        states = self.perturb(MotionModel(std_rotation=10.0), 200, 3)
        assert np.all((-math.pi < states[:, 3]) & (states[:, 3] <= math.pi))

    def test_scale_floor(self):
        states = self.perturb(MotionModel(std_scale=10.0), 200, 4)
        assert states[:, 2].min() == 1e-3


class TestTrackState:
    """A state row and its axis-aligned box (`boxes_of`)."""

    def test_box_round_trip(self):
        rows = np.array([row_of_box((10.0, 20.0, 32.0, 48.0))])
        assert tuple(boxes_of(rows, 32.0, 48.0)[0]) == (10.0, 20.0, 32.0, 48.0)

    def test_rotated_box_grows(self):
        x, y, w, h = boxes_of(np.array([[50.0, 50.0, 1.0, math.pi / 4]]), 32.0, 32.0)[0]
        assert w == pytest.approx(32 * math.sqrt(2))
        assert h == pytest.approx(32 * math.sqrt(2))


angles = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4]),
    st.floats(-math.pi, math.pi, exclude_min=True),
)


QUARTER_TURNS = [0.0, math.pi / 2, math.pi, -math.pi / 2]


def block_rows(draw, w, h, base, outside):
    """16, 17 or 601 rows whose sample grids lie inside a w x h frame.

    With `outside`, one row's box is moved across a random edge of the
    frame, so its block mixes inside rows with one that is not.
    """
    count = draw(st.sampled_from([16, 17, 601]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = np.where(rng.random(count) < 0.3, rng.choice(QUARTER_TURNS, count),
                     rng.uniform(-math.pi, math.pi, count))
    scale = rng.uniform(0.05, 1.3, count)
    c, s = np.abs(np.cos(theta)), np.abs(np.sin(theta))
    # half the rotated box's extent, plus a pixel
    ext_x = 0.5 * scale * (base[0] * c + base[1] * s) + 1.0
    ext_y = 0.5 * scale * (base[0] * s + base[1] * c) + 1.0
    rows = np.column_stack(
        [rng.uniform(ext_x, w - ext_x), rng.uniform(ext_y, h - ext_y), scale, theta]
    )
    if outside:
        i, axis = rng.integers(count), rng.integers(2)
        extent = (ext_x, ext_y)[axis][i]
        rows[i, axis] = rng.choice([0, (w, h)[axis]]) + rng.uniform(-extent, extent)
    return rows


@st.composite
def candidate_case(draw):
    layout = draw(st.sampled_from(["any", "inside", "mixed"]))
    if layout != "any":
        # every block inside a frame of at least 96 px, or one mixed block
        w = draw(st.integers(96, 160))
        h = draw(st.integers(96, 160))
        frame = random_frame(w, h, seed=draw(st.integers(0, 3)))
        base = (draw(st.floats(2.0, 48.0)), draw(st.floats(2.0, 48.0)))
        return frame, block_rows(draw, w, h, base, layout == "mixed"), base
    w = draw(st.integers(20, 80))
    h = draw(st.integers(20, 80))
    if draw(st.booleans()):
        frame = random_frame(w, h, seed=draw(st.integers(0, 3)))
    else:
        frame = np.full((h, w), 0.25)
    base = (draw(st.floats(2.0, 48.0)), draw(st.floats(2.0, 48.0)))
    # a few rows, or counts around the sampler's 16-row block edge and one
    # (601) that ends in a partial block
    count = draw(st.one_of(st.integers(1, 6), st.sampled_from([1, 15, 16, 17, 601])))
    if count <= 6:
        rows = [
            (
                draw(st.floats(-40.0, w + 40.0)),
                draw(st.floats(-40.0, h + 40.0)),
                draw(st.floats(0.05, 3.0)),
                draw(angles),
            )
            for _ in range(count)
        ]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        quarter_turns = rng.choice(QUARTER_TURNS, count)
        rows = np.column_stack([
            rng.uniform(-40.0, w + 40.0, count),
            rng.uniform(-40.0, h + 40.0, count),
            rng.uniform(0.05, 3.0, count),
            np.where(rng.random(count) < 0.3, quarter_turns, rng.uniform(-math.pi, math.pi, count)),
        ])
    return frame, np.array(rows), base


class TestCandidatePatch:
    def test_identity_state_recovers_template(self):
        frame = random_frame(seed=3)
        box = (20.0, 24.0, 32.0, 32.0)
        values, accepted = sample_one(frame, row_of_box(box))
        window = frame[24:56, 20:52]
        assert accepted
        np.testing.assert_array_equal(values, normalize_values(window))

    def test_uniform_frame_gives_zero_patch(self):
        frame = np.full((96, 96), 0.5)
        values, accepted = sample_one(frame, (48.0, 48.0, 2.0, 0.0))
        assert accepted and not values.any()

    def test_half_turn_on_symmetric_checkerboard(self):
        # 2x2-cell blocks aligned with the window: symmetric under a half turn
        ii, jj = np.indices((96, 96))
        board = ((ii // 2) + (jj // 2)) % 2
        frame = board.astype(float)
        a, _ = sample_one(frame, (48.0, 48.0, 1.0, 0.0))
        b, _ = sample_one(frame, (48.0, 48.0, 1.0, math.pi))
        np.testing.assert_array_equal(a, b)

    def test_outside_frame_rejected(self):
        frame = random_frame()
        _, accepted = sample_one(frame, (-30.0, 48.0, 1.0, 0.0))
        assert not accepted

    def test_mostly_inside_is_clamped_not_rejected(self):
        frame = random_frame()
        values, accepted = sample_one(frame, (10.0, 48.0, 1.0, 0.0))
        assert accepted and values.shape == (1024,)

    @settings(max_examples=200, deadline=None)
    @given(candidate_case())
    def test_matches_scalar_reference_bit_for_bit(self, case):
        frame, rows, base = case
        raw, valid = candidate_patches(frame, rows, *base)
        assert raw.shape == (len(rows), 1024) and valid.shape == (len(rows),)
        for got, ok, row in zip(raw, valid, rows):
            want, want_ok = reference_candidate_patch(frame, row, *base)
            assert ok == want_ok
            assert got.tobytes() == want.tobytes()
        # a reused buffer holds the last call's rows: every one is overwritten
        stale = np.full_like(raw, np.nan)
        stale[::2] = -1.0
        out, out_valid = candidate_patches(frame, rows, *base, out=stale)
        assert out is stale
        assert out.tobytes() == raw.tobytes() and np.array_equal(out_valid, valid)


    @pytest.mark.parametrize("seed", range(24))
    def test_matches_broadcast_sampler_bit_for_bit(self, seed):
        # 600 candidates: a tight cluster (whole blocks inside the frame)
        # then positions up to 60 px off every edge (border-crossing and
        # outside blocks), log-normal scales, quarter turns on every fourth
        # trial and non-finite rows on every third
        rng = np.random.default_rng(seed)
        w, h = rng.integers(40, 330), rng.integers(40, 250)
        frame = rng.random((h, w))
        count, half = 600, 300
        xy = np.column_stack([
            np.r_[rng.normal(w / 2, 4.0, half), rng.uniform(-60.0, w + 60.0, count - half)],
            np.r_[rng.normal(h / 2, 4.0, half), rng.uniform(-60.0, h + 60.0, count - half)],
        ])
        theta = (rng.choice(QUARTER_TURNS, count) if seed % 4 == 0
                 else rng.uniform(-math.pi, math.pi, count))
        rows = np.column_stack([xy, rng.lognormal(-0.5, 0.5, count), theta])
        if seed % 3 == 0:
            at = rng.integers(count, size=(6, 2)) % [count, 4]
            rows[at[:, 0], at[:, 1]] = [np.nan, np.inf, -np.inf, 1e308, -1e308, np.nan]
        base = (rng.uniform(2.0, 48.0), rng.uniform(2.0, 48.0))
        got = candidate_patches(frame, rows, *base)
        want = reference_candidate_patches(frame, rows, *base)
        for g, r in zip(got, want):
            assert g.tobytes() == r.tobytes()


    @pytest.mark.parametrize("seed", range(24))
    def test_coarse_grid_matches_broadcast_sampler_bit_for_bit(self, seed):
        # 600 candidates on the 16x16 grid, in 64-row blocks: five blocks of
        # a tight cluster, where the rows at the first four blocks' edges
        # (63, 64, 191, 192) are moved across the frame's border and the
        # fifth block lies wholly inside; then positions up to 60 px off
        # every edge (border-crossing and outside blocks), log-normal
        # scales, quarter turns on every fourth trial and non-finite rows
        # on every third
        rng = np.random.default_rng(1000 + seed)
        w, h = rng.integers(120, 330), rng.integers(100, 250)
        frame = rng.random((h, w))
        count, cluster = 600, 320
        xy = np.column_stack([
            np.r_[rng.normal(w / 2, 4.0, cluster), rng.uniform(-60.0, w + 60.0, count - cluster)],
            np.r_[rng.normal(h / 2, 4.0, cluster), rng.uniform(-60.0, h + 60.0, count - cluster)],
        ])
        theta = (rng.choice(QUARTER_TURNS, count) if seed % 4 == 0
                 else rng.uniform(-math.pi, math.pi, count))
        scale = np.r_[rng.lognormal(-0.5, 0.25, cluster), rng.lognormal(-0.5, 0.5, count - cluster)]
        base = (rng.uniform(2.0, 32.0), rng.uniform(2.0, 32.0))
        # a centre within 0.4 of the smaller half side of an edge puts the box across it
        edges = [63, 64, 191, 192]
        reach = 0.4 * scale[edges] * min(base)
        xy[edges, 0] = rng.choice([0, w], len(edges)) + rng.uniform(-reach, reach)
        rows = np.column_stack([xy, scale, theta])
        if seed % 3 == 0:
            at = rng.integers(count - cluster, size=(6, 2)) % [count - cluster, 4] + [cluster, 0]
            rows[at[:, 0], at[:, 1]] = [np.nan, np.inf, -np.inf, 1e308, -1e308, np.nan]
        # the layout holds: a whole block inside, and a border-crossing box
        # in each of the four blocks around the moved edge rows
        x, y, bw, bh = boxes_of(rows[:cluster], *base).T
        inside = (x >= 0) & (y >= 0) & (x + bw <= w) & (y + bh <= h)
        assert inside[256:320].all() and not inside[edges].any()
        got = candidate_patches(frame, rows, *base, grid=COARSE_SIDE)
        want = reference_coarse_candidate_patches(frame, rows, *base)
        assert got[0].shape == (count, 256)
        assert want[1].any() and not want[1].all()
        for g, r in zip(got, want):
            assert g.tobytes() == r.tobytes()


class TestWeigh:
    @pytest.mark.parametrize("sigma", [1e-300, 1e-160])
    def test_tiny_sigma_gives_the_nearest_limit(self, sigma):
        # 2σ² underflows: weight 1 on the nearest candidates, 0 elsewhere
        w = tracker.weigh(np.array([0.3, 0.1, 0.2, 0.1]), sigma)
        np.testing.assert_array_equal(w, [0.0, 1.0, 0.0, 1.0])


class TestExemplarLibrary:
    def test_stored_exemplar_has_likelihood_one(self):
        lib = ExemplarLibrary()
        v = np.array([1.0, 2.0, 2.0])
        lib.add(v)
        assert likelihood(lib, v, 0.2) == pytest.approx(1.0)

    def test_flat_limit_large_sigma(self):
        lib = ExemplarLibrary()
        lib.add(np.array([1.0, 0.0]))
        assert likelihood(lib, np.array([0.0, 1.0]), 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_unit_features(self):
        lib = ExemplarLibrary()
        lib.add(np.array([1.0, 0.0]))
        assert likelihood(lib, np.array([0.0, 1.0]), 1.0) == pytest.approx(math.exp(-1.0))

    def test_capacity_bound(self):
        lib = ExemplarLibrary()
        for i in range(15):
            lib.add(np.eye(4)[i % 4])
        assert len(lib) == lib.capacity == 10
        lib.add(np.tile(np.eye(4), (3, 1)))  # more rows at once than the capacity
        assert len(lib) == 10

    @pytest.mark.parametrize("one_at_a_time", [True, False])
    def test_recency_order(self, one_at_a_time):
        # the newest ten of e0..e11 stay, whether added one by one or at once
        lib = ExemplarLibrary()
        if one_at_a_time:
            for row in np.eye(12):
                lib.add(row)
        else:
            lib.add(np.eye(12))
        assert lib.min_distance(np.eye(12)).tolist() == [math.sqrt(2)] * 2 + [0.0] * 10

    def test_empty_library_rejected(self):
        lib = ExemplarLibrary()
        with pytest.raises(DataError, match="empty"):
            likelihood(lib, np.ones(3), 0.2)

    def test_nearest_exemplar_wins(self):
        lib = ExemplarLibrary()
        lib.add(np.array([1.0, 0.0]))
        lib.add(np.array([0.0, 1.0]))
        assert lib.min_distance(np.array([[0.0, 2.0]]))[0] == pytest.approx(0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 40),
        n_exemplars=st.integers(1, 14),
        n_features=st.integers(1, 20),
        edits=st.lists(st.tuples(st.integers(0, 19), st.booleans()), max_size=2),
    )
    # two copies of the exemplar tie exactly in the reference, but not in
    # the batched round-off, which depends on the row's position
    @example(seed=345, dim=20, n_exemplars=1, n_features=5, edits=[(0, False), (4, False)])
    def test_matches_per_row_reference(self, seed, dim, n_exemplars, n_features, edits):
        rng = np.random.default_rng(seed)
        exemplars = rng.standard_normal((n_exemplars, dim))
        features = rng.standard_normal((n_features, dim))
        # zero rows are kept as they are; copies of an exemplar sit at 0
        for i, zero in edits:
            features[i % n_features] = 0.0 if zero else 3.0 * exemplars[-1]
        lib = ExemplarLibrary()
        for e in exemplars:
            lib.add(e)
        got = lib.min_distance(features)
        want = reference_min_distances(features, exemplars[-10:])
        np.testing.assert_allclose(got**2, want**2, rtol=0, atol=1e-12)
        # the row picked is a nearest one, up to the same tolerance
        assert want[np.argmin(got)] ** 2 <= want.min() ** 2 + 1e-12

    def test_fine_distances_match_per_row_reference(self, trained_model):
        frame = random_frame(seed=4)
        rows = np.array([[48.0, 48.0, 1.0, 0.0], [40.0, 50.0, 0.9, 0.3], [52.0, 44.0, 1.1, -0.2]])
        x32 = normalize_rows(candidate_patches(frame, rows, 32.0, 32.0)[0])
        features = hier_features(trained_model, x32)
        lib = ExemplarLibrary()
        lib.add(features[:1])
        lib.add(features[1:2] + 0.1)
        got = fine_distances(trained_model, lib, x32)
        want = reference_min_distances(features, [features[0], features[1] + 0.1])
        np.testing.assert_allclose(got**2, want**2, rtol=0, atol=1e-12)
        assert np.argmin(got) == np.argmin(want) == 0


class TestParticleSet:
    """Plain (N, 4) states with (N,) weights, as `propose` takes them."""

    def test_single(self):
        row = np.array([[1.0, 2.0, 1.5, 0.25]])
        states = propose(row, np.ones(1), MotionModel(0, 0, 0), 5, np.random.default_rng(0))
        np.testing.assert_array_equal(states, np.tile(row, (5, 1)))

    def test_resampling_follows_the_weights(self):
        rows = np.array([[1.0, 0.0, 1.0, 0.0], [2.0, 0.0, 1.0, 0.0], [3.0, 0.0, 1.0, 0.0]])
        states = propose(rows, np.array([0.0, 1.0, 0.0]), MotionModel(0, 0, 0), 4,
                         np.random.default_rng(0))
        np.testing.assert_array_equal(states[:, 0], [2.0, 2.0, 2.0, 2.0])


class TestStep:
    base = (32.0, 32.0)

    def setup_case(self, model, use_lib):
        """Frames, the first box's state row, its normalized 16x16 row, a library.

        With `use_lib` the library holds the features of the first box's
        normalized 32x32 patch; without, it is empty, as in a raw-pixel track.
        """
        script = translation_script(3, (48.0, 48.0), (0.0, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=5)
        row = np.array([row_of_box(gt.boxes[0])])
        lib = ExemplarLibrary()
        if use_lib:
            lib.add(hier_features(model, sample_one(frames[0], row[0])[0]))
        coarse = candidate_patches(frames[0], row, *self.base, grid=COARSE_SIDE)[0]
        return frames, row, normalize_rows(coarse)[0], lib

    def run_step(self, frames, row, template, model, lib, cfg, seed):
        return step(frames[1], row, np.ones(1), self.base, template, model, lib, cfg,
                    np.random.default_rng(seed))

    def test_static_zero_noise_keeps_state(self, trained_model):
        frames, row, template, lib = self.setup_case(trained_model, use_lib=True)
        cfg = TrackerConfig(
            n_candidates=50, top_k=5, motion=MotionModel(0, 0, 0), init_frames=1
        )
        states, _, best, _, _ = self.run_step(frames, row, template, trained_model, lib, cfg, 0)
        np.testing.assert_array_equal(states[best], row[0])

    def test_weights_normalized_and_sparse(self, trained_model):
        frames, row, template, lib = self.setup_case(trained_model, use_lib=True)
        cfg = TrackerConfig(n_candidates=60, top_k=5, init_frames=1)
        states, weights, _, patch, coarse = self.run_step(
            frames, row, template, trained_model, lib, cfg, 0
        )
        assert states.shape == (60, 4) and weights.shape == (60,)
        assert patch.shape == (1024,) and coarse.shape == (256,)
        assert abs(weights.sum() - 1.0) < 1e-9 and weights.min() >= 0.0
        assert np.count_nonzero(weights) <= cfg.top_k

    def test_prediction_among_coarse_top_k(self, trained_model):
        frames, row, template, lib = self.setup_case(trained_model, use_lib=True)
        cfg = TrackerConfig(n_candidates=60, top_k=7, init_frames=1)
        states, _, best, patch, coarse = self.run_step(
            frames, row, template, trained_model, lib, cfg, 1
        )
        # ranked on the 16x16 rows; the next template is the pick's own row
        raw, valid = candidate_patches(frames[1], states, *self.base, grid=COARSE_SIDE)
        dist = coarse_distances(raw, valid, template)
        assert np.count_nonzero(dist < dist[best]) < cfg.top_k
        assert coarse.tobytes() == normalize_rows(raw)[best].tobytes()
        # the patch is the pick's 32x32 one
        fine = candidate_patches(frames[1], states[best], *self.base)[0]
        assert patch.tobytes() == normalize_rows(fine)[0].tobytes()

    def test_empty_library_weighs_every_candidate_on_the_coarse_grid(self, monkeypatch):
        # a raw-pixel step samples only the 16x16 grid, and every valid
        # candidate's weight is the kernel of its coarse distance
        frames, row, template, lib = self.setup_case(None, use_lib=False)
        cfg = TrackerConfig(n_candidates=60, top_k=7)
        calls = record_samples(monkeypatch)
        states, weights, best, patch, coarse = self.run_step(frames, row, template, None, lib, cfg, 1)
        assert calls == [(COARSE_SIDE, 60)]
        raw, valid = candidate_patches(frames[1], states, *self.base, grid=COARSE_SIDE)
        dist = coarse_distances(raw, valid, template)
        want = np.zeros(len(states))
        want[valid] = tracker.weigh(dist[valid], cfg.sigma)
        assert weights.tobytes() == (want / want.sum()).tobytes()
        assert np.count_nonzero(weights) == np.count_nonzero(valid) > cfg.top_k
        assert best == np.argmin(dist)
        assert patch is None and coarse.tobytes() == normalize_rows(raw)[best].tobytes()

    def test_sigma_does_not_change_argmax(self, trained_model):
        # the Gaussian kernel is monotone in distance for every sigma, so the
        # predicted state depends only on the ranking
        frames, row, template, lib = self.setup_case(trained_model, use_lib=True)
        chosen = []
        for sigma in (0.05, 0.2, 5.0):
            cfg = TrackerConfig(n_candidates=60, top_k=7, sigma=sigma, init_frames=1)
            states, _, best, _, _ = self.run_step(
                frames, row, template, trained_model, lib, cfg, 2
            )
            chosen.append(states[best])
        np.testing.assert_array_equal(chosen[0], chosen[1])
        np.testing.assert_array_equal(chosen[0], chosen[2])

    def test_work_array_keeps_a_step_small(self, trained_model):
        # 600 candidates on their own temporaries peaked at 15.7 MB; with the
        # run's (n, 256) work array the sampler runs in 64-row blocks into it
        frames, row, template, lib = self.setup_case(trained_model, use_lib=True)
        cfg = TrackerConfig(init_frames=1)
        work = np.empty((cfg.n_candidates, COARSE_SIDE * COARSE_SIDE))
        args = (frames[1], row, np.ones(1), self.base, template, trained_model, lib, cfg)
        step(*args, np.random.default_rng(0), work)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            states, weights, _, patch, coarse = step(*args, np.random.default_rng(0), work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2e6
        fresh = step(*args, np.random.default_rng(0))
        assert states.tobytes() == fresh[0].tobytes()
        assert weights.tobytes() == fresh[1].tobytes()
        assert patch.tobytes() == fresh[3].tobytes() and coarse.tobytes() == fresh[4].tobytes()

    def test_all_candidates_rejected_raises(self, trained_model):
        frames, _, template, lib = self.setup_case(trained_model, use_lib=True)
        far = np.array([[-200.0, -200.0, 1.0, 0.0]])
        cfg = TrackerConfig(
            n_candidates=20, top_k=5, motion=MotionModel(0, 0, 0), init_frames=1
        )
        with pytest.raises(TrackingLostError):
            self.run_step(frames, far, template, trained_model, lib, cfg, 0)


@st.composite
def coarse_case(draw):
    """Raw candidate rows, their valid mask and a normalized template."""
    frame = random_frame(64, 64, seed=draw(st.integers(0, 3)))
    n = draw(st.integers(1, 12))
    rows = np.array([
        (
            draw(st.floats(-20.0, 84.0)),
            draw(st.floats(-20.0, 84.0)),
            draw(st.floats(0.05, 2.0)),
            draw(angles),
        )
        for _ in range(n)
    ])
    raw, valid = candidate_patches(frame, rows, 24.0, 24.0)
    # constant candidates; the sums of a 1/3 or a 0.7 row leave a moment
    # variance of 1.3e-12 or 3.6e-12, not 0
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        raw[i] = draw(st.sampled_from([0.0, 0.25, 1.0, 1 / 3, 0.7]))
    # faint copies on a bright base, whose moments cancel to a few digits
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        raw[i] = 0.5 + draw(st.sampled_from([1e-2, 1e-4, 1e-6])) * raw[i]
    kind = draw(st.sampled_from(["candidate", "uncentred", "other", "constant"]))
    if kind == "candidate":
        template = normalize_rows(raw)[draw(st.integers(0, n - 1))]
    elif kind == "uncentred":  # a row of raw values, whose mean is not 0
        template = raw[draw(st.integers(0, n - 1))].copy()
    elif kind == "other":
        other = random_frame(seed=draw(st.integers(4, 6)))
        template = sample_one(other, (48.0, 48.0, 1.0, 0.0))[0]
    else:
        template = np.zeros(1024)
    return raw, valid, template


@st.composite
def ranked_slice(draw):
    """1 to 700 raw 16x16 ranking rows, their valid mask, a template and a slice i:j.

    An eighth of the rows are constant and an eighth are faint copies on a
    bright base, which take the exact-centring fallback.
    """
    n = draw(st.one_of(st.integers(1, 700), st.sampled_from([1, 2, 3, 5, 63, 65, 601, 700])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.column_stack([rng.uniform(-20.0, 84.0, (n, 2)), rng.uniform(0.05, 2.0, n),
                            rng.uniform(-math.pi, math.pi, n)])
    frame = random_frame(64, 64, seed=draw(st.integers(0, 3)))
    raw, valid = candidate_patches(frame, rows, 24.0, 24.0, grid=COARSE_SIDE)
    at = np.array_split(rng.permutation(n), 8)
    raw[at[0]] = rng.choice([0.25, 1 / 3, 0.7], (len(at[0]), 1))
    raw[at[1]] = 0.5 + rng.choice([1e-2, 1e-4, 1e-6], (len(at[1]), 1)) * raw[at[1]]
    template = normalize_rows(raw)[draw(st.integers(0, n - 1))]
    i = draw(st.integers(0, n - 1))
    return raw, valid, template, i, draw(st.integers(i + 1, n))


class TestCoarseDistances:
    def centred_and_constant(self, value):
        """Raw rows of a centred box on a random frame and of a constant patch."""
        rows = np.array([[48.0, 48.0, 1.0, 0.0]] * 2)
        raw, valid = candidate_patches(random_frame(seed=1), rows, 32.0, 32.0)
        raw[1] = value
        return raw, valid

    @settings(max_examples=200, deadline=None)
    @given(coarse_case())
    def test_matches_per_row_reference(self, case):
        raw, valid, template = case
        got = coarse_distances(raw, valid, template)
        want = reference_coarse_distances(raw, valid, template)
        assert np.array_equal(np.isinf(got), ~valid) and np.array_equal(np.isinf(want), ~valid)
        got, want = got[valid] ** 2, want[valid] ** 2
        # compared as squares: next to d = 0 the square root turns the
        # correlation form's 1e-16 cancellation into a 1e-8 distance
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # the same order, except between rows that tie up to round-off: a
        # constant template puts every live row at 1, and a two-valued patch
        # normalizes to the values of any affine copy of itself
        gap = want[:, None] - want[None, :]
        apart = np.abs(gap) > 2e-12
        order = np.sign(got[:, None] - got[None, :])
        assert np.array_equal(order[apart], np.sign(gap[apart]))

    @settings(max_examples=50, deadline=None)
    @given(candidate_case(), coarse_case())
    def test_reused_buffer_matches_fresh_call(self, sampled, case):
        frame, rows, base = sampled
        template = case[2]
        buffer = np.full((len(rows), 1024), np.nan)
        # the buffer first serves another call, as it does from step to step
        candidate_patches(frame, rows[::-1], *base, out=buffer)
        reused = candidate_patches(frame, rows, *base, out=buffer)
        fresh = candidate_patches(frame, rows, *base)
        got = coarse_distances(*reused, template)
        assert got.tobytes() == coarse_distances(*fresh, template).tobytes()
        # the moments coarse_distances takes over the whole array match the
        # row-by-row reference, as squares (see test_matches_per_row_reference)
        want = reference_coarse_distances(*fresh, template)
        live = np.isfinite(want)
        np.testing.assert_allclose(got[live] ** 2, want[live] ** 2, rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(ranked_slice())
    def test_a_slice_ranks_as_in_the_whole_array(self, case):
        # each row's moments and distance are its own, whatever rows are
        # ranked beside it
        raw, valid, template, i, j = case
        whole = coarse_distances(raw, valid, template)
        assert coarse_distances(raw[i:j], valid[i:j], template).tobytes() == whole[i:j].tobytes()

    def test_constant_candidate_at_distance_one(self):
        raw, valid = self.centred_and_constant(1 / 3)
        dist = coarse_distances(raw, valid, normalize_rows(raw)[0])
        assert dist[1] == 1.0
        assert dist[0] < 1e-7

    def test_constant_template_gives_zero_unit_template(self):
        raw, valid = self.centred_and_constant(0.7)
        dist = coarse_distances(raw, valid, np.zeros(1024))
        # t-hat = 0: a live row is a unit vector away, a constant row none
        assert dist.tolist() == [1.0, 0.0]

    def test_rejected_rows_at_inf(self):
        rows = np.array([[48.0, 48.0, 1.0, 0.0], [-30.0, 48.0, 1.0, 0.0]])
        raw, valid = candidate_patches(random_frame(seed=2), rows, 32.0, 32.0)
        assert valid.tolist() == [True, False]
        dist = coarse_distances(raw, valid, normalize_rows(raw)[0])
        assert np.isfinite(dist[0]) and dist[1] == np.inf


class TestRunTracker:
    def test_static_sequence_zero_noise_keeps_init_box(self, trained_model):
        script = translation_script(6, (48.0, 48.0), (0.0, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=6)
        cfg = TrackerConfig(
            n_candidates=40,
            top_k=5,
            motion=MotionModel(0, 0, 0),
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

    def adaptation_layers(self, model, **fields):
        """The six layer runs of the three adaptations on one short fixture track."""
        script = translation_script(7, (48.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=8)
        cfg = TrackerConfig(n_candidates=30, top_k=5, init_frames=3, update_period=2, **fields)
        events = run_tracker(frames, tuple(gt.boxes[0]), model, cfg).events
        assert [e.kind for e in events] == ["init", "update", "update"]
        return [st for e in events for st in e.layers]

    def test_default_adaptation_stops_when_f_stops_moving(self, trained_model):
        assert TrackerConfig().adapt_optimizer is ADAPT_OPTIMIZER
        layers = self.adaptation_layers(trained_model)
        assert len(layers) == 6
        for st in layers:
            assert st.status == "converged" and st.iterations < ADAPT_OPTIMIZER.max_iters, st

    def test_tol_zero_adaptation_runs_to_its_cap(self, trained_model):
        # at tol 0 a run stops early only where f stops falling for a whole window
        cap = LbfgsConfig(max_iters=ADAPT_OPTIMIZER.max_iters, tol=0.0)
        for st in self.adaptation_layers(trained_model, adapt_optimizer=cap):
            assert (st.status, st.iterations) == ("max_iters", cap.max_iters)

    def test_raw_only_never_adapts(self):
        script = translation_script(6, (48.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=9)
        cfg = TrackerConfig(
            n_candidates=30, top_k=5, init_frames=2, update_period=2
        )
        res = run_tracker(frames, tuple(gt.boxes[0]), None, cfg)
        assert res.events == ()
        assert res.model is None
        assert len(res.boxes) == 6

    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "raw"])
    def test_adaptation_window(self, trained_model, learned, monkeypatch):
        # adapt gets the first init_frames patches, then exactly the last
        # update_period; the run keeps no tracked patch beyond its window
        script = translation_script(14, (46.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=8)
        from slowtrack.optimizer import LbfgsConfig

        cfg = TrackerConfig(n_candidates=30, top_k=5, init_frames=3, update_period=2,
                            adapt_optimizer=LbfgsConfig(max_iters=1))
        patches, refs, alive, received, grids = [], [], [], [], []
        real_step, real_adapt = tracker.step, tracker.adapt

        def recording_step(*args):
            alive.append(sum(ref() is not None for ref in refs))
            grids.append(args[4].size)  # the template's, the ranking grid's
            out = real_step(*args)
            if out[3] is None:  # a raw-pixel step samples no 32x32 patch
                patches.append(None)
                return out
            patches.append(out[3].copy())
            refs.append(weakref.ref(out[3]))
            return out

        def recording_adapt(model, seqs16, seqs32, *args):
            received.append(seqs32[0].copy())
            return real_adapt(model, seqs16, seqs32, *args)

        monkeypatch.setattr(tracker, "step", recording_step)
        monkeypatch.setattr(tracker, "adapt", recording_adapt)
        res = run_tracker(frames, tuple(gt.boxes[0]), trained_model if learned else None, cfg)
        assert len(patches) == 13
        # every step ranks on the 16x16 grid, from frame 1 on
        assert grids == [256] * 13
        if not learned:
            # a raw-pixel run has no patch to keep, so it keeps no window
            assert patches == [None] * 13
            assert received == [] and res.events == ()
            return
        assert max(alive) <= max(cfg.init_frames, cfg.update_period)
        assert {patch.size for patch in patches} == {1024}
        # patches[k] is the patch of frame k + 1
        first = sample_one(frames[0], row_of_box(gt.boxes[0]), tuple(gt.boxes[0][2:]))[0]
        assert [e.frames_processed for e in res.events] == [3, 5, 7, 9, 11, 13]
        np.testing.assert_array_equal(received[0], np.stack([first, *patches[:2]]))
        for done, x32 in zip([5, 7, 9, 11, 13], received[1:], strict=True):
            np.testing.assert_array_equal(x32, np.stack(patches[done - 3 : done - 1]))

    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "raw"])
    def test_32x32_only_for_the_seed_and_the_top_k(self, trained_model, learned, monkeypatch):
        # frame 0 gives the 16x16 template, and a learned run's library seed
        # at 32x32; each step then ranks its candidates at 16x16, and a
        # learned step samples only its top-k at 32x32
        script = translation_script(8, (46.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=8)
        cfg = TrackerConfig(n_candidates=30, top_k=5, init_frames=3, update_period=2,
                            adapt_optimizer=LbfgsConfig(max_iters=1))
        calls = record_samples(monkeypatch)
        run_tracker(frames, tuple(gt.boxes[0]), trained_model if learned else None, cfg)
        if not learned:
            assert calls == [(COARSE_SIDE, 1)] + [(COARSE_SIDE, 30)] * 7
            return
        assert calls[:2] == [(COARSE_SIDE, 1), (32, 1)]
        assert calls[2::2] == [(COARSE_SIDE, 30)] * 7
        assert len(calls[3::2]) == 7
        assert all(grid == 32 and 1 <= n <= cfg.top_k for grid, n in calls[3::2])

    def test_learned_first_step(self, trained_model, monkeypatch):
        # init_frames=1 adapts on the first box's patch before any step; the
        # first step ranks on the 16x16 grid, against the first box's own
        # normalized 16x16 row
        script = translation_script(6, (46.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=8)
        cfg = TrackerConfig(n_candidates=30, top_k=5, init_frames=1, update_period=2,
                            adapt_optimizer=LbfgsConfig(max_iters=1))
        templates, patches = [], []
        real_step = tracker.step

        def recording_step(*args):
            templates.append(args[4].copy())
            out = real_step(*args)
            patches.append(out[3])
            return out

        monkeypatch.setattr(tracker, "step", recording_step)
        res = run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg)
        assert [(e.kind, e.frames_processed) for e in res.events] == [
            ("init", 1), ("update", 3), ("update", 5)
        ]
        first = candidate_patches(frames[0], row_of_box(gt.boxes[0]), *gt.boxes[0][2:],
                                  grid=COARSE_SIDE)[0]
        assert templates[0].tobytes() == normalize_rows(first)[0].tobytes()
        assert [t.size for t in templates] == [256] * 5
        assert [p.size for p in patches] == [1024] * 5
        assert np.all(np.isfinite(res.boxes)) and res.boxes.shape == (6, 4)

    def record_steps(self, monkeypatch):
        """Each step's template and exemplar rows, copied as the step receives them."""
        templates, libraries = [], []
        real_step = tracker.step

        def recording_step(*args):
            templates.append(args[4].copy())
            libraries.append(args[6]._rows.copy())
            return real_step(*args)

        monkeypatch.setattr(tracker, "step", recording_step)
        return templates, libraries

    @staticmethod
    def seed_row(model, frames, gt):
        """The unit-normalized features of frame 0's normalized 32x32 box patch."""
        first = sample_one(frames[0], row_of_box(gt.boxes[0]), tuple(gt.boxes[0][2:]))[0]
        return tracker._unit_rows(hier_features(model, first))

    def test_library_seeded_from_frame_0(self, trained_model, monkeypatch):
        # before the first adaptation, the library holds one row: the
        # pre-trained features of frame 0's normalized 32x32 patch; the
        # first step ranks against frame 0's normalized 16x16 row
        script = translation_script(5, (46.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=8)
        cfg = TrackerConfig(n_candidates=30, top_k=5, init_frames=3, update_period=5,
                            adapt_optimizer=LbfgsConfig(max_iters=1))
        templates, libraries = self.record_steps(monkeypatch)
        run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg)
        seed = self.seed_row(trained_model, frames, gt)
        m = trained_model
        assert seed.shape == (1, m.n_sub_patches * m.layer1.output_dim + m.layer2.output_dim)
        assert [len(rows) for rows in libraries] == [1, 1, 4, 4]
        for rows in libraries[:2]:
            assert rows.tobytes() == seed.tobytes()
        # the first adaptation appends its three rows after the seed
        assert libraries[2][0].tobytes() == seed[0].tobytes()
        row = candidate_patches(frames[0], row_of_box(gt.boxes[0]), *gt.boxes[0][2:],
                                grid=COARSE_SIDE)[0]
        assert templates[0].tobytes() == normalize_rows(row)[0].tobytes()
        assert [t.size for t in templates] == [256] * 4

    def test_failed_adaptations_keep_the_seed_and_the_coarse_grid(self, trained_model,
                                                                  monkeypatch):
        # a track whose every adaptation fails still ranks each step on the
        # 16x16 grid against the seed row alone
        script = translation_script(8, (46.0, 48.0), (0.5, 0.0))
        frames, gt = generate_sequence(script, (96, 96), seed=8)
        cfg = TrackerConfig(n_candidates=30, top_k=5, init_frames=3, update_period=2)

        def failing_adapt(*args):
            raise OptimizationError("layer1: adaptation failed on purpose")

        monkeypatch.setattr(tracker, "adapt", failing_adapt)
        templates, libraries = self.record_steps(monkeypatch)
        res = run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg)
        assert [(e.kind, e.frames_processed) for e in res.events] == [
            ("failed", 3), ("failed", 5), ("failed", 7)
        ]
        assert res.model is trained_model
        assert [t.size for t in templates] == [256] * 7
        seed = self.seed_row(trained_model, frames, gt)
        assert [rows.tobytes() for rows in libraries] == [seed.tobytes()] * 7

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
            adapt_optimizer=LbfgsConfig(max_iters=1),
        )
        res = run_tracker(frames, tuple(gt.boxes[0]), trained_model, cfg)
        # init at 2 (two exemplars) then an update after every frame (one
        # each): 12 exemplars pass the capacity of 10 without error
        assert [e.frames_processed for e in res.events] == list(range(2, 13))


class TestConfigValidation:
    def test_topk_bound(self):
        with pytest.raises(ValueError, match="top_k"):
            TrackerConfig(n_candidates=10, top_k=20)

    def test_motion_stds_nonnegative(self):
        with pytest.raises(ValueError):
            MotionModel(std_xy=-1.0)

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            TrackerConfig(sigma=0.0)
