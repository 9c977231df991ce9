import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slowtrack.objectives
from slowtrack.encoder import LayerEncoder, encode
from slowtrack.objectives import SlownessObjective, helper_thread


def enc_from(rows, eps=0.0):
    return LayerEncoder(np.array(rows, dtype=float), eps_sqrt=eps)


def reconstruction_cost(w, x):
    """||x - W^T W x||^2 as the objective evaluates it (lambda = 0)."""
    return SlownessObjective([np.atleast_2d(x)], lam=0.0).evaluate(np.asarray(w, dtype=float))[0]


class TestEncode:
    def test_pooled_pair_is_euclidean_norm(self):
        enc = enc_from([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(encode(enc, np.array([3.0, 4.0])), [5.0])

    def test_zero_input(self):
        enc = enc_from([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(encode(enc, np.zeros(2)), [0.0])

    def test_four_filters_two_pools(self):
        # responses (1, 2, 3, -1) -> z = (sqrt(5), sqrt(10))
        enc = enc_from([[1, 0], [0, 1], [1, 1], [1, -1]])
        z = encode(enc, np.array([1.0, 2.0]))
        np.testing.assert_allclose(z, [np.sqrt(5.0), np.sqrt(10.0)])

    def test_dimension_mismatch_reports_both_dims(self):
        enc = enc_from([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="dim 3.*expects 2"):
            encode(enc, np.zeros(3))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        enc = enc_from(rng.standard_normal((6, 4)), eps=1e-8)
        xs = rng.standard_normal((5, 4))
        batch = encode(enc, xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(batch[i], encode(enc, x))


class TestEncodeProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_sign_invariance(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((6, 5))
        x = rng.standard_normal(5)
        flipped = w.copy()
        flipped[int(rng.integers(0, 6))] *= -1.0
        np.testing.assert_allclose(
            encode(enc_from(w), x), encode(enc_from(flipped), x), atol=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_pair_norm_identity(self, seed):
        rng = np.random.default_rng(seed)
        enc = enc_from(rng.standard_normal((8, 5)))
        x = rng.standard_normal(5)
        a = enc.weights @ x
        z = encode(enc, x)
        for j in range(4):
            assert abs(z[j] - np.hypot(a[2 * j], a[2 * j + 1])) < 1e-12

    @pytest.mark.parametrize("alpha", [-2.0, 0.5, 3.0])
    def test_homogeneity(self, alpha):
        rng = np.random.default_rng(3)
        enc = enc_from(rng.standard_normal((6, 4)))
        x = rng.standard_normal(4)
        np.testing.assert_allclose(
            encode(enc, alpha * x), abs(alpha) * encode(enc, x), atol=1e-9
        )

    def test_monotone_eps(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((6, 4))
        x = rng.standard_normal(4)
        eps = 1e-6
        z0 = encode(enc_from(w, 0.0), x)
        z1 = encode(enc_from(w, eps), x)
        assert np.all(z1 > z0)
        assert np.all(z1 - z0 <= np.sqrt(eps))


class TestReconstruct:
    """The tied-weight reconstruction cost of the slowness objective."""

    def test_orthonormal_complete_rows_identity(self):
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert reconstruction_cost(np.eye(4), x) == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix(self):
        assert reconstruction_cost(np.zeros((4, 3)), np.ones(3)) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"W has shape \(2, 2\), data dim is 5"):
            reconstruction_cost(np.eye(2), np.zeros(5))

    def test_hand_multiplied_2x2(self):
        # W = [[1,0],[1,0]], x = (1,1): W^T W x = (2, 0), residual (-1, 1)
        assert reconstruction_cost([[1.0, 0.0], [1.0, 0.0]], np.ones(2)) == 2.0


class TestTypes:
    def test_odd_filter_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            LayerEncoder(np.ones((3, 4)))

    def test_non_finite_rejected(self):
        w = np.ones((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            LayerEncoder(w)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps_sqrt"):
            LayerEncoder(np.ones((2, 2)), eps_sqrt=-1e-9)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=f"eps_sqrt must be .*, got {eps}$"):
            LayerEncoder(np.eye(2, 4), eps)

    def test_weights_owned_read_only_copy(self):
        w = np.asfortranarray(np.ones((2, 3)))
        enc = LayerEncoder(w)
        w[0, 0] = 5.0
        assert enc.weights[0, 0] == 1.0
        assert enc.weights.flags.c_contiguous and not enc.weights.flags.writeable

    def test_pooling_map_matrix(self):
        # pooled^2 - eps is H a^2 with the dense pair-sum map H
        h = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
        rng = np.random.default_rng(6)
        w = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        z = encode(enc_from(w, eps=0.0), x)
        np.testing.assert_allclose(z * z, h @ (w @ x) ** 2, rtol=1e-12)

    def test_pooling_encoder_dim_match(self):
        enc = LayerEncoder(np.ones((4, 2)))
        assert (enc.input_dim, enc.output_dim) == (2, 2)
        assert encode(enc, np.ones(2)).shape == (2,)


def test_objective_and_encode_pool_alike(monkeypatch, forced_splits):
    """The slowness objective sees the pooled values `encode` returns, split or not."""
    seen = []
    forward = slowtrack.objectives.forward

    def spy(w, eps, x, out=None):
        out = forward(w, eps, x, out)
        # x is a row range of the objective's stacked data: note where it starts
        start = (x.ctypes.data - x.base.ctypes.data) // x.strides[0]
        seen.append((start, out[1].copy()))
        return out

    monkeypatch.setattr(slowtrack.objectives, "forward", spy)
    rng = np.random.default_rng(8)
    w = rng.standard_normal((24, 5))
    x = rng.standard_normal((30, 5))
    want = encode(enc_from(w, eps=1e-6), x)
    for halves, context in ((1, contextlib.nullcontext), (2, helper_thread)):
        seen.clear()
        with context():
            SlownessObjective([x[:3], x[3:]], lam=1.0, eps_sqrt=1e-6).evaluate(w)
        assert len(seen) == halves
        pooled = np.full_like(want, np.nan)
        for start, z in seen:
            pooled[start : start + len(z)] = z
        assert pooled.tobytes() == want.tobytes()
    assert [name for name, _ in forced_splits] == ["_rows", "_ux"]
