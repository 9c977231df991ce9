import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_gradient
from slowtrack.errors import DataError
from slowtrack.objectives import AdaptationObjective, SlownessObjective


def reference_terms(seqs, w, lam, eps_sqrt, eps_abs):
    """The objective from the explicit residual, one sequence at a time.

    The closed forms in `SlownessObjective` work from X^T X and one masked
    pair expression; this is the direct reading of the formula they must
    agree with.
    """
    x = np.vstack(seqs)
    a = x @ w.T
    q0, q1 = a[:, ::2], a[:, 1::2]
    z = np.sqrt(q0 * q0 + q1 * q1 + eps_sqrt)
    r = x - a @ w
    value = float((r * r).sum())
    grad = -2.0 * (a.T @ r + w @ (r.T @ x))
    p = np.zeros_like(z)
    lo = 0
    for seq in seqs:
        hi = lo + len(seq)
        d = z[lo : hi - 1] - z[lo + 1 : hi]
        s = np.sqrt(d * d + eps_abs)
        value += lam * float(s.sum())
        c = np.divide(d, s, out=np.zeros_like(d), where=s > 0)
        p[lo : hi - 1] += c
        p[lo + 1 : hi] -= c
        lo = hi
    ratio = np.divide(p, z, out=np.zeros_like(p), where=z > 0)
    u = np.empty_like(a)
    u[:, ::2] = ratio * q0
    u[:, 1::2] = ratio * q1
    grad += lam * (u.T @ x)
    return value, grad


def reference_pull(seqs, w, w_old, gamma):
    """gamma * ||X (W - W_old)^T||^2 and its gradient, from the rows."""
    x = np.vstack(seqs)
    t = x @ (w - w_old).T
    return gamma * float((t * t).sum()), 2.0 * gamma * (t.T @ x)


def random_instance(rng, with_gamma):
    d = int(rng.integers(2, 17))
    f = 2 * int(rng.integers(1, 5))
    n_seqs = int(rng.integers(1, 3))
    seqs = [rng.standard_normal((int(rng.integers(1, 4)), d)) for _ in range(n_seqs)]
    lam = float(rng.choice([1.0, 5.0]))
    w = 0.5 * rng.standard_normal((f, d))
    base = SlownessObjective(seqs, lam, eps_sqrt=1e-6, eps_abs=1e-6)
    if with_gamma:
        gamma = float(rng.choice([0.0, 100.0]))
        w_old = 0.5 * rng.standard_normal((f, d))
        return AdaptationObjective(base, gamma, w_old), w
    return base, w


class TestEvalSlowness:
    def test_single_patch_reconstruction_only(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4))
        w = rng.standard_normal((4, 4))
        obj = SlownessObjective([x], lam=3.0, eps_sqrt=0.0, eps_abs=0.0)
        r = x[0] - w.T @ (w @ x[0])
        assert obj.evaluate(w)[0] == pytest.approx(float(r @ r), rel=1e-12)

    def test_identical_patches_zero_slowness(self):
        x = np.tile(np.array([1.0, -2.0, 0.5]), (2, 1))
        w = np.random.default_rng(1).standard_normal((4, 3))
        with_pair = SlownessObjective([x], lam=7.0, eps_sqrt=0.0, eps_abs=0.0)
        no_pair = SlownessObjective([x], lam=0.0, eps_sqrt=0.0, eps_abs=0.0)
        assert with_pair.evaluate(w)[0] == pytest.approx(no_pair.evaluate(w)[0], abs=1e-14)

    def test_identity_filters_on_unit_patches(self):
        # z = 1 for both patches, reconstruction exact: value 0
        seq = np.array([[1.0, 0.0], [0.0, 1.0]])
        obj = SlownessObjective([seq], lam=1.0, eps_sqrt=0.0, eps_abs=0.0)
        assert obj.evaluate(np.eye(2))[0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            SlownessObjective([np.ones((2, 3))], lam)

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError, match="empty"):
            SlownessObjective([], lam=1.0)

    def test_dimension_mismatch(self):
        obj = SlownessObjective([np.ones((2, 3))], lam=1.0)
        with pytest.raises(ValueError, match="shape"):
            obj.evaluate(np.ones((4, 5)))

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            obj, w = random_instance(rng, with_gamma=False)
            assert obj.evaluate(w)[0] >= 0.0


class TestEvalAdaptation:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_bad_gamma_rejected(self, gamma):
        base = SlownessObjective([np.ones((2, 3))], 1.0)
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            AdaptationObjective(base, gamma, np.ones((2, 3)))

    def test_gamma_zero_equals_slowness(self):
        rng = np.random.default_rng(2)
        base, w = random_instance(rng, with_gamma=False)
        adp = AdaptationObjective(base, 0.0, rng.standard_normal(w.shape))
        value_b, grad_b = base.evaluate(w)
        value_a, grad_a = adp.evaluate(w)
        assert abs(value_a - value_b) <= 1e-12
        np.testing.assert_allclose(grad_a, grad_b, atol=1e-12)

    def test_w_equals_w_old_zero_regularizer(self):
        rng = np.random.default_rng(3)
        base, w = random_instance(rng, with_gamma=False)
        adp = AdaptationObjective(base, 50.0, w)
        assert adp.evaluate(w)[0] == pytest.approx(base.evaluate(w)[0], abs=1e-12)

    def test_regularizer_hand_computed(self):
        # single patch (1,0): ||W x - W_old x||^2 = ||(2,0)-(1,0)||^2 = 1
        seq = np.array([[1.0, 0.0]])
        base = SlownessObjective([seq], lam=1.0, eps_sqrt=0.0, eps_abs=0.0)
        w_old = np.eye(2)
        w = np.array([[2.0, 0.0], [0.0, 1.0]])
        adp = AdaptationObjective(base, 1.0, w_old)
        assert adp.evaluate(w)[0] - base.evaluate(w)[0] == pytest.approx(1.0, abs=1e-14)

    def test_monotone_gamma(self):
        rng = np.random.default_rng(4)
        seqs = [rng.standard_normal((3, 4))]
        base = SlownessObjective(seqs, lam=1.0)
        w_old = rng.standard_normal((4, 4))
        w = w_old + 0.5
        values = [
            AdaptationObjective(base, g, w_old).evaluate(w)[0] for g in (0.0, 1.0, 10.0, 100.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestGradients:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            obj, w = random_instance(rng, with_gamma=trial % 2 == 0)
            _, analytic = obj.evaluate(w)
            fd = finite_difference_gradient(lambda v: obj.evaluate(v)[0], w, h=1e-5)
            rel = np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))
            assert rel < 1e-4, f"trial {trial}: rel err {rel}"

    def test_fd_exact_on_quadratic(self):
        f = lambda w: float((w**2).sum())
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        np.testing.assert_allclose(finite_difference_gradient(f, w, 1e-4), 2 * w, atol=1e-8)

    def test_fd_zero_on_constant(self):
        f = lambda w: 7.5
        np.testing.assert_array_equal(
            finite_difference_gradient(f, np.ones((2, 3)), 1e-5), np.zeros((2, 3))
        )

    def test_fd_requires_positive_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda w: 0.0, np.ones((2, 2)), 0.0)


class TestBoundaryRule:
    def test_break_removes_exactly_one_pair_term(self):
        rng = np.random.default_rng(5)
        seq = rng.standard_normal((5, 4))
        w = rng.standard_normal((4, 4))
        lam, eps_sqrt, eps_abs = 2.5, 1e-6, 1e-6
        joined = SlownessObjective([seq], lam, eps_sqrt=eps_sqrt, eps_abs=eps_abs)
        split = SlownessObjective(
            [seq[:3], seq[3:]], lam, eps_sqrt=eps_sqrt, eps_abs=eps_abs
        )
        v_joined, v_split = joined.evaluate(w)[0], split.evaluate(w)[0]
        assert v_split <= v_joined
        a = w @ seq[2]
        b = w @ seq[3]
        za = np.sqrt(a[::2] ** 2 + a[1::2] ** 2 + eps_sqrt)
        zb = np.sqrt(b[::2] ** 2 + b[1::2] ** 2 + eps_sqrt)
        removed = lam * np.sum(np.sqrt((za - zb) ** 2 + eps_abs))
        assert v_joined - v_split == pytest.approx(removed, rel=1e-12)


@st.composite
def gram_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    if draw(st.booleans()):
        # near-perfect reconstruction: W = I, or I slightly perturbed
        d = 2 * draw(st.integers(1, 6))
        f = d
        w = np.eye(d) + draw(st.sampled_from([0.0, 1e-3])) * rng.standard_normal((d, d))
    else:
        d = draw(st.integers(2, 12))
        f = 2 * draw(st.integers(1, 8))  # f > d is covered, as in layer 2
        w = draw(st.sampled_from([0.1, 1.0])) * rng.standard_normal((f, d))
    seqs = [rng.standard_normal((n, d)) for n in lengths]
    lam = draw(st.sampled_from([0.0, 5.0]))
    gamma = draw(st.sampled_from([0.0, 100.0]))
    w_old = w + 0.1 * rng.standard_normal((f, d))
    return seqs, w, lam, gamma, w_old


def assert_matches(got, want, gram_trace):
    (v_got, g_got), (v_want, g_want) = got, want
    # the Gram form cancels terms of size tr(X^T X), so its absolute
    # error scales with that trace rather than with the value
    assert v_got == pytest.approx(v_want, rel=1e-10, abs=1e-12 * (1.0 + gram_trace))
    atol = 1e-9 * (1.0 + float(np.max(np.abs(g_want))))
    np.testing.assert_allclose(g_got, g_want, rtol=1e-10, atol=atol)


class TestGramForm:
    @settings(max_examples=300, deadline=None)
    @given(gram_case())
    def test_matches_explicit_residual(self, case):
        seqs, w, lam, gamma, w_old = case
        eps_sqrt, eps_abs = 1e-8, 1e-8
        base = SlownessObjective(seqs, lam, eps_sqrt=eps_sqrt, eps_abs=eps_abs)
        trace = float(sum((s * s).sum() for s in seqs))
        want = reference_terms(seqs, w, lam, eps_sqrt, eps_abs)
        assert_matches(base.evaluate(w), want, trace)

        pull_value, pull_grad = reference_pull(seqs, w, w_old, gamma)
        adp = AdaptationObjective(base, gamma, w_old)
        assert_matches(adp.evaluate(w), (want[0] + pull_value, want[1] + pull_grad), trace)


def assert_same(got, want):
    """Bit-for-bit equality of two (value, gradient) evaluations."""
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


class TestWorkBuffers:
    """An objective reused across evaluations gives what a fresh one gives."""

    def check_sequence(self, make, ws):
        # the fresh objects all stay alive, so none of them is handed the
        # freed work arrays of another one
        fresh = [make() for _ in ws]
        want = [obj.evaluate(w) for obj, w in zip(fresh, ws)]
        reused = make()
        for w, ev in zip(ws, want):
            assert_same(reused.evaluate(w), ev)

    def test_several_filters_in_sequence(self):
        rng = np.random.default_rng(10)
        seqs = [rng.standard_normal((n, 6)) for n in (5, 1, 4)]
        make = lambda: SlownessObjective(seqs, 3.0, eps_sqrt=1e-6, eps_abs=1e-6)
        self.check_sequence(make, [rng.standard_normal((4, 6)) for _ in range(4)])

    def test_value_then_evaluate(self):
        rng = np.random.default_rng(11)
        seqs = [rng.standard_normal((6, 5))]
        make = lambda: SlownessObjective(seqs, 2.0)
        w1, w2 = rng.standard_normal((2, 4, 5))
        obj = make()
        assert obj.evaluate(w1)[0] == make().evaluate(w1)[0]
        assert_same(obj.evaluate(w2), make().evaluate(w2))
        assert obj.evaluate(w1)[0] == make().evaluate(w1)[0]

    def test_zero_eps_abs_with_equal_neighbours(self):
        # rows 1 and 2 are equal, so their pair has s == 0 under every W;
        # under w_tie, rows 0 and 1 pool to the same z > 0 as well, so a
        # pair written under w_free is skipped under w_tie and must not
        # keep its old value
        rng = np.random.default_rng(12)
        e = np.eye(4)
        seq = np.vstack([e[0], e[1], e[1], rng.standard_normal((3, 4))])
        w_tie = np.vstack([e[0], e[1], rng.standard_normal((2, 4))])
        w_free = rng.standard_normal((4, 4))
        make = lambda: SlownessObjective([seq], 1.5, eps_sqrt=1e-6, eps_abs=0.0)
        self.check_sequence(make, [w_free, w_tie, w_free, w_tie])

    def test_zero_eps_sqrt_with_zero_row(self):
        rng = np.random.default_rng(13)
        seq = rng.standard_normal((5, 4))
        seq[2] = 0.0  # z == 0 in every pooled unit of this row
        make = lambda: SlownessObjective([seq], 2.0, eps_sqrt=0.0, eps_abs=1e-8)
        self.check_sequence(make, [rng.standard_normal((4, 4)) for _ in range(3)])

    def test_filter_count_change(self):
        rng = np.random.default_rng(14)
        seqs = [rng.standard_normal((7, 5))]
        make = lambda: SlownessObjective(seqs, 4.0)
        ws = [rng.standard_normal((f, 5)) for f in (4, 6, 4, 2)]
        self.check_sequence(make, ws)

    def test_adaptation_interleaved_with_base(self):
        rng = np.random.default_rng(15)
        seqs = [rng.standard_normal((4, 6)), rng.standard_normal((3, 6))]
        w_old = rng.standard_normal((4, 6))
        make_base = lambda: SlownessObjective(seqs, 5.0)
        make_adp = lambda: AdaptationObjective(make_base(), 10.0, w_old)
        base = make_base()
        adp = AdaptationObjective(base, 10.0, w_old)
        for _ in range(3):
            w1, w2 = rng.standard_normal((2, 4, 6))
            assert_same(adp.evaluate(w1), make_adp().evaluate(w1))
            assert_same(base.evaluate(w2), make_base().evaluate(w2))
            assert adp.evaluate(w2)[0] == make_adp().evaluate(w2)[0]

    def test_gradient_survives_next_evaluation(self):
        rng = np.random.default_rng(16)
        seqs = [rng.standard_normal((6, 5))]
        base = SlownessObjective(seqs, 3.0)
        adp = AdaptationObjective(base, 1.0, rng.standard_normal((4, 5)))
        w1, w2 = rng.standard_normal((2, 4, 5))
        for obj in (base, adp):
            g1 = obj.evaluate(w1)[1]
            kept = g1.copy()
            obj.evaluate(w2)
            assert np.array_equal(g1, kept)

    def test_layer1_evaluation_allocates_less_than_one_pooled_array(self):
        # the layer-1 shape of the pretrain defaults: 2880 rows of 16x16
        # patches, 64 filters
        rng = np.random.default_rng(17)
        seqs = np.split(rng.standard_normal((2880, 256)), 8)
        obj = SlownessObjective(seqs, 5.0)
        w = 0.1 * rng.standard_normal((64, 256))
        obj.evaluate(w)
        tracemalloc.start()
        try:
            obj.evaluate(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2880 * 32 * 8  # one (N, F/2) float64 array
