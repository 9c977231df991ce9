import numpy as np
import pytest

from slowtrack.errors import LineSearchError, OptimizationError
from slowtrack.optimizer import (
    MAX_LINE_SEARCH_STEPS,
    WOLFE_C1,
    WOLFE_C2,
    LbfgsConfig,
    LbfgsHistory,
    minimize,
    two_loop_direction,
    wolfe_line_search,
)


def dense_inverse_bfgs(pairs, b0_scale, dim):
    """Explicit recursive inverse-BFGS matrix; the oracle for the two-loop."""
    h = b0_scale * np.eye(dim)
    for s, y in pairs:
        rho = 1.0 / float(y @ s)
        v = np.eye(dim) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    return h


def quadratic(x):
    return 0.5 * float(x @ x), x.copy()


def rosenbrock(x):
    a, b = x
    value = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
    grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
    return value, grad


class TestTwoLoop:
    def test_empty_history_is_steepest_descent(self):
        p = two_loop_direction(np.array([2.0, -3.0]), LbfgsHistory(), 1.0)
        np.testing.assert_array_equal(p, [-2.0, 3.0])

    def test_single_axis_pair_recovers_identity(self):
        hist = LbfgsHistory()
        assert hist.push(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        p = two_loop_direction(np.array([2.0, 0.0]), hist, 1.0)
        np.testing.assert_allclose(p, [-2.0, 0.0])

    def test_zero_gradient_gives_zero_direction(self):
        hist = LbfgsHistory()
        hist.push(np.array([1.0, 2.0]), np.array([0.5, 1.0]))
        np.testing.assert_array_equal(
            two_loop_direction(np.zeros(2), hist, 1.5), np.zeros(2)
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
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
                    assert hist.push(s, y)
            b0 = float(rng.uniform(0.5, 2.0))
            g = rng.standard_normal(dim)
            p = two_loop_direction(g, hist, b0)
            p_ref = -dense_inverse_bfgs(pairs, b0, dim) @ g
            assert np.max(np.abs(p - p_ref)) < 1e-10

    def test_descent_direction(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 12))
            hist = LbfgsHistory(5)
            for _ in range(4):
                s = rng.standard_normal(dim)
                y = rng.standard_normal(dim)
                hist.push(s, y)
            g = rng.standard_normal(dim)
            p = two_loop_direction(g, hist, float(rng.uniform(0.1, 3.0)))
            assert p @ g < 0


class TestHistory:
    def test_curvature_condition_filters(self):
        hist = LbfgsHistory()
        assert not hist.push(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert not hist.push(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert len(hist) == 0

    def test_memory_bound(self):
        hist = LbfgsHistory(3)
        for i in range(10):
            hist.push(np.array([1.0 + i]), np.array([1.0]))
        assert len(hist) == 3
        # oldest discarded: the remaining pairs are the last three
        assert [float(s[0]) for s, _, _ in hist] == [8.0, 9.0, 10.0]

    def test_pair_stored_with_its_rho(self):
        hist = LbfgsHistory()
        s, y = np.array([1.0, 2.0]), np.array([0.5, 3.0])
        assert hist.push(s, y)
        [(s_kept, y_kept, rho)] = hist
        np.testing.assert_array_equal(s_kept, s)
        np.testing.assert_array_equal(y_kept, y)
        assert rho == 1.0 / 6.5


class TestWolfe:
    def test_scalar_quadratic_reaches_minimizer(self):
        f = lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]]))
        res = wolfe_line_search(
            f, np.array([1.0]), np.array([-2.0]), 1.0, np.array([2.0])
        )
        assert res.alpha == pytest.approx(0.5)
        assert res.value == pytest.approx(0.0)

    def test_linear_descent_has_no_wolfe_point(self):
        f = lambda x: (float(-x[0]), np.array([-1.0]))
        with pytest.raises(LineSearchError) as exc:
            wolfe_line_search(
                f, np.array([0.0]), np.array([1.0]), 0.0, np.array([-1.0])
            )
        assert exc.value.value < 0.0  # best point still carried

    def test_unit_step_accepted_when_minimizer_at_one(self):
        f = quadratic
        x = np.array([3.0, -1.0])
        f0, g0 = f(x)
        res = wolfe_line_search(f, x, -x, f0, g0)
        assert res.alpha == 1.0
        assert res.evals == 1

    def test_strong_wolfe_conditions_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(0.5, 4.0, size=3)

            def f(x, a=a):
                return float(np.sum(a * x**4) + x @ x), 4.0 * a * x**3 + 2.0 * x

            x = rng.standard_normal(3)
            f0, g0 = f(x)
            p = -g0
            res = wolfe_line_search(f, x, p, f0, g0)
            d0 = g0 @ p
            assert res.value <= f0 + WOLFE_C1 * res.alpha * d0
            assert abs(res.gradient @ p) <= -WOLFE_C2 * d0

    def test_ascent_direction_rejected(self):
        with pytest.raises(ValueError, match="descent"):
            wolfe_line_search(
                quadratic,
                np.array([1.0, 0.0]),
                np.array([1.0, 0.0]),
                0.5,
                np.array([1.0, 0.0]),
            )


class TestMinimize:
    def test_quadratic_in_few_iterations(self):
        res = minimize(quadratic, np.array([4.0, -4.0]), LbfgsConfig(grad_tol=1e-8))
        assert res.converged
        assert res.iterations <= 3
        assert np.linalg.norm(res.w_final) < 1e-8

    def test_zero_iterations_when_already_converged(self):
        res = minimize(quadratic, np.zeros(3), LbfgsConfig(grad_tol=1e-8))
        assert res.converged
        assert res.iterations == 0

    def test_rosenbrock(self):
        res = minimize(
            rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=100, grad_tol=1e-6)
        )
        assert res.converged
        assert res.iterations <= 100
        assert res.grad_norm < 1e-6
        np.testing.assert_allclose(res.w_final, [1.0, 1.0], atol=1e-5)

    def test_trace_strictly_decreasing(self):
        res = minimize(
            rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=100, grad_tol=1e-6)
        )
        values = [v for v, _ in res.trace]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_max_iters_status(self):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=2))
        assert not res.converged
        assert res.status == "max_iters"
        assert res.iterations == 2

    def test_line_search_failure_status(self):
        f = lambda x: (float(-x[0]), np.array([-1.0]))
        res = minimize(f, np.array([0.0]), LbfgsConfig(max_iters=10))
        assert res.status == "line_search_failed"
        assert not res.converged

    def test_evals_count_every_objective_call(self):
        calls = []

        def f(x):
            calls.append(1)
            return rosenbrock(x)

        res = minimize(f, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=100, grad_tol=1e-6))
        assert res.evals == len(calls)
        assert res.evals > res.iterations

    def test_evals_include_a_failed_line_search(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(-x[0]), np.array([-1.0])

        res = minimize(f, np.array([0.0]), LbfgsConfig(max_iters=10))
        assert res.status == "line_search_failed"
        assert res.evals == len(calls) == 1 + MAX_LINE_SEARCH_STEPS

    def test_non_finite_start_aborts(self):
        f = lambda x: (float("nan"), np.zeros(1))
        with pytest.raises(OptimizationError, match="non-finite"):
            minimize(f, np.array([1.0]), LbfgsConfig())

    def test_non_positive_b0_rejected(self):
        with pytest.raises(ValueError, match="b0_scale"):
            two_loop_direction(np.ones(2), LbfgsHistory(), 0.0)
