import numpy as np
import pytest

from slowtrack.errors import LineSearchError, OptimizationError
from slowtrack.optimizer import (
    MAX_LINE_SEARCH_STEPS,
    WINDOW,
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


def scripted(values, slopes):
    """A 1-D objective whose k-th call returns (values[k], [slopes[k]]).

    With positive slopes that halve at each call and values that fall, the
    line search accepts its first probe, so iteration k ends on call k.
    """
    calls = iter(zip(values, slopes))

    def f(x):
        value, slope = next(calls)
        return value, np.array([slope])

    return f


# (f, max|g|) of the first 30 iterations of L-BFGS on Rosenbrock from
# (-1.2, 1), as the gradient-norm stop (grad_tol 1e-6) ran them
ROSENBROCK_TRACE_30 = [
    (24.199999999999996, 215.6),
    (12.212633421552631, 102.60464739180667),
    (4.4423561612444935, 22.36623436037421),
    (4.115038132528299, 4.5278972079609705),
    (4.103799966079637, 1.6202777781111788),
    (4.099937385628133, 1.9101032712281807),
    (4.046802318898111, 4.717953183218316),
    (2.5493177608902386, 10.748565561306442),
    (2.5412681310783736, 8.719849067126681),
    (2.406653357591313, 8.154871321286313),
    (2.057098492856025, 8.59381546518346),
    (1.6640228404983872, 5.3373771826733085),
    (1.3522388386278192, 2.377732777677328),
    (1.2320214795725086, 3.2467595996160337),
    (1.120022484221003, 5.849173932887377),
    (0.9618920813054783, 6.534699069125084),
    (0.7046393105785163, 1.8436455304999906),
    (0.6220407979104543, 4.208984383854804),
    (0.49801094008308466, 6.296645660230804),
    (0.34433834941866387, 0.9803730295016331),
    (0.2740273234424959, 5.621097387580254),
    (0.2205084436273284, 0.847019846182806),
    (0.16571555708021554, 0.9309214562321921),
    (0.133523314868148, 1.8488067659409135),
    (0.10773359292558703, 6.4094290153354105),
    (0.06540134170408603, 0.4765351168688925),
    (0.04343923136897439, 0.444321082435728),
    (0.028891980819293665, 1.6993712251808766),
    (0.0171116581890113, 3.0418321976179197),
    (0.006294254835455055, 0.1551973953087371),
    (0.002024438924798995, 0.8926421594247126),
]


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
        assert hist.push(s, y) == 6.5  # s'y, which minimize reuses
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
        with pytest.raises(LineSearchError):
            wolfe_line_search(
                f, np.array([0.0]), np.array([1.0]), 0.0, np.array([-1.0])
            )

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
        res = minimize(quadratic, np.array([4.0, -4.0]), LbfgsConfig(tol=1e-10))
        assert res.status == "converged"
        assert res.iterations <= 3
        assert np.linalg.norm(res.w_final) < 1e-8

    def test_zero_iterations_when_already_converged(self):
        res = minimize(quadratic, np.zeros(3), LbfgsConfig(tol=1e-10))
        assert res.status == "converged"
        assert res.iterations == 0

    def test_rosenbrock(self):
        res = minimize(
            rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=100, tol=1e-10)
        )
        assert res.status == "converged"
        assert res.iterations <= 100
        assert res.grad_norm < 1e-6
        np.testing.assert_allclose(res.w_final, [1.0, 1.0], atol=1e-5)

    def test_trace_strictly_decreasing(self):
        res = minimize(
            rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=100, tol=1e-10)
        )
        values = [v for v, _ in res.trace]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_window_stop_at_the_first_iteration_that_passes(self):
        # f_k = 10 + 100 / 2^k: the relative decrease over the last five
        # iterations is 0.1505 at k = 11 and 0.0755 at k = 12
        values = [10.0 + 100.0 * 0.5**k for k in range(40)]
        slopes = [0.5**k for k in range(40)]

        def ratio(k):
            return (values[k - WINDOW] - values[k]) / max(abs(values[k]), 1.0)

        assert ratio(11) > 0.1 >= ratio(12)
        res = minimize(scripted(values, slopes), np.array([0.0]), LbfgsConfig(max_iters=30, tol=0.1))
        assert (res.status, res.iterations, res.evals) == ("converged", 12, 13)
        assert [v for v, _ in res.trace] == values[:13]
        res = minimize(scripted(values, slopes), np.array([0.0]), LbfgsConfig(max_iters=11, tol=0.1))
        assert (res.status, res.iterations) == ("max_iters", 11)
        # at tol 0 the window fires only on a run whose f stopped falling
        res = minimize(scripted(values, slopes), np.array([0.0]), LbfgsConfig(max_iters=30, tol=0.0))
        assert (res.status, res.iterations) == ("max_iters", 30)
        # every decrease is within a huge tolerance, but the window needs WINDOW iterations
        res = minimize(scripted(values, slopes), np.array([0.0]), LbfgsConfig(max_iters=30, tol=1e9))
        assert (res.status, res.iterations) == ("converged", WINDOW)

    def test_tol_zero_runs_as_the_gradient_stop_did(self):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=30, tol=0.0))
        assert (res.status, res.iterations, res.evals) == ("max_iters", 30, 46)
        assert [(float(v), g) for v, g in res.trace] == ROSENBROCK_TRACE_30
        assert [v.hex() for v in res.w_final.tolist()] == [
            "0x1.ece347f16e576p-1", "0x1.d933f1d540d34p-1"
        ]

    @pytest.mark.parametrize(
        "f, x0, iterations",
        [
            (quadratic, [4.0, -4.0], 1),  # the first step lands on the minimum
            (quadratic, [0.0, 0.0], 0),
            (rosenbrock, [-1.2, 1.0], 42),
            (rosenbrock, [1.0, 1.0], 0),
        ],
        ids=["quadratic", "quadratic-start", "rosenbrock", "rosenbrock-start"],
    )
    def test_zero_gradient_stops_as_converged(self, f, x0, iterations):
        # at tol 0 nothing else stops these runs early; a zero gradient's
        # search direction would be zero, which the line search rejects
        res = minimize(f, np.array(x0), LbfgsConfig(max_iters=100, tol=0.0))
        assert (res.status, res.iterations, res.grad_norm) == ("converged", iterations, 0.0)

    @pytest.mark.parametrize("tol", [-1e-3, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            LbfgsConfig(tol=tol)

    def test_max_iters_status(self):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=2))
        assert res.status == "max_iters"
        assert res.iterations == 2

    def test_evals_count_every_objective_call(self):
        calls = []

        def f(x):
            calls.append(1)
            return rosenbrock(x)

        res = minimize(f, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=100, tol=1e-10))
        assert res.evals == len(calls)
        assert res.evals > res.iterations

    def test_line_search_failure_status(self):
        # A failed line search has no status of its own: minimize raises it.
        f = lambda x: (float(-x[0]), np.array([-1.0]))
        with pytest.raises(LineSearchError, match="no Wolfe step"):
            minimize(f, np.array([0.0]), LbfgsConfig(max_iters=10))

    def test_line_search_failure_at_the_round_off_floor_converges(self):
        # f is flat to its last digit and the gradient is round-off: the full
        # step predicts a decrease of 1e-12, below one ulp of f (1.2e-10), so
        # no probe can resolve it
        f = lambda x: (1e6, np.array([1e-6]))
        res = minimize(f, np.array([0.0]), LbfgsConfig(tol=0.0))
        assert res.status == "converged" and res.iterations == 0
        assert res.w_final.tolist() == [0.0] and res.value == 1e6
        # a predicted decrease of 1e-6, thousands of ulps, still fails the run
        f = lambda x: (1e6, np.array([1e-3]))
        with pytest.raises(LineSearchError, match="no Wolfe step"):
            minimize(f, np.array([0.0]), LbfgsConfig(tol=0.0))

    def test_evals_include_a_failed_line_search(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(-x[0]), np.array([-1.0])

        with pytest.raises(LineSearchError):
            minimize(f, np.array([0.0]), LbfgsConfig(max_iters=10))
        assert len(calls) == 1 + MAX_LINE_SEARCH_STEPS

    def test_non_finite_start_aborts(self):
        f = lambda x: (float("nan"), np.zeros(1))
        with pytest.raises(OptimizationError, match="non-finite"):
            minimize(f, np.array([1.0]), LbfgsConfig())

    def test_non_positive_b0_rejected(self):
        with pytest.raises(ValueError, match="b0_scale"):
            two_loop_direction(np.ones(2), LbfgsHistory(), 0.0)
