import numpy as np
import pytest

from slowtrack.errors import DataError
from slowtrack.whitening import WhiteningTransform, apply_whitening, fit_whitening


def grid_samples():
    # population covariance diag(4, 1), zero mean
    return np.array([[2.0, 1.0], [2.0, -1.0], [-2.0, 1.0], [-2.0, -1.0]])


class TestFit:
    def test_grid_whitens_to_identity(self):
        w = fit_whitening(grid_samples(), d=2, eps_reg=0.0)
        u = apply_whitening(w, grid_samples())
        cov = (u.T @ u) / len(u)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-9)

    def test_already_white_data_gives_orthonormal_projection(self):
        x = np.array([[np.sqrt(2), 0], [-np.sqrt(2), 0], [0, np.sqrt(2)], [0, -np.sqrt(2)]])
        w = fit_whitening(x, d=2, eps_reg=0.0)
        np.testing.assert_allclose(w.projection @ w.projection.T, np.eye(2), atol=1e-9)
        u = apply_whitening(w, x)
        np.testing.assert_allclose((u.T @ u) / len(u), np.eye(2), atol=1e-9)

    def test_rank_one_data_single_component(self):
        direction = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        coeffs = np.array([-3.0, -1.0, 1.0, 3.0])
        x = np.outer(coeffs, direction)
        w = fit_whitening(x, d=1, eps_reg=0.0)
        assert w.retained_dim == 1
        u = apply_whitening(w, x)
        assert float(np.mean(u**2)) == pytest.approx(1.0, abs=1e-9)

    def test_d_above_rank_errors_with_rank(self):
        x = np.outer(np.arange(4.0), np.array([1.0, 1.0, 0.0]))
        with pytest.raises(DataError, match="rank is 1"):
            fit_whitening(x, d=2)

    def test_fewer_than_two_samples(self):
        with pytest.raises(DataError, match="at least 2"):
            fit_whitening(np.ones((1, 3)))

    def test_non_2d_samples_rejected(self):
        with pytest.raises(DataError, match="2-D"):
            fit_whitening(np.ones(5))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps_reg"):
            fit_whitening(grid_samples(), eps_reg=-1.0)

    def test_variance_fraction_rule(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 4)) * np.array([10.0, 3.0, 0.1, 0.01])
        w99 = fit_whitening(x)  # 99 % of variance: the tiny axes drop out
        assert w99.retained_dim == 2
        assert fit_whitening(x, variance_fraction=1.0).retained_dim == 4

    def test_reached_variance_fraction_recorded(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 4)) * np.array([10.0, 3.0, 0.1, 0.01])
        evals = np.sort(np.linalg.eigvalsh(np.cov(x.T, bias=True)))[::-1]
        for d in (1, None):
            w = fit_whitening(x, d=d)
            want = evals[: w.retained_dim].sum() / evals.sum()
            assert w.variance_fraction == pytest.approx(want, rel=1e-12)
        assert 0.99 <= fit_whitening(x).variance_fraction < 1.0

    def test_max_dim_cap(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 8))
        assert fit_whitening(x, max_dim=3).retained_dim == 3


class TestApply:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 3)) + 5.0
        w = fit_whitening(x)
        np.testing.assert_allclose(apply_whitening(w, x.mean(axis=0)), 0.0, atol=1e-12)

    def test_affine_combination(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 3))
        w = fit_whitening(x)
        x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
        lhs = apply_whitening(w, 0.5 * x1 + 0.5 * x2)
        rhs = 0.5 * apply_whitening(w, x1) + 0.5 * apply_whitening(w, x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_grid_point_maps_to_unit_coordinates(self):
        w = fit_whitening(grid_samples(), d=2, eps_reg=0.0)
        u = apply_whitening(w, np.array([2.0, 1.0]))
        np.testing.assert_allclose(np.abs(u), [1.0, 1.0], atol=1e-12)

    def test_dimension_mismatch(self):
        w = fit_whitening(grid_samples())
        with pytest.raises(ValueError, match="dim"):
            apply_whitening(w, np.ones(5))


class TestInvariants:
    def test_whitened_covariance_diagonal_formula(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((300, 6)) * np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
        eps = 1e-5
        w = fit_whitening(x, d=6, eps_reg=eps)
        u = apply_whitening(w, x)
        cov = (u.T @ u) / len(u) - np.outer(u.mean(0), u.mean(0))
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-6
        # expected diagonal from an independent eigen-decomposition
        xc = x - x.mean(axis=0)
        evals = np.linalg.eigvalsh((xc.T @ xc) / len(x))[::-1]
        np.testing.assert_allclose(np.diag(cov), evals / (evals + eps), atol=1e-6)

    def test_sign_fix_makes_fit_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((100, 5))
        w1 = fit_whitening(x, d=4)
        w2 = fit_whitening(x.copy(), d=4)
        np.testing.assert_array_equal(w1.projection, w2.projection)
        largest = np.take_along_axis(
            w1.projection,
            np.abs(w1.projection).argmax(axis=1, keepdims=True),
            axis=1,
        )
        assert np.all(largest > 0)

    def test_projection_rows_ordered_by_eigenvalue(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((400, 4)) * np.array([4.0, 2.0, 1.0, 0.5])
        w = fit_whitening(x, d=4, eps_reg=0.0)
        # scaled by 1/sqrt(eig): row norms must be increasing
        norms = np.linalg.norm(w.projection, axis=1)
        assert np.all(np.diff(norms) > 0)

    def test_transform_shape_validation(self):
        with pytest.raises(ValueError):
            WhiteningTransform(np.zeros(3), np.zeros((4, 3)))
