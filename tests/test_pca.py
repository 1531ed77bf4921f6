"""Tests for snapshot PCA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anovagp.pca import fit_pca, project, reconstruct

EPS = np.finfo(float).eps / 2   # unit roundoff


def brute_force_cov_eig(dataset):
    centered = dataset - dataset.mean(axis=0)
    cov = centered.T @ centered / dataset.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


class TestFitPca:
    def test_antipodal_pair(self):
        y = np.array([3.0, 4.0, 0.0])
        model, targets = fit_pca(np.stack([y, -y]), tol_pca=1e-2)
        assert np.allclose(model.mean, 0.0)
        assert model.rank == 1
        assert np.allclose(np.abs(model.components[:, 0]), y / 5.0)
        assert np.isclose(model.eigenvalues[0], 25.0)
        assert targets.shape == (1, 2)

    def test_identical_samples_rank_zero(self):
        y = np.array([1.0, -2.0, 0.5])
        model, targets = fit_pca(np.tile(y, (4, 1)), tol_pca=1e-2)
        assert model.rank == 0
        assert np.allclose(model.mean, y)
        assert targets.shape == (0, 4)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((0, 3)), tol_pca=1e-2)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.eye(3), tol_pca=0.0)

    def test_retained_variance_fraction(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((15, 8)) * np.array([5, 3, 1, 1, .5, .2, .1, .1])
        for tol in (0.3, 0.1, 0.01):
            model, _ = fit_pca(data, tol)
            frac = model.eigenvalues.sum() / model.total_variance
            assert frac > 1 - tol
            if model.rank > 1:
                prev = model.eigenvalues[:-1].sum() / model.total_variance
                assert prev <= 1 - tol

    def test_eigpair_residuals(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((12, 6))
        model, _ = fit_pca(data, 1e-4)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / data.shape[0]
        for r in range(model.rank):
            v = model.components[:, r]
            resid = np.linalg.norm(cov @ v - model.eigenvalues[r] * v)
            assert resid < 1e-8 * np.linalg.norm(cov)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((10, 20))
        model, _ = fit_pca(data, 1e-3)
        gram = model.components.T @ model.components
        assert np.max(np.abs(gram - np.eye(model.rank))) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((9, 5))
        m1, _ = fit_pca(data, 1e-2)
        m2, _ = fit_pca(data[::-1], 1e-2)
        assert np.allclose(m1.eigenvalues, m2.eigenvalues)
        assert np.allclose(m1.components, m2.components)

    def test_gram_path_matches_covariance_path(self):
        rng = np.random.default_rng(4)
        for d, n in [(50, 10), (30, 20), (40, 5)]:
            data = rng.standard_normal((n, d))
            model_snap, _ = fit_pca(data, 1e-6)   # d > n: Gram path
            vals, vecs = brute_force_cov_eig(data)
            r = model_snap.rank
            assert np.allclose(model_snap.eigenvalues, vals[:r],
                               rtol=1e-10, atol=1e-12 * vals[0])
            for k in range(r):
                dot = abs(model_snap.components[:, k] @ vecs[:, k])
                assert abs(dot - 1.0) < 1e-8

    def test_targets_match_projection(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((8, 12))
        model, targets = fit_pca(data, 1e-3)
        for j in range(8):
            assert np.allclose(project(model, data[j]), targets[:, j])


class TestProjectReconstruct:
    @pytest.fixture()
    def model(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((10, 7))
        model, _ = fit_pca(data, 1e-2)
        return model, data

    def test_mean_projects_to_zero(self, model):
        m, _ = model
        assert np.allclose(project(m, m.mean), 0.0)

    def test_component_projects_to_unit(self, model):
        m, _ = model
        alpha = project(m, m.mean + m.components[:, 0])
        expected = np.zeros(m.rank)
        expected[0] = 1.0
        assert np.allclose(alpha, expected, atol=1e-12)

    def test_reconstruct_zero_is_mean(self, model):
        m, _ = model
        assert np.allclose(reconstruct(m, np.zeros(m.rank)), m.mean)

    def test_span_roundtrip(self, model):
        m, _ = model
        y = m.mean + m.components @ np.arange(1.0, m.rank + 1)
        assert np.max(np.abs(reconstruct(m, project(m, y)) - y)) < 1e-10

    def test_dimension_mismatch(self, model):
        m, _ = model
        with pytest.raises(ValueError):
            project(m, np.zeros(3))
        with pytest.raises(ValueError):
            reconstruct(m, np.zeros(m.rank + 1))

    def test_discarded_variance_identity(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((12, 9)) * np.linspace(3, 0.1, 9)
        model, _ = fit_pca(data, 0.2)
        errs = [np.linalg.norm(reconstruct(model, project(model, y)) - y) ** 2
                for y in data]
        vals, _ = brute_force_cov_eig(data)
        discarded = vals[model.rank:].sum()
        assert np.isclose(np.mean(errs), discarded, rtol=1e-8)

    @pytest.mark.parametrize("tol_pca", [0.05, 1e-6])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 14), d=st.integers(2, 14))
    def test_property_discarded_variance_identity(self, tol_pca, data, n, d):
        """The mean squared distance of the centered samples to the span of
        the retained components equals the sum of the discarded eigenvalues
        of the sample covariance, on both the covariance (d <= N) and the
        Gram (d > N) path.

        With T the total variance, forming C (or the Gram matrix) and a
        backward-stable symmetric eigensolver move each eigenvalue by at
        most p u ||C||_2 <= p u T with p <= N + d, and at most N + d
        eigenvalues enter either side.  The residuals c - V V^T c lose at
        most (d + R + 2) u relative to |c| per entry, R <= min(N, d).  The
        bound 16 (N + d)^2 u T covers both sides with room to spare.
        """
        scales = data.draw(arrays(float, d, elements=st.floats(1e-3, 1e3)))
        raw = data.draw(arrays(float, (n, d), elements=st.floats(-10, 10)))
        dataset = raw * scales
        model, _ = fit_pca(dataset, tol_pca)
        centered = dataset - model.mean
        alphas = np.array([project(model, y) for y in dataset])
        residual = centered - alphas @ model.components.T
        discarded_by_projection = np.mean(np.sum(residual ** 2, axis=1))
        vals, _ = brute_force_cov_eig(dataset)
        total = np.mean(np.sum(centered ** 2, axis=1))
        bound = 16 * (n + d) ** 2 * EPS * total
        assert abs(discarded_by_projection - vals[model.rank:].sum()) <= bound
