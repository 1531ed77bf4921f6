"""Tests for GP regression: kernel, likelihood, gradient, training, prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_solve, cholesky

from anovagp.exceptions import TrainingFailedError
from anovagp.gp import (GpModel, GpTrainConfig, Hyperparameters,
                        _kernel_matrix, _pairwise_sqdists, cross_kernel, nlml,
                        nlml_gradient, predict, predict_batch, train_gp)


def make_hyper(sq_lengths, signal_var, jitter_var):
    log_jit = np.log(jitter_var) if jitter_var > 0 else -np.inf
    return Hyperparameters(np.log(np.asarray(sq_lengths, dtype=float)),
                           float(np.log(signal_var)), float(log_jit))


class TestKernel:
    """The training covariance (``_kernel_matrix``) and the covariances
    against a fresh point (``cross_kernel``)."""

    @staticmethod
    def matrix(X, h):
        k, _ = _kernel_matrix(_pairwise_sqdists(X), h.sq_lengths, h.signal_var,
                              h.jitter_var)
        return k

    def test_same_point(self):
        h = make_hyper([1.0, 2.0], 1.5, 0.25)
        X = np.array([[0.3, 0.7]])
        # the jitter sits on the training diagonal, never against a fresh point
        assert np.isclose(self.matrix(X, h)[0, 0], 1.5 + 0.25)
        assert np.isclose(cross_kernel(X, X[0], h)[0], 1.5)

    def test_unit_distance(self):
        h = make_hyper([1.0], 1.0, 0.0)
        X = np.array([[0.0], [np.sqrt(2.0)]])
        assert np.isclose(self.matrix(X, h)[0, 1], np.exp(-1.0))
        assert np.isclose(cross_kernel(X[:1], X[1], h)[0], np.exp(-1.0))

    def test_zero_signal(self):
        h = make_hyper([1.0], 1e-300, 0.5)
        X = np.array([[0.1], [0.2]])
        k = self.matrix(X, h)
        assert k[0, 1] < 1e-200
        assert cross_kernel(X[:1], X[1], h)[0] < 1e-200
        assert np.isclose(k[0, 0], 0.5)

    def test_symmetry(self):
        h = make_hyper([0.5, 2.0, 1.0], 1.2, 0.1)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 3))
        k = self.matrix(X, h)
        assert np.array_equal(k, k.T)
        for x, y in zip(X, rng.standard_normal((5, 3))):
            assert (cross_kernel(x[None], y, h)[0]
                    == cross_kernel(y[None], x, h)[0])

    def test_dimension_mismatch(self):
        h = make_hyper([1.0, 1.0], 1.0, 0.0)
        with pytest.raises(ValueError):
            self.matrix(np.zeros((2, 3)), h)
        with pytest.raises(ValueError):
            cross_kernel(np.zeros((2, 3)), np.zeros(3), h)
        with pytest.raises(ValueError):
            cross_kernel(np.zeros((2, 2)), np.zeros(3), h)


class TestNlml:
    def test_single_point_zero_target(self):
        h = make_hyper([1.0], 1.0, 0.0)
        value = nlml(h, np.zeros((1, 1)), np.zeros(1))
        assert np.isclose(value, 0.5 * np.log(2 * np.pi))

    def test_single_point_nonzero_target(self):
        h = make_hyper([1.0], 1.0, 0.0)
        y = 1.7
        value = nlml(h, np.zeros((1, 1)), np.array([y]))
        assert np.isclose(value, 0.5 * np.log(2 * np.pi) + 0.5 * y ** 2)

    def test_two_point_brute_force(self):
        h = make_hyper([0.8], 1.3, 0.05)
        X = np.array([[0.0], [0.6]])
        y = np.array([0.4, -1.1])
        k01 = 1.3 * np.exp(-0.5 * 0.36 / 0.8)
        C = np.array([[1.35, k01], [k01, 1.35]])
        expected = (0.5 * np.log(np.linalg.det(C))
                    + 0.5 * y @ np.linalg.solve(C, y)
                    + np.log(2 * np.pi))
        assert np.isclose(nlml(h, X, y), expected, rtol=1e-12)


_U = np.finfo(float).eps / 2   # unit roundoff
_FD_STEP = 1e-6


@st.composite
def gradient_cases(draw):
    """(X, y, hyper) whose covariance has a condition number below ~2e3.

    A free jitter of at least e^-4 bounds the smallest eigenvalue.  With zero
    jitter the rows are distinct lattice points and the squared lengths at
    most 0.2, so for M <= 3 the off-diagonal row sums stay below 0.58 of the
    diagonal and the condition number below 4.
    """
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), min_size=2,
                             max_size=min(12, 5 ** m), unique=True))
        X = np.array(rows, dtype=float)
        log_ell = draw(arrays(float, m, elements=st.floats(-4.0, np.log(0.2))))
        log_jit = -np.inf
    else:
        n = draw(st.integers(2, 12))
        X = draw(arrays(float, (n, m), elements=st.floats(0.0, 1.0)))
        log_ell = draw(arrays(float, m, elements=st.floats(-4.0, 1.5)))
        log_jit = draw(st.floats(-4.0, 0.0))
    y = draw(arrays(float, len(X), elements=st.floats(-3.0, 3.0)))
    return X, y, Hyperparameters(log_ell, draw(st.floats(-1.0, 1.0)), log_jit)


class TestGradient:
    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases())
    def test_property_finite_differences(self, case):
        """Central differences of ``nlml`` agree with ``nlml_gradient``.

        The tolerance is fixed by the error model, not fitted: the relative
        1e-5 of the hand-picked test below, plus the worst-case rounding of
        two NLML evaluations divided by the step, kappa N u (N + y^T C^-1 y)
        / h, for Cholesky on a matrix of condition number kappa.
        """
        X, y, hyper = case
        grad = nlml_gradient(hyper, X, y)
        zero_jitter = bool(np.isneginf(hyper.log_jitter_var))
        if zero_jitter:
            assert grad[-1] == 0.0
        k = TestKernel.matrix(X, hyper)
        n = len(y)
        quad = abs(float(y @ np.linalg.solve(k, y)))
        rounding = np.linalg.cond(k) * n * _U * (n + quad) / _FD_STEP
        theta = hyper.as_array()
        for i in range(theta.size - zero_jitter):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += _FD_STEP
            tm[i] -= _FD_STEP
            fd = (nlml(Hyperparameters.from_array(tp), X, y)
                  - nlml(Hyperparameters.from_array(tm), X, y)) / (2 * _FD_STEP)
            assert abs(grad[i] - fd) <= 1e-5 * max(abs(fd), 1.0) + rounding

    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases())
    def test_property_matches_per_dimension_loop(self, case):
        """The length-scale gradient, one matvec over all dimensions, agrees
        with the per-dimension sum 0.5 sum(A * dC/dlog l_i).

        Both sum the same N^2 products in another order, each product
        carrying a few roundings, so entry i differs by at most
        2 gamma_{N^2+4} * 0.25 sum |D_i A C_se| / l_i.
        """
        X, y, hyper = case
        grad = nlml_gradient(hyper, X, y)
        sqdists = _pairwise_sqdists(X)
        ell = hyper.sq_lengths
        k, k_se = _kernel_matrix(sqdists, ell, hyper.signal_var,
                                 hyper.jitter_var)
        low = cholesky(k, lower=True)   # A exactly as _nlml_value_grad forms it
        w = cho_solve((low, True), y)
        a = cho_solve((low, True), np.eye(len(y))) - np.outer(w, w)
        n_ops = len(y) ** 2 + 4
        gamma = n_ops * _U / (1 - n_ops * _U)
        for i in range(hyper.n_dims):
            loop = 0.5 * float(np.sum(a * (k_se * (0.5 * sqdists[i] / ell[i]))))
            bound = 2 * gamma * 0.25 * float(
                np.sum(np.abs(sqdists[i] * a * k_se))) / ell[i]
            assert abs(grad[i] - loop) <= bound

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(1, 5)
        n = rng.integers(2, 21)
        X = rng.uniform(-1, 1, (n, m))
        y = rng.standard_normal(n)
        theta = np.concatenate([rng.uniform(-1.5, 1.5, m),
                                rng.uniform(-1, 1, 1),
                                rng.uniform(-6, -2, 1)])
        h = Hyperparameters(theta[:m], theta[m], theta[m + 1])
        grad = nlml_gradient(h, X, y)
        eps = 1e-6
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            fp = nlml(Hyperparameters(tp[:m], tp[m], tp[m + 1]), X, y)
            fm = nlml(Hyperparameters(tm[:m], tm[m], tm[m + 1]), X, y)
            fd = (fp - fm) / (2 * eps)
            assert abs(grad[i] - fd) <= 1e-5 * max(abs(fd), 1.0)

    def test_zero_targets_signal_gradient_positive(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (8, 2))
        h = make_hyper([0.5, 0.5], 1.0, 1e-4)
        grad = nlml_gradient(h, X, np.zeros(8))
        assert grad[2] > 0.0

    def test_scalar_closed_form(self):
        # N=1, M=1, zero jitter: d/dlog(rho1^2) = 1/2 - y^2 / (2 rho1^2)
        y = 0.9
        h = make_hyper([1.0], 2.0, 0.0)
        grad = nlml_gradient(h, np.zeros((1, 1)), np.array([y]))
        assert np.isclose(grad[1], 0.5 - y ** 2 / 4.0)


class TestTraining:
    def test_zero_targets_predict_zero(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (6, 2))
        model = train_gp(X, np.zeros(6), GpTrainConfig(restarts=2))
        mean, _ = predict(model, np.array([0.4, 0.6]))
        assert abs(mean) < 1e-12

    def test_interpolation_smooth_1d(self):
        X = np.linspace(0, 1, 10)[:, None]
        y = np.sin(3 * X[:, 0])
        model = train_gp(X, y, GpTrainConfig(restarts=3, jitter_floor=0.0))
        for x, t in zip(X, y):
            mean, var = predict(model, x)
            assert abs(mean - t) < 1e-6
            assert var < 1e-6

    def test_duplicate_rows_zero_jitter_fails(self):
        X = np.array([[0.5], [0.5], [0.1]])
        y = np.array([1.0, 2.0, 0.0])
        with pytest.raises(TrainingFailedError):
            train_gp(X, y, GpTrainConfig(restarts=3, jitter_floor=0.0))

    def test_training_never_worse_than_inits(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (12, 2))
        y = np.cos(4 * X[:, 0]) + X[:, 1]
        cfg = GpTrainConfig(restarts=4, seed=5)
        model = train_gp(X, y, cfg)
        # replay the restart initializations used by train_gp
        spans = X.max(axis=0) - X.min(axis=0)
        var = float(np.var(y))
        gen = np.random.default_rng(cfg.seed)
        for _ in range(cfg.restarts):
            log_ell = gen.uniform(np.log(0.01 * spans ** 2),
                                  np.log(10.0 * spans ** 2))
            log_sig2 = np.log(var) + gen.uniform(-1.0, 1.0)
            h = Hyperparameters(log_ell, float(log_sig2),
                                float(np.log(1e-10 * var)))
            assert model.final_nlml <= nlml(h, X, y) + 1e-9

    def test_warm_start_used(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (8, 1))
        y = np.sin(2 * X[:, 0])
        base = train_gp(X, y, GpTrainConfig(restarts=3, seed=0))
        warm = train_gp(X, y, GpTrainConfig(restarts=1, seed=99,
                                            warm_start=base.hyper))
        assert warm.final_nlml <= base.final_nlml + 1e-8

    def test_warm_start_zero_jitter(self):
        # the pinned zero jitter drops the warm start's jitter entry
        X = np.linspace(0, 1, 7)[:, None]
        y = np.sin(3 * X[:, 0])
        cfg = GpTrainConfig(restarts=3, seed=0, jitter_floor=0.0)
        base = train_gp(X, y, cfg)
        warm = train_gp(X, y, GpTrainConfig(restarts=1, seed=99,
                                            jitter_floor=0.0,
                                            warm_start=base.hyper))
        assert np.isneginf(warm.hyper.log_jitter_var)
        assert warm.final_nlml <= base.final_nlml + 1e-8
        # so does a warm start whose jitter is free
        noisy = train_gp(X, y, GpTrainConfig(restarts=1, seed=99))
        assert np.isfinite(noisy.hyper.log_jitter_var)
        pinned = train_gp(X, y, GpTrainConfig(restarts=1, jitter_floor=0.0,
                                              warm_start=noisy.hyper))
        assert np.isneginf(pinned.hyper.log_jitter_var)

    def test_warm_start_wrong_dims(self):
        X = np.random.default_rng(3).uniform(0, 1, (8, 2))
        y = X[:, 0] - X[:, 1]
        for dims in (1, 3):
            hyper = make_hyper(np.ones(dims), 1.0, 1e-6)
            with pytest.raises(ValueError):
                train_gp(X, y, GpTrainConfig(warm_start=hyper))


class TestPredict:
    @pytest.fixture()
    def model(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (9, 2))
        y = np.sin(3 * X[:, 0]) * np.cos(2 * X[:, 1])
        return train_gp(X, y, GpTrainConfig(restarts=3, jitter_floor=0.0))

    def test_interpolates_at_training_points(self, model):
        for x, t in zip(model.inputs, model.targets):
            mean, var = predict(model, x)
            assert abs(mean - t) < 1e-6
            assert var >= 0.0

    def test_single_point_closed_form(self):
        h = make_hyper([0.7], 1.9, 0.0)
        X = np.array([[0.2]])
        a = 1.4
        model = train_gp(X, np.array([a]),
                         GpTrainConfig(restarts=1, jitter_floor=0.0))
        # mean must follow a * k(x, x0) / k(x0, x0) for any trained hyper
        for x in (0.0, 0.5, 1.0):
            mean, _ = predict(model, np.array([x]))
            d2 = (x - 0.2) ** 2
            expected = a * np.exp(-0.5 * d2 / model.hyper.sq_lengths[0])
            assert np.isclose(mean, expected, rtol=1e-10)

    def test_far_field_limits(self, model):
        mean, var = predict(model, np.array([1e3, -1e3]))
        prior = model.hyper.signal_var + model.hyper.jitter_var
        assert abs(mean) < 1e-10
        assert np.isclose(var, prior, rtol=1e-10)

    def test_variance_bounded_by_prior(self, model):
        rng = np.random.default_rng(5)
        prior = model.hyper.signal_var + model.hyper.jitter_var
        for _ in range(20):
            _, var = predict(model, rng.uniform(-1, 2, 2))
            assert -1e-10 <= var <= prior + 1e-10

    def test_permutation_invariance(self, model):
        perm = np.random.default_rng(6).permutation(model.n_train)
        shuffled = train_gp(model.inputs[perm], model.targets[perm],
                            GpTrainConfig(restarts=1, jitter_floor=0.0,
                                          warm_start=model.hyper))
        x = np.array([0.33, 0.77])
        m1, v1 = predict(model, x)
        # rebuild with identical hyperparameters on permuted data
        from scipy.linalg import cho_solve, cholesky
        k, _ = _kernel_matrix(_pairwise_sqdists(model.inputs[perm]),
                              model.hyper.sq_lengths, model.hyper.signal_var,
                              model.hyper.jitter_var)
        low = cholesky(k, lower=True)
        w = cho_solve((low, True), model.targets[perm])
        permuted = GpModel(inputs=model.inputs[perm],
                           targets=model.targets[perm], hyper=model.hyper,
                           chol_lower=low, weights=w, final_nlml=0.0)
        m2, v2 = predict(permuted, x)
        assert np.isclose(m1, m2, atol=1e-10)
        assert np.isclose(v1, v2, atol=1e-10)

    def test_batch_matches_single(self, model):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 1, (15, 2))
        means, variances = predict_batch(model, xs)
        for k, x in enumerate(xs):
            m, v = predict(model, x)
            assert np.isclose(means[k], m, atol=1e-12)
            assert np.isclose(variances[k], v, atol=1e-12)

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            predict(model, np.zeros(3))
