"""Tests for GP regression: kernel, likelihood, gradient, training, prediction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from anovagp import gp
from anovagp.exceptions import IllConditionedKernelError, TrainingFailedError
from anovagp.gp import (GpModel, GpTrainConfig, Hyperparameters, _pairs,
                        _nlml_value_grad, cross_kernel, posterior, predict,
                        predict_batch, train_gp)


def make_hyper(sq_lengths, signal_var, jitter_var):
    log_jit = np.log(jitter_var) if jitter_var > 0 else -np.inf
    return Hyperparameters(np.log(np.asarray(sq_lengths, dtype=float)),
                           float(np.log(signal_var)), float(log_jit))


def pair_matrix(X, h):
    """The training covariance the package factorizes, as a full symmetric
    matrix: pair covariances below and above the diagonal, rho1^2 + rho2^2
    on it."""
    pairs = _pairs(X)
    n = len(X)
    low = np.zeros(n * n)
    # rho1^2 exp(-0.5 sum_i D_i / l_i) per pair, written as the package does
    low[pairs.flat] = h.signal_var * np.exp((-0.5 / h.sq_lengths)
                                            @ pairs.sqdists)
    low = low.reshape(n, n, order="F")
    k = low + low.T
    np.fill_diagonal(k, h.signal_var + h.jitter_var)
    return k


def dense_sqdists(X):
    """(M, N, N) stack of per-dimension squared distances."""
    diff = X.T[:, :, None] - X.T[:, None, :]
    return diff * diff


class TestKernel:
    """The training covariance (pairs ``i > j`` plus the diagonal) and the
    covariances against a fresh point (``cross_kernel``)."""

    matrix = staticmethod(pair_matrix)

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

    def test_pairs_layout(self):
        X = np.random.default_rng(1).standard_normal((5, 2))
        pairs = _pairs(X)
        assert pairs.sqdists.shape == (2, 10)
        assert pairs.sqdists.flags.c_contiguous
        rows, cols = pairs.flat % 5, pairs.flat // 5
        assert np.all(rows > cols)
        assert np.array_equal(pairs.sqdists, dense_sqdists(X)[:, rows, cols])

    @settings(max_examples=50, deadline=None)
    @given(X=st.tuples(st.integers(1, 20), st.integers(1, 4)).flatmap(
        lambda shape: arrays(float, shape,
                             elements=st.floats(-1e150, 1e150))))
    def test_property_pairs_match_two_takes(self, X):
        """The per-dimension build holds bitwise the squared differences of
        the whole-array formula, gathered with two ``np.take`` calls."""
        n = len(X)
        rows, cols = np.tril_indices(n, -1)
        xt = np.ascontiguousarray(X.T)
        diff = np.take(xt, rows, axis=1) - np.take(xt, cols, axis=1)
        diff *= diff
        pairs = _pairs(X)
        assert pairs.sqdists.flags.c_contiguous
        assert np.array_equal(pairs.sqdists, diff)
        assert np.array_equal(pairs.flat, cols * n + rows)

    def test_pairs_need_more_than_physical_memory(self, monkeypatch):
        """Pairs that would need more than physical memory raise before
        anything is allocated: a million rows of three inputs need 2.1e13
        bytes, and with the memory figure set low so does a small fit."""
        rows = np.broadcast_to(0.0, (10 ** 6, 3))   # a view: nothing held
        with pytest.raises(TrainingFailedError,
                           match=r"^the pair distances of N=1000000 training "
                                 r"rows in M=3 dimensions need 2\.08e\+13 "
                                 r"bytes, more than the .* bytes of physical "
                                 r"memory$"):
            _pairs(rows)
        X = np.random.default_rng(0).uniform(0, 1, (20, 2))
        monkeypatch.setattr(gp, "_physical_memory", lambda: 5900.0)
        with pytest.raises(TrainingFailedError,
                           match=r"N=20 .* M=2 .* need 5\.93e\+03 bytes, "
                                 r"more than the 5\.9e\+03 bytes") as err:
            train_gp(X, np.sin(3 * X[:, 0])[None], [GpTrainConfig()])
        assert err.value.mode is None
        monkeypatch.setattr(gp, "_physical_memory", lambda: 6000.0)
        [model] = train_gp(X, np.sin(3 * X[:, 0])[None], [GpTrainConfig()])
        assert model.targets.size == 20

    def test_empty_block_builds_no_pairs(self, monkeypatch):
        """A block without rows (a rank-0 PCA) fits no GP, so it builds no
        pairs, and the memory guard cannot refuse it: with the memory figure
        below what the pairs of N=1000 rows in M=9 dimensions would need,
        it still returns no models."""
        X = np.random.default_rng(0).uniform(0, 1, (1000, 9))
        built, pairs = [], gp._pairs
        monkeypatch.setattr(gp, "_pairs", lambda X: built.append(X) or pairs(X))
        monkeypatch.setattr(gp, "_physical_memory", lambda: 1000.0)
        assert train_gp(X, np.empty((0, 1000)), []) == []
        assert built == []

    def test_pairs_peak_memory(self):
        """Building the pairs allocates no temporary as large as
        ``sqdists``: the peak stays below 1.5 times what they hold (the
        whole-array formula peaks at twice)."""
        X = np.random.default_rng(0).uniform(0, 1, (400, 9))
        tracemalloc.start()
        try:
            pairs = _pairs(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (pairs.sqdists.nbytes + pairs.flat.nbytes)

    def test_rows_match_single_points(self):
        h = make_hyper([0.5, 2.0], 1.2, 0.1)
        rng = np.random.default_rng(2)
        X, xs = rng.standard_normal((6, 2)), rng.standard_normal((4, 2))
        rows = cross_kernel(X, xs, h)
        assert rows.shape == (4, 6)
        for x, row in zip(xs, rows):
            assert np.array_equal(cross_kernel(X, x, h), row)

    def test_dimension_mismatch(self):
        h = make_hyper([1.0, 1.0], 1.0, 0.0)
        with pytest.raises(ValueError):
            self.matrix(np.zeros((2, 3)), h)
        with pytest.raises(ValueError):
            cross_kernel(np.zeros((2, 3)), np.zeros(3), h)
        with pytest.raises(ValueError):
            cross_kernel(np.zeros((2, 2)), np.zeros(3), h)
        with pytest.raises(ValueError):
            cross_kernel(np.zeros((2, 2)), np.zeros((4, 3)), h)


class TestNlml:
    def test_single_point_zero_target(self):
        h = make_hyper([1.0], 1.0, 0.0)
        X = np.zeros((1, 1))
        value = posterior(_pairs(X), X, np.zeros(1), h).final_nlml
        assert np.isclose(value, 0.5 * np.log(2 * np.pi))

    def test_single_point_nonzero_target(self):
        h = make_hyper([1.0], 1.0, 0.0)
        y = 1.7
        X = np.zeros((1, 1))
        value = posterior(_pairs(X), X, np.array([y]), h).final_nlml
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
        assert np.isclose(posterior(_pairs(X), X, y, h).final_nlml, expected,
                          rtol=1e-12)


_U = np.finfo(float).eps / 2   # unit roundoff
_FD_STEP = 1e-6


_TINY = 2.0 ** -1074   # bound on the absolute error of a product that underflows


def _gamma(k):
    """Bound on the relative rounding error of k chained float operations."""
    return k * _U / (1.0 - k * _U)


@st.composite
def gradient_cases(draw, max_m=3, max_n=12):
    """(X, y, hyper) whose covariance has a condition number below ~6e3.

    A free jitter of at least e^-4 bounds the smallest eigenvalue, so the
    condition number is below 1 + N e^5 (about 1.8e3 for N = 12).  With zero
    jitter the rows are distinct lattice points and the squared lengths at
    most 0.2, so for M <= 4 the off-diagonal row sums stay below 0.84 of the
    diagonal and the condition number below 12 (below 4 for M <= 3).
    """
    m = draw(st.integers(1, max_m))
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), min_size=2,
                             max_size=min(max_n, 5 ** m), unique=True))
        X = np.array(rows, dtype=float)
        log_ell = draw(arrays(float, m, elements=st.floats(-4.0, np.log(0.2))))
        log_jit = -np.inf
    else:
        n = draw(st.integers(2, max_n))
        X = draw(arrays(float, (n, m), elements=st.floats(0.0, 1.0)))
        log_ell = draw(arrays(float, m, elements=st.floats(-4.0, 1.5)))
        log_jit = draw(st.floats(-4.0, 0.0))
    y = draw(arrays(float, len(X), elements=st.floats(-3.0, 3.0)))
    return X, y, Hyperparameters(log_ell, draw(st.floats(-1.0, 1.0)), log_jit)


@st.composite
def training_cases(draw, max_m=3, max_n=12):
    """(X, y, zero_jitter) for a fit: distinct rows of a 5-point lattice on
    [0, 1]^M and distinct targets, so even a noise-free fit is well posed."""
    m = draw(st.integers(1, max_m))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), min_size=2,
                         max_size=min(max_n, 5 ** m), unique=True))
    y = draw(st.lists(st.integers(-30, 30), min_size=len(rows),
                      max_size=len(rows), unique=True))
    return (np.array(rows, dtype=float) / 4, np.array(y, dtype=float) / 10,
            draw(st.booleans()))


class TestGradient:
    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases())
    def test_property_finite_differences(self, case):
        """Central differences of the NLML (``posterior``) agree with the
        gradient of ``_nlml_value_grad`` over the free hyperparameters.

        The tolerance is fixed by the error model, not fitted: the relative
        1e-5 of the hand-picked test below, plus the worst-case rounding of
        two NLML evaluations divided by the step, kappa N u (N + y^T C^-1 y)
        / h, for Cholesky on a matrix of condition number kappa.
        """
        X, y, hyper = case
        pairs = _pairs(X)
        theta = hyper.as_array()
        zero_jitter = bool(np.isneginf(hyper.log_jitter_var))
        # a zero jitter is not a free hyperparameter: no gradient entry
        _, grad = _nlml_value_grad(theta[:theta.size - zero_jitter], pairs, y)
        assert grad.size == theta.size - zero_jitter
        k = TestKernel.matrix(X, hyper)
        n = len(y)
        quad = abs(float(y @ np.linalg.solve(k, y)))
        rounding = np.linalg.cond(k) * n * _U * (n + quad) / _FD_STEP
        for i in range(theta.size - zero_jitter):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += _FD_STEP
            tm[i] -= _FD_STEP
            fp, fm = (posterior(pairs, X, y, Hyperparameters.from_array(t))
                      .final_nlml for t in (tp, tm))
            fd = (fp - fm) / (2 * _FD_STEP)
            assert abs(grad[i] - fd) <= 1e-5 * max(abs(fd), 1.0) + rounding

    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases())
    @example(case=(np.array([[0.0], [4.0]]), np.full(2, 8.67532438e-66),
                   Hyperparameters(np.array([-4.0]), 0.0, -np.inf)))
    def test_property_matches_per_dimension_loop(self, case):
        """The length-scale gradient, one matvec over the pairs, agrees with
        the per-dimension sum 0.5 sum(A * dC/dlog l_i) over the full matrix.

        The reference forms A from the same covariance with the same LAPACK
        calls (dpotrf, dpotrs, dpotri), so both sides hold the same products
        and differ only in how they sum them.  Each side sums at most N^2
        products, each carrying a few roundings, so entry i differs by at
        most 2 gamma_{N^2+4} * 0.25 sum |D_i A C_se| / l_i.  Products may
        underflow: in Higham's model fl(x op y) = (x op y)(1 + d) + e with
        |e| <= 2^-1074 for a product, and an e made in one of the at most 5
        multiplications and divisions of a term is scaled by the factors
        applied after it.  Each of those is at most F_j = max(1, |A_j|, C_j,
        D_ij, 1/l_i), so the two sides add at most 2 * 5 * 2^-1074 * sum F^4.
        """
        X, y, hyper = case
        zero_jitter = bool(np.isneginf(hyper.log_jitter_var))
        theta = hyper.as_array()[:-1] if zero_jitter else hyper.as_array()
        _, grad = _nlml_value_grad(theta, _pairs(X), y)
        sqdists = dense_sqdists(X)
        ell = hyper.sq_lengths
        k = pair_matrix(X, hyper)
        k_se = k - hyper.jitter_var * np.eye(len(y))
        np.fill_diagonal(k_se, hyper.signal_var)
        # A exactly as _nlml_value_grad forms it, mirrored to the full matrix
        low, _ = dpotrf(k, lower=1)
        w, _ = dpotrs(low, y, lower=1)
        k_inv, _ = dpotri(low, lower=1)
        k_inv = np.tril(k_inv) + np.tril(k_inv, -1).T
        a = k_inv - np.outer(w, w)
        n_ops = len(y) ** 2 + 4
        for i in range(hyper.n_dims):
            loop = 0.5 * float(np.sum(a * (k_se * (0.5 * sqdists[i] / ell[i]))))
            bound = 2 * _gamma(n_ops) * 0.25 * float(
                np.sum(np.abs(sqdists[i] * a * k_se))) / ell[i]
            factors = np.maximum.reduce([np.ones_like(a), np.abs(a), k_se,
                                         sqdists[i], np.full_like(a, 1 / ell[i])])
            underflow = 2 * 5 * _TINY * float(np.sum(factors ** 4))
            assert abs(grad[i] - loop) <= bound + underflow

    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases(max_m=4, max_n=40))
    def test_property_matches_dense_reference(self, case):
        """The pair kernel agrees in value and gradient with a dense
        reference: the full covariance from the (M, N, N) distance stack,
        ``cholesky`` and ``cho_solve`` of the identity for C^-1.

        The bound is fixed by float64 error analysis (Higham 2002, ch. 10).
        Each side's covariance entries lie within gamma_{M+1} q / 2 + 5u of
        the exact ones (q = sum D_i / l_i; exp and the signal variance add 5u),
        so the two sides differ by eps_K = gamma_{M+1} q + 10u per entry, at
        most eps_K ||C||_2 in norm for these nonnegative entries.  Each
        Cholesky solve, and each column of either inverse, is exact for some
        C + E with ||E||_2 <= N gamma_{3N+1} / (1 - N gamma_{N+1}) ||C||_2
        (Thm 10.4 with ||L||L^T|| <= N ||C||).  With eta the sum of the two
        and rho = kappa eta / (1 - kappa eta), each side's w lies within
        rho ||w|| of the exact one, each inverse within sqrt(N) rho ||C^-1||
        in the Frobenius norm, and 0.5 log det C within 0.5 N rho.  So:

        * value: N rho + rho ||y|| ||w|| + 2 gamma_{N+2} sum |log L_ii|
          + gamma_N |y|.|w| + 2 gamma_3 (|0.5 log det| + |0.5 y.w| + N);
        * gradient i, 0.5 tr(A G_i) with A = C^-1 - w w^T:
          0.5 ||dA||_F ||G_i||_F + (eps_K + 2 gamma_4 + 2 gamma_{N^2+4})
          * 0.5 sum |A G_i| plus the underflow term 2 * 5 * 2^-1074 sum F^4
          of ``test_property_matches_per_dimension_loop``, where
          ||dA||_F <= 2 sqrt(N) rho ||C^-1|| + (4 rho + 4 rho^2) ||w||^2.
        """
        X, y, hyper = case
        n, m = X.shape
        zero_jitter = bool(np.isneginf(hyper.log_jitter_var))
        theta = hyper.as_array()[:-1] if zero_jitter else hyper.as_array()
        value, grad = _nlml_value_grad(theta, _pairs(X), y)

        sqdists = dense_sqdists(X)
        ell = hyper.sq_lengths
        q = np.tensordot(1.0 / ell, sqdists, axes=(0, 0))
        k_se = hyper.signal_var * np.exp(-0.5 * q)
        k = k_se + hyper.jitter_var * np.eye(n)
        low = cholesky(k, lower=True)
        w = cho_solve((low, True), y)
        k_inv = cho_solve((low, True), np.eye(n))
        a = k_inv - np.outer(w, w)
        half_logdet = float(np.sum(np.log(np.diag(low))))
        ref_value = half_logdet + 0.5 * float(y @ w) + 0.5 * n * np.log(2 * np.pi)
        d_c = [k_se * (0.5 * sqdists[i] / ell[i]) for i in range(m)] + [k_se]
        if not zero_jitter:
            d_c.append(hyper.jitter_var * np.eye(n))
        ref_grad = np.array([0.5 * float(np.sum(a * g)) for g in d_c])

        eps_k = _gamma(m + 1) * float(q.max()) + 10 * _U
        eta = eps_k + n * _gamma(3 * n + 1) / (1 - n * _gamma(n + 1))
        inv_norm = 1.0 / float(np.linalg.eigvalsh(k)[0])
        kappa = np.linalg.norm(k, 2) * inv_norm
        assert kappa * eta < 0.5
        rho = kappa * eta / (1 - kappa * eta)
        w_norm = float(np.linalg.norm(w))
        value_bound = (n * rho + rho * float(np.linalg.norm(y)) * w_norm
                       + 2 * _gamma(n + 2) * float(np.sum(np.abs(np.log(np.diag(low)))))
                       + _gamma(n) * float(np.abs(y) @ np.abs(w))
                       + 2 * _gamma(3) * (abs(half_logdet) + abs(0.5 * y @ w) + n))
        assert abs(value - ref_value) <= value_bound

        d_a = 2 * np.sqrt(n) * rho * inv_norm + (4 * rho + 4 * rho ** 2) * w_norm ** 2
        for i, g in enumerate(d_c):
            spread = 1 / ell[i] if i < m else 1.0
            factors = np.maximum.reduce([np.ones_like(a), np.abs(a), k_se,
                                         sqdists[i] if i < m else k_se,
                                         np.full_like(a, spread)])
            bound = (0.5 * d_a * np.linalg.norm(g)
                     + (eps_k + 2 * _gamma(4) + 2 * _gamma(n * n + 4))
                     * 0.5 * float(np.sum(np.abs(a * g)))
                     + 2 * 5 * _TINY * float(np.sum(factors ** 4)))
            assert abs(grad[i] - ref_grad[i]) <= bound

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
        pairs = _pairs(X)
        _, grad = _nlml_value_grad(theta, pairs, y)
        eps = 1e-6
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            fp = posterior(pairs, X, y, Hyperparameters(
                tp[:m], tp[m], tp[m + 1])).final_nlml
            fm = posterior(pairs, X, y, Hyperparameters(
                tm[:m], tm[m], tm[m + 1])).final_nlml
            fd = (fp - fm) / (2 * eps)
            assert abs(grad[i] - fd) <= 1e-5 * max(abs(fd), 1.0)

    def test_zero_targets_signal_gradient_positive(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (8, 2))
        h = make_hyper([0.5, 0.5], 1.0, 1e-4)
        _, grad = _nlml_value_grad(h.as_array(), _pairs(X), np.zeros(8))
        assert grad[2] > 0.0

    def test_scalar_closed_form(self):
        # N=1, M=1, zero jitter: d/dlog(rho1^2) = 1/2 - y^2 / (2 rho1^2)
        y = 0.9
        h = make_hyper([1.0], 2.0, 0.0)
        # the zero jitter is pinned: theta drops its entry
        _, grad = _nlml_value_grad(h.as_array()[:-1], _pairs(np.zeros((1, 1))),
                                   np.array([y]))
        assert np.isclose(grad[1], 0.5 - y ** 2 / 4.0)


class TestOneFormula:
    """Training, the fitted model and the likelihood condition on the same
    covariance, so their NLMLs agree bitwise, not merely to rounding."""

    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases())
    def test_property_nlml_paths_bitwise_equal(self, case):
        X, y, hyper = case
        zero_jitter = bool(np.isneginf(hyper.log_jitter_var))
        theta = hyper.as_array()[:-1] if zero_jitter else hyper.as_array()
        pairs = _pairs(X)
        value = _nlml_value_grad(theta, pairs, y)[0]
        assert value == posterior(pairs, X, y, hyper).final_nlml

    # fixed examples: this property needs a model, and a fit may end in
    # TrainingFailedError instead (see TestTrainingOutcome)
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=training_cases())
    def test_property_trained_nlml_is_objective(self, case):
        """``train_gp``'s final NLML is the objective at the returned
        hyperparameters, with a free jitter and with one pinned at zero."""
        X, y, zero_jitter = case
        [model] = train_gp(X, y[None], [GpTrainConfig(
            restarts=2, max_iter=30, jitter_floor=0.0 if zero_jitter else None)])
        theta = model.hyper.as_array()
        if zero_jitter:
            theta = theta[:-1]
        assert model.final_nlml == _nlml_value_grad(theta, _pairs(X), y)[0]


@st.composite
def fit_cases(draw):
    """(X, y, config) from ``gradient_cases``, its hyperparameters as the
    warm start, sometimes with flat targets and with input spans below
    1e-154, whose squares are subnormal or zero."""
    X, y, hyper = draw(gradient_cases())
    if draw(st.booleans()):
        y = np.full_like(y, y[0])
    X = X * draw(st.sampled_from([1.0, 1e-160, 5e-324]))
    zero_jitter = bool(np.isneginf(hyper.log_jitter_var))
    return X, y, GpTrainConfig(restarts=2, max_iter=30, warm_start=hyper,
                               jitter_floor=0.0 if zero_jitter else None)


class TestTrainingOutcome:
    """A fit ends in a model whose NLML is the objective at its
    hyperparameters, or in a ``TrainingFailedError`` whose message is true,
    and never warns (RuntimeWarnings are errors in this suite)."""

    @settings(max_examples=100, deadline=None)
    @given(case=fit_cases())
    @example(case=(np.array([[0.0, 0.0], [0.0, 1.0]]), np.zeros(2),
                   GpTrainConfig(restarts=2, max_iter=30, jitter_floor=0.0)))
    @example(case=(np.array([[0.0], [5e-324]]), np.array([1.0, -1.0]),
                   GpTrainConfig()))
    @example(case=(np.zeros((10, 1)), np.full(10, 2.27324455),
                   GpTrainConfig()))
    def test_property_model_or_true_error(self, case):
        X, y, config = case
        ends = []
        minimize = gp.minimize

        def recording(*args, **kwargs):
            result = minimize(*args, **kwargs)
            ends.append(result.x)
            return result

        zero_jitter = config.jitter_floor == 0.0
        pairs = _pairs(X)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "minimize", recording)
            try:
                [model] = train_gp(X, y[None], [config])
            except TrainingFailedError as err:
                message = str(err)
            else:
                theta = model.hyper.as_array()
                if zero_jitter:
                    theta = theta[:-1]
                assert model.final_nlml == _nlml_value_grad(theta, pairs, y)[0]
                return
        if message.startswith("duplicate input rows"):
            assert zero_jitter and len(np.unique(X, axis=0)) < len(X)
            return
        # every start ended where the objective cannot be evaluated
        reasons = []
        for theta in ends:
            with pytest.raises(IllConditionedKernelError) as err:
                _nlml_value_grad(theta, pairs, y)
            reasons.append(str(err.value))
        assert message.startswith(f"all {len(ends)} restarts failed (")
        assert message.endswith("): " + "; ".join(dict.fromkeys(reasons)))


class TestTraining:
    def test_zero_targets_predict_zero(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (6, 2))
        [model] = train_gp(X, np.zeros((1, 6)), [GpTrainConfig(restarts=2)])
        mean, _ = predict(model, np.array([0.4, 0.6]))
        assert abs(mean) < 1e-12

    def test_interpolation_smooth_1d(self):
        X = np.linspace(0, 1, 10)[:, None]
        y = np.sin(3 * X[:, 0])
        [model] = train_gp(X, y[None],
                           [GpTrainConfig(restarts=3, jitter_floor=0.0)])
        for x, t in zip(X, y):
            mean, var = predict(model, x)
            assert abs(mean - t) < 1e-6
            assert var < 1e-6

    def test_duplicate_rows_zero_jitter_fails(self):
        X = np.array([[0.5], [0.5], [0.1]])
        y = np.array([1.0, 2.0, 0.0])
        with pytest.raises(TrainingFailedError):
            train_gp(X, y[None], [GpTrainConfig(restarts=3, jitter_floor=0.0)])

    def test_training_never_worse_than_inits(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (12, 2))
        y = np.cos(4 * X[:, 0]) + X[:, 1]
        cfg = GpTrainConfig(restarts=4, seed=5)
        [model] = train_gp(X, y[None], [cfg])
        pairs = _pairs(X)
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
            assert model.final_nlml <= posterior(pairs, X, y, h).final_nlml + 1e-9

    @pytest.mark.parametrize("jitter_floor", [None, 0.0])
    def test_each_start_evaluated_once(self, monkeypatch, jitter_floor):
        # each start goes to L-BFGS-B once, whose first call evaluates it;
        # no separate pass evaluates it again
        seen = []
        kernel = gp._nlml_value_grad

        def spy(theta, *args):
            seen.append(theta.tobytes())
            return kernel(theta, *args)

        monkeypatch.setattr(gp, "_nlml_value_grad", spy)
        X = np.random.default_rng(3).uniform(0, 1, (10, 2))
        train_gp(X, (np.sin(3 * X[:, 0]) * X[:, 1])[None],
                 [GpTrainConfig(restarts=3, jitter_floor=jitter_floor)])
        assert len(seen) > 3
        assert all(a != b for a, b in zip(seen, seen[1:]))

    def test_failed_evaluation_reads_worse_than_every_real_nlml(self):
        # targets that differ only by rounding, fitted from a start at their
        # variance (8e-30) with the floor that variance would set: the real
        # NLMLs reach 1e29, above the old fixed sentinel of 1e25, before the
        # start reaches covariances dpotrf rejects
        X, y = np.zeros((10, 1)), np.full(10, 2.27324455) + 1e-15 * np.arange(10)
        var = float(np.var(y))
        config = GpTrainConfig(
            restarts=4, jitter_floor=1e-10 * var,
            warm_start=Hyperparameters(np.zeros(1), np.log(var),
                                       np.log(1e-10 * var)))
        pairs = _pairs(X)
        starts = []
        minimize = gp.minimize

        def recording(fun, x0, *args, **kwargs):
            seen = []
            starts.append(seen)

            def objective(theta):
                value, grad = fun(theta)
                try:
                    real = _nlml_value_grad(theta, pairs, y)[0]
                except IllConditionedKernelError:
                    real = None
                seen.append((real, value))
                return value, grad
            return minimize(objective, x0, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "minimize", recording)
            [model] = train_gp(X, y[None], [config])
        assert len(starts) == 5
        huge_then_failed = 0
        for seen in starts:
            for i, (real, value) in enumerate(seen):
                before = [r for r, _ in seen[:i] if r is not None]
                if real is not None:
                    assert value == real
                else:
                    assert value >= 1e25 and all(value > r for r in before)
                    huge_then_failed += max(before, default=0.0) >= 1e25
        assert huge_then_failed
        theta = model.hyper.as_array()
        assert model.final_nlml == _nlml_value_grad(theta, pairs, y)[0]

    @pytest.mark.parametrize("c", [2.27324455, 1.0, -3e5, 1e-8])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_constant_targets_fit(self, c, distinct):
        """Targets whose variance is lost in rounding against their mean
        square count as constant, exactly equal ones (zero variance, whatever
        ``np.var`` rounds to) included: the jitter floor and the
        signal-variance starts follow their mean square, and the fit ends in
        a model, not in the sentinel region of a floor set by rounding
        noise.  The targets step by 0 and by 1e-16, 1e-15 and 1e-10 of c."""
        X = np.linspace(0, 1, 10)[:, None] if distinct else np.zeros((10, 1))
        for step in (0.0, 1e-16, 1e-15, 1e-10):
            y = np.full(10, c) + step * abs(c) * np.arange(10)
            [model] = train_gp(X, y[None], [GpTrainConfig()])
            assert (model.hyper.jitter_var
                    >= 1e-10 * np.mean(y * y) * (1 - 1e-12))
            assert model.final_nlml < 1e25
            theta = model.hyper.as_array()
            assert model.final_nlml == _nlml_value_grad(theta, _pairs(X), y)[0]

    def test_warm_start_used(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (8, 1))
        y = np.sin(2 * X[:, 0])
        [base] = train_gp(X, y[None], [GpTrainConfig(restarts=3, seed=0)])
        [warm] = train_gp(X, y[None], [GpTrainConfig(restarts=1, seed=99,
                                                     warm_start=base.hyper)])
        assert warm.final_nlml <= base.final_nlml + 1e-8

    def test_warm_start_below_floor_is_clipped(self):
        # a warm start from a refit whose floor was lower is clipped onto
        # this fit's floor, never returned with its own jitter
        X = np.linspace(0, 1, 10)[:, None]
        y = np.sin(3 * X[:, 0])
        log_floor = np.log(1e-10 * np.var(y))
        [base] = train_gp(X, y[None], [GpTrainConfig(restarts=3, seed=0)])
        stale = Hyperparameters(base.hyper.log_sq_lengths,
                                base.hyper.log_signal_var, log_floor - 5.0)
        [model] = train_gp(X, y[None],
                           [GpTrainConfig(restarts=1, warm_start=stale)])
        assert model.hyper.log_jitter_var >= log_floor

    def test_warm_start_zero_jitter(self):
        # the pinned zero jitter drops the warm start's jitter entry
        X = np.linspace(0, 1, 7)[:, None]
        y = np.sin(3 * X[:, 0])
        cfg = GpTrainConfig(restarts=3, seed=0, jitter_floor=0.0)
        [base] = train_gp(X, y[None], [cfg])
        [warm] = train_gp(X, y[None], [GpTrainConfig(restarts=1, seed=99,
                                                     jitter_floor=0.0,
                                                     warm_start=base.hyper)])
        assert np.isneginf(warm.hyper.log_jitter_var)
        assert warm.final_nlml <= base.final_nlml + 1e-8
        # so does a warm start whose jitter is free
        [noisy] = train_gp(X, y[None], [GpTrainConfig(restarts=1, seed=99)])
        assert np.isfinite(noisy.hyper.log_jitter_var)
        [pinned] = train_gp(X, y[None], [GpTrainConfig(
            restarts=1, jitter_floor=0.0, warm_start=noisy.hyper)])
        assert np.isneginf(pinned.hyper.log_jitter_var)

    def test_warm_start_wrong_dims(self):
        X = np.random.default_rng(3).uniform(0, 1, (8, 2))
        y = X[:, 0] - X[:, 1]
        for dims in (1, 3):
            hyper = make_hyper(np.ones(dims), 1.0, 1e-6)
            with pytest.raises(ValueError):
                train_gp(X, y[None], [GpTrainConfig(warm_start=hyper)])


class TestPredict:
    @pytest.fixture()
    def model(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (9, 2))
        y = np.sin(3 * X[:, 0]) * np.cos(2 * X[:, 1])
        [model] = train_gp(X, y[None],
                           [GpTrainConfig(restarts=3, jitter_floor=0.0)])
        return model

    def test_interpolates_at_training_points(self, model):
        for x, t in zip(model.inputs, model.targets):
            mean, var = predict(model, x)
            assert abs(mean - t) < 1e-6
            assert var >= 0.0

    def test_single_point_closed_form(self):
        h = make_hyper([0.7], 1.9, 0.0)
        X = np.array([[0.2]])
        a = 1.4
        [model] = train_gp(X, np.array([[a]]),
                           [GpTrainConfig(restarts=1, jitter_floor=0.0)])
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
        perm = np.random.default_rng(6).permutation(model.targets.size)
        [shuffled] = train_gp(model.inputs[perm], model.targets[perm][None],
                              [GpTrainConfig(restarts=1, jitter_floor=0.0,
                                             warm_start=model.hyper)])
        x = np.array([0.33, 0.77])
        m1, v1 = predict(model, x)
        # rebuild with identical hyperparameters on permuted data
        low = cholesky(pair_matrix(model.inputs[perm], model.hyper),
                       lower=True)
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
