"""Exact Gaussian-process regression with a noisy squared-exponential kernel.

The kernel is rho1^2 * exp(-sum_i (x_i - x'_i)^2 / (2 l_i)) + rho2^2 * delta,
where the l_i are squared correlation lengths and delta is the Kronecker
delta (applied per training index, i.e. on the covariance diagonal; a fresh
prediction point never receives jitter against the training set).  The prior
mean is zero.  Hyperparameters are stored and optimized in log space;
training minimizes the negative log marginal likelihood with L-BFGS-B from
randomized scale-aware starts and keeps the best restart.  The training
covariance is assembled from its strictly lower pairs (i > j) and handled by
direct LAPACK calls that read only the lower triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from .exceptions import IllConditionedKernelError, TrainingFailedError

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Hyperparameters:
    """Kernel hyperparameters in log space.

    ``log_sq_lengths`` holds the logs of the M squared correlation lengths;
    a ``log_jitter_var`` of -inf means exactly zero jitter.
    """

    log_sq_lengths: np.ndarray
    log_signal_var: float
    log_jitter_var: float

    @property
    def sq_lengths(self) -> np.ndarray:
        return np.exp(self.log_sq_lengths)

    @property
    def signal_var(self) -> float:
        return float(np.exp(self.log_signal_var))

    @property
    def jitter_var(self) -> float:
        return float(np.exp(self.log_jitter_var))

    @property
    def n_dims(self) -> int:
        return self.log_sq_lengths.size

    def as_array(self) -> np.ndarray:
        """[log l_1..M, log rho1^2, log rho2^2] as one vector."""
        return np.concatenate([self.log_sq_lengths,
                               [self.log_signal_var, self.log_jitter_var]])

    @classmethod
    def from_array(cls, theta: np.ndarray) -> "Hyperparameters":
        """Inverse of ``as_array``."""
        return cls(log_sq_lengths=theta[:-2].copy(),
                   log_signal_var=float(theta[-2]),
                   log_jitter_var=float(theta[-1]))


class Pairs(NamedTuple):
    """The strictly lower pairs (i > j) of N training rows.

    ``sqdists`` is the (M, N(N-1)/2) C-contiguous array of per-dimension
    squared differences; ``flat`` holds each pair's offset j N + i in an
    (N, N) Fortran-ordered matrix, i.e. its place in the lower triangle.
    """

    sqdists: np.ndarray
    flat: np.ndarray
    n: int


def _pairs(X: np.ndarray) -> Pairs:
    n = X.shape[0]
    rows, cols = np.tril_indices(n, -1)
    xt = np.ascontiguousarray(X.T)
    diff = np.take(xt, rows, axis=1) - np.take(xt, cols, axis=1)
    diff *= diff
    return Pairs(diff, cols * n + rows, n)


def _pair_covariances(pairs: Pairs, sq_lengths: np.ndarray,
                      signal_var: float) -> np.ndarray:
    """Jitter-free covariances rho1^2 exp(-0.5 sum_i D_i / l_i) of the pairs."""
    # out-of-range hyperparameters may overflow here; _cholesky checks the
    # result for finiteness before factorizing
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return signal_var * np.exp((-0.5 / sq_lengths) @ pairs.sqdists)


def _cholesky(pairs: Pairs, k: np.ndarray, diag: float) -> np.ndarray:
    """Lower Cholesky factor of the training covariance with off-diagonal
    pair covariances ``k`` and diagonal ``diag``.

    The factor is Fortran-ordered with zeros above the diagonal; LAPACK
    reads and writes only the lower triangle.
    """
    if not (np.isfinite(diag) and np.all(np.isfinite(k))):
        raise IllConditionedKernelError("kernel matrix has non-finite entries")
    n = pairs.n
    c = np.zeros(n * n)
    c[pairs.flat] = k
    c[::n + 1] = diag
    low, info = dpotrf(c.reshape(n, n, order="F"), lower=1, clean=0,
                       overwrite_a=1)
    if info != 0:
        raise IllConditionedKernelError(
            f"kernel matrix is not positive definite (dpotrf info {info})")
    return low


def _solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C^{-1} b from the lower Cholesky factor of C."""
    x, _ = dpotrs(low, b, lower=1)
    return x


def cross_kernel(X: np.ndarray, x: np.ndarray, hyper: Hyperparameters) -> np.ndarray:
    """Covariances between the training rows and a fresh point (N,), or
    rows of fresh points (n, N); no jitter."""
    diff = X - x[..., None, :]
    q = (diff * diff) @ (1.0 / hyper.sq_lengths)
    return hyper.signal_var * np.exp(-0.5 * q)


def _nlml_from_parts(chol_lower: np.ndarray, weights: np.ndarray,
                     targets: np.ndarray) -> float:
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol_lower))))
    n = targets.size
    return 0.5 * logdet + 0.5 * float(targets @ weights) + 0.5 * n * _LOG_2PI


def nlml(hyper: Hyperparameters, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Negative log marginal likelihood of the targets under the kernel."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    return posterior(inputs, np.asarray(targets, dtype=float), hyper).final_nlml


def _nlml_value_grad(theta: np.ndarray, pairs: Pairs,
                     targets: np.ndarray) -> tuple[float, np.ndarray]:
    """NLML and its gradient over the free log-hyperparameters.

    ``theta`` is [log l_1..M, log rho1^2] for a zero jitter, or that plus
    log rho2^2 for a free one.  Gradient of 0.5 log det C + 0.5 y^T C^{-1} y
    is 0.5 tr(A dC/dtheta) with A = C^{-1} - w w^T and w = C^{-1} y; as A
    and dC/dtheta are symmetric, the trace is a sum over the pairs i > j
    plus the diagonal.
    """
    m = pairs.sqdists.shape[0]
    free_jitter = theta.size == m + 2
    with np.errstate(over="ignore"):
        ell = np.exp(theta[:m])
        sig2 = float(np.exp(theta[m]))
        jit2 = float(np.exp(theta[m + 1])) if free_jitter else 0.0

    k = _pair_covariances(pairs, ell, sig2)
    low = _cholesky(pairs, k, sig2 + jit2)
    w = _solve(low, targets)
    value = _nlml_from_parts(low, w, targets)

    k_inv, info = dpotri(low, lower=1, overwrite_c=1)   # lower triangle only
    if info != 0:
        raise IllConditionedKernelError(
            f"kernel matrix is singular (dpotri info {info})")
    a_k = k_inv.ravel(order="F")[pairs.flat]
    a_k -= np.outer(w, w).ravel()[pairs.flat]
    a_k *= k
    trace_a = float(np.sum(np.diag(k_inv)) - w @ w)
    grad = np.empty(theta.size)
    # dC/dlog l_i = C_se * 0.5 D_i / l_i, with D_i the i-th squared distances
    # (zero on the diagonal)
    grad[:m] = 0.5 * (pairs.sqdists @ a_k) / ell
    grad[m] = float(np.sum(a_k)) + 0.5 * sig2 * trace_a
    if free_jitter:
        grad[m + 1] = 0.5 * jit2 * trace_a
    return value, grad


def nlml_gradient(hyper: Hyperparameters, inputs: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
    """Analytic gradient of the NLML over [log l_1..M, log rho1^2, log rho2^2].

    With zero jitter the last component is reported as 0.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    theta = hyper.as_array()
    zero_jitter = np.isneginf(hyper.log_jitter_var)
    _, grad = _nlml_value_grad(theta[:-1] if zero_jitter else theta,
                               _pairs(inputs), np.asarray(targets, dtype=float))
    return np.append(grad, 0.0) if zero_jitter else grad


@dataclass
class GpTrainConfig:
    """Settings for hyperparameter optimization.

    ``jitter_floor`` of None means 1e-10 times the target variance; a floor
    of exactly 0 pins the jitter at zero and trains a noise-free
    (interpolating) model.  A ``warm_start`` is tried before the random
    restarts.
    """

    restarts: int = 5
    max_iter: int = 100
    jitter_floor: float | None = None
    seed: int = 0
    warm_start: Hyperparameters | None = None


@dataclass
class GpModel:
    """A trained GP: data, hyperparameters and the factorized covariance."""

    inputs: np.ndarray          # (N, M)
    targets: np.ndarray         # (N,)
    hyper: Hyperparameters
    chol_lower: np.ndarray      # (N, N)
    weights: np.ndarray         # C^{-1} targets
    final_nlml: float

    @property
    def n_train(self) -> int:
        return self.targets.size


def posterior(inputs: np.ndarray, targets: np.ndarray, hyper: Hyperparameters,
              pairs: Pairs | None = None) -> GpModel:
    """The GP conditioned on its training data under fixed hyperparameters.

    Depends only on (inputs, targets, hyper): a model rebuilt from stored
    hyperparameters predicts bitwise like the trained one.
    """
    if pairs is None:
        pairs = _pairs(inputs)
    k = _pair_covariances(pairs, hyper.sq_lengths, hyper.signal_var)
    low = _cholesky(pairs, k, hyper.signal_var + hyper.jitter_var)
    w = _solve(low, targets)
    return GpModel(inputs=inputs, targets=targets, hyper=hyper,
                   chol_lower=low, weights=w,
                   final_nlml=_nlml_from_parts(low, w, targets))


def train_gp(inputs: np.ndarray, targets: np.ndarray,
             config: GpTrainConfig | None = None) -> GpModel:
    """Fit hyperparameters by restarted NLML minimization.

    Initialization is scale-aware: log squared lengths are drawn uniformly in
    [log(0.01 s_i^2), log(10 s_i^2)] with s_i the input span in dimension i,
    and the signal variance starts around the target variance.  Every start,
    a warm start included, is clipped into the bounds and evaluated by
    L-BFGS-B.  The returned model achieves the lowest NLML among all starts
    (never worse than any start clipped into the bounds).
    """
    config = config or GpTrainConfig()
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.asarray(targets, dtype=float)
    n, m = inputs.shape
    if targets.shape != (n,):
        raise ValueError("targets must be a vector with one entry per input row")
    if n < 1:
        raise ValueError("training requires at least one point")

    target_var = float(np.var(targets))
    floor = config.jitter_floor
    if floor is None:
        floor = 1e-10 * target_var if target_var > 0 else 1e-12
    zero_jitter = floor == 0.0
    if zero_jitter and np.unique(inputs, axis=0).shape[0] < n:
        # duplicated rows make the noise-free covariance exactly singular,
        # which rounding inside the factorization may fail to detect
        raise TrainingFailedError(
            "duplicate input rows with a zero jitter floor give a singular "
            "covariance matrix")
    log_floor = np.log(floor) if floor > 0 else -np.inf

    spans = inputs.max(axis=0) - inputs.min(axis=0)
    spans = np.where(spans > 0, spans, 1.0)
    sig_scale = target_var if target_var > 0 else 1.0

    rng = np.random.default_rng(config.seed)
    inits = []
    if config.warm_start is not None:
        if config.warm_start.n_dims != m:
            raise ValueError(f"warm start has {config.warm_start.n_dims} "
                             f"length scales, the inputs {m} dimensions")
        inits.append(config.warm_start.as_array())
    for _ in range(max(config.restarts, 1)):
        log_ell = rng.uniform(np.log(0.01 * spans ** 2), np.log(10.0 * spans ** 2))
        log_sig2 = np.log(sig_scale) + rng.uniform(-1.0, 1.0)
        inits.append(np.concatenate([log_ell, [log_sig2, log_floor]]))
    if zero_jitter:   # the pinned jitter is not optimized
        inits = [theta[:-1] for theta in inits]

    pairs = _pairs(inputs)
    big = 1e25

    def objective(theta):
        try:
            return _nlml_value_grad(theta, pairs, targets)
        except IllConditionedKernelError:
            return big, np.zeros(theta.size)

    bounds = None if zero_jitter else [(None, None)] * (m + 1) + [(log_floor, None)]

    # L-BFGS-B clips each start into the bounds before its first evaluation
    best_value = np.inf
    best_theta = None
    for theta0 in inits:
        result = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                          bounds=bounds,
                          options={"maxiter": config.max_iter})
        if result.fun < best_value:
            best_value, best_theta = float(result.fun), np.asarray(result.x)

    if best_theta is None or best_value >= big:
        raise TrainingFailedError(
            f"all {len(inits)} restarts failed (N={n}, M={m}, "
            f"jitter_floor={floor}); the kernel matrix is singular")
    if zero_jitter:
        best_theta = np.append(best_theta, -np.inf)
    return posterior(inputs, targets, Hyperparameters.from_array(best_theta),
                     pairs)


def predict(model: GpModel, x: np.ndarray) -> tuple[float, float]:
    """Predictive mean and (clamped nonnegative) variance at one point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.inputs.shape[1],):
        raise ValueError(
            f"expected input of shape ({model.inputs.shape[1]},), got {x.shape}")
    means, variances = predict_batch(model, x[None, :])
    return float(means[0]), float(variances[0])


def predict_batch(model: GpModel, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized predictive means and variances for rows of ``xs``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    c_star = cross_kernel(model.inputs, xs, model.hyper)   # (n_pts, N)
    means = c_star @ model.weights
    v = _solve(model.chol_lower, c_star.T)
    prior = model.hyper.signal_var + model.hyper.jitter_var
    variances = np.maximum(prior - np.sum(c_star.T * v, axis=0), 0.0)
    return means, variances
