"""Exact Gaussian-process regression with a noisy squared-exponential kernel.

The kernel is rho1^2 * exp(-sum_i (x_i - x'_i)^2 / (2 l_i)) + rho2^2 * delta,
where the l_i are squared correlation lengths and delta is the Kronecker
delta (applied per training index, i.e. on the covariance diagonal; a fresh
prediction point never receives jitter against the training set).  The prior
mean is zero.  Hyperparameters are stored and optimized in log space;
training minimizes the negative log marginal likelihood with L-BFGS-B from
randomized scale-aware starts and keeps the best restart.  The training
covariance is assembled from its strictly lower pairs (i > j) and handled by
direct LAPACK calls that read only the lower triangle.  ``train_gp`` fits
rows of targets over the same inputs, one model per row, and builds their
pairs once; ``posterior`` conditions a model on given pairs and
hyperparameters.  A block on more than ``POOL_ROWS`` rows can run its starts
in forked worker processes, the package's only parallelism: on import this
module sets every loaded OpenBLAS to one thread, and nothing changes that
count later, so results do not depend on the count a process starts with.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import multiprocessing
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from .exceptions import IllConditionedKernelError, TrainingFailedError

_LOG_2PI = float(np.log(2.0 * np.pi))
_EPS = float(np.finfo(float).eps)


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


# building the pairs peaks at this multiple of what they hold (sqdists and
# flat: M + 1 entries of 8 bytes per pair), measured at N=400, M=9
_PAIRS_PEAK = 1.3


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, OSError, ValueError):
        return math.inf


def _pairs(X: np.ndarray) -> Pairs:
    """The pairs of the rows of X; ``TrainingFailedError`` before anything
    is allocated when building them would need more than physical memory."""
    n, m = X.shape
    needed = _PAIRS_PEAK * 8 * (m + 1) * (n * (n - 1) // 2)
    if needed > (memory := _physical_memory()):
        raise TrainingFailedError(
            f"the pair distances of N={n} training rows in M={m} dimensions "
            f"need {needed:.3g} bytes, more than the {memory:.3g} bytes of "
            "physical memory")
    rows, cols = np.tril_indices(n, -1)
    # one dimension at a time, so that no temporary is as large as sqdists
    sqdists, other = np.empty((m, rows.size)), np.empty(rows.size)
    for x, diff in zip(X.T, sqdists):
        np.take(x, rows, out=diff)
        np.take(x, cols, out=other)
        diff -= other
        diff *= diff
    return Pairs(sqdists, cols * n + rows, n)


def _condition(pairs: Pairs, sq_lengths: np.ndarray, signal_var: float,
               jitter_var: float, targets: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(k, low, w, nlml) of the GP conditioned on its targets.

    k holds the jitter-free pair covariances rho1^2 exp(-0.5 sum_i D_i / l_i),
    low the lower Cholesky factor of C (k below the diagonal, rho1^2 + rho2^2
    on it; Fortran-ordered, zeros above), and w = C^{-1} y.  Callers silence
    floating-point warnings: out-of-range hyperparameters may overflow k,
    and a non-finite covariance raises before it is factorized.
    """
    k = signal_var * np.exp((-0.5 / sq_lengths) @ pairs.sqdists)
    diag = signal_var + jitter_var
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
    w, _ = dpotrs(low, targets, lower=1)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    value = 0.5 * logdet + 0.5 * float(targets @ w) + 0.5 * n * _LOG_2PI
    return k, low, w, value


def cross_kernel(X: np.ndarray, x: np.ndarray, hyper: Hyperparameters) -> np.ndarray:
    """Covariances between the training rows and a fresh point (N,), or
    rows of fresh points (n, N); no jitter."""
    diff = X - x[..., None, :]
    q = (diff * diff) @ (1.0 / hyper.sq_lengths)
    return hyper.signal_var * np.exp(-0.5 * q)


def _nlml_value_grad(theta: np.ndarray, pairs: Pairs,
                     targets: np.ndarray) -> tuple[float, np.ndarray]:
    """NLML and its gradient over the free log-hyperparameters.

    ``theta`` is [log l_1..M, log rho1^2] for a zero jitter, or that plus
    log rho2^2 for a free one.  Gradient of 0.5 log det C + 0.5 y^T C^{-1} y
    is 0.5 tr(A dC/dtheta) with A = C^{-1} - w w^T and w = C^{-1} y; as A
    and dC/dtheta are symmetric, the trace is a sum over the pairs i > j
    plus the diagonal.  A non-finite value or gradient raises instead.
    """
    m = pairs.sqdists.shape[0]
    free_jitter = theta.size == m + 2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ell = np.exp(theta[:m])
        sig2 = float(np.exp(theta[m]))
        jit2 = float(np.exp(theta[m + 1])) if free_jitter else 0.0
        k, low, w, value = _condition(pairs, ell, sig2, jit2, targets)
        # C^{-1}, lower triangle only
        k_inv, info = dpotri(low, lower=1, overwrite_c=1)
        if info != 0:
            raise IllConditionedKernelError(
                f"kernel matrix is singular (dpotri info {info})")
        a_k = k_inv.ravel(order="F")[pairs.flat]
        a_k -= np.outer(w, w).ravel()[pairs.flat]
        a_k *= k
        trace_a = float(np.sum(np.diag(k_inv)) - w @ w)
        grad = np.empty(theta.size)
        # dC/dlog l_i = C_se * 0.5 D_i / l_i, with D_i the i-th squared
        # distances (zero on the diagonal)
        grad[:m] = 0.5 * (pairs.sqdists @ a_k) / ell
        grad[m] = float(np.sum(a_k)) + 0.5 * sig2 * trace_a
        if free_jitter:
            grad[m + 1] = 0.5 * jit2 * trace_a
    if not (math.isfinite(value) and all(map(math.isfinite, grad.tolist()))):
        raise IllConditionedKernelError("NLML or its gradient is not finite")
    return value, grad


@dataclass
class GpTrainConfig:
    """Settings for hyperparameter optimization.

    ``jitter_floor`` of None means 1e-10 times the target variance (their
    mean square for targets whose variance is at most machine epsilon times
    it, constant ones included; 1e-12 when that is 0); a floor of
    exactly 0 pins the jitter at zero and trains a noise-free
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


def posterior(pairs: Pairs, inputs: np.ndarray, targets: np.ndarray,
              hyper: Hyperparameters) -> GpModel:
    """The GP conditioned on its training data under fixed hyperparameters;
    ``pairs`` are the pairs of ``inputs`` (``_pairs``).

    Depends only on (inputs, targets, hyper): a model rebuilt from stored
    hyperparameters predicts bitwise like the trained one.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _, low, w, value = _condition(pairs, hyper.sq_lengths,
                                      hyper.signal_var, hyper.jitter_var,
                                      targets)
    return GpModel(inputs=inputs, targets=targets, hyper=hyper,
                   chol_lower=low, weights=w, final_nlml=value)


def train_gp(inputs: np.ndarray, targets: np.ndarray,
             configs: Sequence[GpTrainConfig]) -> list[GpModel]:
    """Fit hyperparameters by restarted NLML minimization.

    ``targets`` holds rows (R, N) with one config per row, and R models
    over the same inputs come back; R = 0 builds no pairs (``_pairs``).
    Initialization is scale-aware: log squared lengths are drawn uniformly
    in [log(0.01 s_i^2), log(10 s_i^2)] with s_i the input span in dimension
    i, and the signal variance starts around the target variance.  Every
    start, a warm start included, is clipped into the bounds and evaluated
    by L-BFGS-B (``_run_start``); a start that ends where the objective
    failed fails.  Each model achieves the lowest NLML among its row's
    other starts (never worse than any clipped start the objective can
    evaluate).  All starts run through one map, in worker processes on more
    than ``POOL_ROWS`` rows (``_start_pool``, same models as run here);
    every model is then conditioned here.  A row whose
    starts all fail raises ``TrainingFailedError`` with ``mode`` that row.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    rows = np.asarray(targets, dtype=float)
    configs = list(configs)
    n, m = inputs.shape
    if rows.ndim != 2 or rows.shape[1] != n or len(configs) != len(rows):
        raise ValueError("targets must be rows (R, N) with one entry per "
                         "input row, and one config per row")
    if n < 1:
        raise ValueError("training requires at least one point")

    plans = [_plan_starts(inputs, y, cfg, r)
             for r, (y, cfg) in enumerate(zip(rows, configs))]
    tasks = [(theta0, y, bounds, cfg.max_iter)
             for (inits, bounds, _), y, cfg in zip(plans, rows, configs)
             for theta0 in inits]
    if not tasks:
        return []
    pairs = _pairs(inputs)
    with _start_pool(pairs, len(tasks)) as pool:
        if pool is None:
            results = [_run_start(pairs, *task) for task in tasks]
        else:
            results = pool.starmap(_pooled_start, tasks, chunksize=1)
    models = []
    for r, ((inits, bounds, floor), y) in enumerate(zip(plans, rows)):
        row, results = results[:len(inits)], results[len(inits):]
        fits = [(value, theta) for theta, value, reason in row
                if reason is None]
        if not fits:
            reasons = dict.fromkeys(reason for _, _, reason in row)
            raise TrainingFailedError(
                f"all {len(inits)} restarts failed (N={n}, M={m}, "
                f"jitter_floor={floor}): " + "; ".join(reasons), mode=r)
        best_theta = min(fits, key=lambda fit: fit[0])[1]
        if bounds is None:   # the pinned zero jitter
            best_theta = np.append(best_theta, -np.inf)
        models.append(posterior(pairs, inputs, y,
                                Hyperparameters.from_array(best_theta)))
    return models


def _plan_starts(inputs: np.ndarray, targets: np.ndarray,
                 config: GpTrainConfig, mode: int
                 ) -> tuple[list[np.ndarray], list | None, float]:
    """The L-BFGS-B starts of one target vector, their bounds (None for a
    zero jitter floor, whose jitter is not optimized) and the floor."""
    n, m = inputs.shape
    # targets whose variance is lost in rounding against their mean square
    # (mean^2 + variance), exactly equal ones included, count as constant:
    # their scale is their mean square instead
    scale = float(np.var(targets))
    if scale <= _EPS * (mean_square := float(np.mean(targets ** 2))):
        scale = mean_square
    floor = config.jitter_floor
    if floor is None:
        floor = 1e-10 * scale if scale > 0 else 1e-12
    zero_jitter = floor == 0.0
    if zero_jitter and np.unique(inputs, axis=0).shape[0] < n:
        # duplicated rows make the noise-free covariance exactly singular,
        # which rounding inside the factorization may fail to detect
        raise TrainingFailedError(
            "duplicate input rows with a zero jitter floor give a singular "
            "covariance matrix", mode=mode)
    log_floor = np.log(floor) if floor > 0 else -np.inf

    spans = inputs.max(axis=0) - inputs.min(axis=0)
    # log(a s^2) below needs s^2 to be a normal float; other spans act as 1
    spans = np.where(spans ** 2 >= np.finfo(float).tiny, spans, 1.0)
    sig_scale = scale if scale > 0 else 1.0

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
        return [theta[:-1] for theta in inits], None, floor
    return inits, [(None, None)] * (m + 1) + [(log_floor, None)], floor


def _run_start(pairs: Pairs, theta0: np.ndarray, targets: np.ndarray,
               bounds, max_iter: int) -> tuple[np.ndarray, float, str | None]:
    """One L-BFGS-B start: its end point, the NLML there, and why the
    objective failed there (None when it did not).

    L-BFGS-B clips theta0 into the bounds before its first evaluation.  An
    evaluation that raises ``IllConditionedKernelError`` returns a zero
    gradient and a value above every NLML the start has seen (1e25 unless
    one of them reached it), so the optimizer never reads it as a decrease.
    """
    failed: dict[bytes, str] = {}   # why the objective failed, per theta
    worst = -math.inf

    def objective(theta):
        nonlocal worst
        try:
            value, grad = _nlml_value_grad(theta, pairs, targets)
        except IllConditionedKernelError as err:
            failed[theta.tobytes()] = str(err)
            sentinel = max(1e25, math.nextafter(worst, math.inf))
            return sentinel, np.zeros(theta.size)
        worst = max(worst, value)
        return value, grad

    result = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                      bounds=bounds, options={"maxiter": max_iter})
    return result.x, float(result.fun), failed.get(result.x.tobytes())


# ---------------------------------------------------------------------------
# Worker processes for the starts of large fits
# ---------------------------------------------------------------------------

# GPs trained on more rows than this may run their starts in worker processes
POOL_ROWS = 64

_worker_pairs: Pairs | None = None   # set in each worker of a start pool


def _init_worker(pairs: Pairs) -> None:
    global _worker_pairs
    _worker_pairs = pairs


def _pooled_start(*task):
    return _run_start(_worker_pairs, *task)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not Linux
        return os.cpu_count() or 1


class _BlasLibrary(NamedTuple):
    """One loaded OpenBLAS: its file and its thread-count functions."""

    path: str
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _openblas_thread_controls() -> tuple[_BlasLibrary, ...]:
    """Every OpenBLAS library loaded, or () when one of them has no
    thread-count functions (or the libraries cannot be listed).

    Looked up once per process: numpy and scipy load theirs on import,
    before any call here.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        suffix = next((s for s in ("64_", "") if hasattr(
            lib, f"scipy_openblas_set_num_threads{s}")), None)
        if suffix is None:
            return ()
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        get.argtypes, get.restype = [], ctypes.c_int
        set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append(_BlasLibrary(path, get, set_))
    return tuple(controls)


def blas_thread_counts() -> dict[str, int]:
    """The thread count of every loaded OpenBLAS, by library file name
    ({} when ``_openblas_thread_controls`` finds none)."""
    return {Path(lib.path).name: lib.get()
            for lib in _openblas_thread_controls()}


# One BLAS thread from import on, the only place a count is set: a model is
# conditioned at the count its starts ran at, in a worker or here, and a
# loaded archive at the same.
for _lib in _openblas_thread_controls():
    _lib.set(1)


@contextlib.contextmanager
def _start_pool(pairs: Pairs, n_tasks: int):
    """Yields a pool of min(n_tasks, usable CPUs) workers that inherited
    ``pairs``, or None; ``n_tasks`` counts the starts the pool will map.

    The pool exists when the rows number more than ``POOL_ROWS``, there are
    two or more starts, two or more CPUs are usable, the platform forks, no
    other thread runs (forking a threaded process is unsafe) and every
    loaded OpenBLAS can set its thread count, so that the workers inherit
    the one thread set on import; at two, two workers would fight over the
    cores.  The workers shut down on exit.
    """
    workers = min(n_tasks, _usable_cpus())
    if (pairs.n <= POOL_ROWS or workers < 2
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1
            or not _openblas_thread_controls()):
        yield None
        return
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_init_worker, initargs=(pairs,))
    try:
        yield pool
    finally:
        pool.terminate()
        pool.join()


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
    v, _ = dpotrs(model.chol_lower, c_star.T, lower=1)
    prior = model.hyper.signal_var + model.hyper.jitter_var
    variances = np.maximum(prior - np.sum(c_star.T * v, axis=0), 0.0)
    return means, variances
