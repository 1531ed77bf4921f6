"""Tests for OpenBLAS thread counts: the worker processes that run the
starts of large GP fits, and local training at one numpy BLAS thread."""

import contextlib
import multiprocessing
import threading
from pathlib import Path

import numpy as np
import pytest

from anovagp import emulator, gp
from anovagp.anova import SimCache, term_mean
from anovagp.emulator import load_emulator, save_emulator, train_local, \
    train_sgp
from anovagp.exceptions import IllConditionedKernelError, TrainingFailedError
from anovagp.gp import GpTrainConfig, train_gp
from anovagp.simulators import analytic_bank

N = gp.POOL_ROWS + 16
FAST = GpTrainConfig(restarts=3, max_iter=25, seed=4)

poolable = pytest.mark.skipif(
    gp._usable_cpus() < 2 or not gp._openblas_thread_controls(),
    reason="needs two usable CPUs and OpenBLAS thread-count functions")


@contextlib.contextmanager
def one_blas_thread():
    """This process at the workers' one BLAS thread, so that pooled and
    sequential starts do the same arithmetic."""
    with gp._blas_threads(1, gp._openblas_thread_controls()):
        yield


def data(n=N, m=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, m))
    return X, np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]


def assert_same_model(a, b):
    assert np.array_equal(a.hyper.as_array(), b.hyper.as_array())
    assert np.array_equal(a.chol_lower, b.chol_lower)
    assert np.array_equal(a.weights, b.weights)
    assert a.final_nlml == b.final_nlml


def assert_same_block(a, b):
    assert a.rank == b.rank
    for g, h in zip(a.mode_gps, b.mode_gps):
        assert_same_model(g, h)


def spy_pools(monkeypatch) -> list:
    """Record the pool (or None) of every ``_start_pool`` that ``train_gp``
    opens, with the child processes alive while it is open."""
    yielded = []
    start_pool = gp._start_pool

    @contextlib.contextmanager
    def spy(*args):
        with start_pool(*args) as pool:
            yielded.append((pool, len(multiprocessing.active_children())))
            yield pool

    monkeypatch.setattr(gp, "_start_pool", spy)
    return yielded


def sequential(*args):
    """``train_gp`` with every start run in this process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp, "_usable_cpus", lambda: 1)
        return train_gp(*args)


@poolable
class TestPooledStarts:
    @pytest.mark.parametrize("jitter_floor", [None, 0.0])
    def test_pooled_equals_sequential(self, monkeypatch, jitter_floor):
        X, y = data()
        cfg = GpTrainConfig(restarts=3, max_iter=25, seed=4,
                            jitter_floor=jitter_floor)
        with one_blas_thread():
            [expected] = sequential(X, y[None], [cfg])
            pools = spy_pools(monkeypatch)
            [pooled] = train_gp(X, y[None], [cfg])
        [(pool, children)] = pools
        assert pool is not None
        assert children == min(3, gp._usable_cpus())
        assert_same_model(pooled, expected)
        assert multiprocessing.active_children() == []

    def test_warm_start_pooled(self, monkeypatch):
        X, y = data(seed=1)
        [base] = train_gp(X, y[None], [FAST])
        cfg = GpTrainConfig(restarts=1, max_iter=25, warm_start=base.hyper)
        with one_blas_thread():
            [expected] = sequential(X, y[None], [cfg])
            pools = spy_pools(monkeypatch)
            [pooled] = train_gp(X, y[None], [cfg])
        assert [pool is not None for pool, _ in pools] == [True]
        assert_same_model(pooled, expected)

    def test_block_pooled_equals_sequential_and_per_row(self, monkeypatch):
        """Rows with a warm-start row and a zero-jitter row, fitted in one
        call through one pool, give the models of the same call run here
        and of one call per row."""
        X, y = data(seed=2)
        [base] = train_gp(X, y[None], [FAST])
        rows = np.stack([y, np.cos(2 * X[:, 0]), X[:, 1] - X[:, 2]])
        configs = [
            GpTrainConfig(restarts=1, max_iter=25, warm_start=base.hyper),
            GpTrainConfig(restarts=3, max_iter=25, seed=5, jitter_floor=0.0),
            FAST]
        with one_blas_thread():
            expected = sequential(X, rows, configs)
            per_row = [train_gp(X, row[None], [cfg])[0]
                       for row, cfg in zip(rows, configs)]
            pools = spy_pools(monkeypatch)
            pooled = train_gp(X, rows, configs)
        assert [pool is not None for pool, _ in pools] == [True]
        assert len(pooled) == len(expected) == 3
        for model, seq, single in zip(pooled, expected, per_row):
            assert_same_model(model, seq)
            assert_same_model(model, single)
        assert multiprocessing.active_children() == []

    def test_failed_row_names_its_mode(self, monkeypatch):
        X, y = data()
        rows = np.stack([y, 2 * y + 1, -y])
        pools = spy_pools(monkeypatch)
        nlml_value_grad = gp._nlml_value_grad

        def fails_on_row_1(theta, pairs, targets):
            if np.array_equal(targets, rows[1]):
                raise IllConditionedKernelError("forced failure")
            return nlml_value_grad(theta, pairs, targets)

        # the forked workers inherit the patched kernel
        monkeypatch.setattr(gp, "_nlml_value_grad", fails_on_row_1)
        with pytest.raises(TrainingFailedError,
                           match=r"^all 3 restarts failed .*: forced failure$"
                           ) as err:
            train_gp(X, rows, [FAST] * 3)
        assert err.value.mode == 1
        assert [pool is not None for pool, _ in pools] == [True]
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_train_sgp(self, monkeypatch):
        pools = spy_pools(monkeypatch)
        sim = analytic_bank("polynomial-mix", 4, 6)
        train_sgp(sim, N, seed=2, gp_config=FAST)
        assert pools and all(pool is not None for pool, _ in pools)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_failed_block(self, monkeypatch):
        pools = spy_pools(monkeypatch)

        def fails(*args):
            raise IllConditionedKernelError("forced failure")

        # the forked workers inherit the patched kernel
        monkeypatch.setattr(gp, "_nlml_value_grad", fails)
        sim = analytic_bank("polynomial-mix", 4, 6)
        with pytest.raises(TrainingFailedError,
                           match=r"term sgp, mode 0, .*all 3 restarts failed"
                                 r" .*: forced failure$"):
            train_sgp(sim, N, seed=2, gp_config=FAST)
        assert pools and pools[0][0] is not None
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("force", ["cpus", "setters"])
    def test_sequential_fallback_same_models(self, monkeypatch, force):
        sim = analytic_bank("polynomial-mix", 4, 6)
        controls = gp._openblas_thread_controls()
        with gp._blas_threads(1, controls):
            pooled = train_sgp(sim, N, seed=3, gp_config=FAST)
            pools = spy_pools(monkeypatch)
            if force == "cpus":
                monkeypatch.setattr(gp, "_usable_cpus", lambda: 1)
            else:
                monkeypatch.setattr(gp, "_openblas_thread_controls",
                                    lambda: [])
            sequential = train_sgp(sim, N, seed=3, gp_config=FAST)
        assert pools and all(pool is None for pool, _ in pools)
        assert_same_block(pooled, sequential)


def test_small_or_single_start_fits_stay_here():
    X, _ = data()
    with gp._start_pool(gp._pairs(X[:gp.POOL_ROWS]), 5) as pool:
        assert pool is None
    with gp._start_pool(gp._pairs(X), 1) as pool:
        assert pool is None
    assert multiprocessing.active_children() == []


@poolable
def test_one_start_rows_pool_and_lone_starts_stay_here(monkeypatch):
    """The pool is sized by the block's starts in all: two rows of one start
    each (as ``SCALED_CONFIG``'s S-GP has) fork min(2, CPUs) workers and
    give the models of the same starts run here, a block with one start in
    all forks nothing, and a rank-0 block opens no pool at all."""
    X, y = data()
    rows = np.stack([y, np.cos(2 * X[:, 0])])
    one_start = GpTrainConfig(restarts=1, max_iter=25)
    with one_blas_thread():
        expected = sequential(X, rows, [one_start] * 2)
        pools = spy_pools(monkeypatch)
        pooled = train_gp(X, rows, [one_start] * 2)
    [(pool, children)] = pools
    assert pool is not None
    assert children == min(2, gp._usable_cpus())
    assert len(pooled) == 2
    for model, seq in zip(pooled, expected):
        assert_same_model(model, seq)
    pools.clear()
    assert len(train_gp(X, y[None], [one_start])) == 1
    assert train_gp(X, np.empty((0, N)), []) == []
    assert pools == [(None, 0)]
    assert multiprocessing.active_children() == []


def test_other_threads_keep_fits_here():
    # forking a process that runs other threads is unsafe
    X, _ = data()
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with gp._start_pool(gp._pairs(X), 2) as pool:
            assert pool is None
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_blas_threads_restored():
    controls = gp._openblas_thread_controls()
    assert gp._openblas_thread_controls() is controls   # looked up once
    before = [lib.get() for lib in controls]
    with gp._blas_threads(1, controls):
        assert all(lib.get() == 1 for lib in controls)
    assert [lib.get() for lib in controls] == before


def test_loaded_sgp_predicts_like_trained_at_n200(tmp_path):
    """The posteriors of a pooled block are computed at this process's BLAS
    thread count, as a loaded archive's are, even where the factorization
    differs by thread count."""
    sim = analytic_bank("polynomial-mix", 4, 6)
    block = train_sgp(sim, 200, seed=5,
                      gp_config=GpTrainConfig(restarts=2, max_iter=15))
    path = tmp_path / "sgp.npz"
    save_emulator(block, str(path))
    loaded = load_emulator(str(path))
    assert_same_block(block, loaded)
    xs = sim.uniform_sample(np.random.default_rng(6), 50)
    assert np.array_equal(block.predict_mean(xs), loaded.predict_mean(xs))


def numpy_and_scipy_blas():
    """The file names of numpy's and of scipy's OpenBLAS, as
    ``gp.blas_thread_counts`` keys them."""
    names = {Path(lib.path).parent.name: Path(lib.path).name
             for lib in gp._openblas_thread_controls()}
    return names.get("numpy.libs"), names.get("scipy.libs")


NUMPY_BLAS, SCIPY_BLAS = numpy_and_scipy_blas()

two_blas = pytest.mark.skipif(
    NUMPY_BLAS is None or SCIPY_BLAS is None,
    reason="needs numpy's and scipy's own OpenBLAS with thread-count "
           "functions")


def spy_counts(monkeypatch, name, fail_on=None,
               counts=gp.blas_thread_counts):
    """Record the thread ``counts`` of every call to the ``emulator`` module
    function ``name``, on entry and after it returns; call ``fail_on``
    raises ``TrainingFailedError`` instead."""
    seen = []
    original = getattr(emulator, name)

    def spy(*args):
        entry = counts()
        if len(seen) == fail_on:
            raise TrainingFailedError("forced failure")
        result = original(*args)
        seen.append((entry, counts()))
        return result

    monkeypatch.setattr(emulator, name, spy)
    return seen


def local_block(n_train=29, gp_config=FAST):
    """Term (1, 2) of a 3-input simulator: 25 grid points, then active
    steps up to ``n_train``."""
    sim = analytic_bank("polynomial-mix", 3, 5)
    c = sim.anchor_point()
    cache = SimCache(sim)
    _, dataset = term_mean((1, 2), sim, c, cache)
    return train_local((1, 2), dataset, n_train, sim, c, cache,
                       pool_size=n_train + 30, seed=1, gp_config=gp_config)


@two_blas
class TestLocalTrainingThreads:
    def test_numpy_at_one_thread_scipy_kept(self, monkeypatch):
        before = gp.blas_thread_counts()
        pcas = spy_counts(monkeypatch, "fit_pca")
        fits = spy_counts(monkeypatch, "train_gp")
        local_block()
        assert len(pcas) == len(fits) == 29 - 25 + 1
        for entry, _ in pcas + fits:
            assert entry == {**before, NUMPY_BLAS: 1}
        assert gp.blas_thread_counts() == before

    def test_counts_restored_after_failure(self, monkeypatch):
        before = gp.blas_thread_counts()
        fits = spy_counts(monkeypatch, "train_gp", fail_on=2)
        with pytest.raises(TrainingFailedError,
                           match=r"term \(1, 2\), mode None, train_local "
                                 r"refit 2 .*forced failure"):
            local_block()
        assert len(fits) == 2
        assert gp.blas_thread_counts() == before

    def test_same_block_without_thread_controls(self, monkeypatch):
        """With no thread controls found, training runs at the counts it
        finds and gives bitwise the same block."""
        before = gp.blas_thread_counts()
        scoped = local_block()
        controls = gp._openblas_thread_controls()
        monkeypatch.setattr(gp, "_openblas_thread_controls", lambda: [])
        fits = spy_counts(monkeypatch, "train_gp", counts=lambda: {
            Path(lib.path).name: lib.get() for lib in controls})
        unscoped = local_block()
        assert fits and all(entry == before for entry, _ in fits)
        assert np.array_equal(scoped.train_inputs, unscoped.train_inputs)
        assert np.array_equal(scoped.train_values, unscoped.train_values)
        for field in ("mean", "components", "eigenvalues", "total_variance"):
            assert np.array_equal(getattr(scoped.pca, field),
                                  getattr(unscoped.pca, field))
        assert_same_block(scoped, unscoped)

    @poolable
    def test_pooled_block_restores_the_scope(self, monkeypatch):
        """Refits on more than ``POOL_ROWS`` rows fork workers inside the
        scope; each returns to numpy at one thread and scipy at its count,
        and no worker outlives it."""
        before = gp.blas_thread_counts()
        pools = spy_pools(monkeypatch)
        fits = spy_counts(monkeypatch, "train_gp")
        n_train = gp.POOL_ROWS + 2
        block = local_block(n_train, GpTrainConfig(restarts=2, max_iter=10))
        assert block.train_inputs.shape[0] == n_train
        assert [pool is not None for pool, _ in pools][-2:] == [True, True]
        for _, after in fits:
            assert after == {**before, NUMPY_BLAS: 1}
        assert gp.blas_thread_counts() == before
        assert multiprocessing.active_children() == []
