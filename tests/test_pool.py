"""Tests for the worker processes that run the starts of large GP fits, and
for the one OpenBLAS thread the package runs at from import on."""

import contextlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import anovagp
from anovagp import gp
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
        pooled = train_sgp(sim, N, seed=3, gp_config=FAST)
        pools = spy_pools(monkeypatch)
        if force == "cpus":
            monkeypatch.setattr(gp, "_usable_cpus", lambda: 1)
        else:
            monkeypatch.setattr(gp, "_openblas_thread_controls", lambda: [])
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


def test_loaded_sgp_predicts_like_trained_at_n200(tmp_path):
    """A pooled block's posteriors are computed here, at the thread count
    its starts ran at and a loaded archive is conditioned at."""
    sim = analytic_bank("polynomial-mix", 4, 6)
    block = train_sgp(sim, 200, seed=5,
                      gp_config=GpTrainConfig(restarts=2, max_iter=15))
    path = tmp_path / "sgp.npz"
    save_emulator(block, str(path))
    loaded = load_emulator(str(path))
    assert_same_block(block, loaded)
    xs = sim.uniform_sample(np.random.default_rng(6), 50)
    assert np.array_equal(block.predict_mean(xs), loaded.predict_mean(xs))


@poolable
@pytest.mark.parametrize("restarts", [1, 2])
def test_pooled_best_start_conditions_here(monkeypatch, restarts):
    """Each model is conditioned here at the thread count its start was
    evaluated at in a worker: these rows' best starts end at the jitter
    floor, where a factorization at another count can fail."""
    X = np.random.default_rng(250).uniform(size=(250, 3))
    rows = np.stack([np.sin(3 * X[:, 0] + r) * X[:, 1] + X[:, 2] ** 2
                     for r in range(5)])
    pools = spy_pools(monkeypatch)
    models = train_gp(X, rows, [GpTrainConfig(restarts=restarts)] * 5)
    assert [pool is not None for pool, _ in pools] == [True]
    pairs = gp._pairs(X)
    for model, y in zip(models, rows):
        value, _ = gp._nlml_value_grad(model.hyper.as_array(), pairs, y)
        assert model.final_nlml == value
        assert model.final_nlml == gp.posterior(pairs, X, y,
                                                model.hyper).final_nlml


def local_block():
    """Term (1, 2) of a 3-input simulator: 25 grid points, then active
    steps up to 29."""
    sim = analytic_bank("polynomial-mix", 3, 5)
    c = sim.anchor_point()
    cache = SimCache(sim)
    _, dataset = term_mean((1, 2), sim, c, cache)
    return train_local((1, 2), dataset, 29, sim, c, cache, pool_size=59,
                       seed=1, gp_config=FAST)


def pooled_sgp(monkeypatch):
    pools = spy_pools(monkeypatch)
    train_sgp(analytic_bank("polynomial-mix", 4, 6), N, seed=2,
              gp_config=FAST)
    assert pools and all(pool is not None for pool, _ in pools)


def failed_pooled_sgp(monkeypatch):
    def fails(*args):
        raise IllConditionedKernelError("forced failure")

    pools = spy_pools(monkeypatch)
    monkeypatch.setattr(gp, "_nlml_value_grad", fails)
    with pytest.raises(TrainingFailedError):
        train_sgp(analytic_bank("polynomial-mix", 4, 6), N, seed=2,
                  gp_config=FAST)
    assert pools and pools[0][0] is not None


@pytest.mark.skipif(not gp._openblas_thread_controls(),
                    reason="needs OpenBLAS thread-count functions")
@pytest.mark.parametrize("run", [
    pytest.param(lambda monkeypatch: None, id="import"),
    pytest.param(lambda monkeypatch: local_block(), id="train_local"),
    pytest.param(pooled_sgp, id="train_sgp", marks=poolable),
    pytest.param(failed_pooled_sgp, id="failure", marks=poolable)])
def test_one_blas_thread(monkeypatch, run):
    """Every OpenBLAS the package controls runs at the one thread set on
    import, and nothing the package runs changes that count."""
    assert gp._openblas_thread_controls() is gp._openblas_thread_controls()
    run(monkeypatch)
    counts = gp.blas_thread_counts()
    assert counts and set(counts.values()) == {1}
    assert multiprocessing.active_children() == []


def _archive_members(path: Path) -> dict[str, bytes]:
    with np.load(path) as data:
        return {name: data[name].tobytes() for name in data.files}


@pytest.mark.skipif(not gp._openblas_thread_controls(),
                    reason="needs OpenBLAS thread-count functions")
def test_outputs_do_not_depend_on_starting_threads(tmp_path):
    """``anovagp train`` started at one and at two OpenBLAS threads writes
    the same bytes: the package runs at one thread either way."""
    from test_acceptance import CHEAP_CONFIG

    config = tmp_path / "cheap.json"
    config.write_text(json.dumps(CHEAP_CONFIG))
    src = str(Path(anovagp.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "anovagp.cli", "train",
                        "--config", str(config), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    one, two = outs
    assert (one / "errors.csv").read_bytes() == (two / "errors.csv").read_bytes()
    for archive in ("anova_gp.npz", "sgp.npz"):
        assert _archive_members(one / archive) == _archive_members(two / archive)
    for out in outs:
        with open(out / "report.json") as fh:
            assert set(json.load(fh)["blas_threads"].values()) == {1}
