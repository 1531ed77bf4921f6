"""Tests for the local emulators, active training, assembly, S-GP and archives."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anovagp import emulator, gp
from anovagp.anova import SimCache, adaptive_decompose, term_mean, term_value
from anovagp.emulator import (assemble, load_emulator, predict_sgp_mean,
                              save_emulator, train_local, train_sgp,
                              variance_indicator)
from anovagp.exceptions import ConfigError, UndefinedIndicatorError
from anovagp.gp import GpTrainConfig, cross_kernel, predict
from anovagp.pca import project, reconstruct
from anovagp.simulators import Simulator, analytic_bank

FAST_GP = GpTrainConfig(restarts=2, max_iter=60)


class ConstantSimulator(Simulator):
    def __init__(self, m, value):
        self.input_dim = m
        self.output_dim = value.size
        self.intervals = np.tile([0.0, 1.0], (m, 1))
        self.value = value

    def evaluate(self, xi):
        return np.array(self.value)


def make_local(sim, t, n_train=8, seed=0, pool_size=40, gp_config=FAST_GP):
    c = sim.anchor_point()
    cache = SimCache(sim)
    _, dataset = term_mean(t, sim, c, cache)
    local = train_local(t, dataset, n_train, sim, c, cache,
                        pool_size=pool_size, seed=seed, gp_config=gp_config)
    return local, c, cache


def spy_on(monkeypatch, name):
    """Record the positional arguments and the result of every call made to
    the ``emulator`` module function ``name``."""
    calls = []
    original = getattr(emulator, name)

    def spy(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(emulator, name, spy)
    return calls


class TestVarianceIndicator:
    def test_rank_zero_undefined(self):
        sim = ConstantSimulator(2, np.array([1.0, 2.0]))
        local, _, _ = make_local(sim, (1,), n_train=5)
        assert local.rank == 0
        with pytest.raises(UndefinedIndicatorError):
            variance_indicator(local, np.array([[0.5]]))

    def test_weighted_average_formula(self):
        sim = analytic_bank("polynomial-mix", 2, 6)
        local, _, _ = make_local(sim, (1, 2), n_train=10)
        assert local.rank >= 1
        xs = np.array([[0.31, 0.64], [0.9, 0.05]])
        lam = local.pca.eigenvalues
        tau = variance_indicator(local, xs)
        assert tau.shape == (2,)
        for x, got in zip(xs, tau):
            expected = sum(lam[r] * predict(g, x)[1]
                           for r, g in enumerate(local.mode_gps)) / lam.sum()
            assert np.isclose(got, expected, rtol=1e-12)

    def test_small_at_training_points(self):
        sim = analytic_bank("additive", 2, 5)
        local, _, _ = make_local(sim, (1,), n_train=8)
        prior = max(g.hyper.signal_var for g in local.mode_gps)
        tau = variance_indicator(local, local.train_inputs)
        assert np.all(tau < 1e-6 * max(prior, 1.0))


class TestTrainLocal:
    def test_budget_and_grid_prefix(self):
        sim = analytic_bank("additive", 3, 5)
        c = sim.anchor_point()
        cache = SimCache(sim)
        _, dataset = term_mean((2,), sim, c, cache)
        local = train_local((2,), dataset, 9, sim, c, cache, pool_size=30,
                            seed=1, gp_config=FAST_GP)
        assert local.train_inputs.shape == (9, 1)
        n0 = dataset.grid.n_points
        assert np.array_equal(local.train_inputs[:n0], dataset.grid.points)

    def test_pool_must_exceed_budget(self):
        sim = analytic_bank("additive", 2, 4)
        c = sim.anchor_point()
        cache = SimCache(sim)
        _, dataset = term_mean((1,), sim, c, cache)
        with pytest.raises(ValueError):
            train_local((1,), dataset, 10, sim, c, cache, pool_size=10)

    def test_constant_term_short_circuits(self):
        sim = ConstantSimulator(2, np.array([3.0, -1.0]))
        local, _, cache = make_local(sim, (1, 2), n_train=12)
        assert local.rank == 0
        assert local.mode_gps == []
        # no active evaluations happen beyond the quadrature grid
        assert local.train_inputs.shape[0] == 25

    def test_acquisition_is_argmax_of_indicator(self, monkeypatch):
        sim = analytic_bank("polynomial-mix", 2, 5)
        steps = spy_on(monkeypatch, "variance_indicator")
        local, _, _ = make_local(sim, (1,), n_train=9)
        assert len(steps) == 9 - 5
        for k, ((block, pool), tau) in enumerate(steps):
            assert np.array_equal(block.train_inputs, local.train_inputs[:5 + k])
            assert np.array_equal(local.train_inputs[5 + k],
                                  pool[int(np.argmax(tau))])

    def test_trace_matches_pointwise_indicator(self, monkeypatch):
        sim = analytic_bank("additive", 2, 4)
        steps = spy_on(monkeypatch, "variance_indicator")
        local, _, _ = make_local(sim, (2,), n_train=7)
        (block, pool), _ = steps[0]
        assert np.array_equal(block.train_inputs, local.train_inputs[:5])
        lam = block.pca.eigenvalues
        taus = [sum(lam[r] * predict(g, x)[1]
                    for r, g in enumerate(block.mode_gps)) / lam.sum()
                for x in pool]
        assert np.array_equal(local.train_inputs[5], pool[int(np.argmax(taus))])

    @pytest.mark.parametrize("jitter_floor", [None, 0.0])
    def test_refits_warm_start_from_previous(self, monkeypatch, jitter_floor):
        sim = analytic_bank("polynomial-mix", 2, 5)
        fits = spy_on(monkeypatch, "train_gp")
        config = GpTrainConfig(restarts=3, max_iter=60,
                               jitter_floor=jitter_floor)
        local, _, _ = make_local(sim, (1,), n_train=9, gp_config=config)
        # one refit trains every mode on the same inputs array
        refits = []
        for (inputs, _, cfg), model in fits:
            if not refits or refits[-1][0][0] is not inputs:
                refits.append([])
            refits[-1].append((inputs, cfg, model))
        assert len(refits) == 9 - 5 + 1
        assert local.rank >= 1
        assert all(cfg.warm_start is None and cfg.restarts == 3
                   for _, cfg, _ in refits[0])
        for previous, current in zip(refits, refits[1:]):
            for r, (_, cfg, _) in enumerate(current):
                if r < len(previous):
                    assert cfg.restarts == 1
                    assert cfg.warm_start is previous[r][2].hyper

    def test_acquired_values_are_term_values(self):
        sim = analytic_bank("polynomial-mix", 3, 5)
        local, c, cache = make_local(sim, (1, 2), n_train=27)
        for x, v in zip(local.train_inputs[25:], local.train_values[25:]):
            assert np.allclose(v, term_value((1, 2), x, sim, c, cache),
                               atol=1e-13)

    def test_determinism(self):
        sim = analytic_bank("additive", 2, 5)
        a, _, _ = make_local(sim, (1,), n_train=8, seed=3)
        b, _, _ = make_local(sim, (1,), n_train=8, seed=3)
        assert np.array_equal(a.train_inputs, b.train_inputs)
        for ga, gb in zip(a.mode_gps, b.mode_gps):
            assert np.array_equal(ga.hyper.log_sq_lengths,
                                  gb.hyper.log_sq_lengths)


class TestPredictLocal:
    def test_rank_zero_constant(self):
        sim = ConstantSimulator(2, np.array([1.0, 2.0]))
        local, _, _ = make_local(sim, (1,), n_train=5)
        assert np.allclose(local.predict_mean(np.array([0.2])), 0.0,
                           atol=1e-13)
        assert np.allclose(local.predict_mean(np.array([[0.2], [0.7]])), 0.0,
                           atol=1e-13)

    def test_interpolates_training_data(self):
        # prediction at a training point matches the PCA reconstruction of
        # the stored value (truncation error is inherent, GP error is not)
        sim = analytic_bank("polynomial-mix", 2, 6)
        local, _, _ = make_local(sim, (1,), n_train=10)
        scale = np.max(np.abs(local.train_values)) + 1e-30
        preds = local.predict_mean(local.train_inputs)
        for pred, v in zip(preds, local.train_values):
            target = reconstruct(local.pca, project(local.pca, v))
            assert np.max(np.abs(pred - target)) < 1e-3 * scale

    def test_term_accuracy_off_grid(self):
        sim = analytic_bank("additive", 2, 5)
        local, c, cache = make_local(sim, (1,), n_train=12)
        xs = np.random.default_rng(0).uniform(0, 1, (10, 1))
        for x, pred in zip(xs, local.predict_mean(xs)):
            truth = term_value((1,), x, sim, c, cache)
            assert np.max(np.abs(pred - truth)) < 1e-3

    def test_dimension_mismatch(self):
        sim = analytic_bank("additive", 2, 5)
        local, _, _ = make_local(sim, (1,), n_train=6)
        for bad in (np.array([0.1, 0.2]), np.zeros((3, 2)), np.zeros(0)):
            with pytest.raises(ConfigError):
                local.predict_mean(bad)


class TestAssemble:
    @pytest.fixture()
    def pieces(self):
        sim = analytic_bank("additive", 3, 6)
        result = adaptive_decompose(sim, tol_index=1e-8)
        locals_map = {}
        for t, dataset in result.datasets.items():
            locals_map[t] = train_local(t, dataset, 10, sim, result.anchor,
                                        result.cache, pool_size=40, seed=5,
                                        gp_config=FAST_GP)
        return sim, result, locals_map

    def test_missing_local_rejected(self, pieces):
        _, result, locals_map = pieces
        incomplete = dict(list(locals_map.items())[:-1])
        with pytest.raises(ValueError):
            assemble(result.selection, result.anchor_output, incomplete,
                     result.anchor)

    def test_prediction_at_anchor(self, pieces):
        sim, result, locals_map = pieces
        emu = assemble(result.selection, result.anchor_output, locals_map,
                       result.anchor)
        pred = emu.predict_mean(result.anchor)
        scale = np.max(np.abs(result.anchor_output))
        assert np.max(np.abs(pred - result.anchor_output)) < 1e-6 * scale

    def test_additive_end_to_end_accuracy(self, pieces):
        sim, result, locals_map = pieces
        emu = assemble(result.selection, result.anchor_output, locals_map,
                       result.anchor)
        xs = np.random.default_rng(11).uniform(0, 1, (15, 3))
        for xi, pred in zip(xs, emu.predict_mean(xs)):
            truth = sim.evaluate(xi)
            err = np.linalg.norm(pred - truth)
            assert err / np.linalg.norm(truth) < 1e-3

    def test_locals_in_index_order(self, pieces):
        _, result, locals_map = pieces
        emu = assemble(result.selection, result.anchor_output, locals_map,
                       result.anchor)
        keys = list(emu.locals)
        assert keys == sorted(keys, key=lambda t: (len(t), t))


class TestSgp:
    def test_invalid_budget(self):
        sim = analytic_bank("additive", 2, 4)
        with pytest.raises(ValueError):
            train_sgp(sim, 0)

    def test_rank_one_simulator(self):
        sim = analytic_bank("rank-one-product", 2, 6)
        emu = train_sgp(sim, 20, seed=2, gp_config=FAST_GP)
        assert emu.rank == 1
        assert emu.coords == (1, 2)
        assert emu.train_values.shape == (20, 6)

    def test_cache_accounting(self):
        sim = analytic_bank("additive", 2, 4)
        cache = SimCache(sim)
        train_sgp(sim, 15, seed=3, gp_config=FAST_GP, cache=cache)
        assert cache.misses == 15

    def test_accuracy_on_smooth_target(self):
        sim = analytic_bank("rank-one-product", 2, 6)
        emu = train_sgp(sim, 30, seed=4, gp_config=FAST_GP)
        xs = np.random.default_rng(6).uniform(0, 1, (10, 2))
        for xi, pred in zip(xs, predict_sgp_mean(emu, xs)):
            truth = sim.evaluate(xi)
            err = np.linalg.norm(pred - truth)
            assert err / np.linalg.norm(truth) < 1e-2

    def test_constant_outputs(self):
        sim = ConstantSimulator(2, np.array([4.0, -2.0, 1.0]))
        emu = train_sgp(sim, 5, seed=0)
        assert emu.rank == 0
        assert np.allclose(predict_sgp_mean(emu, np.array([0.5, 0.5])),
                           [4.0, -2.0, 1.0])
        assert np.allclose(predict_sgp_mean(emu, np.full((3, 2), 0.5)),
                           [[4.0, -2.0, 1.0]] * 3)

    def test_point_width_checked(self):
        sim = analytic_bank("additive", 2, 4)
        emu = train_sgp(sim, 8, seed=1, gp_config=FAST_GP)
        for bad in (np.zeros(3), np.zeros(1), np.zeros((4, 3)),
                    np.zeros((2, 2, 2))):
            with pytest.raises(ConfigError):
                predict_sgp_mean(emu, bad)


class TestSerialization:
    def test_anova_gp_roundtrip_bitwise(self, tmp_path):
        sim = analytic_bank("polynomial-mix", 3, 5)
        result = adaptive_decompose(sim, tol_index=1e-6)
        locals_map = {
            t: train_local(t, ds, 8 if len(t) == 1 else 27, sim,
                           result.anchor, result.cache, pool_size=60, seed=7,
                           gp_config=FAST_GP)
            for t, ds in result.datasets.items()}
        emu = assemble(result.selection, result.anchor_output, locals_map,
                       result.anchor)
        path = tmp_path / "anova_gp.npz"
        save_emulator(emu, str(path))
        loaded = load_emulator(str(path))
        assert loaded.selection.orders == result.selection.orders
        assert loaded.selection.weights == result.selection.weights
        rng = np.random.default_rng(8)
        for _ in range(10):
            xi = rng.uniform(0, 1, 3)
            assert np.array_equal(emu.predict_mean(xi),
                                  loaded.predict_mean(xi))

    def test_sgp_roundtrip_bitwise(self, tmp_path):
        sim = analytic_bank("additive", 2, 4)
        emu = train_sgp(sim, 12, seed=9, gp_config=FAST_GP)
        path = tmp_path / "sgp.npz"
        save_emulator(emu, str(path))
        loaded = load_emulator(str(path))
        rng = np.random.default_rng(10)
        for _ in range(10):
            xi = rng.uniform(0, 1, 2)
            assert np.array_equal(predict_sgp_mean(emu, xi),
                                  predict_sgp_mean(loaded, xi))

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_emulator(object(), str(tmp_path / "x.npz"))

    def test_version_check(self, tmp_path):
        sim = analytic_bank("additive", 2, 4)
        emu = train_sgp(sim, 6, seed=1, gp_config=FAST_GP)
        path = tmp_path / "sgp.npz"
        save_emulator(emu, str(path))
        for patch in ({"schema_version": 999}, {"schema_version": 1},
                      {"kind": "tree"}):
            bad = tmp_path / "bad.npz"
            patch_archive_meta(path, bad, patch)
            with pytest.raises(ConfigError):
                load_emulator(str(bad))

    def test_batched_roundtrip_bitwise(self, tmp_path):
        xs = np.random.default_rng(12).uniform(0, 1, (25, 3))
        for name in ("polynomial-mix", "additive"):
            for emu in trained_pair(name):   # ANOVA-GP, then S-GP
                path = tmp_path / "emu.npz"
                save_emulator(emu, str(path))
                loaded = load_emulator(str(path))
                assert np.array_equal(emu.predict_mean(xs),
                                      loaded.predict_mean(xs))


def patch_archive_meta(src, dest, patch: dict) -> None:
    """Copy an archive with some of its meta entries replaced."""
    with np.load(str(src), allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta.update(patch)
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(str(dest), **arrays)


@functools.lru_cache(maxsize=None)
def trained_pair(name: str):
    """ANOVA-GP and S-GP emulators of a 3-input analytic simulator."""
    sim = analytic_bank(name, 3, 5)
    result = adaptive_decompose(sim, tol_index=1e-6)
    locals_map = {
        t: train_local(t, ds, 8 if len(t) == 1 else 27, sim, result.anchor,
                       result.cache, pool_size=60, seed=7, gp_config=FAST_GP)
        for t, ds in result.datasets.items()}
    anova_em = assemble(result.selection, result.anchor_output, locals_map,
                        result.anchor)
    return anova_em, train_sgp(sim, 30, seed=2, gp_config=FAST_GP)


_U = np.finfo(float).eps / 2   # unit roundoff


def _gamma(k):
    """Bound on the relative rounding error of k chained float operations."""
    return k * _U / (1.0 - k * _U)


def reference_and_bound(block, xs):
    """Per-row reference means from ``gp.predict`` and ``pca.reconstruct``,
    and a first-order bound on how far any other float64 evaluation of the
    same formulas may lie from them.

    Per mode, the mean is c*.w with c*_i = s exp(-q_i / 2).  Each of the two
    evaluations rounds the dot product by at most gamma_N sum|c*_i w_i|, and
    each c*_i by (M q_i / 2 + 9) u: gamma_M on q, up to 4 ulp in exp, one
    rounding for the signal variance.  The reconstruction V alpha + mu and
    the sum over terms add gamma_(R+2) of the magnitudes they sum.  The bound
    is fixed by this analysis, not fitted to observed differences.
    """
    refs, bounds = [], []
    comps = np.abs(block.pca.components)
    for x in xs:
        alpha = np.array([predict(g, x)[0] for g in block.mode_gps])
        mode_bound = np.zeros(block.rank)
        for r, g in enumerate(block.mode_gps):
            n_train, m = g.inputs.shape
            c_star = cross_kernel(g.inputs, x, g.hyper)
            diff = g.inputs - x
            q = (diff * diff) @ (1.0 / g.hyper.sq_lengths)
            terms = np.abs(c_star * g.weights)
            mode_bound[r] = terms @ (2 * _gamma(n_train) + 2 * _gamma(
                m * q / 2 + 9))
        refs.append(reconstruct(block.pca, alpha))
        bounds.append(comps @ mode_bound + 2 * _gamma(block.rank + 2) * (
            comps @ np.abs(alpha) + np.abs(block.pca.mean)))
    return np.array(refs), np.array(bounds)


def anova_reference_and_bound(emu, xs):
    ref = np.tile(emu.anchor_output, (len(xs), 1))
    bound = np.zeros_like(ref)
    magnitude = np.abs(ref)
    for t, block in emu.locals.items():
        r, b = reference_and_bound(block, xs[:, [i - 1 for i in t]])
        ref += r
        bound += b
        magnitude += np.abs(r)
    return ref, bound + 2 * _gamma(len(emu.locals)) * magnitude


class TestBatchedPrediction:
    """Each row of a batched prediction is the pointwise prediction, up to
    float64 rounding of the same formulas."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["polynomial-mix", "additive",
                                 "rank-one-product"]),
           xs=st.integers(1, 12).flatmap(lambda n: arrays(
               float, (n, 3), elements=st.floats(0.0, 1.0))))
    def test_rows_match_pointwise(self, name, xs):
        anova_em, sgp_em = trained_pair(name)
        got = anova_em.predict_mean(xs)
        ref, bound = anova_reference_and_bound(anova_em, xs)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= bound)
        got = predict_sgp_mean(sgp_em, xs)
        ref, bound = reference_and_bound(sgp_em, xs)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= bound)

    def test_mean_makes_no_solve(self, monkeypatch):
        # the mean path is c* . w per mode; only variances need C^-1 c*
        anova_em, sgp_em = trained_pair("polynomial-mix")
        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def record(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, record)

        for owner, name in ((gp, "_solve"), (gp, "dpotrs"),
                            (gp, "predict_batch"), (emulator, "predict_batch")):
            spy(owner, name)
        xs = np.random.default_rng(0).uniform(0.0, 1.0, (5, 3))
        anova_em.predict_mean(xs)
        predict_sgp_mean(sgp_em, xs)
        assert calls == []
        emulator.variance_indicator(sgp_em, xs)
        assert calls

    def test_single_point_is_one_row(self):
        anova_em, sgp_em = trained_pair("polynomial-mix")
        x = np.array([0.3, 0.8, 0.1])
        assert anova_em.predict_mean(x).shape == anova_em.anchor_output.shape
        assert predict_sgp_mean(sgp_em, x).shape == sgp_em.pca.mean.shape
        for bad in (np.zeros(4), np.zeros(2), np.zeros((5, 2))):
            with pytest.raises(ConfigError):
                anova_em.predict_mean(bad)
