"""Acceptance suite: one test per shipping criterion, each printing a verdict.

The expensive diffusion benchmark (9 inputs, 33x33-node grid) runs once per
session and backs several criteria.  The full-size 36-input decomposition
(64x64 elements, 19,185 solves) takes 2-3 minutes on a 2-vCPU VM and only
runs when RUN_FULL_PAPER=1 is set in the environment; its two
discretization-sensitive term counts are reported but never fail the suite.
"""

import csv
import json
import math
import os
import time
from itertools import chain, combinations

import numpy as np
import pytest

from anovagp import emulator
from anovagp.anova import SimCache, adaptive_decompose, term_mean, term_value
from anovagp.bench import ExperimentConfig, run_experiment
from anovagp.emulator import (load_emulator, predict_sgp_mean, save_emulator,
                              train_local, train_sgp, variance_indicator)
from anovagp.gp import (GpTrainConfig, Hyperparameters, _nlml_value_grad,
                        _pairs, posterior, predict, train_gp)
from anovagp.pca import fit_pca
from anovagp.quadrature import cc_nodes, cc_rule, cc_weights, map_rule, \
    tensor_grid, weighted_mean
from anovagp.simulators import DiffusionSimulator, analytic_bank


def verdict(number: int, label: str, ok: bool) -> None:
    print(f"\ncriterion {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


SCALED_CONFIG = {
    "simulator": {"name": "diffusion", "elements_per_side": 32, "k_side": 3},
    "tol_index": 1e-4,
    "tol_pca": 1e-2,
    "nodes_per_dim": 5,
    "max_order": 2,
    "n_train": 30,
    "sgp_budget": "matched",
    "n_test": 200,
    "pool_size": 1000,
    "seed": 0,
    "gp_restarts": 5,
    "gp_max_iter": 100,
    "sgp_gp_restarts": 1,
    "sgp_gp_max_iter": 60,
}

CHEAP_CONFIG = {
    "simulator": {"name": "additive", "m": 3, "output_dim": 6},
    "tol_index": 1e-8,
    "n_train": 10,
    "n_test": 25,
    "pool_size": 60,
    "gp_restarts": 2,
    "gp_max_iter": 60,
    "sgp_gp_restarts": 1,
    "sgp_gp_max_iter": 60,
    "seed": 0,
}


@pytest.fixture(scope="module")
def scaled_run():
    """Criterion-7 benchmark: scaled diffusion problem, both emulators."""
    tic = time.perf_counter()
    report = run_experiment(ExperimentConfig.from_dict(dict(SCALED_CONFIG)))
    return report, time.perf_counter() - tic


def test_criterion_1_quadrature_exactness():
    tic = time.perf_counter()
    ok = True
    for n in range(2, 10):
        x, w = cc_nodes(n), cc_weights(n)
        for p in range(n):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            ok &= abs(w @ x ** p - exact) < 1e-12
    # tensor-product means of product polynomials
    for n in (3, 5, 7):
        rule = map_rule(cc_rule(n), (0.0, 1.0))
        grid = tensor_grid((1, 2), [rule, rule])
        vals = (grid.points[:, 0] ** (n - 1)
                * grid.points[:, 1] ** (n - 2))[:, None]
        mean = weighted_mean(vals, grid, np.ones(grid.n_points))
        exact = 1.0 / (n * (n - 1))
        ok &= abs(mean[0] - exact) < 1e-10
    ok &= time.perf_counter() - tic < 1.0
    verdict(1, "quadrature-exactness", ok)


def test_criterion_2_anova_reconstruction():
    tic = time.perf_counter()
    m = 4
    ok = True
    subsets = list(chain.from_iterable(
        combinations(range(1, m + 1), k) for k in range(m + 1)))
    for name in ("additive", "rank-one-product", "polynomial-mix"):
        sim = analytic_bank(name, m, 6)
        c = sim.anchor_point()
        cache = SimCache(sim)
        rng = np.random.default_rng(42)
        for _ in range(100):
            xi = rng.uniform(0, 1, m)
            total = np.zeros(sim.output_dim)
            for t in subsets:
                total += term_value(t, xi[[i - 1 for i in t]], c, cache)
            truth = sim.evaluate(xi)
            ok &= (np.linalg.norm(total - truth)
                   < 1e-10 * max(np.linalg.norm(truth), 1e-300))
    ok &= time.perf_counter() - tic < 10.0
    verdict(2, "anova-reconstruction", ok)


def test_criterion_3_scaled_candidate_counts(scaled_run):
    report, _ = scaled_run
    by_order = {row["order"]: row for row in report.term_table}
    ok = by_order[1]["candidates"] == 9
    ok &= by_order[1]["selected"] == 9
    ok &= by_order[2]["candidates"] == 36
    ok &= report.timings["decompose_s"] < 300.0
    verdict(3, "candidate-counts-scaled", ok)


@pytest.mark.skipif(os.environ.get("RUN_FULL_PAPER") != "1",
                    reason="full-size 36-input decomposition (2-3 "
                           "minutes); set RUN_FULL_PAPER=1 to enable")
def test_criterion_3_full_candidate_counts():
    sim = DiffusionSimulator(elements_per_side=64, k_side=6)
    result = adaptive_decompose(sim, tol_index=1e-4, nodes_per_dim=5,
                                max_order=3)
    sel = result.selection
    ok = sel.candidate_counts[1] == 36
    ok &= len(sel.orders[1]) == 36
    ok &= sel.candidate_counts[2] == 630
    # discretization-sensitive soft targets: report only
    print(f"\nsoft targets: selected order-2 terms = {len(sel.orders[2])} "
          f"(reference 100), order-3 candidates = "
          f"{sel.candidate_counts.get(3, 0)} with "
          f"{len(sel.orders.get(3, []))} selected (reference 0)")
    verdict(3, "candidate-counts-full", ok)


def test_criterion_4_gp_correctness():
    tic = time.perf_counter()
    ok = True
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 21))
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
            fp, fm = (posterior(pairs, X, y, Hyperparameters.from_array(t))
                      .final_nlml for t in (tp, tm))
            fd = (fp - fm) / (2 * eps)
            ok &= abs(grad[i] - fd) <= 1e-5 * max(abs(fd), 1.0)
    # zero-jitter interpolation
    for seed in range(3):
        gen = np.random.default_rng(seed)
        X = np.sort(gen.uniform(0, 1, 10))[:, None]
        y = np.sin(3 * X[:, 0]) + 0.5 * X[:, 0]
        [model] = train_gp(X, y[None], [GpTrainConfig(
            restarts=3, jitter_floor=0.0, seed=seed)])
        for x, t in zip(X, y):
            ok &= abs(predict(model, x)[0] - t) < 1e-6
    ok &= time.perf_counter() - tic < 30.0
    verdict(4, "gp-correctness", ok)


def test_criterion_5_pca_identities():
    tic = time.perf_counter()
    ok = True
    rng = np.random.default_rng(1)
    for d, n in [(50, 10), (30, 20), (8, 15), (12, 6)]:
        data = rng.standard_normal((n, d)) * np.linspace(3, 0.1, d)
        for tol in (0.3, 1e-2):
            model, targets = fit_pca(data, tol)
            # retained variance fraction
            ok &= model.eigenvalues.sum() / model.total_variance > 1 - tol
            # mean reconstruction error equals the discarded eigenvalue sum
            recon = model.components @ targets + model.mean[:, None]
            errs = np.sum((recon - data.T) ** 2, axis=0)
            centered = data - data.mean(axis=0)
            vals = np.linalg.eigvalsh(centered.T @ centered / n)[::-1]
            discarded = vals[model.rank:].sum()
            if discarded > 1e-12 * vals[0]:
                ok &= abs(np.mean(errs) - discarded) < 1e-8 * discarded
        if d > n:
            # Gram path vs explicit covariance eigendecomposition
            model, _ = fit_pca(data, 1e-6)
            centered = data - data.mean(axis=0)
            cov = centered.T @ centered / n
            vals, vecs = np.linalg.eigh(cov)
            vals, vecs = vals[::-1], vecs[:, ::-1]
            r = model.rank
            ok &= np.allclose(model.eigenvalues, vals[:r], rtol=1e-10,
                              atol=1e-12 * vals[0])
            for k in range(r):
                ok &= abs(abs(model.components[:, k] @ vecs[:, k]) - 1.0) < 1e-10
    ok &= time.perf_counter() - tic < 10.0
    verdict(5, "pca-identities", ok)


def test_criterion_6_fem_oracle():
    tic = time.perf_counter()
    series = 0.0
    for p in range(1, 200, 2):
        for q in range(1, 200, 2):
            series += (64.0 / (np.pi ** 4 * p * q * (p * p + q * q))
                       * np.sin(p * np.pi / 2) * np.sin(q * np.pi / 2))

    def center(n):
        sim = DiffusionSimulator(elements_per_side=n, k_side=1)
        u = sim.evaluate(np.ones(1))
        coords = sim.node_coordinates()
        idx = int(np.argmin(np.abs(coords).sum(axis=1)))
        return u[idx]

    ok = abs(center(32) - series) / series < 1e-3
    errs = [abs(center(n) - series) for n in (8, 16, 32)]
    ok &= 3.0 < errs[0] / errs[1] < 5.0
    ok &= 3.0 < errs[1] / errs[2] < 5.0
    # linearity: scaling the coefficient inversely scales the solution
    sim = DiffusionSimulator(elements_per_side=16, k_side=3)
    rng = np.random.default_rng(2)
    xi = rng.uniform(0.1, 1.0, 9)
    u1, u2 = sim.evaluate(xi), sim.evaluate(3.0 * xi)
    ok &= np.max(np.abs(3.0 * u2 - u1)) < 1e-10 * np.max(np.abs(u1))
    ok &= time.perf_counter() - tic < 60.0
    verdict(6, "fem-oracle", ok)


def test_criterion_7_method_ordering(scaled_run):
    report, elapsed = scaled_run
    med_anova = report.summaries["anova_gp"]["median"]
    med_sgp = report.summaries["sgp"]["median"]
    print(f"\nmedian relative error: anova_gp={med_anova:.3e} "
          f"sgp={med_sgp:.3e} (run took {elapsed:.0f} s)")
    print("stage timings:", ", ".join(
        f"{stage}={seconds:.2f} s" for stage, seconds in report.timings.items()))
    ok = not math.isnan(med_anova) and not math.isnan(med_sgp)
    ok &= med_anova <= med_sgp
    ok &= elapsed < 1800.0
    verdict(7, "method-ordering", ok)


def test_criterion_8_per_term_rank(scaled_run):
    report, _ = scaled_run
    ranks = {tuple(m["index"]): m["rank"] for m in report.term_modes}
    print("\nper-term PCA ranks:",
          {"+".join(map(str, t)): r for t, r in ranks.items()})
    verdict(8, "per-term-rank", all(r <= 3 for r in ranks.values()))


def test_criterion_9_active_training_oracle(monkeypatch):
    tic = time.perf_counter()
    ok = True
    sim = analytic_bank("polynomial-mix", 3, 6)
    c = sim.anchor_point()
    cache = SimCache(sim)
    steps = []   # (block, pool) at each active step

    def spy(block, pool):
        steps.append((block, pool))
        return variance_indicator(block, pool)

    monkeypatch.setattr(emulator, "variance_indicator", spy)
    for t, budget in (((1,), 12), ((1, 2), 29)):
        steps.clear()
        _, dataset = term_mean(t, sim, c, cache)
        local = train_local(t, dataset, budget, sim, c, cache, pool_size=80,
                            seed=3, gp_config=GpTrainConfig(restarts=2))
        n0 = dataset.grid.n_points
        ok &= len(steps) == budget - n0
        for k, (block, pool) in enumerate(steps):
            tau = variance_indicator(block, pool)
            ok &= np.array_equal(local.train_inputs[n0 + k],
                                 pool[int(np.argmax(tau))])
    ok &= time.perf_counter() - tic < 60.0
    verdict(9, "active-training-oracle", ok)


def test_criterion_10_determinism_roundtrip(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(ExperimentConfig.from_dict(dict(CHEAP_CONFIG)),
                       out_dir=str(out))
        outs.append(out)
    ok = ((outs[0] / "errors.csv").read_bytes()
          == (outs[1] / "errors.csv").read_bytes())

    for archive in ("anova_gp.npz", "sgp.npz"):
        loaded = load_emulator(str(outs[0] / archive))
        resaved = tmp_path / f"resaved_{archive}"
        save_emulator(loaded, str(resaved))
        again = load_emulator(str(resaved))
        rng = np.random.default_rng(4)
        for _ in range(10):
            xi = rng.uniform(0, 1, 3)
            if archive == "anova_gp.npz":
                ok &= np.array_equal(loaded.predict_mean(xi),
                                     again.predict_mean(xi))
            else:
                ok &= np.array_equal(predict_sgp_mean(loaded, xi),
                                     predict_sgp_mean(again, xi))
    verdict(10, "determinism-roundtrip", ok)
