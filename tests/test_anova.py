"""Tests for anchored ANOVA terms and the adaptive selection loop."""

from itertools import chain, combinations

import numpy as np
import pytest

from anovagp.anova import (SimCache, adaptive_decompose, contribution_weight,
                           embed, term_mean, term_value)
from anovagp.exceptions import DegenerateReferenceError
from anovagp.simulators import Simulator, analytic_bank


class ConstantSimulator(Simulator):
    def __init__(self, m, value):
        self.input_dim = m
        self.output_dim = value.size
        self.intervals = np.tile([0.0, 1.0], (m, 1))
        self.value = value

    def evaluate(self, xi):
        return np.array(self.value)


class CallableSimulator(Simulator):
    def __init__(self, m, d, func, intervals=None):
        self.input_dim = m
        self.output_dim = d
        self.intervals = (np.tile([0.0, 1.0], (m, 1))
                          if intervals is None else np.asarray(intervals))
        self.func = func

    def evaluate(self, xi):
        return np.asarray(self.func(np.asarray(xi, dtype=float)), dtype=float)


def all_subsets(coords):
    return chain.from_iterable(
        combinations(coords, k) for k in range(len(coords) + 1))


class TestEmbed:
    def test_empty_index_gives_anchor(self):
        c = np.array([0.3, 0.7, 0.1])
        assert np.array_equal(embed(np.zeros(0), (), c), c)

    def test_substitution(self):
        c = np.zeros(4)
        out = embed(np.array([7.0, 9.0]), (1, 3), c)
        assert np.array_equal(out, [7.0, 0.0, 9.0, 0.0])

    def test_full_index_identity(self):
        c = np.full(3, 0.5)
        xi = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(embed(xi, (1, 2, 3), c), xi)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            embed(np.array([1.0]), (1, 2), np.zeros(3))


class TestTermValue:
    def test_empty_term_is_anchor_output(self):
        sim = analytic_bank("additive", 3, 4)
        c = sim.anchor_point()
        cache = SimCache(sim)
        assert np.allclose(term_value((), np.zeros(0), sim, c, cache),
                           sim.evaluate(c))

    def test_first_order_formula(self):
        sim = analytic_bank("polynomial-mix", 3, 4)
        c = sim.anchor_point()
        cache = SimCache(sim)
        xi = np.array([0.8])
        got = term_value((2,), xi, sim, c, cache)
        expected = sim.evaluate(embed(xi, (2,), c)) - sim.evaluate(c)
        assert np.allclose(got, expected, atol=1e-14)

    def test_additive_second_order_vanishes(self):
        sim = analytic_bank("additive", 4, 5)
        c = sim.anchor_point()
        cache = SimCache(sim)
        rng = np.random.default_rng(3)
        for t in combinations(range(1, 5), 2):
            for _ in range(3):
                xi = rng.uniform(0, 1, 2)
                assert np.max(np.abs(term_value(t, xi, sim, c, cache))) < 1e-12

    @pytest.mark.parametrize("name", ["additive", "rank-one-product",
                                      "polynomial-mix"])
    def test_full_reconstruction(self, name):
        # summing all 2^m anchored terms recovers the simulator exactly
        m = 3
        sim = analytic_bank(name, m, 6)
        c = sim.anchor_point()
        cache = SimCache(sim)
        rng = np.random.default_rng(7)
        for _ in range(5):
            xi = rng.uniform(0, 1, m)
            total = np.zeros(6)
            for t in all_subsets(range(1, m + 1)):
                total += term_value(t, xi[[i - 1 for i in t]], sim, c, cache)
            truth = sim.evaluate(xi)
            assert np.max(np.abs(total - truth)) < 1e-10 * max(
                1.0, np.max(np.abs(truth)))

    def test_cache_coherence(self):
        sim = analytic_bank("additive", 3, 4)
        cache = SimCache(sim)
        c = sim.anchor_point()
        xi = np.array([0.2, 0.9])
        term_value((1, 3), xi, sim, c, cache)
        # order-2 term touches exactly 4 distinct embedded points
        assert cache.misses == 4
        term_value((1, 3), xi, sim, c, cache)
        assert cache.misses == 4


class TestTermMean:
    def test_constant_simulator_zero_mean(self):
        sim = ConstantSimulator(3, np.array([2.0, -1.0]))
        cache = SimCache(sim)
        mean, dataset = term_mean((1, 2), sim, sim.anchor_point(), cache)
        assert np.max(np.abs(mean)) < 1e-14
        assert np.max(np.abs(dataset.values)) < 1e-14

    def test_odd_term_zero_mean(self):
        sim = CallableSimulator(1, 1, lambda xi: xi,
                                intervals=[[-1.0, 1.0]])
        cache = SimCache(sim)
        mean, _ = term_mean((1,), sim, np.zeros(1), cache)
        assert abs(mean[0]) < 1e-14

    def test_product_term_mean_zero_but_value_nonzero(self):
        sim = CallableSimulator(2, 1, lambda xi: [xi[0] * xi[1]],
                                intervals=[[-1.0, 1.0], [-1.0, 1.0]])
        cache = SimCache(sim)
        c = np.zeros(2)
        mean, _ = term_mean((1, 2), sim, c, cache)
        assert abs(mean[0]) < 1e-14
        val = term_value((1, 2), np.array([1.0, 1.0]), sim, c, cache)
        assert abs(val[0] - 1.0) < 1e-12

    def test_empty_index_rejected(self):
        sim = ConstantSimulator(2, np.ones(2))
        with pytest.raises(ValueError):
            term_mean((), sim, sim.anchor_point(), SimCache(sim))


class TestContributionWeight:
    def test_zero_numerator(self):
        norm = np.linalg.norm
        assert contribution_weight((1,), np.zeros(3), np.ones(3), norm) == 0.0

    def test_equal_means(self):
        v = np.array([1.0, 2.0])
        assert contribution_weight((1,), v, v, np.linalg.norm) == 1.0

    def test_zero_reference_raises(self):
        with pytest.raises(DegenerateReferenceError):
            contribution_weight((1,), np.ones(2), np.zeros(2), np.linalg.norm)


class TestAdaptiveDecompose:
    def test_constant_simulator(self):
        sim = ConstantSimulator(3, np.array([1.0, 2.0]))
        result = adaptive_decompose(sim, tol_index=1e-8)
        assert result.selection.orders == {0: [()], 1: []}
        assert result.selection.candidate_counts[1] == 3

    def test_additive_stops_at_order_one(self):
        sim = analytic_bank("additive", 4, 6)
        result = adaptive_decompose(sim, tol_index=1e-8)
        sel = result.selection
        assert sorted(sel.orders[1]) == [(1,), (2,), (3,), (4,)]
        assert sel.orders[2] == []
        assert sel.candidate_counts[2] == 6
        assert 3 not in sel.orders

    def test_polynomial_mix_selects_interaction(self):
        sim = analytic_bank("polynomial-mix", 3, 5)
        result = adaptive_decompose(sim, tol_index=1e-6)
        assert (1, 2) in result.selection.orders[2]

    def test_admissibility(self):
        sim = analytic_bank("polynomial-mix", 4, 5)
        result = adaptive_decompose(sim, tol_index=1e-6, max_order=3)
        for order, indices in result.selection.orders.items():
            if order < 2:
                continue
            lower = set(result.selection.orders[order - 1])
            for t in indices:
                for sub in combinations(t, order - 1):
                    assert sub in lower

    def test_candidate_count_identity(self):
        sim = analytic_bank("polynomial-mix", 5, 4)
        result = adaptive_decompose(sim, tol_index=1e-12, max_order=2)
        n1 = len(result.selection.orders[1])
        if n1 == 5:
            assert result.selection.candidate_counts[2] == 10

    def test_datasets_only_for_selected(self):
        sim = analytic_bank("additive", 3, 4)
        result = adaptive_decompose(sim, tol_index=1e-8)
        assert set(result.datasets) == set(result.selection.orders[1])

    def test_determinism(self):
        sim = analytic_bank("polynomial-mix", 4, 5)
        r1 = adaptive_decompose(sim, tol_index=1e-6)
        r2 = adaptive_decompose(sim, tol_index=1e-6)
        assert r1.selection.orders == r2.selection.orders
        assert r1.selection.weights == r2.selection.weights

    def test_cache_counts_distinct_points(self):
        sim = analytic_bank("additive", 3, 4)
        result = adaptive_decompose(sim, tol_index=1e-8)
        assert result.cache.misses == len(result.cache)

    def test_denominator_modes_differ_only_within_order(self):
        sim = analytic_bank("polynomial-mix", 3, 5)
        running = adaptive_decompose(sim, tol_index=1e-6)
        frozen = adaptive_decompose(sim, tol_index=1e-6,
                                    denominator="previous_orders")
        # first candidate of order 1 sees the same reference either way
        t = (1,)
        assert running.selection.weights[t] == frozen.selection.weights[t]

    def test_zero_anchor_output_degenerate(self):
        sim = ConstantSimulator(2, np.zeros(3))
        with pytest.raises(DegenerateReferenceError):
            adaptive_decompose(sim, tol_index=1e-8)

