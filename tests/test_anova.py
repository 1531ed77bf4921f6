"""Tests for anchored ANOVA terms and the adaptive selection loop."""

from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovagp import anova
from anovagp.anova import (SimCache, adaptive_decompose, contribution_weight,
                           embed, term_mean, term_value)
from anovagp.exceptions import DegenerateReferenceError
from anovagp.simulators import DiffusionSimulator, Simulator, analytic_bank


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


EPS = np.finfo(float).eps / 2   # unit roundoff


def pointwise_term_value(t, xi_t, c, cache):
    """u_t at one point by the recursion u_t = u(embed_t(x)) minus the
    terms of all proper subsets of t."""
    memo = {}

    def value(sub):
        if sub not in memo:
            total = np.array(cache.evaluate(
                embed(xi_t[[t.index(i) for i in sub]], sub, c)))
            for k in range(len(sub)):
                for w in combinations(sub, k):
                    total -= value(w)
            memo[sub] = total
        return memo[sub]

    return value(t)


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

    def test_rows_length_mismatch(self):
        with pytest.raises(ValueError):
            embed(np.ones((3, 1)), (1, 2), np.zeros(3))

    def test_rows_substitution(self):
        c = np.array([0.5, 0.25, 0.75])
        rows = np.array([[7.0, 9.0], [1.0, 2.0], [7.0, 9.0]])
        out = embed(rows, (1, 3), c)
        assert np.array_equal(out, [[7.0, 0.25, 9.0], [1.0, 0.25, 2.0],
                                    [7.0, 0.25, 9.0]])

    def test_rows_match_single_points(self):
        c = np.array([0.1, 0.2, 0.3, 0.4])
        rows = np.random.default_rng(4).uniform(0, 1, (5, 2))
        out = embed(rows, (2, 4), c)
        assert out.shape == (5, 4)
        for row, point in zip(rows, out):
            assert point.tobytes() == embed(row, (2, 4), c).tobytes()

    def test_empty_index_rows_give_anchor(self):
        c = np.array([0.3, 0.7, 0.1])
        out = embed(np.zeros((2, 0)), (), c)
        assert np.array_equal(out, np.tile(c, (2, 1)))


class TestTermValue:
    def test_empty_term_is_anchor_output(self):
        sim = analytic_bank("additive", 3, 4)
        c = sim.anchor_point()
        cache = SimCache(sim)
        assert np.allclose(term_value((), np.zeros(0), c, cache),
                           sim.evaluate(c))

    def test_first_order_formula(self):
        sim = analytic_bank("polynomial-mix", 3, 4)
        c = sim.anchor_point()
        cache = SimCache(sim)
        xi = np.array([0.8])
        got = term_value((2,), xi, c, cache)
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
                assert np.max(np.abs(term_value(t, xi, c, cache))) < 1e-12

    @pytest.mark.parametrize("name", ["additive", "rank-one-product",
                                      "polynomial-mix"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_full_reconstruction(self, name, data):
        """Summing all 2^m anchored terms recovers the simulator up to the
        rounding of the sums.

        u_t is a sum of 2^|t| signed outputs f_s = u(embed_s(x)), and the
        total a sum of 2^m such terms, so its error is at most
        gamma_{2^(m+1)} sum_t sum_{s subset of t} |f_s|
        = gamma_{2^(m+1)} sum_s 2^(m-|s|) |f_s| in each output entry.
        """
        m = data.draw(st.integers(2, 4))
        xi = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m,
                                         max_size=m)))
        sim = analytic_bank(name, m, 6)
        c = sim.anchor_point()
        cache = SimCache(sim)
        total = np.zeros(6)
        scale = np.zeros(6)
        for t in all_subsets(range(1, m + 1)):
            x_t = xi[[i - 1 for i in t]]
            total += term_value(t, x_t, c, cache)
            scale += 2 ** (m - len(t)) * np.abs(sim.evaluate(embed(x_t, t, c)))
        n_ops = 2 ** (m + 1)
        gamma = n_ops * EPS / (1 - n_ops * EPS)
        assert np.all(np.abs(total - sim.evaluate(xi)) <= gamma * scale)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["additive", "rank-one-product",
                                 "polynomial-mix"]), data=st.data())
    def test_rows_match_single_points(self, name, data):
        """A batched call returns, row for row, the one-point result.

        Each row is the same signed sum of the same cached vectors in the
        same order, so the rows agree bit for bit.  Coordinates come from a
        coarse lattice as well, so that rows share projected points.
        """
        m = data.draw(st.integers(2, 4))
        t = tuple(sorted(data.draw(st.sets(st.integers(1, m), min_size=1))))
        coord = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                          st.floats(0.0, 1.0))
        rows = np.array(data.draw(st.lists(
            st.lists(coord, min_size=len(t), max_size=len(t)),
            min_size=1, max_size=8)))
        sim = analytic_bank(name, m, 5)
        c = sim.anchor_point()
        cache = SimCache(sim)
        batched = term_value(t, rows, c, cache)
        assert batched.shape == (len(rows), 5)
        for row, value in zip(rows, batched):
            assert np.array_equal(value, term_value(t, row, c, cache))

    def test_no_rows_rejected(self):
        sim = analytic_bank("additive", 3, 4)
        with pytest.raises(ValueError):
            term_value((1, 3), np.zeros((0, 2)), sim.anchor_point(),
                       SimCache(sim))

    def test_cache_coherence(self):
        sim = analytic_bank("additive", 3, 4)
        cache = SimCache(sim)
        c = sim.anchor_point()
        xi = np.array([0.2, 0.9])
        term_value((1, 3), xi, c, cache)
        # order-2 term touches exactly 4 distinct embedded points
        assert cache.misses == 4
        term_value((1, 3), xi, c, cache)
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
        val = term_value((1, 2), np.array([1.0, 1.0]), c, cache)
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
        """Every miss is one solve, and no input is solved twice."""
        sim = analytic_bank("additive", 3, 4)
        solved = []
        evaluate = sim.evaluate

        def recording(xi):
            solved.append(np.asarray(xi, dtype=float).tobytes())
            return evaluate(xi)

        sim.evaluate = recording
        result = adaptive_decompose(sim, tol_index=1e-8)
        assert result.cache.misses == len(solved) == len(set(solved))

    def test_denominator_modes_differ_only_within_order(self):
        sim = analytic_bank("polynomial-mix", 3, 5)
        running = adaptive_decompose(sim, tol_index=1e-6)
        frozen = adaptive_decompose(sim, tol_index=1e-6,
                                    denominator="previous_orders")
        # first candidate of order 1 sees the same reference either way
        t = (1,)
        assert running.selection.weights[t] == frozen.selection.weights[t]

    @settings(max_examples=12, deadline=None)
    @given(n=st.sampled_from([4, 6, 8]), k_side=st.integers(1, 2),
           max_order=st.integers(1, 3), nodes=st.integers(2, 5),
           tol=st.floats(1e-6, 1e-2))
    def test_cache_misses_match_pointwise_recursion(self, n, k_side,
                                                    max_order, nodes, tol):
        """On a diffusion simulator, the batched terms solve exactly the
        embedded points that the per-point recursion over proper subsets
        solves, at every grid point of every scored candidate."""
        sim = DiffusionSimulator(elements_per_side=n, k_side=k_side)
        calls = []

        def recording(t, xi_t, *args):
            calls.append((tuple(t), np.array(xi_t)))
            return term_value(t, xi_t, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anova, "term_value", recording)
            result = adaptive_decompose(sim, tol_index=tol, nodes_per_dim=nodes,
                                        max_order=max_order)
        c = result.anchor
        reference = SimCache(sim)
        reference.evaluate(c)
        for t, rows in calls:
            for row in np.atleast_2d(rows):
                pointwise_term_value(t, row, c, reference)
        assert result.cache.misses == reference.misses == len(reference._store)
        assert set(result.cache._store) == set(reference._store)

    def test_zero_anchor_output_degenerate(self):
        sim = ConstantSimulator(2, np.zeros(3))
        with pytest.raises(DegenerateReferenceError):
            adaptive_decompose(sim, tol_index=1e-8)

