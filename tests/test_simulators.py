"""Tests for the diffusion FEM simulator and the analytic simulator bank."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anovagp.cli import main
from anovagp.exceptions import ConfigError, SimulatorError
from anovagp.simulators import (_K_REF, AdditiveSimulator, DiffusionSimulator,
                                RankOneProductSimulator, analytic_bank)


def poisson_center_value():
    """Series solution of -lap u = 1 on (-1,1)^2 with zero boundary, at (0,0).

    u(x,y) = sum over odd m,n of
      64 / (pi^4 m n (m^2 + n^2)) * sin(m pi (x+1)/2) * sin(n pi (y+1)/2).
    """
    total = 0.0
    for m in range(1, 200, 2):
        for n in range(1, 200, 2):
            total += (64.0 / (np.pi ** 4 * m * n * (m * m + n * n))
                      * np.sin(m * np.pi / 2) * np.sin(n * np.pi / 2))
    return total


EPS = np.finfo(float).eps / 2   # unit roundoff


def stiffness(sim, xi):
    """The full Q1 stiffness matrix, assembled from element matrices."""
    coeff = xi[sim._elem_subdomain]
    data = (coeff[:, None, None] * _K_REF[None]).reshape(-1)
    return sp.coo_matrix((data, (sim._asm_rows, sim._asm_cols)),
                         shape=(sim.output_dim, sim.output_dim)).tocsr()


def sparse_lu_reference(sim, xi):
    """The nodal solution by a sparse LU solve of the interior system."""
    interior = sim._interior
    a_ii = stiffness(sim, xi)[interior][:, interior]
    u = np.zeros(sim.output_dim)
    u[interior] = spla.spsolve(a_ii.tocsc(), np.full(interior.size, sim.h ** 2))
    return u


def center_value(sim, u):
    coords = sim.node_coordinates()
    idx = int(np.argmin(np.abs(coords).sum(axis=1)))
    assert np.allclose(coords[idx], 0.0)
    return u[idx]


class TestDiffusionOracle:
    def test_unit_coefficient_center_value(self):
        sim = DiffusionSimulator(elements_per_side=32, k_side=3)
        u = sim.evaluate(np.ones(9))
        exact = poisson_center_value()
        assert abs(center_value(sim, u) - exact) / exact < 1e-3

    def test_h2_convergence_at_center(self):
        exact = poisson_center_value()
        errs = []
        for n in (8, 16, 32):
            sim = DiffusionSimulator(elements_per_side=n, k_side=1)
            u = sim.evaluate(np.ones(1))
            errs.append(abs(center_value(sim, u) - exact))
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_coefficient_scaling(self):
        # u solves a linear problem: scaling all coefficients by alpha
        # divides the solution by alpha
        sim = DiffusionSimulator(elements_per_side=16, k_side=3)
        rng = np.random.default_rng(0)
        xi = rng.uniform(0.1, 1.0, 9)
        u1 = sim.evaluate(xi)
        u2 = sim.evaluate(2.5 * xi)
        assert np.max(np.abs(2.5 * u2 - u1)) < 1e-10 * np.max(np.abs(u1))

    def test_reflection_symmetry(self):
        # mirroring the subdomain coefficients in x mirrors the solution
        sim = DiffusionSimulator(elements_per_side=16, k_side=3)
        rng = np.random.default_rng(1)
        xi = rng.uniform(0.01, 1.0, 9)
        mirrored = xi.reshape(3, 3)[:, ::-1].ravel()
        u = sim.evaluate(xi).reshape(17, 17)
        um = sim.evaluate(mirrored).reshape(17, 17)
        assert np.max(np.abs(um[:, ::-1] - u)) < 1e-10 * np.max(np.abs(u))

    def test_positivity(self):
        sim = DiffusionSimulator(elements_per_side=16, k_side=3)
        u = sim.evaluate(np.linspace(0.05, 1.0, 9))
        nn = sim.n_nodes_side
        grid = u.reshape(nn, nn)
        assert np.all(grid[1:-1, 1:-1] > 0)
        assert np.all(grid[0] == 0) and np.all(grid[-1] == 0)
        assert np.all(grid[:, 0] == 0) and np.all(grid[:, -1] == 0)

    def test_matches_sparse_lu_reference(self):
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        xi = np.linspace(0.2, 0.9, 9)
        u, ref = sim.evaluate(xi), sparse_lu_reference(sim, xi)
        assert np.max(np.abs(u - ref)) < 1e-9 * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 16), k_side=st.integers(1, 3), data=st.data())
    def test_property_matches_sparse_lu(self, n, k_side, data):
        """The banded Cholesky solve agrees with a sparse LU solve of the
        same system over random coefficients in the box.

        The banded Cholesky of an SPD matrix with bandwidth w has a
        backward error below (w+1) gamma_{3(w+1)} ||A|| in the 2-norm
        (Higham, Accuracy and Stability, Thm 10.4); sparse LU on an SPD
        system is backward stable with an error of the same order.  Each
        solution is then within kappa_2(A) times that relative error of the
        exact one, and the two differ by at most twice as much.
        """
        assume(k_side != 2 or n % 2 == 0)   # centroids off partition lines
        sim = DiffusionSimulator(elements_per_side=n, k_side=k_side)
        xi = np.array(data.draw(st.lists(
            st.floats(0.01, 1.0), min_size=sim.input_dim,
            max_size=sim.input_dim)))
        u = sim.evaluate(xi)[sim._interior]
        ref = sparse_lu_reference(sim, xi)[sim._interior]
        a_ii = stiffness(sim, xi)[sim._interior][:, sim._interior].toarray()
        w = n
        gamma = 3 * (w + 1) * EPS / (1 - 3 * (w + 1) * EPS)
        bound = 2 * np.linalg.cond(a_ii) * (w + 1) * gamma
        assert np.linalg.norm(u - ref) <= bound * np.linalg.norm(ref)

    def test_deterministic_and_pure(self):
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        xi = np.full(9, 0.3)
        assert np.array_equal(sim.evaluate(xi), sim.evaluate(xi))


class TestMassNorm:
    def test_constant_field(self):
        # ||1||_{L2} over a domain of area 4 is 2, exactly representable
        sim = DiffusionSimulator(elements_per_side=8, k_side=1)
        assert abs(sim.output_norm(np.ones(sim.output_dim)) - 2.0) < 1e-12

    def test_bilinear_field_exact(self):
        # the interpolant of x is bilinear, so the mass matrix integrates
        # its square exactly: int x^2 over (-1,1)^2 = 4/3
        sim = DiffusionSimulator(elements_per_side=8, k_side=1)
        x = sim.node_coordinates()[:, 0]
        assert abs(sim.output_norm(x) - np.sqrt(4.0 / 3.0)) < 1e-12

    def test_zero_field(self):
        sim = DiffusionSimulator(elements_per_side=4, k_side=1)
        assert sim.output_norm(np.zeros(sim.output_dim)) == 0.0

    def test_shape_mismatch(self):
        sim = DiffusionSimulator(elements_per_side=4, k_side=1)
        with pytest.raises(ValueError):
            sim.output_norm(np.ones(3))


class TestDiffusionValidation:
    def test_bad_input_shape(self):
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        with pytest.raises(SimulatorError):
            sim.evaluate(np.ones(4))

    def test_nonpositive_coefficient(self):
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        xi = np.ones(9)
        xi[4] = 0.0
        with pytest.raises(SimulatorError):
            sim.evaluate(xi)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient(self, value):
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        xi = np.ones(9)
        xi[4] = value
        with pytest.raises(SimulatorError, match="positive and finite"):
            sim.evaluate(xi)

    def test_centroid_on_partition_line_rejected(self):
        # with 3 elements per side and 2 subdomains, the middle element's
        # centroid sits exactly on the partition line
        with pytest.raises(ConfigError):
            DiffusionSimulator(elements_per_side=3, k_side=2)

    def test_bad_solver(self, tmp_path, capsys):
        # the solver is always the banded Cholesky; the key is unknown
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"simulator": {
            "name": "diffusion", "elements_per_side": 8, "solver": "cg"}}))
        assert main(["decompose", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "solver" in err["message"]

    def test_dimensions(self):
        sim = DiffusionSimulator(elements_per_side=32, k_side=3)
        assert sim.input_dim == 9
        assert sim.output_dim == 33 * 33
        assert np.array_equal(sim.intervals,
                              np.tile([0.01, 1.0], (9, 1)))
        assert np.allclose(sim.anchor_point(), 0.505)


class TestAnalyticBank:
    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            analytic_bank("mystery", 2, 3)

    def test_additive_structure(self):
        sim = AdditiveSimulator(4, 6)
        rng = np.random.default_rng(2)
        xi = rng.uniform(0, 1, 4)
        base = sim.evaluate(np.zeros(4))
        total = np.array(base)
        for i in range(4):
            e = np.zeros(4)
            e[i] = xi[i]
            total += sim.evaluate(e) - base
        assert np.allclose(total, sim.evaluate(xi), atol=1e-12)

    def test_rank_one_outputs_colinear(self):
        sim = RankOneProductSimulator(3, 5)
        rng = np.random.default_rng(3)
        ref = sim.evaluate(np.full(3, 0.5))
        for _ in range(5):
            u = sim.evaluate(rng.uniform(0, 1, 3))
            cross = np.outer(u, ref) - np.outer(ref, u)
            assert np.max(np.abs(cross)) < 1e-12

    def test_polynomial_mix_requires_two_inputs(self):
        with pytest.raises(ConfigError):
            analytic_bank("polynomial-mix", 1, 3)

    def test_uniform_density_normalized(self):
        sim = analytic_bank("additive", 3, 4)
        x = np.linspace(0, 1, 7)
        assert np.allclose(sim.marginal_density(1, x), 1.0)
        grid = np.random.default_rng(4).uniform(0, 1, (6, 2))
        assert np.allclose(sim.density_product((1, 3), grid), 1.0)

    def test_uniform_sample_in_box(self):
        sim = DiffusionSimulator(elements_per_side=8, k_side=2)
        rng = np.random.default_rng(5)
        pts = sim.uniform_sample(rng, 50)
        assert pts.shape == (50, 4)
        assert np.all(pts >= 0.01) and np.all(pts <= 1.0)
        slice_pts = sim.uniform_sample(rng, 10, coords=(2, 4))
        assert slice_pts.shape == (10, 2)
