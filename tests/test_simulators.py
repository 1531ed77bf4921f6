"""Tests for the diffusion FEM simulator and the analytic simulator bank."""

import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from anovagp.cli import main
from anovagp.exceptions import ConfigError, SimulatorError
from anovagp.simulators import (_K_REF, _M_REF, AdditiveSimulator,
                                DiffusionSimulator, RankOneProductSimulator,
                                analytic_bank)


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


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * EPS / (1 - k * EPS)


def assemble(sim, element_matrices):
    """The global (d, d) matrix summed from one 4 x 4 matrix per element."""
    nodes = sim._elem_nodes
    rows = np.repeat(nodes, 4, axis=1).ravel()
    cols = np.tile(nodes, (1, 4)).ravel()
    return sp.coo_matrix((element_matrices.reshape(-1), (rows, cols)),
                         shape=(sim.output_dim, sim.output_dim)).tocsr()


def stiffness(sim, xi):
    """The full Q1 stiffness matrix, assembled from element matrices."""
    coeff = xi[sim._elem_subdomain]
    return assemble(sim, coeff[:, None, None] * _K_REF[None])


def mass_matrix(sim):
    """The full Q1 mass matrix, assembled from element matrices."""
    n_elem = sim._elem_nodes.shape[0]
    return assemble(sim, np.broadcast_to(sim.h ** 2 * _M_REF, (n_elem, 4, 4)))


def sparse_lu_reference(sim, xi):
    """The nodal solution by a sparse LU solve of the interior system."""
    interior = sim._interior
    a_ii = stiffness(sim, xi)[interior][:, interior]
    u = np.zeros(sim.output_dim)
    u[interior] = spla.spsolve(a_ii.tocsc(), np.full(interior.size, sim.h ** 2))
    return u


def banded_reference(sim, xi):
    """The interior solution by the band contraction and the scipy banded
    solver that ``evaluate`` calls the LAPACK routine of directly."""
    band = np.tensordot(xi, sim._band, axes=1)
    return solveh_banded(band, np.full(sim._interior.size, sim.h ** 2),
                         lower=True)


def meshgrid_tables(n, k_side):
    """The element nodes, element subdomains and interior nodes of an n x n
    mesh on k_side x k_side subdomains, built from 2-D meshgrids over every
    element and node, with the centroid check on every element."""
    nn = n + 1
    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ex, ey = ex.ravel(), ey.ravel()
    n00 = ey * nn + ex
    elem_nodes = np.stack([n00, n00 + 1, n00 + nn + 1, n00 + nn], axis=1)
    fx = (ex + 0.5) / n * k_side
    fy = (ey + 0.5) / n * k_side
    if (np.min(np.abs(fx - np.round(fx))) < 1e-9
            or np.min(np.abs(fy - np.round(fy))) < 1e-9):
        raise ConfigError(
            "element centroids fall on subdomain boundaries for "
            f"elements_per_side={n}, k_side={k_side}; "
            "choose a grid whose centroids avoid the partition lines")
    elem_subdomain = (np.floor(fy).astype(int) * k_side
                      + np.floor(fx).astype(int))
    ix, iy = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    boundary = (ix == 0) | (ix == n) | (iy == 0) | (iy == n)
    interior = np.flatnonzero(~boundary.T.ravel())
    return elem_nodes, elem_subdomain, interior


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


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

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 16), k_side=st.integers(1, 3),
           wide=st.booleans(), data=st.data())
    def test_property_matches_banded_reference(self, n, k_side, wide, data):
        """The solve is bit for bit the tensordot contraction followed by
        ``solveh_banded``, over coefficients in the config interval and
        over a log-uniform range from 1e-100 to 1e100.

        At a high contrast (one coefficient 1e23, the rest 1, on a 4 x 4
        mesh) the factorization breaks down in floating point; then the
        reference's failing leading minor is the ``info`` that ``evaluate``
        reports.
        """
        try:
            sim = DiffusionSimulator(elements_per_side=n, k_side=k_side)
        except ConfigError:
            assume(False)   # centroids on partition lines
        coeff = (st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e) if wide
                 else st.floats(0.01, 1.0))
        xi = np.array(data.draw(st.lists(coeff, min_size=sim.input_dim,
                                         max_size=sim.input_dim)))
        try:
            reference = banded_reference(sim, xi)
        except np.linalg.LinAlgError as err:
            minor = re.match(r"\d+", str(err)).group()
            with pytest.raises(SimulatorError, match=rf"info={minor}\b"):
                sim.evaluate(xi)
            return
        u = sim.evaluate(xi)
        assert u[sim._interior].tobytes() == reference.tobytes()
        boundary = np.setdiff1d(np.arange(sim.output_dim), sim._interior)
        assert u[boundary].tobytes() == np.zeros(boundary.size).tobytes()

    def test_deterministic_and_pure(self):
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        xi = np.full(9, 0.3)
        assert np.array_equal(sim.evaluate(xi), sim.evaluate(xi))


class TestTopology:
    @pytest.mark.parametrize("k_side", range(1, 7))
    def test_tables_match_meshgrid_reference(self, k_side):
        """The index tables, the band built from them and every rejected
        grid match the meshgrid construction for 2 to 64 elements a side."""
        for n in range(2, 65):
            try:
                expected = meshgrid_tables(n, k_side)
            except ConfigError as err:
                with pytest.raises(ConfigError) as raised:
                    DiffusionSimulator(elements_per_side=n, k_side=k_side)
                assert str(raised.value) == str(err)
                continue
            sim = DiffusionSimulator(elements_per_side=n, k_side=k_side)
            tables = (sim._elem_nodes, sim._elem_subdomain, sim._interior)
            for got, want in zip(tables, expected):
                assert_same_array(got, want)
            reference = DiffusionSimulator.__new__(DiffusionSimulator)
            reference.__dict__.update(
                sim.__dict__, _elem_nodes=expected[0],
                _elem_subdomain=expected[1], _interior=expected[2])
            reference.__dict__.pop("_band", None)
            assert_same_array(sim._band, reference._band)


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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 16), data=st.data())
    def test_property_matches_sparse_mass_matrix(self, n, data):
        """The element-by-element norm squared agrees with y^T M y for the
        assembled sparse mass matrix M.

        Both sides sum the same products y_i (h^2 M_ref)_kl y_j, so each
        side's error is at most gamma_k times the same form taken on |y|
        (any summation order of k terms, Higham Lemma 3.1 and Sec. 4.2).
        Per term the norm makes at most k = 4 n_elem + 8 roundings: a 4-term
        row of y_e M_ref, the product with y_e, the sum over all element
        entries, the factor h^2, the square root and the squaring here.
        The sparse form makes at most d + 20: the factor h^2, up to 4
        duplicates summed per entry, a 16-term row of M y and the d-term
        dot with y.  Entries of y are zero or between 1e-100 and 1e100 in
        magnitude, so no product underflows or overflows.
        """
        sim = DiffusionSimulator(elements_per_side=n, k_side=1)
        magnitude = st.floats(1e-100, 1e100)
        entry = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
        y = np.array(data.draw(st.lists(entry, min_size=sim.output_dim,
                                        max_size=sim.output_dim)))
        reference = y @ (mass_matrix(sim) @ y)
        n_elem = sim._elem_nodes.shape[0]
        gamma_norm = _gamma(4 * n_elem + 8)
        gamma_sparse = _gamma(sim.output_dim + 20)
        on_abs = sim.output_norm(np.abs(y)) ** 2 / (1.0 - gamma_norm)
        bound = (gamma_norm + gamma_sparse) * on_abs
        assert abs(sim.output_norm(y) ** 2 - reference) <= bound


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coefficient(self):
        # the band contraction overflows; no RuntimeWarning escapes first
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        xi = np.ones(9)
        xi[4] = 1e308
        with pytest.raises(SimulatorError, match="overflows"):
            sim.evaluate(xi)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [5e-324, 1e-320, 1e-310])
    def test_subnormal_coefficient(self, value):
        # the band stays finite but its factor does not, and no RuntimeWarning
        # escapes first
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        xi = np.ones(9)
        xi[4] = value
        with pytest.raises(SimulatorError, match="not finite"):
            sim.evaluate(xi)

    @pytest.mark.filterwarnings("error")
    def test_smallest_normal_coefficient_is_finite(self):
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        xi = np.ones(9)
        xi[4] = 2.3e-308
        assert np.all(np.isfinite(sim.evaluate(xi)))

    def test_cholesky_failure_names_info(self):
        # a negated band is negative definite, so the factorization stops
        # at the first column
        sim = DiffusionSimulator(elements_per_side=8, k_side=3)
        sim.__dict__["_band"] = -sim._band
        with pytest.raises(SimulatorError, match=r"info=1\b"):
            sim.evaluate(np.ones(9))

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

    def test_uniform_sample_in_box(self):
        sim = DiffusionSimulator(elements_per_side=8, k_side=2)
        rng = np.random.default_rng(5)
        pts = sim.uniform_sample(rng, 50)
        assert pts.shape == (50, 4)
        assert np.all(pts >= 0.01) and np.all(pts <= 1.0)
        slice_pts = sim.uniform_sample(rng, 10, coords=(2, 4))
        assert slice_pts.shape == (10, 2)
