"""Simulator abstraction, the Q1 FEM diffusion simulator, and analytic test simulators.

A simulator is a pure deterministic map from an m-dimensional input vector to
a d-dimensional output, together with its input box (inputs are uniform on
it) and an output norm.  The diffusion simulator solves
-div(a grad u) = 1 with homogeneous Dirichlet conditions on (-1,1)^2, where
the coefficient a is piecewise constant over a k x k subdomain partition and
each subdomain value is one input coordinate.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg import solveh_banded

from .exceptions import ConfigError, SimulatorError


class Simulator:
    """Base class for simulators.

    Subclasses set ``input_dim``, ``output_dim`` and ``intervals`` (an
    (m, 2) array of per-coordinate input intervals) and implement
    ``evaluate``.  Inputs are uniformly distributed on the box.
    """

    input_dim: int
    output_dim: int
    intervals: np.ndarray

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output_norm(self, y: np.ndarray) -> float:
        """Norm used to score ANOVA contribution weights (Euclidean default)."""
        return float(np.linalg.norm(y))

    def anchor_point(self) -> np.ndarray:
        """Default anchor: the mean of the input distribution."""
        return self.intervals.mean(axis=1)

    def uniform_sample(self, rng: np.random.Generator, n: int,
                       coords: tuple[int, ...] | None = None) -> np.ndarray:
        """Draw n i.i.d. uniform samples over the box (or a coordinate slice)."""
        iv = self.intervals if coords is None else self.intervals[[i - 1 for i in coords]]
        return rng.uniform(iv[:, 0], iv[:, 1], size=(n, iv.shape[0]))


# ---------------------------------------------------------------------------
# Q1 FEM diffusion simulator
# ---------------------------------------------------------------------------

# Reference element matrices for a square bilinear element with counter-
# clockwise local node ordering [(0,0), (1,0), (1,1), (0,1)].  The stiffness
# matrix is independent of the element size; the mass matrix scales as h^2.
_K_REF = np.array([
    [4.0, -1.0, -2.0, -1.0],
    [-1.0, 4.0, -1.0, -2.0],
    [-2.0, -1.0, 4.0, -1.0],
    [-1.0, -2.0, -1.0, 4.0],
]) / 6.0

_M_REF = np.array([
    [4.0, 2.0, 1.0, 2.0],
    [2.0, 4.0, 2.0, 1.0],
    [1.0, 2.0, 4.0, 2.0],
    [2.0, 1.0, 2.0, 4.0],
]) / 36.0


class DiffusionSimulator(Simulator):
    """Piecewise-constant-coefficient diffusion problem on (-1,1)^2.

    The domain is meshed with ``elements_per_side`` x ``elements_per_side``
    square Q1 elements ((n+1)^2 nodes) and partitioned into k_side x k_side
    equal subdomains.  Input coordinate k (1-based, subdomains scanned with x
    fastest from the lower-left corner) is the diffusion coefficient on
    subdomain k; inputs live in ``coeff_interval`` ([0.01, 1] by default) in
    every coordinate.  The output collects all nodal values including the
    (zero) boundary nodes, so d = (n+1)^2.

    The interior system is symmetric positive definite with bandwidth n in
    the row-major node numbering, so each solve is one banded Cholesky.
    """

    def __init__(self, elements_per_side: int = 32, k_side: int = 3,
                 coeff_interval: tuple[float, float] = (0.01, 1.0)):
        if elements_per_side < 2:
            raise ConfigError("elements_per_side must be >= 2")
        if k_side < 1:
            raise ConfigError("k_side must be >= 1")
        try:
            lo, hi = (float(v) for v in coeff_interval)
        except (TypeError, ValueError):
            raise ConfigError("coeff_interval must be a pair of numbers, got "
                              f"{coeff_interval!r}") from None
        if not 0.0 < lo < hi < np.inf:
            raise ConfigError("coeff_interval [a, b] must be finite with "
                              f"0 < a < b, got {coeff_interval!r}")
        self.elements_per_side = elements_per_side
        self.k_side = k_side
        self.input_dim = k_side * k_side
        nn = elements_per_side + 1
        self.n_nodes_side = nn
        self.output_dim = nn * nn
        self.intervals = np.tile([lo, hi], (self.input_dim, 1))
        self.h = 2.0 / elements_per_side

        # global node id = iy * nn + ix; local ordering counter-clockwise
        n = elements_per_side
        ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        ex, ey = ex.ravel(), ey.ravel()
        n00 = ey * nn + ex
        self._elem_nodes = np.stack(
            [n00, n00 + 1, n00 + nn + 1, n00 + nn], axis=1)

        # subdomain of each element by centroid; reject configurations where a
        # centroid sits exactly on a subdomain boundary
        fx = (ex + 0.5) / n * k_side
        fy = (ey + 0.5) / n * k_side
        if (np.min(np.abs(fx - np.round(fx))) < 1e-9
                or np.min(np.abs(fy - np.round(fy))) < 1e-9):
            raise ConfigError(
                "element centroids fall on subdomain boundaries for "
                f"elements_per_side={n}, k_side={k_side}; "
                "choose a grid whose centroids avoid the partition lines")
        self._elem_subdomain = (np.floor(fy).astype(int) * k_side
                                + np.floor(fx).astype(int))

        ix, iy = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
        boundary = (ix == 0) | (ix == n) | (iy == 0) | (iy == n)
        self._interior = np.flatnonzero(~boundary.T.ravel())

    @cached_property
    def _band(self) -> np.ndarray:
        """(k_side^2, n+1, unknowns) lower band of the interior stiffness
        with a unit coefficient on one subdomain, one slab per subdomain.

        Row r of a slab holds the r-th subdiagonal, entry (i, j) at
        ``[i - j, j]`` as ``solveh_banded(lower=True)`` reads it.
        """
        # interior unknown of each global node (-1 on the boundary), taken
        # at every (row, col) pair of every element matrix
        unknown = np.full(self.output_dim, -1)
        unknown[self._interior] = np.arange(self._interior.size)
        rows = unknown[np.repeat(self._elem_nodes, 4, axis=1)].ravel()
        cols = unknown[np.tile(self._elem_nodes, (1, 4))].ravel()
        keep = (rows >= cols) & (cols >= 0)
        n_band = self.elements_per_side + 1
        shape = (self.input_dim, n_band, self._interior.size)
        sub = np.repeat(self._elem_subdomain, 16)
        flat = np.ravel_multi_index((sub[keep], rows[keep] - cols[keep],
                                     cols[keep]), shape)
        weights = np.tile(_K_REF.ravel(), self._elem_nodes.shape[0])[keep]
        return np.bincount(flat, weights, minlength=np.prod(shape)).reshape(shape)

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.input_dim,):
            raise SimulatorError(
                f"expected input of shape ({self.input_dim},), got {xi.shape}",
                point=xi)
        if not (np.all(xi > 0.0) and np.all(np.isfinite(xi))):
            raise SimulatorError(
                "diffusion coefficients must be positive and finite", point=xi)
        # load: int of each basis function = h^2 (interior nodes)
        b = np.full(self._interior.size, self.h ** 2)
        # coefficients near the float limits may overflow the band or the
        # factor; either way the solve fails with a SimulatorError
        with np.errstate(over="ignore", invalid="ignore"):
            band = np.tensordot(xi, self._band, axes=1)
        if not np.all(np.isfinite(band)):
            raise SimulatorError("stiffness band overflows", point=xi)
        try:
            u_int = solveh_banded(band, b, lower=True, check_finite=False)
        except np.linalg.LinAlgError as err:
            raise SimulatorError(f"banded Cholesky solve failed: {err}",
                                 point=xi) from err
        # a subnormal coefficient leaves the band finite, not its factor
        if not np.all(np.isfinite(u_int)):
            raise SimulatorError("solution is not finite", point=xi)
        u = np.zeros(self.output_dim)
        u[self._interior] = u_int
        return u

    def output_norm(self, y: np.ndarray) -> float:
        """Functional L2 norm of the Q1 interpolant, sqrt(y^T M y), summed
        element by element as h^2 sum_e y_e^T M_ref y_e."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.output_dim,):
            raise ValueError(f"expected output of shape ({self.output_dim},)")
        y_e = y[self._elem_nodes]
        return float(np.sqrt(max(self.h ** 2 * np.sum((y_e @ _M_REF) * y_e),
                                 0.0)))

    def node_coordinates(self) -> np.ndarray:
        """(d, 2) array of node coordinates, matching the output ordering."""
        nn = self.n_nodes_side
        ix, iy = np.meshgrid(np.arange(nn), np.arange(nn), indexing="xy")
        x = -1.0 + ix.ravel() * self.h
        y = -1.0 + iy.ravel() * self.h
        return np.stack([x, y], axis=1)


# ---------------------------------------------------------------------------
# Analytic simulators with known ANOVA structure
# ---------------------------------------------------------------------------

class _AnalyticSimulator(Simulator):
    def __init__(self, m: int, output_dim: int):
        self.input_dim = m
        self.output_dim = output_dim
        self.intervals = np.tile([0.0, 1.0], (m, 1))


class AdditiveSimulator(_AnalyticSimulator):
    """u(xi) = sum_i g_i(xi_i): every interaction term vanishes exactly."""

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        j = np.arange(self.output_dim)
        out = np.zeros(self.output_dim)
        for i in range(self.input_dim):
            out += np.sin((i + 1) * xi[i] + np.pi * (j + 1) / (self.output_dim + 1))
        return out


class RankOneProductSimulator(_AnalyticSimulator):
    """u(xi) = s(xi) * v for a fixed direction v: output data have rank one."""

    def __init__(self, m: int, output_dim: int):
        super().__init__(m, output_dim)
        self.direction = np.cos(1.0 + np.arange(output_dim))

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        scale = float(np.prod(0.6 + xi))
        return scale * self.direction


class PolynomialMixSimulator(_AnalyticSimulator):
    """Low-order polynomial with one genuine {1,2} interaction term.

    The interaction is (xi_1 xi_2)^2 rather than xi_1 xi_2: a multilinear
    interaction anchored at the midpoint of a symmetric density has an
    exactly zero mean, so its contribution weight could never exceed any
    tolerance.  The squared form keeps a strictly positive weight.
    """

    def __init__(self, m: int, output_dim: int):
        if m < 2:
            raise ConfigError("polynomial-mix needs m >= 2")
        super().__init__(m, output_dim)
        j = np.arange(output_dim)
        self._a = np.sin(1.0 + j)
        self._b = np.cos(np.add.outer(np.arange(m), 0.5 * j))
        self._w = 0.5 * np.sin(np.outer(np.arange(1, m + 1), 1.0 + 0.3 * j))

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        out = (xi[0] * xi[1]) ** 2 * self._a + xi @ self._b
        out = out + (xi * xi) @ self._w
        return out


_BANK = {
    "additive": AdditiveSimulator,
    "rank-one-product": RankOneProductSimulator,
    "polynomial-mix": PolynomialMixSimulator,
}


def analytic_bank(name: str, m: int, output_dim: int) -> Simulator:
    """Build an analytic simulator by name.

    Known names: additive, rank-one-product, polynomial-mix.
    """
    try:
        cls = _BANK[name]
    except KeyError:
        raise ConfigError(
            f"unknown analytic simulator {name!r}; "
            f"known: {sorted(_BANK)}") from None
    return cls(m, output_dim)
