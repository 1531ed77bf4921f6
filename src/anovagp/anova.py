"""Anchored ANOVA terms and the adaptive index-selection loop.

An ANOVA index is a sorted tuple of 1-based coordinate indices; the empty
tuple denotes the constant term anchored at the anchor point c.  Term values
are defined recursively: the value of a term at a point equals the simulator
output at the point embedded into the anchor, minus the values of all proper
subset terms.  Summing over all 2^m terms recovers the simulator exactly.

The adaptive loop scores each candidate index by the ratio of the norm of
its quadrature mean to the norm of the accumulated mean of the already
selected terms, keeps candidates whose ratio exceeds a tolerance, and grows
candidates order by order under the admissibility rule (every lower-order
subset must itself have been selected).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .exceptions import DegenerateReferenceError
from .quadrature import TensorQuadrature, cc_rule, map_rule, tensor_grid, weighted_mean
from .simulators import Simulator

AnovaIndex = tuple[int, ...]


class SimCache:
    """Memoized simulator evaluations keyed by the embedded input point.

    A hit returns the identical stored vector; the number of misses equals
    the number of distinct simulator solves performed.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._store: dict[bytes, np.ndarray] = {}
        self.misses = 0

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        key = xi.tobytes()
        cached = self._store.get(key)
        if cached is not None:
            return cached
        out = np.asarray(self.sim.evaluate(xi), dtype=float)
        out.flags.writeable = False
        self._store[key] = out
        self.misses += 1
        return out


@dataclass(frozen=True)
class TermDataset:
    """Quadrature grid of one selected term plus the term values on it."""

    index: AnovaIndex
    grid: TensorQuadrature
    values: np.ndarray  # (n_points, d)

    def __post_init__(self):
        if self.values.shape[0] != self.grid.n_points:
            raise ValueError("one value row per grid point is required")


@dataclass
class IndexSelection:
    """Outcome of the adaptive selection loop.

    ``orders`` maps order i to the selected indices of that order (order 0 is
    always the empty index); ``weights`` holds the contribution weight of
    every selected nonempty index; ``candidate_counts`` the number of
    admissible candidates examined at each order.
    """

    orders: dict[int, list[AnovaIndex]] = field(default_factory=dict)
    weights: dict[AnovaIndex, float] = field(default_factory=dict)
    candidate_counts: dict[int, int] = field(default_factory=dict)

    @property
    def indices(self) -> list[AnovaIndex]:
        """All selected indices in alphabetical order (empty index first)."""
        out: list[AnovaIndex] = []
        for i in sorted(self.orders):
            out.extend(sorted(self.orders[i]))
        return out

    def to_dict(self) -> dict:
        """JSON form; a weight's key is its index joined as "i,j,..."."""
        return {
            "orders": {str(i): [list(t) for t in sorted(ts)]
                       for i, ts in self.orders.items()},
            "weights": {",".join(map(str, t)): w
                        for t, w in self.weights.items()},
            "candidate_counts": {str(i): n
                                 for i, n in self.candidate_counts.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IndexSelection":
        """Inverse of ``to_dict``."""
        return cls(
            orders={int(i): [tuple(t) for t in ts]
                    for i, ts in data["orders"].items()},
            weights={tuple(map(int, key.split(","))): float(w)
                     for key, w in data["weights"].items()},
            candidate_counts={int(i): int(n)
                              for i, n in data["candidate_counts"].items()})


def embed(xi_t: np.ndarray, t: AnovaIndex, c: np.ndarray) -> np.ndarray:
    """Embed one point (k,) or rows (n, k) of the subcube of t into the full
    input space, giving (m,) or (n, m).

    Coordinate i of each result is the matching entry of ``xi_t`` when i is
    in t and the anchor coordinate c_i otherwise.
    """
    xi_t = np.atleast_1d(np.asarray(xi_t, dtype=float))
    if xi_t.ndim > 2 or xi_t.shape[-1] != len(t):
        raise ValueError(f"xi_t has shape {xi_t.shape}, index has {len(t)} coords")
    out = np.empty(xi_t.shape[:-1] + (len(c),))
    out[...] = c
    for k, i in enumerate(t):
        out[..., i - 1] = xi_t[..., k]
    return out


def term_value(t: AnovaIndex, xi_t: np.ndarray, c: np.ndarray,
               cache: SimCache) -> np.ndarray:
    """Anchored ANOVA term u_t at one point (k,) or at rows (n, k).

    By inclusion-exclusion, u_t(x) = sum over s subset of t of
    (-1)^(|t|-|s|) u(embed_s(x)).  Every embedded point goes through
    ``cache``, which solves each distinct point once.  Returns (d,) for a
    point, (n, d) for rows.
    """
    t = tuple(t)
    xi_t = np.asarray(xi_t, dtype=float)
    rows = np.atleast_2d(xi_t)
    if xi_t.ndim > 2 or rows.shape[1] != len(t) or rows.shape[0] == 0:
        raise ValueError(f"xi_t has shape {xi_t.shape}, index has "
                         f"{len(t)} coords")
    total = 0.0
    for k in range(len(t) + 1):
        sign = (-1.0) ** (len(t) - k)
        for cols in combinations(range(len(t)), k):
            points = embed(rows[:, list(cols)], tuple(t[j] for j in cols), c)
            total = total + sign * np.array([cache.evaluate(p) for p in points])
    return total if xi_t.ndim == 2 else total[0]


def term_mean(t: AnovaIndex, sim: Simulator, c: np.ndarray, cache: SimCache,
              nodes_per_dim: int = 5) -> tuple[np.ndarray, TermDataset]:
    """Quadrature estimate of the mean of a nonempty term, plus its dataset.

    Builds the Clenshaw-Curtis tensor grid over the subcube of t, evaluates
    the term at every grid point and applies the density-weighted mean.
    """
    t = tuple(t)
    if len(t) == 0:
        raise ValueError("term_mean requires a nonempty index; the empty "
                         "term's mean is the anchor output itself")
    base = cc_rule(nodes_per_dim)
    rules = [map_rule(base, tuple(sim.intervals[i - 1])) for i in t]
    grid = tensor_grid(t, rules)
    values = term_value(t, grid.points, c, cache)
    # inputs are uniform on the box: the density is constant on the subcube
    a, b = sim.intervals[[i - 1 for i in t]].T
    density = np.full(grid.n_points, np.prod(1.0 / (b - a)))
    mean = weighted_mean(values, grid, density)
    return mean, TermDataset(index=t, grid=grid, values=values)


def contribution_weight(t: AnovaIndex, mean_t: np.ndarray,
                        accumulated_mean: np.ndarray, norm) -> float:
    """gamma_t = norm(mean of u_t) / norm(accumulated mean of selected terms)."""
    denom = norm(accumulated_mean)
    if denom == 0.0:
        raise DegenerateReferenceError(
            f"accumulated mean has zero norm while scoring index {t}; "
            "the contribution weight is undefined")
    return norm(mean_t) / denom


@dataclass
class DecompositionResult:
    selection: IndexSelection
    datasets: dict[AnovaIndex, TermDataset]
    cache: SimCache
    anchor_output: np.ndarray
    anchor: np.ndarray


def _admissible_candidates(selected: list[AnovaIndex], m: int) -> list[AnovaIndex]:
    """Order-(i+1) indices whose every i-subset was selected at order i."""
    if not selected:
        return []
    chosen = set(selected)
    i = len(selected[0])
    out = set()
    for s in selected:
        for x in range(1, m + 1):
            if x in s:
                continue
            cand = tuple(sorted(s + (x,)))
            if cand not in out and all(
                    sub in chosen for sub in combinations(cand, i)):
                out.add(cand)
    return sorted(out)


def adaptive_decompose(sim: Simulator, tol_index: float = 1e-4,
                       nodes_per_dim: int = 5, max_order: int = 4,
                       denominator: str = "running") -> DecompositionResult:
    """Adaptive anchored ANOVA decomposition.

    Starts from the constant term at the simulator's anchor point, scores
    every admissible candidate index in alphabetical order and keeps those
    whose contribution weight exceeds ``tol_index`` (strictly).  With
    ``denominator="running"`` the reference mean is updated immediately each
    time an index is accepted; ``"previous_orders"`` freezes it per order.
    Stops when no admissible candidate remains or ``max_order`` is reached.
    Returns the selection, the quadrature datasets of the selected nonempty
    terms and the fresh simulator cache used for all evaluations.
    """
    if tol_index <= 0.0:
        raise ValueError("tol_index must be positive")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if denominator not in ("running", "previous_orders"):
        raise ValueError(f"unknown denominator mode {denominator!r}")
    m = sim.input_dim
    c = sim.anchor_point()
    cache = SimCache(sim)

    anchor_output = np.array(cache.evaluate(c))
    selection = IndexSelection(orders={0: [()]})
    datasets: dict[AnovaIndex, TermDataset] = {}
    accumulated = anchor_output.copy()

    candidates: list[AnovaIndex] = [(i,) for i in range(1, m + 1)]
    order = 1
    while candidates:
        selection.candidate_counts[order] = len(candidates)
        selected_here: list[AnovaIndex] = []
        reference = accumulated.copy()
        for t in candidates:
            mean_t, dataset = term_mean(t, sim, c, cache, nodes_per_dim)
            ref = accumulated if denominator == "running" else reference
            gamma = contribution_weight(t, mean_t, ref, sim.output_norm)
            if gamma > tol_index:
                selected_here.append(t)
                selection.weights[t] = gamma
                datasets[t] = dataset
                accumulated = accumulated + mean_t
        selection.orders[order] = selected_here
        if order >= max_order:
            break
        candidates = _admissible_candidates(selected_here, m)
        order += 1
    return DecompositionResult(selection=selection, datasets=datasets,
                               cache=cache, anchor_output=anchor_output,
                               anchor=c)
