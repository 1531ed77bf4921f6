"""Snapshot PCA for the high-dimensional output of one ANOVA term.

The sample covariance (1/N) sum_j y_j y_j^T of the mean-centered data is
eigendecomposed, and components are kept until the retained variance
fraction exceeds 1 - tol_pca.  When the output dimension exceeds the sample
count, the N x N Gram matrix is decomposed instead; the nonzero spectrum is
identical and the cost drops from d^3 to N^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# eigenvalues below this fraction of the leading one are numerical noise
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class PcaModel:
    """Sample mean, orthonormal principal components and retained eigenvalues."""

    mean: np.ndarray          # (d,)
    components: np.ndarray    # (d, R), orthonormal columns
    eigenvalues: np.ndarray   # (R,), descending
    total_variance: float     # sum of all eigenvalues of the covariance

    @property
    def rank(self) -> int:
        return self.eigenvalues.size


def fit_pca(dataset: np.ndarray, tol_pca: float) -> tuple[PcaModel, np.ndarray]:
    """Fit a PCA model to N samples of d-vectors.

    Returns the model and the per-mode training targets: an (R, N) array
    whose row r holds the r-th principal coefficient of every (centered)
    sample.  The retained rank R is the smallest one with retained variance
    fraction above 1 - tol_pca; a dataset with zero covariance yields R = 0
    and the model reduces to the mean.
    """
    dataset = np.atleast_2d(np.asarray(dataset, dtype=float))
    n, d = dataset.shape
    if n == 0:
        raise ValueError("fit_pca needs at least one sample")
    if not 0.0 < tol_pca < 1.0:
        raise ValueError(f"tol_pca must lie in (0, 1), got {tol_pca}")

    mean = dataset.mean(axis=0)
    centered = dataset - mean

    if d > n:
        # snapshot path: the N x N Gram matrix shares the nonzero spectrum
        gram = centered @ centered.T / n
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        eigvecs = eigvecs[:, order]
        nonneg = np.clip(eigvals, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(nonneg > 0, 1.0 / np.sqrt(n * nonneg), 0.0)
        components_full = centered.T @ (eigvecs * scale)
    else:
        cov = centered.T @ centered / n
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        components_full = eigvecs[:, order]

    eigvals = np.clip(eigvals, 0.0, None)
    total = float(eigvals.sum())
    if total <= 0.0 or eigvals[0] <= 0.0:
        model = PcaModel(mean=mean, components=np.zeros((d, 0)),
                         eigenvalues=np.zeros(0), total_variance=total)
        return model, np.zeros((0, n))

    effective = eigvals > _RANK_TOL * eigvals[0]
    cum = np.cumsum(eigvals) / total
    r = int(np.searchsorted(cum, 1.0 - tol_pca, side="right")) + 1
    r = min(r, int(np.count_nonzero(effective)))

    components = components_full[:, :r].copy()
    # fix column signs: largest-magnitude entry positive, for determinism
    for col in range(r):
        pivot = np.argmax(np.abs(components[:, col]))
        if components[pivot, col] < 0:
            components[:, col] = -components[:, col]

    model = PcaModel(mean=mean, components=components,
                     eigenvalues=eigvals[:r].copy(), total_variance=total)
    targets = components.T @ centered.T
    return model, targets

