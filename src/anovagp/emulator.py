"""PCA + per-mode GP blocks: local ANOVA-GP terms, their assembly, S-GP.

A ``PcaGp`` block compresses N output vectors with snapshot PCA and models
each retained principal coefficient with an independent GP over the input
coordinates ``coords`` (1-based): a term's coordinates for a local ANOVA-GP
emulator, all m for the S-GP baseline.  A block predicts rows of points at
once, reconstructing the per-mode GP means M as V M + mu; the assembled
emulator adds the local means to the anchor output.

Local training is active: starting from the quadrature dataset of the
decomposition, points are added one at a time from a seeded uniform
candidate pool, always taking the pool point with the largest variance
indicator (the eigenvalue-weighted average of the per-mode predictive
variances), until the training budget is reached.

Archives (schema version 2) store every block in one npz layout, so a
loaded emulator predicts bitwise like the saved one.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from .anova import AnovaIndex, IndexSelection, SimCache, TermDataset, term_value
from .exceptions import ConfigError, TrainingFailedError, \
    UndefinedIndicatorError
from .gp import GpModel, GpTrainConfig, Hyperparameters, _pairs, \
    cross_kernel, posterior, predict_batch, train_gp
from .pca import PcaModel, fit_pca
from .simulators import Simulator

ARCHIVE_SCHEMA_VERSION = 2


def _as_rows(x, width: int) -> tuple[np.ndarray, bool]:
    """Rows (n, width) from one point or rows, and whether it was one point."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise ConfigError(f"expected a point of shape ({width},) or rows of "
                          f"shape (n, {width}), got shape {x.shape}")
    rows = np.atleast_2d(x)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ConfigError("prediction points must be finite; row "
                          f"{int(np.argmin(finite))} is not")
    return rows, x.ndim == 1


@dataclass
class PcaGp:
    """PCA of N outputs plus one GP per retained mode over ``coords``.

    A rank-zero block carries no GPs and always predicts the PCA mean.
    """

    coords: AnovaIndex
    pca: PcaModel
    mode_gps: list[GpModel]
    train_inputs: np.ndarray   # (N, |coords|)
    train_values: np.ndarray   # (N, d)

    @property
    def rank(self) -> int:
        return self.pca.rank

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Predictive mean V M + mu at one point (|coords|,) or rows.

        The per-mode means are c* . w; no variance is computed.
        """
        xs, single = _as_rows(x, len(self.coords))
        means = np.array([cross_kernel(g.inputs, xs, g.hyper) @ g.weights
                          for g in self.mode_gps])
        out = means.reshape(self.rank, len(xs)).T @ self.pca.components.T
        out += self.pca.mean
        return out[0] if single else out


def variance_indicator(block: PcaGp, xs: np.ndarray) -> np.ndarray:
    """Eigenvalue-weighted average of the per-mode predictive variances,
    at each row of ``xs``."""
    if block.rank == 0:
        raise UndefinedIndicatorError(
            f"block {block.coords} is constant (rank 0); the variance "
            "indicator is undefined")
    lam = block.pca.eigenvalues
    variances = np.stack([predict_batch(g, xs)[1] for g in block.mode_gps])
    return lam @ variances / lam.sum()


def _fit_block(coords: AnovaIndex, inputs: np.ndarray, values: np.ndarray,
               gp_config: GpTrainConfig, tol_pca: float,
               previous_block: PcaGp | None, refit: int,
               term: AnovaIndex | str) -> PcaGp:
    """Fit PCA to the values, then one GP per retained mode over the inputs.

    Mode r warm-starts from mode r of the previous refit's block, when that
    block has one.  A failed fit is raised again naming the term ("sgp" for
    the S-GP), the mode and the stage.
    """
    pca_model, targets = fit_pca(values, tol_pca)
    previous = previous_block.mode_gps if previous_block is not None else []
    configs = []
    for r in range(targets.shape[0]):
        cfg = replace(gp_config, seed=gp_config.seed + 977 * refit + r)
        if r < len(previous):
            cfg = replace(cfg, warm_start=previous[r].hyper, restarts=1)
        configs.append(cfg)
    try:
        mode_gps = train_gp(inputs, targets, configs)
    except TrainingFailedError as err:
        stage = "train_sgp" if term == "sgp" else f"train_local refit {refit}"
        raise TrainingFailedError(
            str(err), term=term, mode=err.mode,
            stage=f"{stage} (N={len(inputs)})") from err
    return PcaGp(coords=coords, pca=pca_model, mode_gps=mode_gps,
                 train_inputs=inputs, train_values=values)


def train_local(t: AnovaIndex, theta_t: TermDataset, n_train: int,
                sim: Simulator, c: np.ndarray, cache: SimCache,
                pool_size: int = 1000, tol_pca: float = 1e-2, seed: int = 0,
                gp_config: GpTrainConfig | None = None) -> PcaGp:
    """Build the local emulator for term t with active training.

    The training set starts as the decomposition dataset of t.  Each active
    step refits PCA and the mode GPs, then moves the pool point with the
    largest variance indicator into the training set (evaluating the term
    through the shared simulator cache), until ``n_train`` points are reached;
    a final full refit closes the loop.  Deterministic for a fixed seed.
    """
    t = tuple(t)
    if n_train < 1:
        raise ValueError("n_train must be >= 1")
    if pool_size <= n_train:
        raise ValueError("pool_size must exceed n_train")
    gp_config = gp_config or GpTrainConfig()

    inputs = np.array(theta_t.grid.points)
    values = np.array(theta_t.values)
    rng = np.random.default_rng(seed)
    pool = sim.uniform_sample(rng, pool_size, coords=t)

    block = None
    refit = 0
    while True:
        block = _fit_block(t, inputs, values, gp_config, tol_pca, block,
                           refit, t)
        if block.rank == 0 or inputs.shape[0] >= n_train:
            return block
        pick = int(np.argmax(variance_indicator(block, pool)))
        xi_star = pool[pick]
        y_star = term_value(t, xi_star, c, cache)
        inputs = np.vstack([inputs, xi_star])
        values = np.vstack([values, y_star])
        pool = np.delete(pool, pick, axis=0)
        refit += 1


@dataclass
class AnovaGpEmulator:
    """Assembled emulator: cached anchor output plus the local term blocks."""

    anchor_output: np.ndarray
    anchor: np.ndarray
    locals: dict[AnovaIndex, PcaGp]
    selection: IndexSelection

    def predict_mean(self, xi: np.ndarray) -> np.ndarray:
        """Anchor output plus the local means, at one point (m,) or rows."""
        xs, single = _as_rows(xi, self.anchor.size)
        out = np.tile(self.anchor_output, (len(xs), 1))
        for t, block in self.locals.items():
            out += block.predict_mean(xs[:, [i - 1 for i in t]])
        return out[0] if single else out


def assemble(selection: IndexSelection, anchor_output: np.ndarray,
             locals_map: dict[AnovaIndex, PcaGp],
             anchor: np.ndarray) -> AnovaGpEmulator:
    """Assemble the overall emulator from the selection and the local models.

    Every selected nonempty index must have a local model; the empty term is
    the exact anchor output, never a GP.
    """
    wanted = [t for t in selection.indices if t]
    missing = [t for t in wanted if t not in locals_map]
    if missing:
        raise ValueError(f"missing local emulators for indices {missing}")
    return AnovaGpEmulator(anchor_output=np.asarray(anchor_output, dtype=float),
                           anchor=np.asarray(anchor, dtype=float),
                           locals={t: locals_map[t] for t in wanted},
                           selection=selection)


def train_sgp(sim: Simulator, n: int, tol_pca: float = 1e-2, seed: int = 0,
              gp_config: GpTrainConfig | None = None,
              cache: SimCache | None = None) -> PcaGp:
    """Train the standard-GP baseline on n i.i.d. uniform input samples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gp_config = gp_config or GpTrainConfig()
    rng = np.random.default_rng(seed)
    inputs = sim.uniform_sample(rng, n)
    evaluate = cache.evaluate if cache is not None else sim.evaluate
    outputs = np.stack([np.asarray(evaluate(x), dtype=float) for x in inputs])
    return _fit_block(tuple(range(1, sim.input_dim + 1)), inputs, outputs,
                      gp_config, tol_pca, None, 0, "sgp")


def predict_sgp_mean(emulator: PcaGp, xi: np.ndarray) -> np.ndarray:
    """Predictive mean of the S-GP baseline at one point (m,) or rows."""
    return emulator.predict_mean(xi)


# ---------------------------------------------------------------------------
# Serialization: a versioned npz archive with exact float preservation
# ---------------------------------------------------------------------------

def _save_block(arrays: dict, prefix: str, block: PcaGp) -> None:
    n_train, n_dims = block.train_inputs.shape
    arrays[prefix + "mean"] = block.pca.mean
    arrays[prefix + "components"] = block.pca.components
    arrays[prefix + "eigenvalues"] = block.pca.eigenvalues
    arrays[prefix + "total_variance"] = np.float64(block.pca.total_variance)
    arrays[prefix + "inputs"] = block.train_inputs
    arrays[prefix + "values"] = block.train_values
    arrays[prefix + "targets"] = np.array(
        [g.targets for g in block.mode_gps]).reshape(block.rank, n_train)
    arrays[prefix + "loghyp"] = np.array(
        [g.hyper.as_array() for g in block.mode_gps]).reshape(block.rank, n_dims + 2)


_BLOCK_MEMBERS = ("mean", "components", "eigenvalues", "total_variance",
                  "inputs", "values", "targets", "loghyp")


def _block_members(data, prefix: str, coords: AnovaIndex,
                   path: str) -> dict[str, np.ndarray]:
    """The members of one archived block, by name without ``prefix``.

    Their shapes must agree with ``inputs`` (N, |coords|), the rank
    R = ``eigenvalues.size`` and the output size d = ``mean.size``; an
    archive whose shapes disagree raises ``ConfigError``.
    """
    arrays = {name: data[prefix + name] for name in _BLOCK_MEMBERS}
    n = (arrays["inputs"].shape or (0,))[0]
    d, r, k = arrays["mean"].size, arrays["eigenvalues"].size, len(coords)
    shapes = {"mean": (d,), "components": (d, r), "eigenvalues": (r,),
              "total_variance": (), "inputs": (n, k), "values": (n, d),
              "targets": (r, n), "loghyp": (r, k + 2)}
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ConfigError(
                f"{path} is an emulator archive whose {prefix}{name} has "
                f"shape {arrays[name].shape} where the other members of its "
                f"block need {shape}")
    return arrays


def _load_block(arrays: dict[str, np.ndarray], coords: AnovaIndex) -> PcaGp:
    """The block of ``_block_members``, each mode conditioned again."""
    pca_model = PcaModel(mean=arrays["mean"], components=arrays["components"],
                         eigenvalues=arrays["eigenvalues"],
                         total_variance=float(arrays["total_variance"]))
    inputs, rows = arrays["inputs"], arrays["targets"]
    # one set of pairs conditions every mode; a rank-0 block needs none
    pairs = _pairs(inputs) if len(rows) else None
    mode_gps = [posterior(pairs, inputs, targets,
                          Hyperparameters.from_array(loghyp))
                for targets, loghyp in zip(rows, arrays["loghyp"])]
    return PcaGp(coords=coords, pca=pca_model, mode_gps=mode_gps,
                 train_inputs=inputs, train_values=arrays["values"])


def save_emulator(emulator, path: str) -> None:
    """Write an emulator (ANOVA-GP or S-GP) to a versioned npz archive."""
    arrays: dict[str, np.ndarray] = {}
    if isinstance(emulator, AnovaGpEmulator):
        blocks = list(emulator.locals.values())
        meta = {"kind": "anova-gp",
                "selection": emulator.selection.to_dict()}
        arrays["anchor_output"] = emulator.anchor_output
        arrays["anchor"] = emulator.anchor
    elif isinstance(emulator, PcaGp):
        blocks = [emulator]
        meta = {"kind": "sgp"}
    else:
        raise TypeError(f"cannot serialize {type(emulator).__name__}")
    meta["schema_version"] = ARCHIVE_SCHEMA_VERSION
    meta["blocks"] = [list(b.coords) for b in blocks]
    for i, block in enumerate(blocks):
        _save_block(arrays, f"b{i}_", block)
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def _check_anchor(anchor: np.ndarray, anchor_output: np.ndarray,
                  all_coords: list, members: list, path: str) -> None:
    """``ConfigError`` unless ``anchor`` is a point (m,) and
    ``anchor_output`` an output (d,) that fit every block: coordinates
    within 1..m and the block's output size d."""
    m, d = anchor.size, anchor_output.size
    if anchor.shape != (m,) or anchor_output.shape != (d,):
        raise ConfigError(f"{path} is an ANOVA-GP archive whose anchor "
                          f"{anchor.shape} or anchor_output "
                          f"{anchor_output.shape} is not a vector")
    for coords, arrays in zip(all_coords, members):
        if not all(1 <= i <= m for i in coords):
            raise ConfigError(f"{path} is an ANOVA-GP archive whose block "
                              f"{coords} has coordinates outside 1..{m}, "
                              f"the inputs of its anchor")
        if arrays["mean"].size != d:
            raise ConfigError(f"{path} is an ANOVA-GP archive whose block "
                              f"{coords} has {arrays['mean'].size} outputs, "
                              f"its anchor_output {d}")


def load_emulator(path: str):
    """Load an emulator archive written by ``save_emulator``.

    A path that cannot be read, a file that is not such an archive, or one
    whose members' shapes disagree (``_block_members``, ``_check_anchor``),
    raises ``ConfigError``.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except OSError as err:   # missing, a directory, unreadable
        raise ConfigError(f"{path} cannot be read: "
                          f"{err.strerror or err}") from None
    except (ValueError, EOFError, zipfile.BadZipFile):
        archive = None   # text, an empty file, a broken zip
    if not isinstance(archive, np.lib.npyio.NpzFile):   # or one .npy array
        raise ConfigError(f"{path} is not an npz archive")
    with archive as data:
        if "meta" not in data.files:
            raise ConfigError(f"{path} is an npz archive without the 'meta' "
                              "member of an emulator archive")
        try:
            meta = json.loads(str(data["meta"]))
        except json.JSONDecodeError:
            meta = None
        if not isinstance(meta, dict):
            raise ConfigError(f"{path} is an npz archive whose 'meta' "
                              "member is not a JSON object")
        version = meta.get("schema_version")
        if version != ARCHIVE_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported archive schema version {version!r}; this "
                f"release reads version {ARCHIVE_SCHEMA_VERSION} only")
        kind = meta.get("kind")
        if kind not in ("anova-gp", "sgp"):
            raise ConfigError(f"unknown archive kind {kind!r}")
        if "blocks" not in meta:
            raise ConfigError(f"{path} is an emulator archive whose meta "
                              "lists no 'blocks'")
        all_coords = meta["blocks"]
        if not (isinstance(all_coords, list) and all(
                isinstance(coords, list) and all(type(i) is int for i in coords)
                for coords in all_coords)):
            raise ConfigError(f"{path} is an emulator archive whose meta "
                              "'blocks' is not a list of coordinate lists")
        if kind == "sgp" and len(all_coords) != 1:
            raise ConfigError(f"{path} is an S-GP archive whose meta lists "
                              f"{len(all_coords)} blocks instead of one")
        try:
            if kind == "anova-gp":
                try:
                    selection = IndexSelection.from_dict(meta["selection"])
                except (AttributeError, TypeError, ValueError):
                    raise ConfigError(f"{path} is an emulator archive whose "
                                      "meta 'selection' is malformed") from None
            members = [_block_members(data, f"b{i}_", tuple(coords), path)
                       for i, coords in enumerate(all_coords)]
            if kind == "anova-gp":
                anchor, anchor_output = data["anchor"], data["anchor_output"]
                _check_anchor(anchor, anchor_output, all_coords, members,
                              path)
            blocks = [_load_block(arrays, tuple(coords))
                      for arrays, coords in zip(members, all_coords)]
            if kind == "sgp":
                return blocks[0]
            return AnovaGpEmulator(
                anchor_output=anchor_output, anchor=anchor,
                locals={b.coords: b for b in blocks}, selection=selection)
        except KeyError as err:   # a member or meta key the archive lacks
            raise ConfigError(f"{path} is an incomplete emulator archive: "
                              f"{err.args[0]}") from None
