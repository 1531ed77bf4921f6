"""Config-driven experiment harness: end-to-end runs, metrics and reports.

A run decomposes the simulator, trains the local emulators and the matched-
budget S-GP baseline, scores both on fresh seeded test inputs with the
squared-relative-error metric, and emits errors.csv, report.json and the
emulator archives.  Everything is deterministic given (config, seed): one
master seed spawns fixed sub-seeds per stage so stages are independently
reproducible.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .anova import SimCache, adaptive_decompose
from .emulator import (AnovaGpEmulator, PcaGp, assemble, predict_sgp_mean,
                       save_emulator, train_local, train_sgp)
from .exceptions import ConfigError
from .gp import GpTrainConfig, blas_thread_counts
from .simulators import ANALYTIC_SIMULATORS, DiffusionSimulator, Simulator, \
    analytic_bank

# stage tags for sub-seed derivation
_STAGE_TEST = 1
_STAGE_SGP = 2
_STAGE_POOL = 3
_STAGE_GP = 4


def derive_seed(master: int, *key: int) -> int:
    """Deterministic sub-seed for a stage (and optional per-term key)."""
    return int(np.random.SeedSequence([int(master), *map(int, key)])
               .generate_state(1)[0])


def relative_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Squared-norm error ratio ||p - y||^2 / ||y||^2 (Euclidean)."""
    truth = np.asarray(truth, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    denom = float(truth @ truth)
    if denom == 0.0:
        raise ValueError("relative_error is undefined for a zero truth vector")
    diff = predicted - truth
    return float(diff @ diff) / denom


# integer settings and their least values (type() is int rejects bools)
_INT_MINIMUMS = {"nodes_per_dim": 1, "max_order": 1, "n_train": 1, "n_test": 1,
                 "pool_size": 1, "seed": 0, "gp_restarts": 1, "gp_max_iter": 1,
                 "sgp_gp_restarts": 1, "sgp_gp_max_iter": 1}

# the keys each simulator block may hold besides "name"
_SIMULATOR_KEYS = {
    "diffusion": {"elements_per_side", "k_side", "coeff_interval"},
    **dict.fromkeys(ANALYTIC_SIMULATORS, {"m", "output_dim"})}


@dataclass
class ExperimentConfig:
    """Settings for one end-to-end run.

    ``simulator`` holds the simulator name plus its parameters; ``sgp_budget``
    is either "matched" (n_train times the number of nonempty selected terms)
    or an explicit integer.
    """

    simulator: dict = field(default_factory=lambda: {
        "name": "diffusion", "elements_per_side": 32, "k_side": 3})
    tol_index: float = 1e-4
    tol_pca: float = 1e-2
    nodes_per_dim: int = 5
    max_order: int = 4
    n_train: int = 30
    sgp_budget: str | int = "matched"
    n_test: int = 200
    pool_size: int = 1000
    seed: int = 0
    denominator: str = "running"
    gp_restarts: int = 5
    gp_max_iter: int = 100
    sgp_gp_restarts: int = 2
    sgp_gp_max_iter: int = 60

    def validate(self) -> None:
        for name, low in _INT_MINIMUMS.items():
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ConfigError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.simulator, dict) or "name" not in self.simulator:
            raise ConfigError("simulator block needs a 'name'")
        if not self.tol_index > 0:
            raise ConfigError("tol_index must be positive")
        if not 0 < self.tol_pca < 1:
            raise ConfigError("tol_pca must lie in (0, 1)")
        if self.pool_size <= self.n_train:
            raise ConfigError("pool_size must exceed n_train")
        if self.denominator not in ("running", "previous_orders"):
            raise ConfigError(f"unknown denominator mode {self.denominator!r}")
        if not (self.sgp_budget == "matched"
                or (type(self.sgp_budget) is int and self.sgp_budget >= 1)):
            raise ConfigError("sgp_budget must be 'matched' or a positive int")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        # YAML reads exponent literals without a dot ("1e-4") as strings
        for name in ("tol_index", "tol_pca"):
            if name in data:
                if isinstance(data[name], bool):
                    raise ConfigError(f"{name} must be a number")
                try:
                    data[name] = float(data[name])
                except (TypeError, ValueError):
                    raise ConfigError(f"{name} must be a number") from None
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)


def read_config_file(path: str) -> dict:
    """The mapping a config or points file holds: JSON when its name ends
    in .json, YAML otherwise.  A file that does not parse, or holds anything
    but a mapping, raises ``ConfigError``."""
    try:
        text = Path(path).read_text()
        if str(path).endswith(".json"):
            data = json.loads(text)
        else:
            data = yaml.safe_load(text)
    except (ValueError, yaml.YAMLError) as err:   # UnicodeDecodeError too
        raise ConfigError(
            f"config file {path} does not parse: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} does not hold a mapping")
    return data


def load_config(path: str) -> ExperimentConfig:
    """Read a config file; YAML is the human form, JSON the canonical one."""
    return ExperimentConfig.from_dict(read_config_file(path))


def build_simulator(spec: dict) -> Simulator:
    """Instantiate the simulator described by a config block."""
    spec = dict(spec)
    name = spec.pop("name", None)
    if not isinstance(name, str) or name not in _SIMULATOR_KEYS:
        raise ConfigError(f"unknown simulator name {name!r}")
    unknown = spec.keys() - _SIMULATOR_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown {name!r} simulator keys {sorted(unknown)}")
    for key in spec.keys() & {"elements_per_side", "k_side", "m", "output_dim"}:
        if type(spec[key]) is not int:
            raise ConfigError(f"simulator {key} must be an integer, "
                              f"got {spec[key]!r}")
    if name == "diffusion":
        return DiffusionSimulator(**spec)
    return analytic_bank(name, spec.get("m", 4), spec.get("output_dim", 8))


@dataclass
class ExperimentReport:
    """Per-point errors, summaries, term tables and accounting for one run."""

    errors: dict              # method -> list of per-test-point errors
    summaries: dict           # method -> five-number summary
    term_table: list          # per order: {order, candidates, selected}
    term_modes: list          # per term (index order): {index, rank, weight}
    simulator_calls: dict
    timings: dict
    config: dict
    undefined_errors: list = field(default_factory=list)
    blas_threads: dict = field(default_factory=dict)   # library -> threads

    def to_dict(self) -> dict:
        return asdict(self)


def _five_number(values: list[float]) -> dict:
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if arr.size == 0:
        return {k: math.nan for k in ("min", "q1", "median", "q3", "max")}
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return {"min": float(arr.min()), "q1": float(q1), "median": float(med),
            "q3": float(q3), "max": float(arr.max())}


def run_experiment(config: ExperimentConfig,
                   out_dir: str | None = None) -> ExperimentReport:
    """Full pipeline: decompose, train both emulators, score, report.

    Artifacts (errors.csv, report.json, emulator archives, a config echo)
    are written to ``out_dir`` when given.  The report records the OpenBLAS
    thread counts the run started at, which byte-identical results rely on.
    """
    config.validate()
    blas_threads = blas_thread_counts()
    sim = build_simulator(config.simulator)
    timings: dict[str, float] = {}

    tic = time.perf_counter()
    decomp = adaptive_decompose(
        sim, tol_index=config.tol_index, nodes_per_dim=config.nodes_per_dim,
        max_order=config.max_order, denominator=config.denominator)
    timings["decompose_s"] = time.perf_counter() - tic
    decompose_calls = decomp.cache.misses

    selected = [t for t in decomp.selection.indices if t]
    tic = time.perf_counter()
    locals_map = {}
    for t in selected:
        gp_cfg = GpTrainConfig(restarts=config.gp_restarts,
                               max_iter=config.gp_max_iter,
                               seed=derive_seed(config.seed, _STAGE_GP, *t))
        locals_map[t] = train_local(
            t, decomp.datasets[t], config.n_train, sim, decomp.anchor,
            decomp.cache, pool_size=config.pool_size, tol_pca=config.tol_pca,
            seed=derive_seed(config.seed, _STAGE_POOL, *t), gp_config=gp_cfg)
    anova_em = assemble(decomp.selection, decomp.anchor_output, locals_map,
                        decomp.anchor)
    timings["train_local_s"] = time.perf_counter() - tic
    active_calls = decomp.cache.misses - decompose_calls

    if config.sgp_budget == "matched":
        n_sgp = max(config.n_train * len(selected), 1)
    else:
        n_sgp = int(config.sgp_budget)
    tic = time.perf_counter()
    sgp_cache = SimCache(sim)
    sgp_cfg = GpTrainConfig(restarts=config.sgp_gp_restarts,
                            max_iter=config.sgp_gp_max_iter,
                            seed=derive_seed(config.seed, _STAGE_SGP, 1))
    sgp_em = train_sgp(sim, n_sgp, tol_pca=config.tol_pca,
                       seed=derive_seed(config.seed, _STAGE_SGP, 0),
                       gp_config=sgp_cfg, cache=sgp_cache)
    timings["train_sgp_s"] = time.perf_counter() - tic

    tic = time.perf_counter()
    rng = np.random.default_rng(derive_seed(config.seed, _STAGE_TEST))
    test_inputs = sim.uniform_sample(rng, config.n_test)
    preds = {"anova_gp": anova_em.predict_mean(test_inputs),
             "sgp": predict_sgp_mean(sgp_em, test_inputs)}
    errors = {"anova_gp": [], "sgp": []}
    undefined = []
    for j, xi in enumerate(test_inputs):
        truth = np.asarray(sim.evaluate(xi), dtype=float)
        for method, pred in preds.items():
            try:
                errors[method].append(relative_error(pred[j], truth))
            except ValueError:
                errors[method].append(math.nan)
                undefined.append({"test_index": j, "method": method})
    timings["score_s"] = time.perf_counter() - tic

    counts = decomp.selection.candidate_counts
    term_table = [{"order": i, "candidates": counts.get(i, 0),
                   "selected": len(decomp.selection.orders.get(i, []))}
                  for i in sorted(counts)]
    term_modes = [{"index": list(t), "rank": locals_map[t].rank,
                   "weight": decomp.selection.weights[t]}
                  for t in selected]
    sim_calls = {"decomposition": decompose_calls,
                 "active_training": active_calls,
                 "sgp_training": sgp_cache.misses,
                 "testing": config.n_test,
                 "total": decomp.cache.misses + sgp_cache.misses + config.n_test}

    report = ExperimentReport(
        errors=errors,
        summaries={m: _five_number(v) for m, v in errors.items()},
        term_table=term_table, term_modes=term_modes,
        simulator_calls=sim_calls, timings=timings,
        config=config.to_dict(), undefined_errors=undefined,
        blas_threads=blas_threads)

    if out_dir is not None:
        write_artifacts(report, anova_em, sgp_em, Path(out_dir))
    return report


def write_errors_csv(report: ExperimentReport, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["test_index", "method", "relative_error"])
        for method in ("anova_gp", "sgp"):
            for j, err in enumerate(report.errors[method]):
                writer.writerow([j, method, repr(err)])


def write_artifacts(report: ExperimentReport, anova_em: AnovaGpEmulator,
                    sgp_em: PcaGp, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_errors_csv(report, out_dir / "errors.csv")
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    with open(out_dir / "config.json", "w") as fh:
        json.dump(report.config, fh, indent=2)
    save_emulator(anova_em, str(out_dir / "anova_gp.npz"))
    save_emulator(sgp_em, str(out_dir / "sgp.npz"))
