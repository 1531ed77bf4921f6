"""The three workloads: their configs, one timed pass each, and the checks
that every pass's outputs must pass.

A pass calls only the package's public entry points:
``run_experiment(config, out_dir)`` followed by ``anovagp predict`` on the
two archives it writes, or ``anovagp decompose`` for screening.  Each call
is one operation; an operation fails when it raises, exits non-zero or
breaks one of its checks.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from anovagp import bench, cli

# Q1 elements per side, 3x3 subdomains: m = 9 inputs, d = 289 outputs at
# 16x16 and d = 1089 at 32x32.
MESH = {"name": "diffusion", "elements_per_side": 16, "k_side": 3}
FINE_MESH = {**MESH, "elements_per_side": 32}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``terms`` maps each ANOVA order to the expected (candidates, selected)
    counts; ``serve_ceiling`` bounds the median relative error of the served
    predictions per archive; ``ordered`` requires the ANOVA-GP median error
    to lie below the S-GP one (acceptance criterion 7).
    """

    name: str
    config: dict
    terms: dict
    screen: bool = False
    serve_points: int = 0
    serve_ceiling: dict = field(default_factory=dict)
    ordered: bool = False


# Why each workload exists and how it was sized: perfbench/README.md.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="diffusion-anova",
        config={"simulator": FINE_MESH, "max_order": 2, "n_train": 30,
                "pool_size": 1000, "gp_restarts": 5, "sgp_budget": 120},
        terms={1: (9, 9), 2: (36, 34)},
        serve_points=200,
        serve_ceiling={"anova_gp": 0.1, "sgp": 0.15},
        ordered=True),
    Workload(
        name="diffusion-sgp",
        config={"simulator": MESH, "max_order": 1, "n_train": 6,
                "pool_size": 50, "gp_restarts": 1, "sgp_budget": 200,
                "n_test": 100},
        terms={1: (9, 9)},
        serve_points=200,
        serve_ceiling={"anova_gp": 0.6, "sgp": 0.2}),
    Workload(
        name="diffusion-screen",
        config={"simulator": MESH, "max_order": 3, "tol_index": 1e-4},
        terms={1: (9, 9), 2: (36, 34), 3: (70, 20)},
        screen=True),
]}

# Set-up is timed in a fresh process only: after a pass has run, the same
# calls read up to 40% faster, and by how much varies from run to run.  One
# call takes under a millisecond, and a process goes through slow phases
# that last for many calls, so set-up runs in blocks and the fastest
# block's mean is reported.
SETUP_BLOCKS = 40
SETUP_REPEATS = 25


@dataclass
class Context:
    """Inputs made once per run, outside every timed region."""

    workload: Workload
    seed: int
    work: Path
    config_path: Path
    config: object = None
    points_path: Path | None = None
    truth: np.ndarray | None = None
    setup_times: list = field(default_factory=list)   # per block, per call


@dataclass
class Pass:
    """What one pass over the workload's entry points measured and found."""

    metrics: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)      # (operation, [problems])
    wall_s: float = 0.0                          # entry-point calls only
    outputs: object = None                       # compared across passes
    report: object = None

    @property
    def failed(self) -> int:
        return sum(1 for _, problems in self.ops if problems)


def prepare(workload: Workload, seed: int, work: Path) -> Context:
    """Write the config, time set-up, and make the served points and truth."""
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps({**workload.config, "seed": seed}))
    ctx = Context(workload=workload, seed=seed, work=work,
                  config_path=config_path)
    for _ in range(SETUP_BLOCKS):
        tic = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            ctx.config = bench.load_config(str(config_path))
            sim = bench.build_simulator(ctx.config.simulator)
        ctx.setup_times.append((time.perf_counter() - tic) / SETUP_REPEATS)
    if workload.serve_points:
        rng = np.random.default_rng([seed, 0x5e7e])
        points = sim.uniform_sample(rng, workload.serve_points)
        ctx.points_path = work / "points.json"
        ctx.points_path.write_text(json.dumps({"points": points.tolist()}))
        ctx.truth = np.stack([sim.evaluate(x) for x in points])
    return ctx


def run_pass(ctx: Context, out: Path) -> Pass:
    if ctx.workload.screen:
        return _screen_pass(ctx, out)
    return _pipeline_pass(ctx, out)


def _pipeline_pass(ctx: Context, out: Path) -> Pass:
    wl = ctx.workload
    result = Pass()
    tic = time.perf_counter()
    try:
        report = bench.run_experiment(ctx.config, out_dir=str(out))
    except Exception as err:  # a failed operation, reported, not fatal
        result.ops.append(("run_experiment", [f"raised {err!r}"]))
        return result
    run_s = time.perf_counter() - tic
    result.wall_s += run_s
    result.report = report
    result.outputs = report.errors
    result.ops.append(("run_experiment", _check_report(wl, report)))
    result.metrics.update(run_s=run_s, sim_solves=report.simulator_calls["total"])
    for stage in ("decompose_s", "train_local_s", "train_sgp_s", "score_s"):
        result.metrics[stage] = report.timings[stage]
    for method, prefix in (("anova_gp", "anova"), ("sgp", "sgp")):
        result.metrics[f"{prefix}_median_relerr"] = report.summaries[method]["median"]
        dest = out / f"served_{method}"
        argv = ["predict", "--config", str(ctx.points_path),
                "--emulator", str(out / f"{method}.npz"), "--out", str(dest)]
        tic = time.perf_counter()
        code, problems = _cli(argv)
        serve_s = time.perf_counter() - tic
        result.wall_s += serve_s
        if code == 0:
            served, found = _check_served(ctx, dest / "predictions.csv",
                                          wl.serve_ceiling[method])
            result.metrics[f"{prefix}_served_relerr"] = served
            problems += found
        result.metrics[f"{prefix}_serve_pts_per_s"] = wl.serve_points / serve_s
        result.ops.append((f"predict {method}", problems))
    return result


def _screen_pass(ctx: Context, out: Path) -> Pass:
    result = Pass()
    argv = ["decompose", "--config", str(ctx.config_path),
            "--seed", str(ctx.seed), "--out", str(out)]
    tic = time.perf_counter()
    code, problems = _cli(argv)
    wall = time.perf_counter() - tic
    result.wall_s = wall
    if code == 0:
        selection = json.loads((out / "selection.json").read_text())
        result.outputs = selection
        found = {int(i): (n, len(selection["orders"][i]))
                 for i, n in selection["candidate_counts"].items()}
        if found != ctx.workload.terms:
            problems.append(f"term table {found} != {ctx.workload.terms}")
        result.metrics.update(run_s=wall, decompose_s=wall,
                          sim_solves=selection["simulator_calls"])
    result.ops.append(("decompose", problems))
    return result


def _cli(argv: list[str]) -> tuple[int | None, list[str]]:
    try:
        code = cli.main(argv)
    except Exception as err:  # a failed operation, reported, not fatal
        return None, [f"raised {err!r}"]
    return code, ([] if code == 0 else [f"exit code {code}"])


def _check_report(wl: Workload, report) -> list[str]:
    problems = []
    values = [e for errs in report.errors.values() for e in errs]
    if not all(math.isfinite(e) for e in values):
        problems.append("non-finite relative errors")
    if report.undefined_errors:
        problems.append(f"undefined errors {report.undefined_errors}")
    found = {row["order"]: (row["candidates"], row["selected"])
             for row in report.term_table}
    if found != wl.terms:
        problems.append(f"term table {found} != {wl.terms}")
    medians = {m: s["median"] for m, s in report.summaries.items()}
    if wl.ordered and not medians["anova_gp"] < medians["sgp"]:
        problems.append(f"ANOVA-GP median error not below S-GP: {medians}")
    return problems


def _check_served(ctx: Context, path: Path,
                  ceiling: float) -> tuple[float, list[str]]:
    """The served predictions' median relative error, and the problems."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    preds = rows[:, 1:]
    if preds.shape != ctx.truth.shape:
        return math.nan, [f"served {preds.shape}, expected {ctx.truth.shape}"]
    if not np.all(np.isfinite(preds)):
        return math.nan, ["non-finite served predictions"]
    median = float(np.median([bench.relative_error(p, y)
                              for p, y in zip(preds, ctx.truth)]))
    if not median < ceiling:
        return median, [f"served median relative error {median} >= {ceiling}"]
    return median, []


# Layer times compared when asking which layer is the largest.
LAYER_TIMES = ("simulators.busy_s", "anova.self_s", "quadrature.busy_s",
               "pca.busy_s", "gp.fit_busy_s.small", "gp.fit_busy_s.large",
               "gp.predict_busy_s", "emulator.train_local_self_s",
               "emulator.train_sgp_self_s", "emulator.predict_busy_s",
               "emulator.save_s", "emulator.load_s", "cli.predict_self_s",
               "bench.self_s")


def layer_problems(workload: Workload, layers: dict, run_s: float) -> list[str]:
    """Whether the traced pass loads the layer the workload was chosen for."""
    largest = max(LAYER_TIMES, key=layers.get)
    problems = []
    if workload.name == "diffusion-sgp":
        if not layers["gp.fit_busy_s.large"] >= 0.8 * run_s:
            problems.append("gp.fit_busy_s.large is under 80% of run_s")
    elif workload.name == "diffusion-anova":
        if largest != "gp.fit_busy_s.small":
            problems.append(f"largest layer is {largest}")
        if not layers["gp.fit_busy_s.large"] < 0.1 * run_s:
            problems.append("gp.fit_busy_s.large is not under 10% of run_s")
    elif workload.name == "diffusion-screen":
        if largest != "simulators.busy_s":
            problems.append(f"largest layer is {largest}")
        busy = [n for n, v in layers.items()
                if n.split(".")[0] in ("gp", "pca", "emulator") and v]
        if busy:
            problems.append(f"layers that should be idle are not: {busy}")
    return problems
