"""Benchmark of the anovagp pipeline (see perfbench/README.md).

    python3 perfbench/run.py --workload diffusion-anova --seed 0 \
        --seconds 36 --trace 0

Without tracing, the workload's entry points run again and again until
``--seconds`` is used up, and each end-to-end metric is the median over the
passes.  With ``--trace 1`` a traced pass follows an untraced one, and
the per-layer metrics are printed instead.  The last line of standard
output is the result; the line before it holds the machine record, the
per-pass values and every problem found.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The end-to-end metrics every workload reports, with their units.  The
# other values a pass measures exist only where a pipeline runs, or vary too
# much from seed to seed to be bounded; they go into the detail line.
END_TO_END = {"setup_s": "s", "run_s": "s", "sim_solves": "count"}


def _import_package():
    """Import anovagp from this checkout's src/, never from elsewhere."""
    if not (SRC / "anovagp" / "__init__.py").is_file():
        raise SystemExit(f"error: no anovagp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import anovagp
    if Path(anovagp.__file__).resolve().parent != SRC / "anovagp":
        raise SystemExit(f"error: imported anovagp from {anovagp.__file__}")


def _blas_threads() -> dict:
    """OpenBLAS thread counts of the libraries numpy and scipy loaded."""
    names = [f"{prefix}get_num_threads{suffix}"
             for prefix in ("scipy_openblas_", "openblas_")
             for suffix in ("64_", "")]
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:  # not Linux: no record
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        func = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if func is not None:
            func.restype = ctypes.c_int
            out[Path(path).name] = func()
    return out


def _git_commit() -> str | None:
    """This checkout's commit, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(wl, ctx, seconds: float):
    from workloads import run_pass
    passes = []
    start = time.perf_counter()
    while True:
        tic = time.perf_counter()
        out = ctx.work / f"pass{len(passes)}"
        done = run_pass(ctx, out)
        shutil.rmtree(out, ignore_errors=True)
        if passes and done.outputs != passes[0].outputs:
            done.ops.append(("determinism", ["outputs differ from pass 0"]))
        passes.append(done)
        took = time.perf_counter() - tic
        if time.perf_counter() - start + took > seconds:
            break
    values = {}
    for done in passes:
        for name, value in done.metrics.items():
            values.setdefault(name, []).append(value)
    medians = {name: statistics.median(v) for name, v in values.items()}
    # the fastest set-up block (see workloads.SETUP_BLOCKS)
    medians["setup_s"] = min(ctx.setup_times)
    metrics = {name: _metric(medians[name], unit)
               for name, unit in END_TO_END.items() if name in medians}
    detail = {"passes": len(passes), "values": values,
              "setup_block_s": ctx.setup_times, "medians": medians,
              "wall_s": [done.wall_s for done in passes]}
    return passes, metrics, detail


def run_traced(wl, ctx):
    from tracing import Tracer
    from workloads import run_pass
    # an untraced pass first, so that first-pass costs do not show up as
    # tracing overhead
    before = run_pass(ctx, ctx.work / "before")
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(ctx, ctx.work / "traced")
    layers = tracer.layer_metrics()
    overhead = traced.wall_s / before.wall_s - 1.0 if before.wall_s else 0.0
    layers["trace.overhead_frac"] = (overhead, "ratio")
    problems = _consistency(wl, ctx, before, traced, tracer, layers)
    traced.ops.append(("trace consistency", problems))
    metrics = {name: _metric(value, unit)
               for name, (value, unit) in layers.items()}
    detail = {"untraced_wall_s": before.wall_s,
              "traced_wall_s": traced.wall_s,
              "untraced_metrics": before.metrics,
              "traced_metrics": traced.metrics,
              "span_calls": dict(tracer.calls),
              "span_self_s": dict(tracer.self_s)}
    return [before, traced], metrics, detail


def _consistency(wl, ctx, untraced, traced, tracer, layers) -> list[str]:
    """Tracing must not change results, its counts must add up, and the
    workload must load the layer it was chosen for."""
    from workloads import layer_problems
    problems = []
    if traced.outputs != untraced.outputs:
        problems.append("traced outputs differ from untraced outputs")
    count = {name: value for name, (value, _) in layers.items()}
    lookups = count["anova.cache_lookups"]
    misses = lookups - tracer.counts["cache_hits"]
    if wl.screen:
        solves = expected_misses = traced.metrics.get("sim_solves")
    else:
        calls = traced.report.simulator_calls if traced.report else {}
        solves = calls.get("total")
        expected_misses = (calls.get("decomposition", 0)
                           + calls.get("active_training", 0)
                           + calls.get("sgp_training", 0))
        cfg = ctx.config
        steps = sum(max(cfg.n_train - cfg.nodes_per_dim ** len(row["index"]), 0)
                    for row in (traced.report.term_modes if traced.report else []))
        if count["emulator.active_steps"] != steps:
            problems.append(f"active steps {count['emulator.active_steps']} "
                            f"!= {steps} expected from the term table")
    if count["simulators.solves"] != solves:
        problems.append(f"traced solves {count['simulators.solves']} != "
                        f"reported {solves}")
    if misses != expected_misses:
        problems.append(f"traced cache misses {misses} != reported "
                        f"{expected_misses}")
    problems += layer_problems(wl, count, traced.metrics.get("run_s", 0.0))
    problems += _clock_problems(wl, traced, tracer)
    return problems


def _clock_problems(wl, traced, tracer) -> list[str]:
    """The spans must agree within 1% with clocks the tracer does not own:
    the pass's own timer around each entry point, and the stage timers in
    ``report.timings``."""
    if wl.screen:
        pairs = [("cli.cmd_decompose", traced.metrics.get("decompose_s"))]
    else:
        timings = traced.report.timings if traced.report else {}
        pairs = [("bench.run_experiment", traced.metrics.get("run_s")),
                 ("anova.adaptive_decompose", timings.get("decompose_s")),
                 ("emulator.train_local", timings.get("train_local_s")),
                 ("emulator.train_sgp", timings.get("train_sgp_s"))]
    problems = []
    for span, clock in pairs:
        spanned = tracer.total_s[span]
        if clock is None or abs(spanned - clock) > 0.01 * clock:
            problems.append(f"span {span} took {spanned} s, its clock "
                            f"read {clock} s")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS, prepare
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        ctx = prepare(wl, args.seed, work)
        if args.trace:
            passes, metrics, detail = run_traced(wl, ctx)
        else:
            passes, metrics, detail = run_untraced(wl, ctx, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    attempted = sum(len(done.ops) for done in passes)
    failed = sum(done.failed for done in passes)
    problems = [f"{op}: {msg}" for done in passes
                for op, msgs in done.ops for msg in msgs]
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "trace": args.trace, "seconds": args.seconds,
                      "config": {**wl.config, "seed": args.seed},
                      "machine": machine_record(), "problems": problems,
                      **detail}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
