"""Command-line interface: decompose, train, predict, benchmark, inspect."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .anova import adaptive_decompose
from .bench import (build_simulator, load_config, read_config_file,
                    run_experiment)
from .emulator import AnovaGpEmulator, PcaGp, load_emulator, predict_sgp_mean
from .exceptions import AnovaGpError, ConfigError


def _fail(code: int, kind: str, message: str) -> int:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _apply_seed_override(config, args):
    if args.seed is not None:
        config.seed = args.seed
    return config


def cmd_decompose(args) -> int:
    config = _apply_seed_override(load_config(args.config), args)
    sim = build_simulator(config.simulator)
    result = adaptive_decompose(
        sim, tol_index=config.tol_index, nodes_per_dim=config.nodes_per_dim,
        max_order=config.max_order, denominator=config.denominator)
    payload = {**result.selection.to_dict(),
               "simulator_calls": result.cache.misses}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "selection.json", "w") as fh:
            json.dump(payload, fh, indent=2)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def cmd_train(args) -> int:
    """Train, score and write the artifacts, then print each method's
    median relative error.  ``benchmark`` is another name for it."""
    config = _apply_seed_override(load_config(args.config), args)
    out = args.out or "."
    report = run_experiment(config, out_dir=out)
    for method, summary in report.summaries.items():
        print(f"{method}: median relative error {summary['median']:.3e}")
    return 0


def _load_points(config_path: str) -> np.ndarray:
    """The prediction points of a config; a relative ``points_csv`` is read
    from the config's own directory."""
    data = read_config_file(config_path)
    if not {"points", "points_csv"} & set(data):
        raise ConfigError("prediction config needs 'points' or 'points_csv'")
    try:
        if "points" in data:
            source = "'points'"
            points = np.atleast_2d(np.asarray(data["points"], dtype=float))
        else:
            source = Path(config_path).parent / data["points_csv"]
            with warnings.catch_warnings():
                # an empty file is reported below, not as a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                points = np.loadtxt(source, delimiter=",", ndmin=2)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"prediction points are not a table of numbers: "
                          f"{err}") from None
    if points.size == 0:
        raise ConfigError(f"prediction points table {source} is empty")
    return points


def cmd_predict(args) -> int:
    emulator = load_emulator(args.emulator)
    points = _load_points(args.config)
    if isinstance(emulator, AnovaGpEmulator):
        preds = emulator.predict_mean(points)
    else:
        preds = predict_sgp_mean(emulator, points)
    dest = sys.stdout
    handle = None
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handle = open(out / "predictions.csv", "w", newline="")
        dest = handle
    try:
        writer = csv.writer(dest)
        for j, p in enumerate(preds):
            writer.writerow([j] + [repr(float(v)) for v in p])
    finally:
        if handle is not None:
            handle.close()
    return 0


def cmd_inspect(args) -> int:
    emulator = load_emulator(args.emulator)
    if isinstance(emulator, PcaGp):
        if args.format == "csv":
            raise ConfigError("--format csv prints a term table; an S-GP "
                              "archive has no terms, use --format json")
        payload = {"kind": "sgp", "rank": emulator.rank,
                   "n_train": int(emulator.train_inputs.shape[0])}
    else:
        terms = [{"index": list(t), "rank": loc.rank,
                  "n_train": int(loc.train_inputs.shape[0])}
                 for t, loc in emulator.locals.items()]
        payload = {"kind": "anova-gp", "n_terms": len(terms) + 1,
                   "terms": terms,
                   "candidate_counts": emulator.selection.candidate_counts}
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["index", "rank", "n_train"])
        for row in payload["terms"]:
            writer.writerow(["+".join(map(str, row["index"])),
                             row["rank"], row["n_train"]])
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anovagp",
        description="ANOVA-GP surrogate emulators for expensive simulators")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {"--config": {"required": True},
             "--emulator": {"required": True},
             "--seed": {"type": int, "default": None},
             "--out": {"default": None},
             "--format": {"choices": ["csv", "json"], "default": "json"}}

    def add(name, func, *names):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        for flag in names:
            p.add_argument(flag, **flags[flag])

    add("decompose", cmd_decompose, "--config", "--seed", "--out")
    add("train", cmd_train, "--config", "--seed", "--out")
    add("benchmark", cmd_train, "--config", "--seed", "--out")
    add("predict", cmd_predict, "--config", "--emulator", "--out")
    add("inspect", cmd_inspect, "--emulator", "--format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        return _fail(2, "config", str(err))
    except FileNotFoundError as err:
        return _fail(2, "config", str(err))
    except AnovaGpError as err:
        return _fail(1, type(err).__name__, str(err))


if __name__ == "__main__":
    sys.exit(main())
