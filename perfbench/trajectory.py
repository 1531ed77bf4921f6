"""Run the benchmark over several seeds and summarise it as one BENCH point.

    python3 perfbench/trajectory.py --label 1 --seeds 0-9

For every workload this runs ``perfbench/run.py`` once per seed without
tracing and once with tracing on the first seed, then writes
``perfbench/BENCH_<label>.json`` with, per metric, the ten values, their
median, quartiles and spread (the distance between the quartiles as a share
of the median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    tic = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=180)
    detail, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
    detail["process_wall_s"] = time.perf_counter() - tic
    return detail, result


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    seeds = _seeds(args.seeds)
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [_run(wl, s, spec["run_seconds"], 0) for s in seeds]
        out["machine"] = runs[0][0]["machine"]
        names = runs[0][0]["medians"]
        entry = {
            "correct": all(r["correct"] for _, r in runs),
            "process_wall_s": [d["process_wall_s"] for d, _ in runs],
            "metrics": {n: _summary([d["medians"][n] for d, _ in runs])
                        for n in names},
        }
        detail, traced = _run(wl, seeds[0], spec["run_seconds"], 1)
        entry["traced"] = {"seed": seeds[0],
                           "correct": traced["correct"],
                           "process_wall_s": detail["process_wall_s"],
                           "metrics": {n: m["value"] for n, m in
                                       traced["metrics"].items()}}
        out["workloads"][wl] = entry
        print(wl, json.dumps({n: round(m["median"], 4) for n, m in
                              entry["metrics"].items()}), flush=True)
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
