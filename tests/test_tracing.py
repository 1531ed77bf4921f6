"""The traced benchmark run wraps package names by attribute; each must resolve."""

import importlib.util
from pathlib import Path

from anovagp import bench, cli, emulator, gp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    originals = (gp.predict, emulator.predict_batch, bench.predict_sgp_mean,
                 cli.predict_sgp_mean, emulator.AnovaGpEmulator.predict_mean,
                 emulator.term_value)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        assert emulator.predict_batch is not originals[1]
    assert (gp.predict, emulator.predict_batch, bench.predict_sgp_mean,
            cli.predict_sgp_mean, emulator.AnovaGpEmulator.predict_mean,
            emulator.term_value) == originals
