"""The traced benchmark run wraps package names by attribute; each must resolve."""

import importlib.util
import json
from pathlib import Path

from anovagp import bench, cli, emulator, gp
from anovagp.gp import GpTrainConfig
from anovagp.simulators import analytic_bank

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


def test_traced_run_reaches_every_counted_layer():
    """A traced run still reaches the names the tracer wraps: one
    ``term_value`` per active step, every simulator solve through a cache,
    at least one PCA fit and one small GP fit, and one GP fit span per PCA
    fit (``train_gp`` fits a whole block).  A refactor that keeps a wrapped
    name imported but stops calling it fails here."""
    from test_acceptance import CHEAP_CONFIG

    tracer = load_tracing().Tracer()
    with tracer.installed():
        report = bench.run_experiment(
            bench.ExperimentConfig.from_dict(dict(CHEAP_CONFIG)))
    config = report.config
    # a term of rank zero returns before its first step; the others add
    # points to their quadrature grid (nodes_per_dim per input) up to n_train
    expected_steps = sum(
        max(config["n_train"] - config["nodes_per_dim"] ** len(term["index"]), 0)
        for term in report.term_modes if term["rank"] > 0)
    assert expected_steps > 0
    assert tracer.counts["active_steps"] == expected_steps
    calls = report.simulator_calls
    misses = tracer.counts["cache_lookups"] - tracer.counts["cache_hits"]
    assert misses == (calls["decomposition"] + calls["active_training"]
                      + calls["sgp_training"])
    assert tracer.calls["pca.fit_pca"] > 0
    assert tracer.calls["gp.train_gp.small"] > 0
    assert (tracer.calls["gp.train_gp.small"] + tracer.calls["gp.train_gp.large"]
            == tracer.calls["pca.fit_pca"])


def test_traced_large_block_is_one_fit_span():
    """An S-GP block above ``POOL_ROWS`` rows, whose starts may run in
    worker processes, is one large GP fit span, which times the workers and
    the posteriors conditioned after them."""
    sim = analytic_bank("polynomial-mix", 4, 6)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        block = emulator.train_sgp(
            sim, gp.POOL_ROWS + 16, seed=2,
            gp_config=GpTrainConfig(restarts=3, max_iter=25, seed=4))
    assert block.rank >= 2
    assert tracer.calls["gp.train_gp.large"] == 1
    assert tracer.calls["gp.train_gp.small"] == 0


def test_traced_screen_counts_every_embedded_row(tmp_path):
    """On the screening path (``anovagp decompose``), the traced cache
    misses are the reported solves, and every embedded row of every scored
    term reaches the cache: 2^k rows per grid point of an order-k term,
    plus the anchor."""
    nodes = 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "simulator": {"name": "diffusion", "elements_per_side": 4,
                      "k_side": 2},
        "max_order": 3, "tol_index": 1e-4, "nodes_per_dim": nodes}))
    tracer = load_tracing().Tracer()
    with tracer.installed():
        code = cli.main(["decompose", "--config", str(config),
                         "--out", str(tmp_path)])
    assert code == 0
    selection = json.loads((tmp_path / "selection.json").read_text())
    misses = tracer.counts["cache_lookups"] - tracer.counts["cache_hits"]
    assert misses == selection["simulator_calls"]
    assert (tracer.calls["simulators.DiffusionSimulator.evaluate"]
            == selection["simulator_calls"])
    scored = {int(order): n
              for order, n in selection["candidate_counts"].items()}
    assert tracer.calls["anova.term_value"] == sum(scored.values())
    assert tracer.counts["cache_lookups"] == 1 + sum(
        n * (2 * nodes) ** order for order, n in scored.items())
