"""The public surface of the package: the names ``anovagp`` exports.

Adding or removing a public name is an API change; it shows up here as a
test edit, and README's "Library use" should say what changed.
"""

import inspect

import anovagp

PUBLIC_NAMES = {
    # anova
    "SimCache", "adaptive_decompose", "contribution_weight", "embed",
    "term_mean", "term_value",
    # bench
    "ExperimentConfig", "ExperimentReport", "load_config", "relative_error",
    "run_experiment",
    # emulator
    "AnovaGpEmulator", "PcaGp", "assemble", "load_emulator",
    "predict_sgp_mean", "save_emulator", "train_local", "train_sgp",
    "variance_indicator",
    # gp
    "GpModel", "GpTrainConfig", "Hyperparameters", "predict", "train_gp",
    # pca
    "PcaModel", "fit_pca",
    # quadrature
    "QuadratureRule1D", "TensorQuadrature", "cc_nodes", "cc_rule",
    "cc_weights", "map_rule", "tensor_grid", "weighted_mean",
    # simulators
    "DiffusionSimulator", "Simulator", "analytic_bank",
}


def test_exported_names_are_pinned():
    exported = {name for name, value in vars(anovagp).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES
