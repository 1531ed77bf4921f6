"""ANOVA-GP surrogate emulators for expensive parametric simulators."""

from .anova import (SimCache, adaptive_decompose, contribution_weight, embed,
                    term_mean, term_value)
from .bench import (ExperimentConfig, ExperimentReport, load_config,
                    relative_error, run_experiment)
from .emulator import (AnovaGpEmulator, PcaGp, assemble, load_emulator,
                       predict_sgp_mean, save_emulator, train_local,
                       train_sgp, variance_indicator)
from .gp import GpModel, GpTrainConfig, Hyperparameters, predict, train_gp
from .pca import PcaModel, fit_pca
from .quadrature import (QuadratureRule1D, TensorQuadrature, cc_nodes,
                         cc_rule, cc_weights, map_rule, tensor_grid,
                         weighted_mean)
from .simulators import DiffusionSimulator, Simulator, analytic_bank

__version__ = "0.1.0"
