"""Copula measures for stochastic processes.

Sampling of copula-process ensembles, quantile-transform merging with
marginal families, path-space Wasserstein distances via the optimal
coupling, covariance eigendecomposition with truncation, and explicit
robustness bounds comparing process laws through their copulas.
"""

from .copulas import (CopulaEnsemble, CopulaModel, cholesky_with_jitter,
                      empirical_copula_cdf, fbm_covariance,
                      sample_archimedean_clayton, sample_comonotone,
                      sample_elliptical_copula, sample_fbm_copula,
                      sample_independence)
from .errors import (AssumptionViolatedError, CopulaProcessError,
                     InvalidArgumentError, NumericFailureError,
                     UnsupportedOperationError)
from .grid import TimeGrid, grid_from_points, integrate, make_uniform_grid
from .kl import (KLDecomposition, empirical_covariance, kl_expand,
                 kl_from_ensemble, tail_energy, truncate)
from .marginals import (Empirical, ExponentialScale, GaussianScale,
                        LognormalMixing, MarginalFamily, Pareto,
                        ScaleMixtureGaussian, Uniform,
                        empirical_family_from_ensemble)
from .robustness import (AssumptionReport, CopulaBoundReport, ExperimentConfig,
                         ExperimentReport, ExperimentRow, RobustnessParams,
                         RobustnessReport, check_assumption, constant_K,
                         copula_distance_bound, evaluate_bound,
                         gaussian_minorant_params, pareto_constant_bound,
                         pareto_elliptical_experiment,
                         pareto_minorant_params, rho)
from .sklar import (MomentReport, ProcessEnsemble, check_moment_condition,
                    extract_copula, merge)
from .transport import (TransportReport, attach_mc_check, mc_coupling_cost,
                        pathspace_wasserstein_same_copula,
                        wasserstein1d_empirical, wasserstein1d_quantile)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "AssumptionViolatedError", "CopulaBoundReport",
    "CopulaEnsemble", "CopulaModel", "CopulaProcessError", "Empirical",
    "ExperimentConfig", "ExperimentReport", "ExperimentRow", "ExponentialScale",
    "GaussianScale", "InvalidArgumentError", "KLDecomposition",
    "LognormalMixing", "MarginalFamily", "MomentReport", "NumericFailureError",
    "Pareto", "ProcessEnsemble", "RobustnessParams", "RobustnessReport",
    "ScaleMixtureGaussian", "TimeGrid", "TransportReport", "Uniform",
    "UnsupportedOperationError", "attach_mc_check", "check_assumption",
    "check_moment_condition", "cholesky_with_jitter", "constant_K",
    "copula_distance_bound", "empirical_copula_cdf", "empirical_covariance",
    "empirical_family_from_ensemble", "evaluate_bound", "extract_copula",
    "fbm_covariance", "gaussian_minorant_params", "grid_from_points",
    "integrate", "kl_expand", "kl_from_ensemble", "make_uniform_grid",
    "mc_coupling_cost", "merge", "pareto_constant_bound",
    "pareto_elliptical_experiment", "pareto_minorant_params",
    "pathspace_wasserstein_same_copula", "rho", "sample_archimedean_clayton",
    "sample_comonotone", "sample_elliptical_copula", "sample_fbm_copula",
    "sample_independence", "tail_energy", "truncate",
    "wasserstein1d_empirical", "wasserstein1d_quantile",
]
