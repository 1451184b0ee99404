"""Tail trend analysis for station panels.

Estimates relative extreme-event frequencies (scedasis) across stations and
time from a pooled high threshold, tests their homogeneity, and fits a
common generalized Pareto shape with dependence-aware standard errors.
"""

from .errors import (
    DateOrderError,
    DomainError,
    EmptyPoolError,
    EmptySeasonError,
    FitConvergenceError,
    InsufficientDataError,
    NoExceedanceError,
    PanelFormatError,
    RangeError,
    ScedexError,
    SimSpecError,
    SingularCovarianceError,
)
from .panel import (
    SEASONS,
    PanelSample,
    decluster,
    load_panel,
    split_season,
)
from .scedasis import ScedasisCurve, scedasis_all, scedasis_curve
from .dependence import EmpiricalTailDependence, TailDependenceMatrix, sigma1_matrix
from .trend_tests import (
    BonferroniResult,
    SweepRow,
    TestResult,
    bonferroni,
    chi2_pvalue,
    k_sweep,
    kolmogorov_pvalue,
    space_test,
    time_test,
)
from .gp_mle import (
    AsymptoticCov,
    GammaPathRow,
    GpFit,
    fisher_info,
    fisher_info_inverse,
    fit_gp_excesses,
    fit_gp_pml,
    gamma_path,
    mle_asymptotic_cov,
    sigma_gamma0,
)
from .mc import (
    McReport,
    SimSpec,
    analytic_sigma,
    logistic_tail_copula,
    mc_covariance_check,
    mc_mle_variance,
    mc_test_size,
    simulate_panel,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCov",
    "BonferroniResult",
    "DateOrderError",
    "DomainError",
    "EmptyPoolError",
    "EmptySeasonError",
    "EmpiricalTailDependence",
    "FitConvergenceError",
    "GammaPathRow",
    "GpFit",
    "InsufficientDataError",
    "McReport",
    "NoExceedanceError",
    "PanelFormatError",
    "PanelSample",
    "RangeError",
    "SEASONS",
    "ScedasisCurve",
    "ScedexError",
    "SimSpec",
    "SingularCovarianceError",
    "SimSpecError",
    "SweepRow",
    "TailDependenceMatrix",
    "TestResult",
    "analytic_sigma",
    "bonferroni",
    "chi2_pvalue",
    "decluster",
    "fisher_info",
    "fisher_info_inverse",
    "fit_gp_excesses",
    "fit_gp_pml",
    "gamma_path",
    "k_sweep",
    "kolmogorov_pvalue",
    "load_panel",
    "logistic_tail_copula",
    "mc_covariance_check",
    "mc_mle_variance",
    "mc_test_size",
    "mle_asymptotic_cov",
    "scedasis_all",
    "scedasis_curve",
    "sigma1_matrix",
    "simulate_panel",
    "space_test",
    "split_season",
    "time_test",
]
