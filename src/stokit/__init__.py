"""stokit: deterministic stochastic-process simulation, ergodicity
diagnostics, and reproducible figure generation."""

__version__ = "0.1.0"

from .agents import (GenerationStat, GrowthEval, PoolConfig, evaluate_growth,
                     evolutionary_optimize, growth_from_factors)
from .diagnostics import (DEFAULT_FAN_LEVELS, GrowthRates, PreasymptoticReport,
                          QuantileFan, SummaryCurves, distance_to_asymptote,
                          estimate_asymptote, growth_rates, preasymptotic_report,
                          quantile_fan, rolling_fluctuation, summary_curves)
from .errors import (DegenerateError, DomainError, GridError, PositivityError,
                     SchemaError, SizeError, StabilityError, StokitError)
from .fitting import (FitResult, ModelScore, compare_models, fit_lognormal,
                      fit_normal, tail_index_hill)
from .processes import (AdaptiveOU, Brownian, Ensemble, GeometricBrownian,
                        GeometricLevy, LevyStable, OrnsteinUhlenbeck, Poisson,
                        ProcessSpec, TimeGrid, simulate)
from .rng import (RngStream, derive_seed, sample_gaussian,
                  sample_poisson_events, sample_stable, substream)
from .spde import (Dirichlet, FieldSolution, Neumann, SpdeSpec,
                   extract_profiles, simulate_heat_spde, spatial_mean)
from .svgplot import HeatmapBundle, LineBundle, Series, render_panels, render_svg

__all__ = [
    "__version__",
    # rng
    "RngStream", "substream", "sample_gaussian", "sample_stable",
    "sample_poisson_events", "derive_seed",
    # processes
    "ProcessSpec", "Brownian", "GeometricBrownian", "LevyStable",
    "GeometricLevy", "OrnsteinUhlenbeck", "AdaptiveOU", "Poisson",
    "TimeGrid", "Ensemble", "simulate",
    # diagnostics
    "QuantileFan", "SummaryCurves", "GrowthRates", "PreasymptoticReport",
    "DEFAULT_FAN_LEVELS", "quantile_fan", "summary_curves", "growth_rates",
    "estimate_asymptote", "distance_to_asymptote", "rolling_fluctuation",
    "preasymptotic_report",
    # fitting
    "FitResult", "ModelScore", "fit_normal", "fit_lognormal",
    "tail_index_hill", "compare_models",
    # spde
    "SpdeSpec", "Dirichlet", "Neumann", "FieldSolution", "simulate_heat_spde",
    "extract_profiles", "spatial_mean",
    # agents
    "PoolConfig", "GrowthEval", "GenerationStat", "evaluate_growth",
    "growth_from_factors", "evolutionary_optimize",
    # plotting
    "Series", "LineBundle", "HeatmapBundle", "render_svg", "render_panels",
    # errors
    "StokitError", "DomainError", "SizeError", "StabilityError", "GridError",
    "PositivityError", "DegenerateError", "SchemaError",
]
