"""stokit: deterministic stochastic-process simulation, ergodicity
diagnostics, and reproducible figure generation.

``import stokit`` loads no submodule: each public name imports its module on
first use (PEP 562), and each CLI command imports only the modules it runs."""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, in the order of ``__all__``
_EXPORTS = {
    "rng": ("RngStream", "substream", "sample_gaussian", "sample_stable",
            "sample_poisson_events", "derive_seed"),
    "specs": ("ProcessSpec", "Brownian", "GeometricBrownian", "LevyStable",
              "GeometricLevy", "OrnsteinUhlenbeck", "AdaptiveOU", "Poisson"),
    "processes": ("TimeGrid", "Ensemble", "simulate"),
    "diagnostics": ("QuantileFan", "SummaryCurves", "GrowthRates",
                    "PreasymptoticReport", "DEFAULT_FAN_LEVELS", "quantile_fan",
                    "summary_curves", "growth_rates", "estimate_asymptote",
                    "distance_to_asymptote", "rolling_fluctuation",
                    "preasymptotic_report"),
    "fitting": ("FitResult", "ModelScore", "fit_normal", "fit_lognormal",
                "tail_index_hill", "compare_models"),
    "spde": ("SpdeSpec", "Dirichlet", "Neumann", "FieldSolution",
             "simulate_heat_spde", "extract_profiles", "spatial_mean"),
    "agents": ("PoolConfig", "GrowthEval", "GenerationStat", "evaluate_growth",
               "growth_from_factors", "evolutionary_optimize"),
    "svgplot": ("Series", "LineBundle", "HeatmapBundle", "render_svg",
                "render_panels"),
    "errors": ("StokitError", "DomainError", "SizeError", "StabilityError",
               "GridError", "PositivityError", "DegenerateError", "SchemaError"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    # Names are looked up in their module on every use, not cached here, so
    # rebinding a module's name (as the benchmark's tracer does) is seen.
    if name in _EXPORTS:  # the submodules that define the public names
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
