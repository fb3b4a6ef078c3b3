"""Builders for the five replication figures (data + graphics), and the
diagnostic tables and charts they share with the CLI.

Each table builder returns ``(header, columns)`` for ``write_csv``.  Each
figure builder returns the figure's table, its SVG document, and a note for
the run manifest.  Everything is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import (DEFAULT_FAN_LEVELS, GrowthRates, PreasymptoticReport,
                          QuantileFan, SummaryCurves, preasymptotic_report,
                          quantile_fan, summary_curves)
from .processes import (AdaptiveOU, Brownian, GeometricLevy,
                        OrnsteinUhlenbeck, simulate)
from .rng import derive_seed
from .spde import (Dirichlet, FieldSolution, SpdeSpec, extract_profiles,
                   simulate_heat_spde)
from .svgplot import HeatmapBundle, LineBundle, Series, render_panels

FIG1_BROWNIAN = dict(drift=0.0, scale=1.0, t=3.0, dt=0.01, n=240)
GLEVY = GeometricLevy(alpha=1.55, beta=0.2, scale=0.35, loc=0.02)  # fig1, fig2, fig4
_GLEVY_NOTE = (f"glevy alpha={GLEVY.alpha} beta={GLEVY.beta} scale={GLEVY.scale} "
               f"loc={GLEVY.loc}")
FIG1_GLEVY = dict(t=4.0, dt=0.01, n=360)
FIG3_PARAMS = dict(theta0=1.0, mean=0.0, scale=0.5, x0=2.0, eta=2.0, band=0.5,
                   theta_min=0.1, theta_max=10.0, t=10.0, dt=0.01)
FIG4_PARAMS = dict(t=50.0, dt=0.01, tail_fraction=0.5, window=50)
FIG5_PARAMS = dict(kappa=0.1, sigma=0.15, length=1.0, dx=1.0 / 64, dt=1e-3, t=0.25)
_FIG2_TRAJECTORIES = 12


Table = tuple[list[str], list]  # (header, columns) for write_csv


@dataclass(frozen=True)
class FigureBundle:
    name: str
    table: Table
    svg_text: str
    note: str


# --- tables and charts shared by the figures and the CLI -------------------

def level_column(level: float) -> str:
    pct = 100.0 * level
    if abs(pct - round(pct)) < 1e-9:
        return f"q{int(round(pct)):02d}"
    return f"q{pct:g}"


def fan_table(fan: QuantileFan, times: np.ndarray, prefix: str = "") -> Table:
    """``time,q05,...`` with every column name prefixed by ``prefix``."""
    header = [f"{prefix}time"] + [f"{prefix}{level_column(p)}" for p in fan.levels]
    return header, [times, *fan.curves]


def fan_series(fan: QuantileFan, times: np.ndarray) -> tuple[Series, ...]:
    return tuple(Series(name=level_column(p), x=times, y=fan.curves[i])
                 for i, p in enumerate(fan.levels))


def summary_table(summary: SummaryCurves, times: np.ndarray) -> Table:
    return (["time", "amean", "median", "gmean"],
            [times, summary.arithmetic_mean, summary.median, summary.geometric_mean])


def summary_series(summary: SummaryCurves, times: np.ndarray) -> tuple[Series, ...]:
    return (Series("arithmetic mean", times, summary.arithmetic_mean),
            Series("median", times, summary.median),
            Series("geometric mean", times, summary.geometric_mean))


def growth_table(rates: GrowthRates) -> Table:
    return (["metric", "value"], [["time_average", "ensemble_average"],
                                  [rates.time_average, rates.ensemble_average]])


def preasym_table(report: PreasymptoticReport, times: np.ndarray) -> Table:
    """The fluctuation column is nan until one full window has passed."""
    fluctuation = np.full(times.size, np.nan)
    fluctuation[report.window:] = report.fluctuation_curve
    return (["time", "distance", "fluctuation"],
            [times, report.distance_curve, fluctuation])


def preasym_series(report: PreasymptoticReport, times: np.ndarray
                   ) -> tuple[Series, Series]:
    return (Series("distance", times, report.distance_curve),
            Series("fluctuation", times[report.window:], report.fluctuation_curve))


def field_table(field: FieldSolution) -> Table:
    header = ["time"] + [f"u{j}" for j in range(field.x_grid.size)]
    return header, [field.t_grid, *field.u.T]


def profile_table(field: FieldSolution) -> Table:
    initial, final = extract_profiles(field)
    return ["x", "initial", "final"], [field.x_grid, initial, final]


def heatmap_bundle(field: FieldSolution) -> HeatmapBundle:
    """The space-time field, thinned to about 120 time rows."""
    stride = max(1, field.t_grid.size // 120)
    return HeatmapBundle("Stochastic heat field", "x", "time",
                         (float(field.x_grid[0]), float(field.x_grid[-1])),
                         (float(field.t_grid[0]), float(field.t_grid[-1])),
                         field.u[::stride])


def profile_bundle(field: FieldSolution) -> LineBundle:
    initial, final = extract_profiles(field)
    return LineBundle("Initial vs final profile", "x", "u",
                      (Series("initial", field.x_grid, initial),
                       Series("final", field.x_grid, final)))


# --- the five figures --------------------------------------------------------

def build_fig1(seed: int, workers: int = 1) -> FigureBundle:
    """Quantile fans: additive Gaussian ensemble vs heavy-tailed multiplicative."""
    p, q = FIG1_BROWNIAN, FIG1_GLEVY
    bm = simulate(Brownian(drift=p["drift"], scale=p["scale"]),
                  p["t"], p["dt"], p["n"], derive_seed(seed, 1), workers=workers)
    gl = simulate(GLEVY, q["t"], q["dt"], q["n"], derive_seed(seed, 2),
                  workers=workers)
    bm_fan = quantile_fan(bm)
    gl_fan = quantile_fan(gl)
    bm_header, bm_columns = fan_table(bm_fan, bm.grid.times, "bm_")
    gl_header, gl_columns = fan_table(gl_fan, gl.grid.times, "gl_")
    svg = render_panels([
        LineBundle("Brownian ensemble quantile fan", "time", "value",
                   fan_series(bm_fan, bm.grid.times)),
        LineBundle("Geometric Levy ensemble quantile fan", "time", "value",
                   fan_series(gl_fan, gl.grid.times), log_y=True),
    ])
    note = (f"fig1: brownian drift={p['drift']} scale={p['scale']} t={p['t']} "
            f"dt={p['dt']} n={p['n']}; {_GLEVY_NOTE} t={q['t']} dt={q['dt']} n={q['n']}; "
            f"levels={','.join(str(v) for v in DEFAULT_FAN_LEVELS)}")
    return FigureBundle("fig1", (bm_header + gl_header, bm_columns + gl_columns),
                        svg, note)


def build_fig2(seed: int, workers: int = 1) -> FigureBundle:
    """Trajectory intermittency and summary-statistic divergence for the
    heavy-tailed multiplicative ensemble."""
    q = FIG1_GLEVY
    ens = simulate(GLEVY, q["t"], q["dt"], q["n"], derive_seed(seed, 3),
                   workers=workers)
    summary = summary_curves(ens)
    times = ens.grid.times
    trajectories = ens.values[:_FIG2_TRAJECTORIES]
    names = [f"traj_{i}" for i in range(_FIG2_TRAJECTORIES)]
    header, columns = summary_table(summary, times)
    header = header[:1] + names + header[1:]
    columns = columns[:1] + list(trajectories) + columns[1:]
    svg = render_panels([
        LineBundle("Geometric Levy sample trajectories", "time", "value",
                   tuple(Series(name, times, path)
                         for name, path in zip(names, trajectories)),
                   log_y=True),
        LineBundle("Ensemble summary divergence", "time", "value",
                   summary_series(summary, times), log_y=True),
    ])
    note = (f"fig2: {_GLEVY_NOTE} t={q['t']} dt={q['dt']} n={q['n']}; "
            f"{_FIG2_TRAJECTORIES} trajectories shown")
    return FigureBundle("fig2", (header, columns), svg, note)


def build_fig3(seed: int) -> FigureBundle:
    """Adaptive mean reversion against a fixed-rate baseline on shared noise."""
    p = FIG3_PARAMS
    s3 = derive_seed(seed, 4)
    fixed = simulate(OrnsteinUhlenbeck(theta=p["theta0"], mean=p["mean"],
                                       scale=p["scale"], x0=p["x0"]),
                     p["t"], p["dt"], 1, s3)
    adaptive = simulate(AdaptiveOU(theta0=p["theta0"], mean=p["mean"],
                                   scale=p["scale"], x0=p["x0"], eta=p["eta"],
                                   band=p["band"], theta_min=p["theta_min"],
                                   theta_max=p["theta_max"]),
                        p["t"], p["dt"], 1, s3)
    times = fixed.grid.times
    theta_path = adaptive.theta_paths[0]
    header = ["time", "fixed_state", "adaptive_state", "adaptive_theta"]
    columns = [times, fixed.values[0], adaptive.values[0], theta_path]
    svg = render_panels([
        LineBundle("Fixed vs adaptive mean reversion", "time", "state",
                   (Series("fixed rate", times, fixed.values[0]),
                    Series("adaptive rate", times, adaptive.values[0]))),
        LineBundle("Evolving reversion rate", "time", "theta",
                   (Series("theta", times, theta_path),
                    Series("fixed theta", times, np.full(times.size, p["theta0"])))),
    ])
    note = (f"fig3: ou/aou theta0={p['theta0']} mean={p['mean']} scale={p['scale']} "
            f"x0={p['x0']} eta={p['eta']} band={p['band']} "
            f"bounds=[{p['theta_min']},{p['theta_max']}] t={p['t']} dt={p['dt']}")
    return FigureBundle("fig3", (header, columns), svg, note)


def build_fig4(seed: int) -> FigureBundle:
    """Preasymptotic diagnostics of log-wealth under heavy-tailed
    multiplicative dynamics."""
    p = FIG4_PARAMS
    ens = simulate(GLEVY, p["t"], p["dt"], 1, derive_seed(seed, 5))
    log_wealth = np.log(ens.values[0])
    report = preasymptotic_report(log_wealth, ens.grid,
                                  tail_fraction=p["tail_fraction"],
                                  window=p["window"])
    times = ens.grid.times
    distance, fluctuation = preasym_series(report, times)
    svg = render_panels([
        LineBundle("Distance to estimated asymptote", "time", "|deviation|",
                   (distance,)),
        LineBundle("Rolling fluctuation of increments", "time", "sd",
                   (fluctuation,)),
    ])
    note = (f"fig4: {_GLEVY_NOTE} t={p['t']} dt={p['dt']}; log-wealth, "
            f"tail_fraction={p['tail_fraction']} window={p['window']}; "
            f"asymptote slope={report.slope:.17g} intercept={report.intercept:.17g}")
    return FigureBundle("fig4", preasym_table(report, times), svg, note)


def build_fig5(seed: int) -> FigureBundle:
    """Stochastic heat field: space-time view plus initial/final profiles."""
    p = FIG5_PARAMS
    spec = SpdeSpec(kappa=p["kappa"], sigma=p["sigma"], length=p["length"],
                    boundary=Dirichlet(0.0, 0.0),
                    initial_profile=lambda x: np.sin(np.pi * x / p["length"]))
    field = simulate_heat_spde(spec, p["dx"], p["dt"], p["t"], derive_seed(seed, 6))
    svg = render_panels([heatmap_bundle(field), profile_bundle(field)])
    note = (f"fig5: heat spde kappa={p['kappa']} sigma={p['sigma']} "
            f"L={p['length']} dx={p['dx']:.17g} dt={p['dt']} t={p['t']} "
            f"dirichlet 0/0, sine initial profile")
    return FigureBundle("fig5", field_table(field), svg, note)


def build_all(seed: int, workers: int = 1) -> list[FigureBundle]:
    return [build_fig1(seed, workers), build_fig2(seed, workers),
            build_fig3(seed), build_fig4(seed), build_fig5(seed)]
