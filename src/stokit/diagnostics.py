"""Ensemble and trajectory statistics: quantile fans, summary curves,
time- vs ensemble-average growth rates, and preasymptotic measures.

All functions are pure; none mutate their inputs.  `diagnose --in` streams
a file's time rows into the fan, summary and growth code; the rest feed it
``values.T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, PositivityError, SizeError
from .processes import Ensemble, TimeGrid

DEFAULT_FAN_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)


@dataclass(frozen=True)
class QuantileFan:
    """Per-time empirical quantile curves, one row per level."""

    levels: tuple[float, ...]
    curves: np.ndarray  # shape (len(levels), n_times)


@dataclass(frozen=True)
class SummaryCurves:
    arithmetic_mean: np.ndarray
    median: np.ndarray
    geometric_mean: np.ndarray


@dataclass(frozen=True)
class GrowthRates:
    """time_average: mean over instances of (log x_T - log x_0) / T.
    ensemble_average: log of the cross-instance mean of x_T / x_0, over T."""

    time_average: float
    ensemble_average: float


@dataclass(frozen=True)
class PreasymptoticReport:
    slope: float
    intercept: float
    distance_curve: np.ndarray
    fluctuation_curve: np.ndarray
    window: int


def _check_options(levels=None, tail_fraction=None, window=None):
    """Refuse quantile levels, a tail fraction or a rolling window outside
    its domain; an argument left None is not checked.  Returns ``levels``
    as a tuple of floats (None if not given).  The diagnostics check their
    own arguments with it, and the CLI its flags before reading any data."""
    if levels is not None:
        levels = tuple(float(p) for p in levels)
        if not levels:
            raise DomainError("levels must be nonempty")
        if any(not 0.0 < p < 1.0 for p in levels):
            raise DomainError(f"levels must lie in (0, 1), got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DomainError(f"levels must be strictly increasing, got {levels}")
    if tail_fraction is not None and not 0.0 < tail_fraction <= 1.0:
        raise DomainError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    if window is not None and window < 2:
        raise DomainError(f"window must be >= 2, got {window}")
    return levels


def _column_sums(columns: np.ndarray) -> np.ndarray:
    """Column sums of the C-ordered ``columns``, adding its rows in turn as
    ``values.mean(axis=0)`` does.  numpy sums one contiguous column pairwise,
    so that one takes its running sum (+ 0.0, as numpy's sum of -0.0s)."""
    if columns.shape[1] == 1:
        return np.cumsum(columns[:, 0])[-1:] + 0.0
    return np.add.reduce(columns, axis=0)


class _TimeRowStats:
    """Per-time-point statistics of an ensemble fed in time order as blocks of
    time rows ((times x instances) arrays, left unchanged): ``inst_0``, and as
    asked for, the fan at ``levels``, the `SummaryCurves` (``summary``) and
    the `GrowthRates` (``growth``).  Errors are raised when a result is asked for."""

    def __init__(self, levels=None, summary=False, growth=False):
        self.levels, self.summary, self.growth = levels, summary, growth
        self.parts = {"fan": [], "median": [], "sums": [], "log_sums": [], "inst_0": []}
        self.n, self.nonpositive, self.first, self.last = 0, False, None, None

    def add(self, rows: np.ndarray) -> _TimeRowStats:
        """Take the next block of time rows: a piece of a file, or
        ``values.T`` of a whole (instances x times) matrix."""
        self.n = rows.shape[1]
        if not self.n:
            raise SizeError("an ensemble needs at least 1 instance")
        self.parts["inst_0"].append(rows[:, 0].copy())
        if self.growth:
            self.first = rows[0].copy() if self.first is None else self.first
            self.last = rows[-1].copy()
        if self.summary or self.growth:
            self.nonpositive = self.nonpositive or bool((rows <= 0.0).any())
        if self.summary:
            columns = np.ascontiguousarray(rows.T)  # no copy of a matrix's values.T
            self.parts["sums"].append(_column_sums(columns))
            if not self.nonpositive:
                self.parts["log_sums"].append(_column_sums(np.log(columns)))
        if self.levels is None and not self.summary:
            return self
        n, rows = self.n, rows.copy()  # time-major, each row contiguous
        rows.sort(axis=1)  # once for the fan and the median; NaNs last
        nan = np.isnan(rows[:, -1])
        if self.levels is not None:  # np.quantile's "linear" arithmetic
            virtual = (n - 1) * np.array(self.levels)
            lo = np.floor(virtual)
            gamma = (virtual - lo)[:, None]
            lo = lo.astype(np.intp)
            below, above = rows[:, lo].T, rows[:, np.minimum(lo + 1, n - 1)].T
            diff = above - below
            curves = below + diff * gamma
            np.subtract(above, diff * (1 - gamma), out=curves, where=gamma >= 0.5)
            np.copyto(curves, rows[:, -1], where=nan)
            self.parts["fan"].append(curves)
        if self.summary:  # the mean of the middle one or two values, as np.median
            median = rows[:, (n - 1) // 2:n // 2 + 1].mean(axis=1)
            np.copyto(median, rows[:, -1], where=nan)
            self.parts["median"].append(median)
        return self

    def joined(self, name: str) -> np.ndarray:  # one of `parts`, over every time
        return np.concatenate(self.parts[name], axis=-1)

    def fan(self) -> QuantileFan:
        if self.n < 2:
            raise SizeError("quantile fan needs at least 2 instances")
        return QuantileFan(levels=self.levels, curves=self.joined("fan"))

    def summary_curves(self) -> SummaryCurves:
        if self.nonpositive:
            raise PositivityError("geometric mean requires strictly positive values")
        return SummaryCurves(arithmetic_mean=self.joined("sums") / self.n,
                             median=self.joined("median"),
                             geometric_mean=np.exp(self.joined("log_sums") / self.n))

    def growth_rates(self, horizon: float) -> GrowthRates:
        if self.nonpositive:
            raise PositivityError("growth rates require strictly positive values")
        if horizon <= 0.0:
            raise DegenerateError("growth rates need a positive horizon")
        ratios = self.last / self.first
        return GrowthRates(time_average=float(np.mean(np.log(ratios)) / horizon),
                           ensemble_average=float(np.log(np.mean(ratios)) / horizon))


def quantile_fan(ensemble: Ensemble, levels=DEFAULT_FAN_LEVELS) -> QuantileFan:
    """Empirical quantiles per time point: linear interpolation of order
    statistics at position (n-1)p (Hyndman & Fan's definition 7), with the
    arithmetic of ``np.quantile(..., method="linear")`` on one sort of each
    time point's values.  A time point holding a NaN gives NaN."""
    levels = _check_options(levels=levels)
    if ensemble.num_instances < 2:
        raise SizeError("quantile fan needs at least 2 instances")
    return _TimeRowStats(levels=levels).add(ensemble.values.T).fan()


def summary_curves(ensemble: Ensemble) -> SummaryCurves:
    """Arithmetic mean, median, and geometric mean over instances, per time.

    The median is the mean of the middle one or two values of each time
    point's sorted values, which is what ``np.median`` computes.  The
    geometric mean is exp(mean of logs) and requires strictly positive
    values everywhere.
    """
    return _TimeRowStats(summary=True).add(ensemble.values.T).summary_curves()


def growth_rates(ensemble: Ensemble) -> GrowthRates:
    stats = _TimeRowStats(growth=True).add(ensemble.values.T)
    return stats.growth_rates(ensemble.grid.horizon)


def estimate_asymptote(series, grid: TimeGrid, tail_fraction: float = 0.5
                       ) -> tuple[float, float]:
    """Least-squares line over the final tail_fraction of the series;
    returns (slope, intercept)."""
    series = np.asarray(series, dtype=np.float64)
    _check_options(tail_fraction=tail_fraction)
    times = grid.times
    if series.shape != times.shape:
        raise SizeError(
            f"series length {series.size} does not match grid length {times.size}")
    n_tail = int(np.ceil(tail_fraction * series.size))
    if n_tail < 2:
        raise SizeError(f"tail window has {n_tail} points; need at least 2")
    slope, intercept = np.polyfit(times[-n_tail:], series[-n_tail:], deg=1)
    return float(slope), float(intercept)


def distance_to_asymptote(series, grid: TimeGrid, slope: float,
                          intercept: float) -> np.ndarray:
    """|series_k - (intercept + slope * t_k)| per index."""
    series = np.asarray(series, dtype=np.float64)
    times = grid.times
    if series.shape != times.shape:
        raise SizeError(
            f"series length {series.size} does not match grid length {times.size}")
    return np.abs(series - (intercept + slope * times))


def rolling_fluctuation(series, window: int) -> np.ndarray:
    """Rolling sample standard deviation of first differences.

    Measuring increments rather than levels keeps trends from masquerading as
    fluctuation.  Output has len(series) - window entries, one per window of
    ``window`` consecutive increments.
    """
    series = np.asarray(series, dtype=np.float64)
    _check_options(window=window)
    if series.size < window + 1:
        raise SizeError(
            f"series of length {series.size} too short for window {window}")
    increments = np.diff(series)
    panes = np.lib.stride_tricks.sliding_window_view(increments, window)
    return panes.std(axis=1, ddof=1)


def preasymptotic_report(series, grid: TimeGrid, tail_fraction: float = 0.5,
                         window: int = 50) -> PreasymptoticReport:
    """Distance to the fitted asymptote plus the rolling fluctuation of
    increments, bundled for reporting."""
    slope, intercept = estimate_asymptote(series, grid, tail_fraction)
    return PreasymptoticReport(
        slope=slope,
        intercept=intercept,
        distance_curve=distance_to_asymptote(series, grid, slope, intercept),
        fluctuation_curve=rolling_fluctuation(series, window),
        window=window,
    )
