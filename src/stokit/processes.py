"""The ensemble simulator.

`simulate` turns a process spec (a frozen dataclass from `stokit.specs`,
re-exported here) into an `Ensemble` on a uniform grid.  Instance i of an
ensemble is driven exclusively by ``substream(seed, i)``, so results are
independent of worker count and evaluation order.  Each family has one
kernel that builds a block of instances at once from the block stream of
their ids.

Discretization choices:

* Brownian / stable additive paths: drift is laid down as the exact line
  ``x0 + drift * t`` and noise as a cumulative sum of scaled increments.
* Stable increments scale as ``dt ** (1/alpha)`` (self-similarity); the
  Gaussian case alpha = 2 recovers sqrt(dt).
* GeometricBrownian uses the exact log-normal step, not Euler-Maruyama.
* GeometricLevy applies no convexity correction to ``loc`` -- second moments
  do not exist for alpha < 2, so the exponent is plainly
  ``loc * dt + scale * dt**(1/alpha) * z``.  This differs from the GBM
  convention on purpose.
* Poisson paths jump by ``jump`` at each event time, thinned onto the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, GridError, SizeError, StabilityError
from .rng import (_BUDGET, RngStream, _poisson_slot_block, sample_gaussian,
                  sample_stable, substream)
from .specs import (AdaptiveOU, Brownian, GeometricBrownian, GeometricLevy,
                    LevyStable, OrnsteinUhlenbeck, Poisson, ProcessSpec)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, dt, ..., n_steps * dt."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
        if self.n_steps < 1:
            raise SizeError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @classmethod
    def from_horizon(cls, horizon: float, dt: float) -> "TimeGrid":
        """Grid of horizon / dt steps; the horizon must be a whole number of
        steps to within 1e-9, as the SPDE spatial grid must be of dx."""
        if not (math.isfinite(horizon) and math.isfinite(dt)):
            raise DomainError(f"horizon {horizon} and dt {dt} must be finite")
        if dt <= 0.0:
            raise DomainError(f"dt must be > 0, got {dt}")
        if horizon < dt:
            raise SizeError(f"horizon {horizon} is shorter than one step dt={dt}")
        if not horizon / dt < np.iinfo(np.intp).max:  # no array has that many steps
            raise SizeError(f"horizon {horizon} over dt={dt} is {horizon / dt:.6g} "
                            "steps, more than an array can index")
        n_steps = int(round(horizon / dt))
        if abs(n_steps * dt - horizon) > 1e-9:
            raise GridError(f"horizon {horizon} is not a whole number of steps dt={dt}")
        return cls(dt=dt, n_steps=n_steps)


@dataclass(frozen=True)
class Ensemble:
    """Instances x timepoints value matrix with its grid and provenance.

    spec and seed are None for ensembles loaded from files.
    """

    grid: TimeGrid
    values: np.ndarray
    spec: ProcessSpec | None = None
    seed: int | None = None
    theta_paths: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.grid.n_steps + 1:
            raise SizeError(
                f"values shape {values.shape} does not match grid with "
                f"{self.grid.n_steps + 1} timepoints")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_instances(self) -> int:
        return self.values.shape[0]


# --- one kernel per family group, on a block stream (one row per instance) ---

def _walk(spec: Brownian | GeometricBrownian | LevyStable | GeometricLevy,
          grid: TimeGrid, stream: RngStream):
    n = grid.n_steps
    if isinstance(spec, Brownian):
        z = sample_gaussian(stream, n)
        drift, width = spec.drift, spec.scale * math.sqrt(grid.dt)
    elif isinstance(spec, GeometricBrownian):
        z = sample_gaussian(stream, n)
        drift, width = spec.mu - 0.5 * spec.sigma ** 2, spec.sigma * math.sqrt(grid.dt)
    else:
        z = sample_stable(stream, spec.alpha, spec.beta, n)
        drift, width = spec.loc, spec.scale * grid.dt ** (1.0 / spec.alpha)
    walk = np.zeros((z.shape[0], n + 1))
    np.cumsum(z, axis=1, out=walk[:, 1:])
    line, noise = drift * grid.times, width * walk
    if not spec.multiplicative:
        return spec.x0 + line + noise, None
    exponent = line + noise
    # Heavy-tailed jumps can push the exponent past what exp() represents;
    # clip keeps every value finite and strictly positive.
    np.clip(exponent, -700.0, 700.0, out=exponent)
    return spec.x0 * np.exp(exponent), None


def _mean_reverting(spec: OrnsteinUhlenbeck | AdaptiveOU, grid: TimeGrid,
                    stream: RngStream):
    """One time loop for fixed and adaptive mean reversion, vectorized over
    rows: with eta = 0 theta stays at theta0, so a fixed-rate run is
    bit-identical to an adaptive run with zero gain."""
    if isinstance(spec, OrnsteinUhlenbeck):
        theta0, eta, band, lo, hi = spec.theta, 0.0, 0.0, spec.theta, spec.theta
    else:
        theta0, eta, band = spec.theta0, spec.eta, spec.band
        lo, hi = spec.theta_min, spec.theta_max
    n, dt, mean = grid.n_steps, grid.dt, spec.mean
    z = np.ascontiguousarray(sample_gaussian(stream, n).T)  # steps x rows
    noise = spec.scale * math.sqrt(dt) * z
    xs = np.empty((n + 1, noise.shape[1]))
    thetas = np.empty_like(xs)
    xs[0] = spec.x0
    thetas[0] = theta0
    for k in range(n):
        x, theta = xs[k], thetas[k]
        xs[k + 1] = x = x + theta * (mean - x) * dt + noise[k]
        proposal = theta + eta * (np.abs(x - mean) - band) * dt
        thetas[k + 1] = np.minimum(np.maximum(proposal, lo), hi)
    return xs.T, (thetas.T if isinstance(spec, AdaptiveOU) else None)


def _poisson(spec: Poisson, grid: TimeGrid, stream: RngStream):
    """Each live row draws the slot blocks `sample_poisson_events` draws on
    its own stream; every arrival within the horizon is counted from the
    first grid time at or after it."""
    times, horizon = grid.times, grid.horizon
    hits = np.zeros((stream.stream_id.size, times.size), dtype=np.int64)
    if spec.rate > 0.0:
        block = _poisson_slot_block(spec.rate, horizon)
        live = np.arange(hits.shape[0])
        elapsed = np.zeros(live.size)
        while live.size:
            gaps = -np.log(stream.uniforms(block)) / spec.rate
            arrival = elapsed[:, None] + np.cumsum(gaps, axis=1)
            row, col = np.nonzero(arrival <= horizon)
            np.add.at(hits, (live[row], np.searchsorted(times, arrival[row, col])), 1)
            more = arrival[:, -1] <= horizon  # no overshoot yet: draw again
            live, elapsed = live[more], arrival[more, -1]
            stream = RngStream(stream.seed, stream.stream_id[more], stream.counter)
    return spec.x0 + spec.jump * np.cumsum(hits, axis=1), None


_KERNELS = (((Brownian, GeometricBrownian, LevyStable, GeometricLevy), _walk),
            ((OrnsteinUhlenbeck, AdaptiveOU), _mean_reverting),
            (Poisson, _poisson))


def _check_scheme(spec: ProcessSpec, dt: float) -> None:
    if isinstance(spec, OrnsteinUhlenbeck) and spec.theta * dt >= 1.0:
        raise StabilityError(
            f"explicit scheme unstable: theta*dt = {spec.theta * dt:.6g} >= 1")
    if isinstance(spec, AdaptiveOU) and spec.theta_max * dt >= 1.0:
        raise StabilityError(
            f"explicit scheme unstable: theta_max*dt = {spec.theta_max * dt:.6g} >= 1")
    if (isinstance(spec, GeometricBrownian)
            and math.isinf(spec.mu - 0.5 * (spec.sigma * spec.sigma))):
        raise DomainError(f"sigma {spec.sigma} puts the log drift mu - sigma**2/2 "
                          "past the float range")


def simulate(spec: ProcessSpec, horizon: float, dt: float, num_instances: int,
             seed: int, workers: int = 1) -> Ensemble:
    """Simulate an ensemble of independent trajectories.

    Every field of ``spec`` must be finite.  Instance i draws only from
    ``substream(seed, i)``.  Instances run in row blocks of about
    ``_BUDGET`` draws, each drawn from the block stream of its instance ids;
    ``workers`` threads map the blocks (the calling thread runs them when
    ``workers`` is 1), and with any count the result is byte-identical to
    the single-threaded run.
    """
    if num_instances < 1:
        raise SizeError(f"num_instances must be >= 1, got {num_instances}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    kernel = next((k for types, k in _KERNELS if isinstance(spec, types)), None)
    if kernel is None:
        raise DomainError(f"unknown process spec {type(spec).__name__}")
    for name in (f.name for f in fields(spec)):
        if not math.isfinite(value := getattr(spec, name)):
            raise DomainError(f"{name} must be finite, got {value}")
    grid = TimeGrid.from_horizon(horizon, dt)
    _check_scheme(spec, grid.dt)
    values = np.empty((num_instances, grid.n_steps + 1))
    thetas = np.empty_like(values) if isinstance(spec, AdaptiveOU) else None
    rows = max(1, _BUDGET // grid.n_steps)
    starts = range(0, num_instances, rows)

    def run_block(start: int) -> None:
        block = slice(start, min(start + rows, num_instances))
        ids = np.arange(block.start, block.stop)
        values[block], theta_paths = kernel(spec, grid, substream(seed, ids))
        if thetas is not None:
            thetas[block] = theta_paths

    if workers == 1 or len(starts) == 1:
        for start in starts:
            run_block(start)
    else:
        from concurrent.futures import ThreadPoolExecutor  # spares every start-up
        with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            list(pool.map(run_block, starts))
    return Ensemble(grid=grid, values=values, spec=spec, seed=seed,
                    theta_paths=thetas)
