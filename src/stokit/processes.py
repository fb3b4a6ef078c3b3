"""The ensemble simulator.

`simulate` turns a process spec (a frozen dataclass from `stokit.specs`,
re-exported here) into an `Ensemble` on a uniform grid.  Instance i of an
ensemble is driven exclusively by ``substream(seed, i)``, so results are
independent of worker count and evaluation order.  Each family has one
kernel that fills a tile of instance rows in place in the ensemble, from the
block stream of their ids.  A tile holds about ``_BUDGET`` draws, which stay
in a core's L2 cache.  OU/AOU tiles are at least ``_WIDE`` rows wide and draw
their noise a chunk of steps at a time: step k's Gaussian sits at counter 2k.
OU carries x; AOU also a rate vector, which `Ensemble.theta_paths` replays.

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
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DomainError, GridError, SizeError, StabilityError
from .rng import (_BUDGET, RngStream, _poisson_slot_block, sample_gaussian,
                  sample_stable, substream)
from .specs import (AdaptiveOU, Brownian, GeometricBrownian, GeometricLevy,
                    LevyStable, OrnsteinUhlenbeck, Poisson, ProcessSpec)

# Bound on a multiplicative path's exponent, so that exp() stays finite and > 0.
_EXPONENT_CLIP = 700.0
# Fewest rows in an OU/AOU tile: its time loop makes 6-14 numpy calls a step.
_WIDE = 1 << 10
_MAX_VALUES = np.iinfo(np.intp).max // 8  # the most float64 values an array holds


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

    def __post_init__(self):
        v = self.values  # kept if owned and read-only, so that no one else writes it
        frozen = isinstance(v, np.ndarray) and v.flags.owndata and not v.flags.writeable
        values = np.array(v, dtype=np.float64, order="C", copy=None if frozen else True)
        if values.ndim != 2 or values.shape[1] != self.grid.n_steps + 1:
            raise SizeError(
                f"values shape {values.shape} does not match grid with "
                f"{self.grid.n_steps + 1} timepoints")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_instances(self) -> int:
        return self.values.shape[0]

    @cached_property
    def theta_paths(self) -> np.ndarray | None:
        """AOU's read-only rate paths, replayed over the stored x; else None."""
        if not isinstance(spec := self.spec, AdaptiveOU):
            return None
        thetas = np.empty_like(self.values)
        thetas[:, 0] = theta = spec.theta0
        for k, x in enumerate(self.values.T[1:], 1):
            thetas[:, k] = theta = _next_theta(spec, theta, x, self.grid.dt)
        thetas.setflags(write=False)
        return thetas


def _next_theta(spec: AdaptiveOU, theta, x: np.ndarray, dt: float) -> np.ndarray:
    proposal = theta + spec.eta * (np.abs(x - spec.mean) - spec.band) * dt
    return np.minimum(np.maximum(proposal, spec.theta_min), spec.theta_max)


# --- one kernel per family group: it fills `out` from the tile's block stream

def _walk(spec: Brownian | GeometricBrownian | LevyStable | GeometricLevy,
          grid: TimeGrid, stream: RngStream, out: np.ndarray) -> None:
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
    out[:, 0] = 0.0
    np.cumsum(z, axis=1, out=out[:, 1:])
    out *= width  # the noise
    line = drift * grid.times
    if not spec.multiplicative:
        out += spec.x0 + line
        return
    out += line  # the exponent
    # Heavy-tailed jumps can push the exponent past what exp() represents;
    # clip keeps every value finite and strictly positive.
    np.clip(out, -_EXPONENT_CLIP, _EXPONENT_CLIP, out=out)
    np.exp(out, out=out)
    out *= spec.x0


def _mean_reverting(spec: OrnsteinUhlenbeck | AdaptiveOU, grid: TimeGrid,
                    stream: RngStream, out: np.ndarray) -> None:
    """One time loop for fixed and adaptive mean reversion, vectorized over
    rows: OU's rate is a constant; AOU's rate vector moves by `_next_theta`
    after each state update.  The noise is drawn ``_BUDGET // rows`` steps at
    a time; x and theta carry from one chunk of steps to the next."""
    adaptive = isinstance(spec, AdaptiveOU)
    theta = spec.theta0 if adaptive else spec.theta
    n, dt, mean = grid.n_steps, grid.dt, spec.mean
    width = spec.scale * math.sqrt(dt)
    chunk = max(1, _BUDGET // out.shape[0])
    xs = np.empty((min(chunk, n), out.shape[0]))  # steps x rows
    x = out[:, 0] = spec.x0
    for k0 in range(0, n, chunk):
        steps = min(chunk, n - k0)
        noise = width * np.ascontiguousarray(sample_gaussian(stream, steps).T)
        for k in range(steps):
            xs[k] = x = x + theta * (mean - x) * dt + noise[k]
            if adaptive:
                theta = _next_theta(spec, theta, x, dt)
        out[:, k0 + 1:k0 + steps + 1] = xs[:steps].T


def _poisson(spec: Poisson, grid: TimeGrid, stream: RngStream, out: np.ndarray) -> None:
    """Each live row draws the slot blocks `sample_poisson_events` draws on
    its own stream; every arrival within the horizon is counted from the
    first grid time at or after it."""
    times, horizon = grid.times, grid.horizon
    out[...] = 0.0  # hit counts, exact in float64
    if spec.rate > 0.0:
        block = _poisson_slot_block(spec.rate, horizon)
        live = np.arange(out.shape[0])
        elapsed = np.zeros(live.size)
        while live.size:
            gaps = -np.log(stream.uniforms(block)) / spec.rate
            arrival = elapsed[:, None] + np.cumsum(gaps, axis=1)
            row, col = np.nonzero(arrival <= horizon)
            np.add.at(out, (live[row], np.searchsorted(times, arrival[row, col])), 1.0)
            more = arrival[:, -1] <= horizon  # no overshoot yet: draw again
            live, elapsed = live[more], arrival[more, -1]
            stream = RngStream(stream.seed, stream.stream_id[more], stream.counter)
    np.cumsum(out, axis=1, out=out)
    out *= spec.jump
    out += spec.x0


_KERNELS = (((Brownian, GeometricBrownian, LevyStable, GeometricLevy), _walk),
            ((OrnsteinUhlenbeck, AdaptiveOU), _mean_reverting),
            (Poisson, _poisson))


def _check_scheme(spec: ProcessSpec, grid: TimeGrid) -> None:
    dt = grid.dt
    if isinstance(spec, OrnsteinUhlenbeck) and spec.theta * dt >= 1.0:
        raise StabilityError(
            f"explicit scheme unstable: theta*dt = {spec.theta * dt:.6g} >= 1")
    if isinstance(spec, AdaptiveOU) and spec.theta_max * dt >= 1.0:
        raise StabilityError(
            f"explicit scheme unstable: theta_max*dt = {spec.theta_max * dt:.6g} >= 1")
    if isinstance(spec, GeometricBrownian):
        if math.isinf(drift := spec.mu - 0.5 * (spec.sigma * spec.sigma)):
            raise DomainError(f"sigma {spec.sigma} puts the log drift mu - sigma**2/2 "
                              "past the float range")
        name = "mu - sigma**2/2"
    elif isinstance(spec, GeometricLevy):
        drift, name = spec.loc, "loc"
    else:
        return
    # The drift line alone would leave the clip, which then flattens every path.
    if abs(drift) * grid.horizon >= _EXPONENT_CLIP:
        raise DomainError(f"log drift {name} = {drift:.6g} over horizon "
                          f"{grid.horizon:.6g} reaches the exponent clip "
                          f"{_EXPONENT_CLIP:g}")


def _map(fn, items, workers: int) -> list:
    """``list(map(fn, items))`` on up to ``workers`` threads; inline, with no
    thread, at 1 worker or item."""
    if workers == 1 or len(items) == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # spares every start-up
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def simulate(spec: ProcessSpec, horizon: float, dt: float, num_instances: int,
             seed: int, workers: int = 1) -> Ensemble:
    """Simulate an ensemble of independent trajectories.

    Every field of ``spec`` must be finite, and a gbm or glevy drift line
    must stay inside the exponent clip of +-700.  Instance i draws only from
    ``substream(seed, i)``.  Instances run in row tiles of
    ``max(1, _BUDGET // n_steps)`` rows (``max(_WIDE, _BUDGET // n_steps)``
    for OU/AOU, which draw ``_BUDGET // rows`` steps of noise at a time;
    Poisson divides by its slots per round of draws where those are more),
    each written in place into the ensemble from the block stream of its
    instance ids; ``workers`` threads map the tiles (the calling thread runs
    them when ``workers`` is 1), and with any count the result is
    byte-identical to the single-threaded run.
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
    if num_instances * (grid.n_steps + 1) > _MAX_VALUES:
        raise SizeError(f"{num_instances} instances of {grid.n_steps + 1} timepoints "
                        "are more values than an array can hold")
    _check_scheme(spec, grid)
    row_draws = grid.n_steps  # the most a row of a tile holds at once
    if kernel is _poisson:  # a round's slots, refused before anything is allocated
        row_draws = max(row_draws, _poisson_slot_block(spec.rate, grid.horizon))
    rows = max(1, _BUDGET // row_draws)
    if kernel is _mean_reverting:  # its per-step numpy calls want wide tiles
        rows = max(_WIDE, rows)
    values = np.empty((num_instances, grid.n_steps + 1))

    def run_block(start: int) -> None:
        stop = min(start + rows, num_instances)
        kernel(spec, grid, substream(seed, np.arange(start, stop)), values[start:stop])

    _map(run_block, range(0, num_instances, rows), workers)
    values.setflags(write=False)  # so that the ensemble keeps it uncopied
    return Ensemble(grid=grid, values=values, spec=spec, seed=seed)
