"""Process specifications and the ensemble simulator.

Each family is a small frozen dataclass validated at construction; `simulate`
turns a spec into an `Ensemble` on a uniform grid.  Instance i of an ensemble
is driven exclusively by ``substream(seed, i)``, so results are independent of
worker count and evaluation order.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridError, SizeError, StabilityError
from .rng import RngStream, sample_gaussian, sample_poisson_events, sample_stable, substream


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, dt, ..., n_steps * dt."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise DomainError(f"dt must be > 0, got {self.dt}")
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
        if dt <= 0.0:
            raise DomainError(f"dt must be > 0, got {dt}")
        if horizon < dt:
            raise SizeError(f"horizon {horizon} is shorter than one step dt={dt}")
        n_steps = int(round(horizon / dt))
        if abs(n_steps * dt - horizon) > 1e-9:
            raise GridError(f"horizon {horizon} is not a whole number of steps dt={dt}")
        return cls(dt=dt, n_steps=n_steps)


class ProcessSpec:
    """Base class for process families; subclasses are frozen dataclasses."""

    multiplicative = False


@dataclass(frozen=True)
class Brownian(ProcessSpec):
    drift: float = 0.0
    scale: float = 1.0
    x0: float = 0.0

    def __post_init__(self):
        if self.scale < 0.0:
            raise DomainError(f"scale must be >= 0, got {self.scale}")


@dataclass(frozen=True)
class GeometricBrownian(ProcessSpec):
    mu: float
    sigma: float
    x0: float = 1.0

    multiplicative = True

    def __post_init__(self):
        if self.sigma < 0.0:
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")
        if self.x0 <= 0.0:
            raise DomainError(f"multiplicative x0 must be > 0, got {self.x0}")


@dataclass(frozen=True)
class LevyStable(ProcessSpec):
    alpha: float
    beta: float
    scale: float
    loc: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        _check_stable_params(self.alpha, self.beta, self.scale)


@dataclass(frozen=True)
class GeometricLevy(ProcessSpec):
    alpha: float
    beta: float
    scale: float
    loc: float = 0.0
    x0: float = 1.0

    multiplicative = True

    def __post_init__(self):
        _check_stable_params(self.alpha, self.beta, self.scale)
        if self.x0 <= 0.0:
            raise DomainError(f"multiplicative x0 must be > 0, got {self.x0}")


@dataclass(frozen=True)
class OrnsteinUhlenbeck(ProcessSpec):
    theta: float
    mean: float
    scale: float
    x0: float

    def __post_init__(self):
        if self.theta <= 0.0:
            raise DomainError(f"theta must be > 0, got {self.theta}")
        if self.scale < 0.0:
            raise DomainError(f"scale must be >= 0, got {self.scale}")


@dataclass(frozen=True)
class AdaptiveOU(ProcessSpec):
    """Mean reversion whose rate drifts with the path: after each state update
    theta moves by eta * (|x - mean| - band) * dt, clipped to
    [theta_min, theta_max]."""

    theta0: float
    mean: float
    scale: float
    x0: float
    eta: float = 0.0
    band: float = 0.0
    theta_min: float = 0.01
    theta_max: float = 50.0

    def __post_init__(self):
        if self.theta0 <= 0.0:
            raise DomainError(f"theta0 must be > 0, got {self.theta0}")
        if self.scale < 0.0:
            raise DomainError(f"scale must be >= 0, got {self.scale}")
        if self.eta < 0.0:
            raise DomainError(f"eta must be >= 0, got {self.eta}")
        if self.band < 0.0:
            raise DomainError(f"band must be >= 0, got {self.band}")
        if self.theta_min <= 0.0:
            raise DomainError(f"theta_min must be > 0, got {self.theta_min}")
        if self.theta_max < self.theta_min:
            raise DomainError(
                f"theta_max {self.theta_max} is below theta_min {self.theta_min}")
        if not self.theta_min <= self.theta0 <= self.theta_max:
            raise DomainError(
                f"theta0 {self.theta0} outside [{self.theta_min}, {self.theta_max}]")


@dataclass(frozen=True)
class Poisson(ProcessSpec):
    rate: float
    jump: float = 1.0
    x0: float = 0.0

    def __post_init__(self):
        if self.rate < 0.0:
            raise DomainError(f"rate must be >= 0, got {self.rate}")


def _check_stable_params(alpha: float, beta: float, scale: float) -> None:
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    if not -1.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [-1, 1], got {beta}")
    if scale <= 0.0:
        raise DomainError(f"scale must be > 0, got {scale}")


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


# --- per-instance path builders ------------------------------------------

def _cumsum0(increments: np.ndarray) -> np.ndarray:
    out = np.empty(increments.size + 1)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out


def _path_additive(spec: Brownian | LevyStable, grid: TimeGrid,
                   stream: RngStream) -> np.ndarray:
    n = grid.n_steps
    if isinstance(spec, Brownian):
        z = sample_gaussian(stream, n)
        drift, width = spec.drift, spec.scale * math.sqrt(grid.dt)
    else:
        z = sample_stable(stream, spec.alpha, spec.beta, n)
        drift, width = spec.loc, spec.scale * grid.dt ** (1.0 / spec.alpha)
    return spec.x0 + drift * grid.times + width * _cumsum0(z)


def _path_multiplicative(spec: GeometricBrownian | GeometricLevy, grid: TimeGrid,
                         stream: RngStream) -> np.ndarray:
    n = grid.n_steps
    if isinstance(spec, GeometricBrownian):
        z = sample_gaussian(stream, n)
        loc = spec.mu - 0.5 * spec.sigma ** 2
        width = spec.sigma * math.sqrt(grid.dt)
    else:
        z = sample_stable(stream, spec.alpha, spec.beta, n)
        loc = spec.loc
        width = spec.scale * grid.dt ** (1.0 / spec.alpha)
    exponent = loc * grid.times + width * _cumsum0(z)
    # Heavy-tailed jumps can push the exponent past what exp() represents;
    # clip keeps every value finite and strictly positive.
    np.clip(exponent, -700.0, 700.0, out=exponent)
    return spec.x0 * np.exp(exponent)


def _path_ou_core(x0: float, theta0: float, mean: float, scale: float,
                  dt: float, z: np.ndarray, eta: float, band: float,
                  theta_min: float, theta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Shared loop for fixed and adaptive mean reversion: with eta = 0 the
    theta path stays at theta0, so a fixed-rate run is bit-identical to an
    adaptive run with zero gain."""
    n = z.size
    xs = np.empty(n + 1)
    thetas = np.empty(n + 1)
    x, theta = x0, theta0
    xs[0] = x
    thetas[0] = theta
    width = scale * math.sqrt(dt)
    for k in range(n):
        x = x + theta * (mean - x) * dt + width * z[k]
        proposal = theta + eta * (abs(x - mean) - band) * dt
        theta = min(max(proposal, theta_min), theta_max)
        xs[k + 1] = x
        thetas[k + 1] = theta
    return xs, thetas


def _path_poisson(spec: Poisson, grid: TimeGrid, stream: RngStream) -> np.ndarray:
    events = sample_poisson_events(stream, spec.rate, grid.horizon) \
        if spec.rate > 0.0 else np.empty(0)
    counts = np.searchsorted(events, grid.times, side="right")
    return spec.x0 + spec.jump * counts


def _simulate_instance(spec: ProcessSpec, grid: TimeGrid,
                       stream: RngStream) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(spec, (Brownian, LevyStable)):
        return _path_additive(spec, grid, stream), None
    if isinstance(spec, (GeometricBrownian, GeometricLevy)):
        return _path_multiplicative(spec, grid, stream), None
    if isinstance(spec, OrnsteinUhlenbeck):
        z = sample_gaussian(stream, grid.n_steps)
        xs, _ = _path_ou_core(spec.x0, spec.theta, spec.mean, spec.scale,
                              grid.dt, z, 0.0, 0.0, spec.theta, spec.theta)
        return xs, None
    if isinstance(spec, AdaptiveOU):
        z = sample_gaussian(stream, grid.n_steps)
        xs, thetas = _path_ou_core(spec.x0, spec.theta0, spec.mean, spec.scale,
                                   grid.dt, z, spec.eta, spec.band,
                                   spec.theta_min, spec.theta_max)
        return xs, thetas
    if isinstance(spec, Poisson):
        return _path_poisson(spec, grid, stream), None
    raise DomainError(f"unknown process spec {type(spec).__name__}")


def _check_scheme(spec: ProcessSpec, dt: float) -> None:
    if isinstance(spec, OrnsteinUhlenbeck) and spec.theta * dt >= 1.0:
        raise StabilityError(
            f"explicit scheme unstable: theta*dt = {spec.theta * dt:.6g} >= 1")
    if isinstance(spec, AdaptiveOU) and spec.theta_max * dt >= 1.0:
        raise StabilityError(
            f"explicit scheme unstable: theta_max*dt = {spec.theta_max * dt:.6g} >= 1")


def simulate(spec: ProcessSpec, horizon: float, dt: float, num_instances: int,
             seed: int, workers: int = 1) -> Ensemble:
    """Simulate an ensemble of independent trajectories.

    Instance i draws only from ``substream(seed, i)``; with any ``workers``
    count the result is byte-identical to the single-threaded run.
    """
    if num_instances < 1:
        raise SizeError(f"num_instances must be >= 1, got {num_instances}")
    grid = TimeGrid.from_horizon(horizon, dt)
    _check_scheme(spec, grid.dt)
    values = np.empty((num_instances, grid.n_steps + 1))
    track_theta = isinstance(spec, AdaptiveOU)
    thetas = np.empty_like(values) if track_theta else None

    def run_block(indices: range) -> None:
        for i in indices:
            path, theta_path = _simulate_instance(spec, grid, substream(seed, i))
            values[i] = path
            if track_theta:
                thetas[i] = theta_path

    if workers <= 1 or num_instances == 1:
        run_block(range(num_instances))
    else:
        blocks = [range(start, num_instances, workers) for start in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, blocks))
    return Ensemble(grid=grid, values=values, spec=spec, seed=seed,
                    theta_paths=thetas)
