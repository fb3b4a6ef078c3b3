"""Finite-difference solver for the 1-D stochastic heat equation.

Explicit Euler in time, second-order central Laplacian in space, additive
space-time white noise discretized as sigma * sqrt(dt/dx) * z per interior
node per step.  Stability requires kappa * dt / dx**2 <= 1/2.

Noise layout is deterministic: step k draws its interior-node variates from
``substream(seed, k)`` in node order, so spatial updates can be parallelized
without changing results, and sigma = 0 runs never touch the generator.  The
noise of a block of steps is drawn at once from the block stream of their
step indices, about ``_BUDGET`` draws (an L2-sized block) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GridError, SizeError, StabilityError
from .processes import TimeGrid
from .rng import _BUDGET, _check_u64, sample_gaussian, substream


@dataclass(frozen=True)
class Dirichlet:
    """Fixed boundary values; they override the initial profile's endpoints."""

    left: float = 0.0
    right: float = 0.0

    def __post_init__(self):
        for name in ("left", "right"):
            if not math.isfinite(value := getattr(self, name)):
                raise DomainError(f"{name} boundary value must be finite, got {value}")


@dataclass(frozen=True)
class Neumann:
    """Zero-flux boundaries via mirrored ghost nodes."""


@dataclass(frozen=True)
class SpdeSpec:
    kappa: float
    sigma: float
    length: float
    boundary: Dirichlet | Neumann
    initial_profile: Callable[[np.ndarray], np.ndarray] | Sequence[float]

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise DomainError(f"kappa must be > 0, got {self.kappa}")
        if self.sigma < 0.0:
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")
        if self.length <= 0.0:
            raise DomainError(f"length must be > 0, got {self.length}")
        if not isinstance(self.boundary, (Dirichlet, Neumann)):
            raise DomainError(f"unsupported boundary {self.boundary!r}")


@dataclass(frozen=True)
class FieldSolution:
    """Space-time field u with its grids; u[k, j] is the value at
    (t_grid[k], x_grid[j])."""

    x_grid: np.ndarray
    t_grid: np.ndarray
    u: np.ndarray
    spec: SpdeSpec
    seed: int

    def __post_init__(self):
        self.u.setflags(write=False)


@np.errstate(over="ignore", invalid="ignore")  # a field that overflows is refused
def simulate_heat_spde(spec: SpdeSpec, dx: float, dt: float, horizon: float,
                       seed: int) -> FieldSolution:
    for name, value in (("dx", dx), ("kappa", spec.kappa), ("sigma", spec.sigma),
                        ("length", spec.length)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if dx <= 0.0:
        raise DomainError(f"dx must be > 0, got {dx}")
    _check_u64(seed, "seed")  # also when sigma = 0 draws nothing
    grid = TimeGrid.from_horizon(horizon, dt)
    if not spec.length / dx < np.iinfo(np.intp).max:  # no array has that many nodes
        raise SizeError(f"length {spec.length} over dx={dx} is {spec.length / dx:.6g} "
                        "nodes, more than an array can index")
    n_x = int(round(spec.length / dx))
    if n_x < 2 or abs(n_x * dx - spec.length) > 1e-9:
        raise GridError(
            f"domain length {spec.length} is not a multiple of dx={dx}")
    ratio = spec.kappa * dt / dx ** 2
    if ratio > 0.5 + 1e-12:
        raise StabilityError(
            f"kappa*dt/dx^2 = {ratio:.6g} exceeds the explicit-scheme bound 0.5")

    x = np.arange(n_x + 1) * dx
    profile = spec.initial_profile
    u0 = np.asarray(profile(x) if callable(profile) else profile, dtype=np.float64)
    if u0.shape != x.shape:
        raise SizeError(
            f"initial profile has {u0.size} values; grid has {x.size} nodes")

    dirichlet = isinstance(spec.boundary, Dirichlet)
    u = np.empty((grid.n_steps + 1, n_x + 1))
    u[0] = u0
    if dirichlet:
        u[0, 0] = spec.boundary.left
        u[0, -1] = spec.boundary.right

    noise_width = spec.sigma * math.sqrt(dt / dx)
    steps_per_block = max(1, _BUDGET // (n_x - 1))
    for k in range(grid.n_steps):
        prev = u[k]
        nxt = u[k + 1]
        nxt[1:-1] = prev[1:-1] + ratio * (prev[2:] - 2.0 * prev[1:-1] + prev[:-2])
        if noise_width > 0.0:
            row = k % steps_per_block
            if row == 0:
                steps = np.arange(k, min(k + steps_per_block, grid.n_steps))
                noise = noise_width * sample_gaussian(substream(seed, steps), n_x - 1)
            nxt[1:-1] += noise[row]
        if dirichlet:
            nxt[0] = spec.boundary.left
            nxt[-1] = spec.boundary.right
        else:
            nxt[0] = prev[0] + 2.0 * ratio * (prev[1] - prev[0])
            nxt[-1] = prev[-1] + 2.0 * ratio * (prev[-2] - prev[-1])
    if not np.isfinite(u).all():
        step = int(np.argmin(np.isfinite(u).all(axis=1)))
        raise StabilityError(f"the field leaves the float range at step {step} "
                             f"(t={grid.times[step]:.6g})")
    return FieldSolution(x_grid=x, t_grid=grid.times, u=u,
                         spec=spec, seed=seed)


def extract_profiles(field: FieldSolution) -> tuple[np.ndarray, np.ndarray]:
    """(initial, final) spatial profiles: the first and last rows of u."""
    return field.u[0].copy(), field.u[-1].copy()


def spatial_mean(field_row: np.ndarray, dx: float, length: float) -> float:
    """Trapezoid-rule spatial mean; the quantity mirrored-ghost Neumann
    stepping conserves exactly in the noiseless case."""
    return float(np.trapezoid(field_row, dx=dx) / length)
