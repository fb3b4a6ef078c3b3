"""Leverage agents on multiplicative processes and an evolutionary optimizer
over the leverage fraction.

Fitness is the time-average log growth rate of wealth, the quantity a single
agent actually experiences; for geometric Brownian motion with zero riskless
rate its maximizer is the Kelly fraction mu / sigma**2.

Evaluations inside a generation share one set of simulated paths (common
random numbers), indexed by (generation, path) and never by agent, so
selection compares fractions on identical draws and any evaluation schedule
gives the same outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .processes import ProcessSpec, TimeGrid, simulate
from .rng import derive_seed, sample_gaussian, substream

WEALTH_FLOOR = 1e-12
_LOG_FLOOR = math.log(WEALTH_FLOOR)

_PATH_SALT = 0x70617468
_MUTATION_SALT = 0x6D757461
_INIT_SALT = 0x696E6974


class GrowthEval(NamedTuple):
    """Mean per-unit-time log growth plus the number of steps that hit the
    ruin floor."""

    growth: float
    ruin_events: int


class GenerationStat(NamedTuple):
    best_fraction: float
    best_fitness: float


def growth_from_factors(fraction: float, factors: np.ndarray, dt: float
                        ) -> GrowthEval:
    """Time-average log growth of leveraged wealth given per-step gross
    factors of the risky process (paths x steps)."""
    horizon = factors.shape[1] * dt
    mix = 1.0 - fraction + fraction * factors
    if np.all(mix > 0.0):
        log_wealth = np.cumsum(np.log(mix), axis=1)
        if log_wealth.min() > _LOG_FLOOR:
            return GrowthEval(float(log_wealth[:, -1].mean() / horizon), 0)
    # Ruin territory: walk the paths with the floor applied per step.
    wealth = np.ones(factors.shape[0])
    ruins = 0
    for k in range(factors.shape[1]):
        wealth *= np.maximum(mix[:, k], 0.0)
        floored = wealth < WEALTH_FLOOR
        ruins += int(np.count_nonzero(floored))
        wealth[floored] = WEALTH_FLOOR
    return GrowthEval(float(np.log(wealth).mean() / horizon), ruins)


def evaluate_growth(fraction: float, spec: ProcessSpec, horizon: float,
                    dt: float, paths_per_eval: int, seed: int) -> GrowthEval:
    """Simulate a multiplicative ensemble and score a leverage fraction on it.

    Deterministic in (seed, fraction).
    """
    if not spec.multiplicative:
        raise DomainError(
            f"{type(spec).__name__} is not a multiplicative process family")
    ensemble = simulate(spec, horizon, dt, paths_per_eval, seed)
    factors = ensemble.values[:, 1:] / ensemble.values[:, :-1]
    return growth_from_factors(fraction, factors, ensemble.grid.dt)


@dataclass(frozen=True)
class PoolConfig:
    n_agents: int
    generations: int
    mutation_sd: float
    survivor_share: float
    horizon: float
    dt: float
    paths_per_eval: int
    f_min: float
    f_max: float
    seed: int
    initial_fraction: float | None = None

    def __post_init__(self):
        if self.n_agents < 2:
            raise DomainError(f"n_agents must be >= 2, got {self.n_agents}")
        if self.generations < 1:
            raise DomainError(f"generations must be >= 1, got {self.generations}")
        if self.mutation_sd < 0.0:
            raise DomainError(f"mutation_sd must be >= 0, got {self.mutation_sd}")
        if not 0.0 < self.survivor_share < 1.0:
            raise DomainError(
                f"survivor_share must lie in (0, 1), got {self.survivor_share}")
        if self.paths_per_eval < 1:
            raise DomainError(
                f"paths_per_eval must be >= 1, got {self.paths_per_eval}")
        if self.f_min >= self.f_max:
            raise DomainError(
                f"f_min {self.f_min} must be below f_max {self.f_max}")
        if self.initial_fraction is not None and not \
                self.f_min <= self.initial_fraction <= self.f_max:
            raise DomainError(
                f"initial_fraction {self.initial_fraction} outside "
                f"[{self.f_min}, {self.f_max}]")


def evolutionary_optimize(config: PoolConfig, spec: ProcessSpec
                          ) -> tuple[float, list[GenerationStat]]:
    """Select-and-mutate loop over leverage fractions.

    Each generation evaluates every agent on shared paths, keeps the top
    survivor_share by fitness, and refills by mutating survivors with
    Gaussian noise clipped to [f_min, f_max].  Returns the best fraction of
    the final generation and the per-generation (best fraction, best fitness)
    records.
    """
    if not spec.multiplicative:
        raise DomainError(
            f"{type(spec).__name__} is not a multiplicative process family")
    grid = TimeGrid.from_horizon(config.horizon, config.dt)
    n = config.n_agents
    n_survivors = min(max(1, int(math.ceil(config.survivor_share * n))), n - 1)

    if config.initial_fraction is not None:
        fractions = np.full(n, float(config.initial_fraction))
    else:
        init = substream(derive_seed(config.seed, _INIT_SALT), 0)
        fractions = config.f_min + (config.f_max - config.f_min) * init.uniforms(n)

    history: list[GenerationStat] = []
    best_fraction = float(fractions[0])
    for generation in range(config.generations):
        path_seed = derive_seed(config.seed, _PATH_SALT, generation)
        ensemble = simulate(spec, config.horizon, config.dt,
                            config.paths_per_eval, path_seed)
        factors = ensemble.values[:, 1:] / ensemble.values[:, :-1]
        fitness = np.array([
            growth_from_factors(f, factors, grid.dt).growth for f in fractions
        ])
        order = np.argsort(-fitness, kind="stable")
        best_fraction = float(fractions[order[0]])
        history.append(GenerationStat(best_fraction, float(fitness[order[0]])))
        if generation == config.generations - 1:
            break
        survivors = fractions[order[:n_survivors]]
        mutator = substream(derive_seed(config.seed, _MUTATION_SALT, generation), 0)
        noise = config.mutation_sd * sample_gaussian(mutator, n - n_survivors)
        children = np.array([
            survivors[j % n_survivors] + noise[j] for j in range(n - n_survivors)
        ])
        np.clip(children, config.f_min, config.f_max, out=children)
        fractions = np.concatenate([survivors, children])
    return best_fraction, history
