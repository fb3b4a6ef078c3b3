"""Leverage agents on multiplicative processes and an evolutionary optimizer
over the leverage fraction.

Fitness is the time-average log growth rate of wealth, the quantity a single
agent actually experiences; for geometric Brownian motion with zero riskless
rate its maximizer is the Kelly fraction mu / sigma**2.

Evaluations inside a generation share one set of simulated paths (common
random numbers), indexed by (generation, path) and never by agent, so
selection compares fractions on identical draws and any evaluation schedule
gives the same outcome.

A generation is scored in one blocked pass over its factor matrix: a block of
steps' factors is tiled across the fractions in one buffer, scaled and shifted
in place (the two roundings of ``f * r + (1 - f)``), logged and summed down
the steps into each path's floored log wealth.  Only the columns that fall
below the ruin floor in a block are walked again step by step, by Lindley's
reflected walk; a score has the same bits alone or in any batch.  A bound
from each path's least and greatest factor skips the work that cannot
matter: the clamp of non-positive mixes where no mix is non-positive, and
the partial sums, floor scan and walk of a block in which no column can
reach the floor, which is summed by one reduce down its steps instead.

`evolutionary_optimize` scores a generation's fractions in contiguous groups
on threads; as a score does not depend on its batch, no byte depends on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SizeError
from .processes import _MAX_VALUES, ProcessSpec, _map, simulate
from .rng import derive_seed, sample_gaussian, substream

WEALTH_FLOOR = 1e-12
_LOG_FLOOR = math.log(WEALTH_FLOOR)
_TINY = np.nextafter(0.0, 1.0)  # smallest subnormal; log is -744.4
_BLOCK = 1 << 17  # log-mix values per block of steps in `_score`
_ROW_ADDS = 256  # from this many columns `_score` adds rows, not a cumsum
_SLACK = 2.0 ** -44  # relative margin of `_score`'s no-floor test

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


def _check_fraction(fraction: float) -> None:
    if not math.isfinite(fraction):
        raise DomainError(f"fraction must be finite, got {fraction}")


def growth_from_factors(fraction: float, factors: np.ndarray, dt: float
                        ) -> GrowthEval:
    """Time-average log growth of leveraged wealth given per-step gross
    factors of the risky process (paths x steps), with wealth floored at
    WEALTH_FLOOR; a zero or negative mix ``1 - f + f * r`` ruins the step."""
    _check_fraction(fraction)
    if factors.ndim != 2 or 0 in factors.shape:
        raise SizeError(f"factors must be paths x steps, both >= 1; "
                        f"got shape {factors.shape}")
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    return _score(np.array([fraction], dtype=np.float64), factors, dt)[0]


def _buffers(n_fractions: int, n_paths: int, n_steps: int, n_agents: int = 0
             ) -> tuple[np.ndarray, np.ndarray]:
    """`_score`'s block of log mixes and its factors, steps-major, for ``_BLOCK //
    (n_agents x n_paths)`` steps: the blocks of all groups hold ``_BLOCK`` values."""
    rows = min(n_steps, max(1, _BLOCK // ((n_agents or n_fractions) * n_paths)))
    return np.empty((rows, n_fractions * n_paths)), np.empty((rows, n_paths))


def _score(fractions: np.ndarray, factors: np.ndarray, dt: float,
           buffers: tuple[np.ndarray, np.ndarray] | None = None
           ) -> list[GrowthEval]:
    """`growth_from_factors` for every fraction on the same factors, in one
    pass over blocks of steps, in the work ``buffers`` of `_buffers` (new ones
    by default).

    Each block holds the log mix of every (fraction, path) pair for up to
    ``_BLOCK // (fractions x paths)`` steps, about 1 MB (shared with the other
    groups of a generation scored in groups), steps-major: the
    factors tiled across the fractions, ``*= scale`` and ``+= shift`` in place
    (each still ``fl(fl(f * r) + (1 - f))``), clamped and logged.  It is
    summed down the steps onto the running floored log wealth, by a cumsum
    when it has few columns and by one row add per step when it has
    ``_ROW_ADDS`` or more, where cumsum's serial chain per column costs more
    than numpy's call per row.  Either way each path is summed in step order,
    the bits of ``cumsum(log_mix)[:, -1]`` while above the floor.  Columns
    whose sums fall below it are walked again in the spent block's buffer,
    from the same log mix, one step at a time by Lindley's ``w = max(w + x,
    log floor)``: a floored score is the exact per-step walk, whatever the
    block split.

    Most blocks provably stay above the floor, and take a shorter route with
    the same bits.  Each column's least mix, the lesser of the mixes of its
    path's least and greatest factor, bounds every mix of the column: both
    roundings are monotone in ``r``, for either sign of ``f``.  Where every
    least mix is > 0, the clamp does nothing and is skipped.  A block of two
    or more columns whose wealth, less ``steps x`` the log of the least mix
    (or 0 if that is more), stays clear of the floor by more than the
    rounding of that many logs and adds can floor no column
    (`_clear_of_floor`); it is summed by one ``np.add.reduce`` down the
    steps, with no partial sums, floor scan or walk.
    """
    n_paths, n_steps = factors.shape
    horizon = n_steps * dt
    scale, shift = np.repeat(fractions, n_paths), np.repeat(1.0 - fractions, n_paths)
    ends = np.tile(np.stack([factors.min(axis=1), factors.max(axis=1)]), fractions.size)
    ends *= scale
    ends += shift
    least = np.minimum(ends[0], ends[1])  # NaN where a factor is NaN
    clamp = not (least > 0.0).all()
    drop = np.minimum(np.log(np.maximum(least, _TINY)), 0.0)  # <= each log mix, to ulps
    deepest = -drop.min()
    block, steps = buffers or _buffers(fractions.size, n_paths, n_steps)
    rows = list(block) if shift.size >= _ROW_ADDS else None
    wealth, low = np.zeros(shift.size), np.empty(shift.size)
    ruins = np.zeros(shift.size, dtype=np.int64)
    for start in range(0, n_steps, len(block)):
        part = block[:n_steps - start]
        np.copyto(steps[:len(part)], factors[:, start:start + len(part)].T)
        np.copyto(part.reshape(len(part), fractions.size, n_paths),
                  steps[:len(part), None, :])
        part *= scale
        part += shift
        np.log(np.maximum(part, _TINY, out=part) if clamp else part, out=part)
        part[0] += wealth  # log is never -0.0, so 0 + x is x
        if shift.size > 1 and _clear_of_floor(wealth, drop, deepest, len(part), low):
            # numpy reduces a C-ordered block of two or more columns down its
            # steps by adding its rows in turn, the bits of the row adds and of
            # cumsum's last row (one column it would sum pairwise)
            np.add.reduce(part, axis=0, out=wealth)
            continue
        if rows is None:
            np.cumsum(part, axis=0, out=part)
        else:
            for prev, row in zip(rows, rows[1:len(part)]):
                np.add(prev, row, out=row)
        hit = np.flatnonzero(part.min(axis=0, out=low) < _LOG_FLOOR)
        level = wealth[hit]
        np.copyto(wealth, part[-1])
        if hit.size:
            walk = block.reshape(-1)[:hit.size * len(part)].reshape(len(part), -1)
            np.take(steps[:len(part)], hit % n_paths, axis=1, out=walk)
            walk *= scale[hit]
            walk += shift[hit]
            np.log(np.maximum(walk, _TINY, out=walk), out=walk)
            for x in walk:  # leaves w + x in each row
                np.maximum(np.add(level, x, out=x), _LOG_FLOOR, out=level)
            ruins[hit] += np.count_nonzero(walk < _LOG_FLOOR, axis=0)
            wealth[hit] = level
    growth = wealth.reshape(-1, n_paths).mean(axis=1) / horizon
    return [GrowthEval(float(g), int(r))
            for g, r in zip(growth, ruins.reshape(-1, n_paths).sum(axis=1))]


def _clear_of_floor(wealth: np.ndarray, drop: np.ndarray, deepest: float,
                    n: int, scratch: np.ndarray) -> bool:
    """Whether no column's sum can reach the floor in a block of ``n`` steps
    whose log mixes are each at least ``drop`` (<= 0, at least ``-deepest``),
    to a few ulps of a log that is accurate but not known to be monotone.

    The computed sums are each at least those of ``drop`` added ``n`` times
    from ``wealth``, since rounded addition is monotone, and these stay
    within ``2 n u (|wealth| + n deepest)`` of their exact values, ``u =
    2**-53``; the log's ulps cost at most ``n`` times a few ulps of
    ``deepest`` more.  The margin, ``2**-44 n (|wealth| + n deepest + |log
    floor|)``, is at least 16 times both together plus the few roundings of
    this test.  A NaN anywhere fails the test.
    """
    reach = np.add(np.multiply(drop, n, out=scratch), wealth, out=scratch).min()
    size = np.abs(wealth, out=scratch).max() + n * deepest - _LOG_FLOOR
    return bool(reach > _LOG_FLOOR + _SLACK * n * size)


def _factors(spec: ProcessSpec, horizon: float, dt: float, n_paths: int,
             seed: int) -> np.ndarray:
    """Per-step gross factors of a simulated multiplicative ensemble."""
    if not spec.multiplicative:
        raise DomainError(
            f"{type(spec).__name__} is not a multiplicative process family")
    values = simulate(spec, horizon, dt, n_paths, seed).values
    return values[:, 1:] / values[:, :-1]


def evaluate_growth(fraction: float, spec: ProcessSpec, horizon: float,
                    dt: float, paths_per_eval: int, seed: int) -> GrowthEval:
    """Simulate a multiplicative ensemble and score a leverage fraction on it.

    Deterministic in (seed, fraction).
    """
    _check_fraction(fraction)
    factors = _factors(spec, horizon, dt, paths_per_eval, seed)
    return growth_from_factors(fraction, factors, dt)


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
        for name in ("mutation_sd", "f_min", "f_max"):
            if not math.isfinite(value := getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {value}")
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
            raise DomainError(f"paths_per_eval must be >= 1, got {self.paths_per_eval}")
        if self.n_agents * self.paths_per_eval > _MAX_VALUES:
            raise SizeError(f"{self.n_agents} agents x {self.paths_per_eval} paths "
                            "are more scores than an array can hold")
        if self.f_min >= self.f_max:
            raise DomainError(f"f_min {self.f_min} must be below f_max {self.f_max}")
        f, lo, hi = self.initial_fraction, self.f_min, self.f_max
        if f is not None and not lo <= f <= hi:
            raise DomainError(f"initial_fraction {f} outside [{lo}, {hi}]")


def evolutionary_optimize(config: PoolConfig, spec: ProcessSpec, workers: int = 1
                          ) -> tuple[float, list[GenerationStat]]:
    """Select-and-mutate loop over leverage fractions.

    Each generation evaluates every agent on shared paths, keeps the top
    survivor_share by fitness, and refills by mutating survivors with
    Gaussian noise clipped to [f_min, f_max].  Returns the best fraction of
    the final generation and the per-generation (best fraction, best fitness)
    records, the same bits for any number of ``workers`` (scoring threads).
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    n = config.n_agents
    n_survivors = min(max(1, int(math.ceil(config.survivor_share * n))), n - 1)

    if config.initial_fraction is not None:
        fractions = np.full(n, float(config.initial_fraction))
    else:
        init = substream(derive_seed(config.seed, _INIT_SALT), 0)
        fractions = config.f_min + (config.f_max - config.f_min) * init.uniforms(n)

    groups = np.array_split(np.arange(n), min(workers, n))  # contiguous cuts
    history: list[GenerationStat] = []
    for generation in range(config.generations):
        path_seed = derive_seed(config.seed, _PATH_SALT, generation)
        factors = _factors(spec, config.horizon, config.dt,
                           config.paths_per_eval, path_seed)
        # each group's buffers are allocated on this thread and freed with the list
        scores = _map(lambda part: _score(*part), [
            (fractions[cut], factors, config.dt, _buffers(len(cut), *factors.shape, n))
            for cut in groups], workers)
        fitness = np.array([score.growth for group in scores for score in group])
        order = np.argsort(-fitness, kind="stable")
        history.append(GenerationStat(float(fractions[order[0]]),
                                      float(fitness[order[0]])))
        if generation == config.generations - 1:
            break
        survivors = fractions[order[:n_survivors]]
        mutator = substream(derive_seed(config.seed, _MUTATION_SALT, generation), 0)
        noise = config.mutation_sd * sample_gaussian(mutator, n - n_survivors)
        children = survivors[np.arange(n - n_survivors) % n_survivors] + noise
        np.clip(children, config.f_min, config.f_max, out=children)
        fractions = np.concatenate([survivors, children])
    return history[-1].best_fraction, history
