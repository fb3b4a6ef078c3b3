import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stokit import (Brownian, DomainError, GeometricBrownian, GeometricLevy,
                    PoolConfig, SizeError, evaluate_growth,
                    evolutionary_optimize, growth_from_factors, simulate)
from stokit import agents
from stokit.agents import _PATH_SALT, WEALTH_FLOOR, GrowthEval
from stokit.rng import derive_seed


class TestWealthUpdate:
    """The per-step wealth rule w * (1 - f + f * r), floored at WEALTH_FLOOR,
    seen through growth_from_factors on one-step paths (dt = 1)."""

    def test_zero_fraction_keeps_wealth(self):
        got = growth_from_factors(0.0, np.array([[0.2]]), 1.0)
        assert got == (0.0, 0)

    def test_full_exposure(self):
        got = growth_from_factors(1.0, np.array([[1.1]]), 1.0)
        assert got.growth == pytest.approx(np.log(1.1), rel=1e-15)

    def test_leveraged_loss(self):
        # w * (1 - 2 + 2*0.8) = 0.6 w
        got = growth_from_factors(2.0, np.array([[0.8]]), 1.0)
        assert got.growth == pytest.approx(np.log(0.6), rel=1e-15)

    def test_ruin_floor(self):
        got = growth_from_factors(3.0, np.array([[0.1]]), 1.0)
        assert got == (np.log(WEALTH_FLOOR), 1)

    @pytest.mark.parametrize("fraction, factors", [
        (1.5, [1.5, 1.5, 1.5, 0.0]),  # grows, then mix -0.5
        (1.0, [1.5, 1.5, 1.5, 0.0]),  # grows, then mix 0
        (1.0, [1e300, 0.0]),  # mix 0 at log-wealth 690.8
    ])
    def test_nonpositive_mix_after_growth_is_floored(self, fraction, factors):
        factors = np.array([factors])
        got = growth_from_factors(fraction, factors, 1.0)
        assert got == (math.log(WEALTH_FLOOR) / factors.shape[1], 1)

    @pytest.mark.parametrize("shape", [(2, 0), (0, 5), (5,), (1, 1, 1)])
    def test_rejects_factors_that_are_not_paths_by_steps(self, shape):
        with pytest.raises(SizeError):
            growth_from_factors(1.0, np.ones(shape), 1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, dt):
        with pytest.raises(DomainError):
            growth_from_factors(1.0, np.ones((2, 3)), dt)

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf])
    def test_rejects_a_fraction_that_is_not_finite(self, fraction):
        with pytest.raises(DomainError, match="^fraction must be finite, got"):
            growth_from_factors(fraction, np.ones((2, 3)), 1.0)


class TestEvaluateGrowth:
    def test_zero_fraction_is_exactly_zero(self):
        got = evaluate_growth(0.0, GeometricBrownian(0.05, 0.2),
                              10.0, 0.01, 5, 1)
        assert got.growth == 0.0
        assert got.ruin_events == 0

    def test_gbm_full_exposure_growth(self):
        # time-average growth of GBM itself: mu - sigma^2/2 = 0.03
        got = evaluate_growth(1.0, GeometricBrownian(0.05, 0.2),
                              200.0, 0.01, 50, 104)
        assert abs(got.growth - 0.03) < 0.006

    def test_gbm_kelly_point_growth(self):
        # Quadrature oracle for E log(1 - f + f exp((mu-s^2/2)dt + s sqrt(dt) z))
        # at f = 1.25 gives 0.0312496/unit time (continuous formula
        # f*mu - f^2 s^2/2 = 0.03125).
        got = evaluate_growth(1.25, GeometricBrownian(0.05, 0.2),
                              200.0, 0.01, 50, 104)
        assert abs(got.growth - 0.03125) < 0.006

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf])
    def test_rejects_a_fraction_that_is_not_finite(self, fraction):
        with pytest.raises(DomainError, match="^fraction must be finite, got"):
            evaluate_growth(fraction, GeometricBrownian(0.05, 0.2), 1.0, 0.01, 2, 1)

    def test_rejects_additive_process(self):
        with pytest.raises(DomainError):
            evaluate_growth(1.0, Brownian(), 1.0, 0.01, 5, 1)

    def test_deterministic_in_seed_and_fraction(self):
        a = evaluate_growth(0.8, GeometricBrownian(0.05, 0.2), 5.0, 0.01, 10, 3)
        b = evaluate_growth(0.8, GeometricBrownian(0.05, 0.2), 5.0, 0.01, 10, 3)
        assert a == b

    def test_heavy_leverage_records_ruin(self):
        got = evaluate_growth(2.5, GeometricLevy(1.3, 0.0, 0.5, 0.02),
                              5.0, 0.01, 20, 77)
        assert got.ruin_events > 0
        assert got.growth < 0.0

    def test_growth_from_factors_matches_scalar_update(self):
        factors = np.array([[1.1, 0.9, 1.05]])
        wealth = 1.0
        for r in factors[0]:
            wealth = max(wealth * (1.0 - 1.5 + 1.5 * r), WEALTH_FLOOR)
        expected = np.log(wealth) / (3 * 0.5)
        got = growth_from_factors(1.5, factors, 0.5)
        assert got.growth == pytest.approx(expected, rel=1e-12)


def _floored_log_walk(fraction, factors, dt):
    """Growth, ruin events and the closest approach to the floor of the
    floored wealth walk, one path and one step at a time in log space."""
    log_floor = math.log(WEALTH_FLOOR)
    total, ruins, margin = 0.0, 0, math.inf
    for row in factors:
        level = 0.0
        for r in row:
            mix = 1.0 - fraction + fraction * r
            level = level + math.log(mix) if mix > 0.0 else -math.inf
            if level > -math.inf:
                margin = min(margin, abs(level - log_floor))
            if level < log_floor:
                ruins += 1
                level = log_floor
        total += level
    return total / len(factors) / (factors.shape[1] * dt), ruins, margin


_SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 40))
# Zeros and factors near 1.  The oracle below takes the log of a mix of 0 or
# below as -inf; the kernel clamps such a mix to _TINY, whose log, -744.4,
# ruins the step only from log wealth below 716.8, which these never reach.
_MODERATE_FACTORS = arrays(np.float64, _SHAPES,
                           elements=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
# These add factors up to 1e300, whose mixes overflow no float and reach log
# wealth 691 in one step at f = 3.
_FACTORS = arrays(np.float64, _SHAPES,
                  elements=st.one_of(st.just(0.0), st.floats(0.0, 3.0),
                                     st.floats(0.0, 1e300)))


@settings(deadline=None)
@given(st.floats(0.0, 3.0), _MODERATE_FACTORS)
@example(1.0, np.full((2, 41), 0.5))  # first dips 0.1 below the floor at step 40
def test_growth_matches_floored_log_walk(fraction, factors):
    # Factors below 1 - 1/fraction give a negative mix, zeros a zero mix at
    # fraction 1.  A step that lands within rounding of the floor may round
    # either way in either walk, so such draws are skipped.
    dt = 0.5
    want, ruins, margin = _floored_log_walk(fraction, factors, dt)
    assume(margin > 1e-8)
    got = growth_from_factors(fraction, factors, dt)
    assert type(got.ruin_events) is int and got.ruin_events == ruins
    # The mean log level can cancel to near zero, where only an absolute
    # bound means anything.
    assert got.growth == pytest.approx(want, rel=1e-12, abs=1e-12)
    if ruins == 0:
        mix = 1.0 - fraction + fraction * factors
        horizon = factors.shape[1] * dt
        assert got.growth == np.cumsum(np.log(mix), axis=1)[:, -1].mean() / horizon


def _bits(scores):
    return [(np.float64(s.growth).tobytes(), s.ruin_events) for s in scores]


# Negative fractions mix to 0 or below on large factors, fractions above 1 on
# small ones.
_FRACTION = st.one_of(st.just(0.0), st.just(1.0), st.floats(-3.0, 3.0))


@settings(deadline=None)
@given(_FACTORS, st.lists(_FRACTION, min_size=1, max_size=5), st.integers(1, 7))
# 10 steps in blocks of 3 end in a 1-step block.
@example(np.linspace(0.5, 1.5, 20).reshape(2, 10), [0.4, 2.5], 3)
# f = 1 on a factor of exactly 0 mixes to 0, which the log clamps to _TINY;
# f = 0 next to it mixes to exactly 1.
@example(np.array([[1.2, 0.0, 0.9], [0.8, 1.1, 1.0]]), [1.0, 0.0], 2)
# In blocks of 3, f = 1 floors in the first block, climbs back above the floor
# across the first block boundary and floors again in the third block.
@example(np.array([[1e-13, 3, 3, 3, 3, 3, 1e-20, 3, 3, 3], [1.0] * 10]), [1.0], 3)
def test_generation_scores_match_single_fraction_scores(factors, drawn, steps):
    # Blocks of `steps` steps for the generation (0 and a duplicate added),
    # so the step counts run past one block and end inside one.  The batch
    # is summed once by row adds and once by cumsum; the single scores, one
    # block each, by cumsum.
    fractions = np.array([0.0, *drawn, drawn[0]])
    dt, horizon = 0.5, factors.shape[1] * 0.5
    width = fractions.size * factors.shape[0]
    single = [growth_from_factors(f, factors, dt) for f in fractions]
    for row_adds in (1, width + 1):
        with mock.patch.multiple(agents, _BLOCK=width * steps, _ROW_ADDS=row_adds):
            batch = agents._score(fractions, factors, dt)
        assert _bits(batch) == _bits(single)
    for f, got in zip(fractions, batch):
        if got.ruin_events == 0:
            mix = np.maximum(f * factors + (1.0 - f), agents._TINY)
            want = np.cumsum(np.log(mix), axis=1)[:, -1].mean() / horizon
            assert np.float64(got.growth).tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [GeometricBrownian(0.05, 0.2),
                                  GeometricLevy(1.5, 0.0, 0.2, 0.02)])
def test_score_does_not_depend_on_the_batch(spec):
    # The module promises that any evaluation schedule gives the same
    # outcome: a fraction scored alone or among 40 others has the same bits.
    factors = agents._factors(spec, 20.0, 0.01, 50, 8)
    others = np.random.default_rng(8).uniform(0.0, 3.0, 40)
    for at, fraction in ((0, 0.0), (17, 1.25), (40, 2.9)):
        batch = agents._score(np.insert(others, at, fraction), factors, 0.01)
        assert _bits([batch[at]]) == _bits([growth_from_factors(fraction, factors, 0.01)])


def test_score_memory_is_one_block_not_the_factor_matrix():
    # A 40-fraction generation on 50 x 20000 factors holds one block of log
    # mixes (_BLOCK values) and small per-column state; tiling the whole
    # factor matrix across the fractions would take 320 MB.
    rng = np.random.default_rng(5)
    factors = np.exp(rng.normal(0.0, 0.02, (50, 20000)))
    fractions = np.linspace(0.0, 2.0, 40)
    tracemalloc.start()
    try:
        scores = agents._score(fractions, factors, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(score.ruin_events == 0 for score in scores)  # no floored walk
    assert peak < 2 * agents._BLOCK * 8


def test_floored_score_memory_is_one_block_too():
    # Here most fractions floor; their step-by-step walks reuse the block's
    # buffer instead of rebuilding each fraction's log wealth in full.
    factors = agents._factors(GeometricLevy(1.5, 0.0, 0.2, 0.02), 200.0, 0.01, 50, 8)
    fractions = np.linspace(0.0, 3.0, 40)
    tracemalloc.start()
    try:
        scores = agents._score(fractions, factors, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(score.ruin_events > 0 for score in scores) >= 20
    assert peak < 2 * agents._BLOCK * 8


def _exact_floored_walk(fraction, factors, dt):
    """The floored log walk one step at a time with numpy's roundings,
    w = max(w + log(max(fl(fl(f * r) + (1 - f)), tiny)), log floor)."""
    level, ruins = np.zeros(len(factors)), 0
    for r in factors.T:
        level = level + np.log(np.maximum(fraction * r + (1.0 - fraction), agents._TINY))
        ruins += np.count_nonzero(level < math.log(WEALTH_FLOOR))
        level = np.maximum(level, math.log(WEALTH_FLOOR))
    return GrowthEval(level.mean() / (factors.shape[1] * dt), ruins)


@settings(deadline=None)
@given(_FACTORS, st.lists(_FRACTION, min_size=1, max_size=4), st.integers(1, 7))
@example(np.full((2, 41), 0.5), [1.0], 7)  # floors from step 40, in block 6
@example(np.array([[1e-13, 3, 3, 3, 3, 3, 1e-20, 3, 3, 3]]), [1.0, 2.5], 3)
# Sequential sums of log(c) first dip 3.6e-15 below the floor at step 21, the
# last step of the third block of 7, though the third block's unmargined bound,
# wealth + 7 log(c), is 7.1e-15 above it; with the next float up, the sums
# stay above the floor within the bound's margin.
@example(np.full((2, 21), 0.26826957952797265), [1.0], 7)
@example(np.full((2, 21), 0.26826957952797276), [1.0], 7)
# One column, which one reduce would add pairwise, so it is summed in steps;
# two columns of it, by one reduce that adds rows in turn.
@example(np.linspace(0.9, 1.1, 40)[None], [1.3], 7)
@example(np.linspace(0.9, 1.1, 40)[None], [1.3, -0.5], 7)
# Negative fractions: the least mix comes from the greatest factor, and
# 1 - f + f * r is 0 or below from r = 1 + 1/|f|, 3 and 2 here.
@example(np.array([[1.1, 0.9, 3.0, 1.0], [0.9, 1.1, 1.0, 1e300]]), [-0.5, -1.0], 2)
def test_floored_scores_are_the_exact_per_step_walk(factors, drawn, steps):
    # Bit for bit and ruin for ruin, alone and in a batch whose blocks of
    # `steps` steps are summed by row adds or by cumsum, or by one reduce where
    # no column can floor.
    fractions, dt = np.array(drawn), 0.5
    want = _bits([_exact_floored_walk(f, factors, dt) for f in fractions])
    assert _bits([growth_from_factors(f, factors, dt) for f in fractions]) == want
    width = fractions.size * factors.shape[0]
    for row_adds in (1, width + 1):
        with mock.patch.multiple(agents, _BLOCK=width * steps, _ROW_ADDS=row_adds):
            assert _bits(agents._score(fractions, factors, dt)) == want


class TestEvolution:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            PoolConfig(n_agents=1, generations=5, mutation_sd=0.1,
                       survivor_share=0.25, horizon=1.0, dt=0.01,
                       paths_per_eval=5, f_min=0.0, f_max=3.0, seed=1)
        with pytest.raises(DomainError):
            PoolConfig(n_agents=10, generations=5, mutation_sd=0.1,
                       survivor_share=1.0, horizon=1.0, dt=0.01,
                       paths_per_eval=5, f_min=0.0, f_max=3.0, seed=1)
        with pytest.raises(DomainError):
            PoolConfig(n_agents=10, generations=5, mutation_sd=0.1,
                       survivor_share=0.25, horizon=1.0, dt=0.01,
                       paths_per_eval=5, f_min=2.0, f_max=1.0, seed=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["mutation_sd", "f_min", "f_max"])
    def test_non_finite_config_numbers_rejected(self, name, value):
        config = dict(n_agents=4, generations=2, mutation_sd=0.1,
                      survivor_share=0.25, horizon=1.0, dt=0.01,
                      paths_per_eval=2, f_min=0.0, f_max=3.0, seed=1)
        with pytest.raises(DomainError, match=f"^{name} must be finite, got"):
            PoolConfig(**{**config, name: value})

    def test_zero_mutation_uniform_start_stays_put(self):
        cfg = PoolConfig(n_agents=8, generations=5, mutation_sd=0.0,
                         survivor_share=0.5, horizon=10.0, dt=0.01,
                         paths_per_eval=5, f_min=0.0, f_max=3.0, seed=4,
                         initial_fraction=0.7)
        best, history = evolutionary_optimize(cfg, GeometricBrownian(0.05, 0.2))
        assert best == 0.7
        assert all(stat.best_fraction == 0.7 for stat in history)

    def test_elitism_with_frozen_paths_never_regresses(self):
        # Scored on the frozen paths of generation g + 1, the elite carried
        # over from generation g can only be matched or beaten.  Wide
        # mutations make children that lose to it, so a lost elite shows.
        spec = GeometricBrownian(0.05, 0.2)
        cfg = PoolConfig(n_agents=12, generations=10, mutation_sd=1.0,
                         survivor_share=0.25, horizon=20.0, dt=0.01,
                         paths_per_eval=10, f_min=0.0, f_max=3.0, seed=3)
        _, history = evolutionary_optimize(cfg, spec)
        for g in range(1, cfg.generations):
            paths = simulate(spec, cfg.horizon, cfg.dt, cfg.paths_per_eval,
                             derive_seed(cfg.seed, _PATH_SALT, g)).values
            elite = growth_from_factors(history[g - 1].best_fraction,
                                        paths[:, 1:] / paths[:, :-1], cfg.dt)
            assert elite.growth <= history[g].best_fitness

    def test_deterministic_in_config_seed(self):
        cfg = PoolConfig(n_agents=10, generations=6, mutation_sd=0.15,
                         survivor_share=0.3, horizon=10.0, dt=0.01,
                         paths_per_eval=8, f_min=0.0, f_max=2.0, seed=9)
        first = evolutionary_optimize(cfg, GeometricBrownian(0.05, 0.2))
        second = evolutionary_optimize(cfg, GeometricBrownian(0.05, 0.2))
        assert first == second

    def test_best_fraction_within_bounds(self):
        cfg = PoolConfig(n_agents=10, generations=8, mutation_sd=0.5,
                         survivor_share=0.3, horizon=5.0, dt=0.01,
                         paths_per_eval=5, f_min=0.2, f_max=1.8, seed=10)
        best, history = evolutionary_optimize(cfg, GeometricBrownian(0.05, 0.2))
        assert 0.2 <= best <= 1.8
        assert all(0.2 <= stat.best_fraction <= 1.8 for stat in history)

    def test_converges_toward_kelly_fraction(self):
        cfg = PoolConfig(n_agents=24, generations=12, mutation_sd=0.15,
                         survivor_share=0.25, horizon=100.0, dt=0.01,
                         paths_per_eval=40, f_min=0.0, f_max=3.0, seed=6)
        best, _ = evolutionary_optimize(cfg, GeometricBrownian(0.05, 0.2))
        assert 0.95 <= best <= 1.55  # mu/sigma^2 = 1.25, short-run tolerance

    def test_rejects_fewer_than_one_worker(self):
        cfg = PoolConfig(n_agents=4, generations=2, mutation_sd=0.1,
                         survivor_share=0.25, horizon=1.0, dt=0.01,
                         paths_per_eval=2, f_min=0.0, f_max=3.0, seed=1)
        for workers in (0, -1):
            with pytest.raises(DomainError, match="workers must be >= 1"):
                evolutionary_optimize(cfg, GeometricBrownian(0.05, 0.2), workers=workers)

    def test_agents_times_paths_past_an_array_refused(self):
        """Refused before anything is allocated: 40 x 2**62 scores."""
        with pytest.raises(SizeError, match="more scores than an array can hold"):
            PoolConfig(n_agents=40, generations=2, mutation_sd=0.1,
                       survivor_share=0.25, horizon=1.0, dt=0.01,
                       paths_per_eval=2 ** 62, f_min=0.0, f_max=3.0, seed=1)


# CI's floored glevy run and a GBM run, 10 agents: 3 workers split them 4/3/3.
_EVOLVE_CASES = {
    "gbm": (GeometricBrownian(0.05, 0.2),
            PoolConfig(n_agents=10, generations=4, mutation_sd=0.3,
                       survivor_share=0.25, horizon=20.0, dt=0.01,
                       paths_per_eval=12, f_min=0.0, f_max=3.0, seed=5)),
    "glevy_floored": (GeometricLevy(1.5, 0.0, 0.2, 0.02),
                      PoolConfig(n_agents=10, generations=3, mutation_sd=0.1,
                                 survivor_share=0.25, horizon=10.0, dt=0.01,
                                 paths_per_eval=10, f_min=0.0, f_max=3.0, seed=7)),
}


@pytest.mark.parametrize("block", [agents._BLOCK, 2 ** 10], ids=["block", "small_block"])
@pytest.mark.parametrize("case", sorted(_EVOLVE_CASES))
def test_evolve_history_does_not_depend_on_workers(monkeypatch, case, block):
    spec, cfg = _EVOLVE_CASES[case]
    monkeypatch.setattr(agents, "_BLOCK", block)
    scored, drawn = [], []
    score, factors = agents._score, agents._factors

    def recording_score(fractions, *rest):
        scored.append((fractions.size, threading.current_thread()))
        return score(fractions, *rest)

    def recording_factors(*args):
        drawn.append(threading.current_thread())
        return factors(*args)

    monkeypatch.setattr(agents, "_score", recording_score)
    monkeypatch.setattr(agents, "_factors", recording_factors)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads hand over the interpreter often
    try:
        for workers in (1, 2, 3):
            scored.clear()
            runs[workers] = evolutionary_optimize(cfg, spec, workers=workers)
            sizes = sorted(size for size, _ in scored)
            assert sizes == sorted([10 // workers + (k < 10 % workers)
                                    for k in range(workers)] * cfg.generations)
            pool = {thread for _, thread in scored} - {threading.main_thread()}
            assert bool(pool) == (workers > 1)  # one worker starts no thread
    finally:
        sys.setswitchinterval(interval)
    assert runs[2] == runs[1] and runs[3] == runs[1]
    # every draw, which the benchmark's tracing times, is on the calling thread
    assert set(drawn) == {threading.main_thread()}
    assert len(drawn) == 3 * cfg.generations
    if case == "glevy_floored":  # the floored walk runs in the groups too
        fractions = np.linspace(0.0, 3.0, 10)
        factors_0 = factors(spec, cfg.horizon, cfg.dt, cfg.paths_per_eval,
                            derive_seed(cfg.seed, _PATH_SALT, 0))
        assert any(s.ruin_events for s in score(fractions, factors_0, cfg.dt))


def test_library_evolve_at_one_worker_loads_no_thread_pool():
    src = Path(agents.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, threading\n"
             "from stokit import GeometricBrownian, PoolConfig, evolutionary_optimize\n"
             "cfg = PoolConfig(n_agents=4, generations=2, mutation_sd=0.1, "
             "survivor_share=0.25, horizon=1.0, dt=0.01, paths_per_eval=3, "
             "f_min=0.0, f_max=3.0, seed=1)\n"
             "evolutionary_optimize(cfg, GeometricBrownian(0.05, 0.2))\n"
             "print('concurrent.futures' in sys.modules, threading.active_count())")
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["False", "1"]


@pytest.mark.parametrize("workers", [1, 7, 40])
def test_evolve_groups_share_one_block(monkeypatch, workers):
    """However many groups score a generation, their blocks hold about
    `_BLOCK` values together, as the one block of a single group does."""
    cfg = PoolConfig(n_agents=40, generations=2, mutation_sd=0.1,
                     survivor_share=0.25, horizon=20.0, dt=0.01,
                     paths_per_eval=5, f_min=0.0, f_max=3.0, seed=3)
    buffers = []
    score = agents._score

    def recording_score(fractions, factors, dt, work):
        buffers.append((fractions.size, *work))
        return score(fractions, factors, dt, work)

    monkeypatch.setattr(agents, "_score", recording_score)
    evolutionary_optimize(cfg, GeometricBrownian(0.05, 0.2), workers=workers)
    assert len(buffers) == workers * cfg.generations
    rows = agents._BLOCK // (40 * 5)  # a single group's rows, 655 of 2000 steps
    for size, block, steps in buffers:
        assert block.shape == (rows, size * 5) and steps.shape == (rows, 5)
    assert sum(block.size for _, block, _ in buffers[:workers]) <= agents._BLOCK
