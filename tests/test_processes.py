import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokit import (AdaptiveOU, Brownian, DomainError, GeometricBrownian,
                    GeometricLevy, LevyStable, OrnsteinUhlenbeck, Poisson,
                    GridError, SizeError, StabilityError, TimeGrid,
                    sample_gaussian, sample_poisson_events, sample_stable,
                    simulate, substream)
from stokit import processes, rng
from stokit.csvio import ensemble_table, read_ensemble_csv, write_csv
from stokit.processes import _BUDGET, _WIDE


class TestSpecs:
    def test_brownian_defaults_match_reference_api(self):
        spec = Brownian()
        assert spec.drift == 0.0 and spec.scale == 1.0 and spec.x0 == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            GeometricBrownian(mu=0.05, sigma=-0.1)
        with pytest.raises(DomainError):
            GeometricBrownian(mu=0.05, sigma=0.2, x0=0.0)
        with pytest.raises(DomainError):
            LevyStable(alpha=2.5, beta=0.0, scale=1.0)
        with pytest.raises(DomainError):
            GeometricLevy(alpha=1.5, beta=0.0, scale=0.0)
        with pytest.raises(DomainError):  # the S1 pole
            LevyStable(alpha=1.0 + 1e-9, beta=0.5, scale=1.0)
        with pytest.raises(DomainError):
            GeometricLevy(alpha=1.0 - 1e-9, beta=-0.2, scale=0.3)
        with pytest.raises(DomainError):
            OrnsteinUhlenbeck(theta=0.0, mean=0.0, scale=1.0, x0=0.0)
        with pytest.raises(DomainError):
            AdaptiveOU(theta0=5.0, mean=0.0, scale=1.0, x0=0.0, theta_max=2.0)
        with pytest.raises(DomainError):
            Poisson(rate=-1.0)

    def test_grid_rounding(self):
        grid = TimeGrid.from_horizon(3.0, 0.01)
        assert grid.n_steps == 300
        assert grid.times[0] == 0.0
        assert len(grid.times) == 301
        with pytest.raises(SizeError):
            TimeGrid.from_horizon(0.005, 0.01)
        assert TimeGrid.from_horizon(200.0, 0.01).n_steps == 20000
        assert TimeGrid.from_horizon(0.25, 1e-3).n_steps == 250
        for horizon, dt in ((1.0, 0.3), (1.0, 0.15), (0.0105, 0.01)):
            with pytest.raises(GridError):
                TimeGrid.from_horizon(horizon, dt)
        for horizon, dt in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan),
                            (1.0, math.inf)):
            with pytest.raises(DomainError, match="must be finite"):
                TimeGrid.from_horizon(horizon, dt)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_grid_refuses_non_finite_dt(self, dt):
        """An infinite step would give growth rates of 0.0, a nan one nan times."""
        with pytest.raises(DomainError, match=f"^dt must be finite and > 0, got {dt}$"):
            TimeGrid(dt=dt, n_steps=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("spec", [
        Brownian(), GeometricBrownian(0.05, 0.2), LevyStable(1.5, 0.0, 0.3),
        GeometricLevy(1.5, 0.0, 0.3), OrnsteinUhlenbeck(1.0, 0.0, 0.3, 0.0),
        AdaptiveOU(1.0, 0.0, 0.3, 0.0, eta=0.5, band=0.1, theta_max=5.0),
        Poisson(2.0)], ids=lambda spec: type(spec).__name__)
    def test_non_finite_fields_rejected(self, spec, bad):
        """A spec with any field not finite is refused, when it is built or
        when it is simulated, never run to nan paths."""
        for spec_field in dataclasses.fields(spec):
            with pytest.raises(DomainError):
                simulate(dataclasses.replace(spec, **{spec_field.name: bad}),
                         1.0, 0.1, 2, 1)


class TestSteps:
    """Single steps of the path builders, read off one- and two-step runs."""

    def test_additive_unit_step(self):
        ens = simulate(Brownian(drift=0.0, scale=1.0), 1.0, 1.0, 1, 5)
        z = sample_gaussian(substream(5, 0), 1)
        assert ens.values[0, 1] == z[0]

    def test_additive_pure_drift(self):
        ens = simulate(Brownian(drift=3.0, scale=0.0, x0=2.0), 0.5, 0.5, 1, 0)
        assert ens.values[0, 1] == 3.5

    def test_additive_variance_accumulates(self):
        # Composed steps reproduce the Brownian terminal variance scale^2*T.
        rows, n, dt, scale = 10**4, 100, 0.01, 1.2
        terminal = simulate(Brownian(0.0, scale), n * dt, dt, rows, 13).values[:, -1]
        target = scale**2 * n * dt
        assert abs(terminal.var() / target - 1.0) < 0.05

    def test_multiplicative_identity(self):
        ens = simulate(GeometricBrownian(mu=0.0, sigma=0.0), 0.74, 0.37, 2, 9)
        assert np.all(ens.values == 1.0)

    def test_multiplicative_pure_drift(self):
        ens = simulate(GeometricBrownian(mu=0.1, sigma=0.0, x0=2.0), 1.0, 1.0, 1, 5)
        assert ens.values[0, 1] == pytest.approx(2.0 * math.exp(0.1), rel=1e-15)

    def test_multiplicative_rejects_nonpositive_state(self):
        with pytest.raises(DomainError):
            GeometricBrownian(mu=0.1, sigma=0.2, x0=0.0)
        with pytest.raises(DomainError):
            GeometricLevy(alpha=1.5, beta=0.0, scale=0.2, x0=-1.0)

    def test_ou_fixed_point(self):
        ens = simulate(OrnsteinUhlenbeck(0.5, 0.7, 0.0, 0.7), 0.2, 0.1, 1, 3)
        assert np.all(ens.values == 0.7)

    def test_ou_direct_value(self):
        ens = simulate(OrnsteinUhlenbeck(0.5, 0.0, 0.0, 1.0), 0.1, 0.1, 1, 3)
        assert ens.values[0, 1] == pytest.approx(0.95)

    def test_ou_stability_guard(self):
        with pytest.raises(StabilityError):
            simulate(OrnsteinUhlenbeck(20.0, 0.0, 1.0, 1.0), 1.0, 0.1, 1, 0)

    def test_adaptive_theta_zero_gain(self):
        spec = AdaptiveOU(theta0=1.3, mean=0.0, scale=1.0, x0=99.0, eta=0.0,
                          theta_max=5.0)
        ens = simulate(spec, 1.0, 0.1, 2, 4)
        assert np.all(ens.theta_paths == 1.3)

    def test_adaptive_theta_direct_value(self):
        # x moves to 3.0 - 1.0*3.0*0.1 = 2.7, then theta += 0.5*(2.7 - 1)*0.1.
        spec = AdaptiveOU(theta0=1.0, mean=0.0, scale=0.0, x0=3.0, eta=0.5,
                          band=1.0, theta_max=5.0)
        ens = simulate(spec, 0.1, 0.1, 1, 4)
        assert ens.theta_paths[0, 1] == pytest.approx(1.085)

    def test_adaptive_theta_clips(self):
        spec = AdaptiveOU(theta0=9.0, mean=0.0, scale=0.0, x0=100.0, eta=5.0,
                          theta_max=9.5)
        ens = simulate(spec, 0.2, 0.1, 1, 4)
        assert np.all(ens.theta_paths[0, 1:] == 9.5)


class TestSimulate:
    def test_reference_shapes(self):
        ens = simulate(Brownian(0.0, 1.0), 3.0, 0.01, 240, 7)
        assert ens.values.shape == (240, 301)
        ens = simulate(GeometricLevy(1.55, 0.2, 0.35, 0.02), 4.0, 0.01, 360, 7)
        assert ens.values.shape == (360, 401)
        assert np.all(ens.values > 0.0)

    def test_noiseless_drift_line(self):
        ens = simulate(Brownian(drift=0.5, scale=0.0), 2.0, 0.1, 3, 0)
        expected = 0.5 * ens.grid.times
        for row in ens.values:
            np.testing.assert_allclose(row, expected, rtol=0.0, atol=1e-15)

    def test_initial_values_match_x0(self):
        for spec in (Brownian(x0=-2.0), GeometricBrownian(0.05, 0.2, x0=3.0),
                     LevyStable(1.5, 0.0, 1.0, x0=1.25),
                     OrnsteinUhlenbeck(1.0, 0.0, 1.0, x0=0.5),
                     Poisson(rate=2.0, x0=4.0)):
            ens = simulate(spec, 1.0, 0.1, 5, 11)
            assert np.all(ens.values[:, 0] == spec.x0)

    def test_gbm_terminal_mean(self):
        ens = simulate(GeometricBrownian(0.05, 0.2), 1.0, 0.01, 10**5, 21)
        target = math.exp(0.05)
        assert abs(ens.values[:, -1].mean() / target - 1.0) < 0.01

    def test_brownian_variance_scales_with_horizon(self):
        v = {}
        for horizon in (1.0, 2.0):
            ens = simulate(Brownian(0.0, 1.5), horizon, 0.01, 10**4, 3)
            v[horizon] = ens.values[:, -1].var()
        assert abs(v[2.0] / v[1.0] - 2.0) < 0.2
        assert abs(v[1.0] / 1.5**2 - 1.0) < 0.1

    def test_ou_stationary_variance(self):
        # Pool 10 chains at T=200; oracle scale^2/(2*theta) = 0.5.
        ens = simulate(OrnsteinUhlenbeck(1.0, 0.0, 1.0, 0.0), 200.0, 0.01, 10, 5)
        sampled = ens.values[:, 2000:].var()
        assert abs(sampled / 0.5 - 1.0) < 0.1

    def test_adaptive_zero_gain_matches_fixed_rate(self):
        adaptive = simulate(AdaptiveOU(theta0=0.7, mean=0.3, scale=0.4, x0=1.0,
                                       eta=0.0), 100.0, 0.01, 3, 77)
        fixed = simulate(OrnsteinUhlenbeck(theta=0.7, mean=0.3, scale=0.4,
                                           x0=1.0), 100.0, 0.01, 3, 77)
        np.testing.assert_array_equal(adaptive.values, fixed.values)

    def test_adaptive_theta_stays_in_bounds(self):
        ens = simulate(AdaptiveOU(theta0=1.0, mean=0.0, scale=0.5, x0=2.0,
                                  eta=2.0, band=0.5, theta_min=0.1,
                                  theta_max=10.0), 10.0, 0.01, 4, 13)
        assert ens.theta_paths is not None
        assert np.all(ens.theta_paths >= 0.1)
        assert np.all(ens.theta_paths <= 10.0)

    def test_poisson_paths_step_by_jump(self):
        ens = simulate(Poisson(rate=3.0, jump=0.5, x0=1.0), 10.0, 0.01, 20, 23)
        steps = np.diff(ens.values, axis=1)
        assert np.all(np.isin(np.round(steps / 0.5), [0, 1, 2]))
        assert np.all(np.diff(ens.values, axis=1) >= 0.0)

    def test_schedule_independence(self):
        spec = GeometricLevy(1.55, 0.2, 0.35, 0.02)
        serial = simulate(spec, 2.0, 0.01, 64, 9, workers=1)
        threaded = simulate(spec, 2.0, 0.01, 64, 9, workers=4)
        np.testing.assert_array_equal(serial.values, threaded.values)

    def test_instance_streams_are_stable_under_count(self):
        # Instance i depends only on substream(seed, i), not on ensemble size.
        small = simulate(Brownian(0.1, 1.0), 1.0, 0.1, 3, 31)
        large = simulate(Brownian(0.1, 1.0), 1.0, 0.1, 8, 31)
        np.testing.assert_array_equal(small.values, large.values[:3])

    def test_size_errors(self):
        with pytest.raises(SizeError):
            simulate(Brownian(), 1.0, 0.1, 0, 1)
        with pytest.raises(SizeError):
            simulate(Brownian(), 0.01, 0.1, 5, 1)

    @pytest.mark.parametrize("horizon, dt", [(1e300, 1e-300), (1e300, 1.0),
                                             (2.0 ** 63, 1.0)])
    def test_step_count_past_an_array_index_refused(self, horizon, dt):
        """Each case asks for at least 2**63 steps (or inf), which no array
        can index; the grid refuses it before numpy allocates anything."""
        with pytest.raises(SizeError, match="more than an array can index"):
            TimeGrid.from_horizon(horizon, dt)
        with pytest.raises(SizeError, match="more than an array can index"):
            simulate(GeometricBrownian(0.05, 0.2), horizon, dt, 2, 1)

    @pytest.mark.parametrize("mu, sigma", [(0.05, 1e200), (0.05, 1.4e154),
                                           (-1.7e308, 1e154)])
    def test_gbm_log_drift_past_the_float_range_refused(self, mu, sigma):
        with pytest.raises(DomainError, match=re.escape(f"sigma {sigma} puts the log")):
            simulate(GeometricBrownian(mu, sigma), 1.0, 0.1, 2, 1)

    @pytest.mark.parametrize("spec, horizon", [
        (GeometricBrownian(1e308, 0.2), 1.0),
        (GeometricBrownian(-699.99, 0.2), 1.0),  # -700.01 once sigma**2/2 is taken
        (GeometricBrownian(3.6, 0.2), 200.0),
        (GeometricLevy(1.5, 0.0, 0.2, 700.0), 1.0),
        (GeometricLevy(1.5, 0.0, 0.2, -7.0), 100.0),
    ])
    def test_drift_line_reaching_the_exponent_clip_refused(self, spec, horizon):
        with pytest.raises(DomainError, match="reaches the exponent clip 700$"):
            simulate(spec, horizon, 0.1, 2, 1)

    @pytest.mark.parametrize("spec", [GeometricBrownian(699.9, 0.2),
                                      GeometricLevy(1.5, 0.0, 0.2, -699.9)])
    def test_drift_line_inside_the_exponent_clip_is_simulated(self, spec):
        ens = simulate(spec, 1.0, 0.1, 2, 1)
        assert np.isfinite(ens.values).all() and (ens.values > 0.0).all()

    def test_ensemble_values_read_only(self):
        ens = simulate(Brownian(), 1.0, 0.1, 2, 1)
        with pytest.raises(ValueError):
            ens.values[0, 0] = 99.0

    def test_ensemble_copies_an_array_its_caller_can_write(self):
        v = np.zeros((2, 3))
        ens = processes.Ensemble(TimeGrid(0.1, 2), v)
        assert v.flags.writeable
        v[0, 0] = 5.0
        assert ens.values[0, 0] == 0.0 and not ens.values.flags.writeable
        frozen = np.zeros((2, 3))
        frozen.setflags(write=False)  # owned and read-only: kept as it is
        assert processes.Ensemble(TimeGrid(0.1, 2), frozen).values is frozen
        view = frozen[:, :]  # read-only, but the base's owner may still write it
        assert processes.Ensemble(TimeGrid(0.1, 2), view).values is not view

    def test_simulate_hands_its_values_over_uncopied(self):
        tracemalloc.start()
        try:
            ens = simulate(Brownian(), 10.0, 0.01, 200, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.values.flags.owndata
        assert peak < 1.5 * ens.values.nbytes  # a copy would double it

    @pytest.mark.parametrize("n, dt", [(2 ** 62, 0.5), (2 ** 60, 1.0), (2 ** 47, 1e-4)])
    def test_values_past_an_array_refused(self, n, dt):
        """n x (steps + 1) float64 values beyond what an array can hold, refused
        before anything is allocated."""
        with pytest.raises(SizeError, match="more values than an array can hold"):
            simulate(GeometricBrownian(0.05, 0.2), 1.0, dt, n, 1)


def _reference_row(spec, grid, stream):
    """One instance built from the public per-instance samplers, step by
    step where the scheme is a recursion: (path, theta path or None)."""
    n, dt, times = grid.n_steps, grid.dt, grid.times
    if isinstance(spec, Poisson):
        events = sample_poisson_events(stream, spec.rate, grid.horizon)
        return spec.x0 + spec.jump * np.searchsorted(events, times, side="right"), None
    if isinstance(spec, (OrnsteinUhlenbeck, AdaptiveOU)):
        fixed = isinstance(spec, OrnsteinUhlenbeck)
        theta = spec.theta if fixed else spec.theta0
        eta, band = (0.0, 0.0) if fixed else (spec.eta, spec.band)
        lo, hi = (theta, theta) if fixed else (spec.theta_min, spec.theta_max)
        width = spec.scale * math.sqrt(dt)
        x, xs, thetas = spec.x0, [spec.x0], [theta]
        for z in sample_gaussian(stream, n).tolist():  # Python floats: the same IEEE steps
            x = x + theta * (spec.mean - x) * dt + width * z
            theta = min(max(theta + eta * (abs(x - spec.mean) - band) * dt, lo), hi)
            xs.append(x)
            thetas.append(theta)
        return np.array(xs), (None if fixed else np.array(thetas))
    if isinstance(spec, (Brownian, GeometricBrownian)):
        z = sample_gaussian(stream, n)
    else:
        z = sample_stable(stream, spec.alpha, spec.beta, n)
    walk = np.concatenate([[0.0], np.cumsum(z)])
    if isinstance(spec, Brownian):
        return spec.x0 + spec.drift * times + spec.scale * math.sqrt(dt) * walk, None
    if isinstance(spec, GeometricBrownian):
        loc, width = spec.mu - 0.5 * spec.sigma ** 2, spec.sigma * math.sqrt(dt)
    else:
        loc, width = spec.loc, spec.scale * dt ** (1.0 / spec.alpha)
    if isinstance(spec, LevyStable):
        return spec.x0 + loc * times + width * walk, None
    return spec.x0 * np.exp(np.clip(loc * times + width * walk, -700.0, 700.0)), None


# (spec, horizon, dt, instances): every case spans at least three row blocks.
KERNEL_CASES = {
    "brownian": (Brownian(drift=0.1, scale=1.3, x0=0.5), 20.0, 0.001, 7),
    "gbm": (GeometricBrownian(mu=0.05, sigma=0.2, x0=2.0), 20.0, 0.001, 7),
    "levy_1.7": (LevyStable(alpha=1.7, beta=0.0, scale=0.5, x0=1.0), 20.0, 0.001, 7),
    "levy_1_skewed": (LevyStable(alpha=1.0, beta=0.5, scale=0.5), 20.0, 0.001, 7),
    "glevy": (GeometricLevy(alpha=1.55, beta=0.2, scale=0.35, loc=0.02), 20.0, 0.001, 7),
    "ou": (OrnsteinUhlenbeck(theta=2.0, mean=0.3, scale=0.5, x0=1.0), 20.0, 0.001, 7),
    "aou": (AdaptiveOU(theta0=1.0, mean=0.0, scale=0.5, x0=2.0, eta=2.0, band=0.5,
                       theta_min=0.1, theta_max=10.0), 20.0, 0.001, 7),
    "poisson_rate_0": (Poisson(rate=0.0, x0=1.0), 1.0, 0.001, 200),
    "poisson_rate_100": (Poisson(rate=100.0, jump=0.5), 0.1, 0.001, 2000),
}


@pytest.mark.parametrize("name", KERNEL_CASES)
@pytest.mark.parametrize("workers", [1, 3])
def test_kernel_matches_per_instance_reference(name, workers):
    spec, horizon, dt, n = KERNEL_CASES[name]
    grid = TimeGrid.from_horizon(horizon, dt)
    assert n > 2 * max(1, _BUDGET // grid.n_steps)  # at least three row blocks
    ens = simulate(spec, horizon, dt, n, 2024, workers=workers)
    for i in range(n):
        path, theta_path = _reference_row(spec, grid, substream(2024, i))
        assert ens.values[i].tobytes() == path.tobytes(), f"instance {i}"
        if theta_path is not None:
            assert ens.theta_paths[i].tobytes() == theta_path.tobytes(), f"theta {i}"


@pytest.mark.parametrize("name", ["ou", "aou"])
@pytest.mark.parametrize("workers", [1, 3])
def test_mean_reverting_tiles_match_per_instance_reference(name, workers):
    """OU/AOU tiles are `_WIDE` rows or more, so the cases above fit in one
    tile; here a full tile and a short one each cross step chunks."""
    spec, n, horizon, dt = KERNEL_CASES[name][0], _WIDE + 76, 3.0, 0.01
    grid = TimeGrid.from_horizon(horizon, dt)
    assert n > _WIDE and grid.n_steps > 2 * (_BUDGET // _WIDE)
    ens = simulate(spec, horizon, dt, n, 2024, workers=workers)
    for i in (0, 1, _WIDE - 1, _WIDE, _WIDE + 1, n - 1):
        path, theta_path = _reference_row(spec, grid, substream(2024, i))
        assert ens.values[i].tobytes() == path.tobytes(), f"instance {i}"
        if theta_path is not None:
            assert ens.theta_paths[i].tobytes() == theta_path.tobytes(), f"theta {i}"


FAMILIES = [Brownian(drift=0.1, scale=1.3, x0=0.5),
            GeometricBrownian(mu=0.05, sigma=0.2, x0=2.0),
            LevyStable(alpha=1.7, beta=0.0, scale=0.5, x0=1.0),
            GeometricLevy(alpha=1.55, beta=0.2, scale=0.35, loc=0.02),
            OrnsteinUhlenbeck(theta=2.0, mean=0.3, scale=0.5, x0=1.0),
            KERNEL_CASES["aou"][0], Poisson(rate=50.0, jump=0.5)]


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: type(spec).__name__)
@settings(deadline=None, max_examples=8)
@given(st.integers(1, 40), st.integers(1, 60), st.integers(1, 64),
       st.integers(1, 8), st.integers(0, 2 ** 64 - 1))
def test_tile_constants_do_not_move_a_bit(spec, n, steps, budget, wide, seed):
    """Tiles of any row count and step chunks of any length give the bytes
    of the default tiles, at 1 and 3 workers."""
    whole = simulate(spec, steps * 0.01, 0.01, n, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(processes, "_BUDGET", budget)
        patch.setattr(processes, "_WIDE", wide)
        for workers in (1, 3):
            tiled = simulate(spec, steps * 0.01, 0.01, n, seed, workers=workers)
            assert tiled.values.tobytes() == whole.values.tobytes()
            if whole.theta_paths is not None:
                assert tiled.theta_paths.tobytes() == whole.theta_paths.tobytes()


@pytest.mark.parametrize("spec", [OrnsteinUhlenbeck(1.0, 0.0, 1.0, 0.0),
                                  KERNEL_CASES["aou"][0]],
                         ids=lambda spec: type(spec).__name__)
def test_ou_tiles_hold_a_few_budgets_beyond_values(spec):
    """A 10 000 x 1000 OU or AOU run holds, beyond its values, its tile's
    noise draws, the x of one step chunk and AOU's rate vector: at most 10
    float64 arrays of `_BUDGET` draws (1.25 MiB at 2**14), where whole-path
    row blocks held n_steps x rows x 8 bytes of state per thread, and an AOU
    run that filled its rate paths held another ensemble-sized array."""
    tracemalloc.start()
    try:
        ens = simulate(spec, 10.0, 0.01, 10_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - ens.values.nbytes <= 10 * 8 * _BUDGET


class TestThetaPaths:
    """`Ensemble.theta_paths` replays AOU's rate rule over the stored x."""

    @pytest.mark.parametrize("spec", [spec for spec in FAMILIES
                                      if not isinstance(spec, AdaptiveOU)],
                             ids=lambda spec: type(spec).__name__)
    def test_none_for_other_specs(self, spec):
        assert simulate(spec, 0.1, 0.01, 3, 1).theta_paths is None

    def test_none_for_files(self, tmp_path):
        spec = KERNEL_CASES["aou"][0]
        path = tmp_path / "aou.csv"
        write_csv(path, *ensemble_table(simulate(spec, 0.1, 0.01, 3, 1)))
        assert read_ensemble_csv(path).theta_paths is None

    def test_hand_built_values_replay_like_scalars(self):
        spec = AdaptiveOU(theta0=1.0, mean=0.2, scale=0.5, x0=2.0, eta=3.0, band=0.4,
                          theta_min=0.5, theta_max=4.0)
        grid = TimeGrid(dt=0.01, n_steps=300)
        walks = np.random.default_rng(3).normal(0.0, 1.0, (4, 301)).cumsum(axis=1)
        values = 0.2 + walks * np.array([[0.01], [0.01], [1.0], [1.0]])
        thetas = processes.Ensemble(grid, values, spec=spec).theta_paths
        for row, theta_row in zip(values.tolist(), thetas):
            theta, want = spec.theta0, [spec.theta0]
            for x in row[1:]:
                theta = min(max(theta + spec.eta * (abs(x - spec.mean) - spec.band)
                                * grid.dt, spec.theta_min), spec.theta_max)
                want.append(theta)
            assert theta_row.tobytes() == np.array(want).tobytes()
        assert 0.5 in thetas and 4.0 in thetas  # both bounds were hit

    def test_read_only_and_computed_once(self):
        ens = simulate(KERNEL_CASES["aou"][0], 1.0, 0.01, 5, 2)
        thetas = ens.theta_paths
        assert ens.theta_paths is thetas
        assert thetas.shape == ens.values.shape and not thetas.flags.writeable
        with pytest.raises(ValueError):
            thetas[0, 0] = 1.0


class TestPoissonSlotBlock:
    """Rates whose slot blocks are refused before anything is allocated: a
    round of 1.5e9 slots would ask numpy for 12 GB a row."""

    @pytest.mark.parametrize("rate, horizon", [(1e9, 1.0), (1e300, 1e10),
                                               (1.2e7, 1.0)])
    def test_refused_before_any_allocation(self, rate, horizon):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="Poisson slots per round"):
                simulate(Poisson(rate=rate), horizon, horizon / 10, 2, 1)
            with pytest.raises(SizeError, match="Poisson slots per round"):
                sample_poisson_events(substream(1, 0), rate, horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("rate, n", [(2e4, 40), (1e3, 2000)])
    def test_tiles_hold_a_few_rounds_of_slots(self, rate, n):
        """Tiles are `_BUDGET // slots` rows (one row at rate 2e4), so a
        round holds at most 8 float64 arrays of `max(_BUDGET, slots)` draws;
        tiles of `_BUDGET // n_steps` rows held 40 and 1638 rows' rounds
        (51 and 105 MB)."""
        tracemalloc.start()
        try:
            ens = simulate(Poisson(rate=rate), 1.0, 0.1, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slots = rng._poisson_slot_block(rate, 1.0)
        assert peak - ens.values.nbytes <= 8 * 8 * max(_BUDGET, slots)

    def test_block_under_the_bound_is_drawn(self):
        assert rng._poisson_slot_block(1e7, 1.0) == 15_000_001


def test_poisson_case_needs_second_slot_block():
    # At rate 100 and horizon 0.1 a row overshoots within its first slot
    # block only if it draws fewer than 16 events in the horizon.
    spec, horizon, dt, n = KERNEL_CASES["poisson_rate_100"]
    ens = simulate(spec, horizon, dt, n, 2024)
    events = ens.values[:, -1] / spec.jump
    assert 0 < np.count_nonzero(events >= 16) < n // 10


class _PoolRecorder:
    """Stands in for ThreadPoolExecutor and records the thread count."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestWorkers:
    def test_rejects_fewer_than_one(self):
        for workers in (0, -2):
            with pytest.raises(DomainError):
                simulate(Brownian(), 1.0, 0.1, 2, 1, workers=workers)

    def test_threads_capped_at_row_blocks(self, monkeypatch):
        monkeypatch.setattr(_PoolRecorder, "sizes", [])
        # processes imports the pool class at the call, so patch it at its source
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _PoolRecorder)
        spec = Brownian(0.1, 1.0)
        serial = simulate(spec, 1.0, 0.1, 2, 5)
        assert _PoolRecorder.sizes == []  # one worker: the calling thread
        monkeypatch.setattr(processes, "_BUDGET", 10)  # one row per block
        threaded = simulate(spec, 1.0, 0.1, 2, 5, workers=6)
        assert _PoolRecorder.sizes == [2]
        np.testing.assert_array_equal(serial.values, threaded.values)
