import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from stokit import (DEFAULT_FAN_LEVELS, Brownian, DomainError, Ensemble,
                    GeometricBrownian, PositivityError, SizeError, TimeGrid,
                    distance_to_asymptote, estimate_asymptote, growth_rates,
                    preasymptotic_report, quantile_fan, rolling_fluctuation,
                    sample_gaussian, simulate, substream, summary_curves)
from stokit.diagnostics import _TimeRowStats


def make_ensemble(values, dt=1.0):
    values = np.asarray(values, dtype=np.float64)
    grid = TimeGrid(dt=dt, n_steps=values.shape[1] - 1)
    return Ensemble(grid=grid, values=values)


class TestQuantileFan:
    def test_constant_ensemble(self):
        ens = make_ensemble(np.full((5, 4), 3.25))
        fan = quantile_fan(ens)
        assert np.all(fan.curves == 3.25)

    def test_hand_computed_median(self):
        # order statistics {1,2,3,4}, level 0.5, linear interpolation -> 2.5
        ens = make_ensemble(np.array([[1.0, 1], [2, 2], [3, 3], [4, 4]]))
        fan = quantile_fan(ens, levels=(0.5,))
        assert fan.curves[0, 0] == pytest.approx(2.5)

    def test_brownian_q95_against_normal_quantile(self):
        ens = simulate(Brownian(0.0, 1.0), 1.0, 0.01, 10**4, 42)
        fan = quantile_fan(ens)
        target = stats.norm.ppf(0.95)  # 1.6449
        assert abs(fan.curves[-1, -1] - target) < 0.05

    def test_fan_symmetry_for_driftless_brownian(self):
        ens = simulate(Brownian(0.0, 1.0), 1.0, 0.01, 10**4, 42)
        fan = quantile_fan(ens)  # levels 0.05/0.5/0.95 among defaults
        mid = 0.5 * (fan.curves[0, -1] + fan.curves[-1, -1])
        assert abs(mid - fan.curves[2, -1]) < 0.05

    def test_monotone_across_levels_random_ensembles(self):
        for seed in range(100):
            z = sample_gaussian(substream(seed, 0), 16 * 21).reshape(16, 21)
            fan = quantile_fan(make_ensemble(np.cumsum(z, axis=1)))
            assert np.all(np.diff(fan.curves, axis=0) >= 0.0)

    def test_translation_equivariance(self):
        values = sample_gaussian(substream(3, 0), 8 * 11).reshape(8, 11)
        base = quantile_fan(make_ensemble(values))
        shifted = quantile_fan(make_ensemble(values + 2.5))
        np.testing.assert_allclose(shifted.curves, base.curves + 2.5, atol=1e-12)

    def test_level_validation(self):
        ens = make_ensemble(np.ones((3, 3)))
        with pytest.raises(DomainError):
            quantile_fan(ens, levels=(0.9, 0.1))
        with pytest.raises(DomainError):
            quantile_fan(ens, levels=(0.0, 0.5))
        with pytest.raises(DomainError):
            quantile_fan(ens, levels=())
        with pytest.raises(SizeError):
            quantile_fan(make_ensemble(np.ones((1, 3))))
        for statistic in (quantile_fan, summary_curves, growth_rates):
            with pytest.raises(SizeError):
                statistic(make_ensemble(np.ones((0, 3))))


def ensemble_values(elements):
    """Instances x timepoints matrices of at least 2 instances."""
    shapes = st.tuples(st.integers(2, 9), st.integers(2, 6))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


@given(ensemble_values(st.floats(-1e300, 1e300)),
       st.lists(st.floats(1e-6, 1 - 1e-6), min_size=1, max_size=8, unique=True))
def test_fan_never_decreases_with_the_level(values, levels):
    fan = quantile_fan(make_ensemble(values), sorted(levels))
    assert np.all(np.diff(fan.curves, axis=0) >= 0.0)


@st.composite
def rough_ensembles(draw, positive=False):
    """2-300 instances x 2-5 timepoints: heavy ties from rounding, +-inf
    cells and columns holding a NaN."""
    n_instances, n_times = draw(st.integers(2, 300)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n_instances, n_times))
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    if decimals is not None:
        values = np.round(values, decimals)
    values *= 10.0 ** draw(st.integers(-300, 300))
    if positive:
        values = np.abs(values) + np.abs(values).max(initial=1.0)
    specials = [np.inf] if positive else [np.inf, -np.inf]
    for _ in range(draw(st.integers(0, 4))):
        cell = rng.integers(n_instances), rng.integers(n_times)
        values[cell] = specials[draw(st.integers(0, len(specials) - 1))]
    for column in draw(st.lists(st.integers(0, n_times - 1), max_size=2)):
        values[rng.integers(n_instances), column] = np.nan
    return values


def assert_numpy_bits(got, want, values):
    """Bit-equal, except NaN payloads, and zero signs in columns that mix
    0.0 and -0.0 (the order of equal keys is numpy's choice)."""
    zero, negative = values == 0.0, np.signbit(values)
    mixed = (zero & negative).any(axis=0) & (zero & ~negative).any(axis=0)
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    same_bits = got.view(np.uint64) == want.view(np.uint64)
    assert np.all(same_bits | nan | (mixed & (got == want)))


@given(rough_ensembles(),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                | st.sampled_from(DEFAULT_FAN_LEVELS),  # gamma 0.5 at p = 0.5
                min_size=1, max_size=8, unique=True))
def test_fan_is_numpy_linear_quantile(values, levels):
    levels = sorted(levels)
    with np.errstate(invalid="ignore"):
        got = quantile_fan(make_ensemble(values), levels).curves
        want = np.quantile(values, levels, axis=0, method="linear")
    assert_numpy_bits(got, want, values)


def test_fan_and_median_do_not_call_numpy_selection(monkeypatch):
    values = np.exp(sample_gaussian(substream(5, 0), 30 * 7).reshape(30, 7))
    values[4, 2] = np.nan
    want_fan = np.quantile(values, DEFAULT_FAN_LEVELS, axis=0, method="linear")
    want_median = np.median(values, axis=0)

    def refuse(*args, **kwargs):
        raise AssertionError("np.quantile and np.median are not to be called")

    monkeypatch.setattr(np, "quantile", refuse)
    monkeypatch.setattr(np, "median", refuse)
    assert_numpy_bits(quantile_fan(make_ensemble(values)).curves, want_fan, values)
    assert_numpy_bits(summary_curves(make_ensemble(values)).median, want_median, values)


@st.composite
def streamed_ensembles(draw):
    """1-12 instances x 2-6 timepoints: ties, 0.0 and -0.0 from rounding,
    and maybe inf, NaN and signed zero cells; positive when drawn so."""
    n_instances, n_times = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n_instances, n_times))
    if draw(st.booleans()):
        values = np.round(values)
    if draw(st.booleans()):
        values = np.abs(values) + 0.5
    for _ in range(draw(st.integers(0, 3))):
        cell = rng.integers(n_instances), rng.integers(n_times)
        values[cell] = draw(st.sampled_from([-0.0, 0.0, np.inf, np.nan]))
    return values


@given(streamed_ensembles(),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                | st.sampled_from(DEFAULT_FAN_LEVELS), min_size=1, max_size=4, unique=True),
       st.integers(1, 7))
def test_streamed_statistics_are_the_matrix_formulas(values, levels, block):
    """Fed as blocks of time rows of any size (as `diagnose --in` feeds
    them) or as a matrix (as the library and inline runs feed it), the
    statistics give the bits of the matrix formulas: np.quantile's "linear"
    fan, np.median, mean over axis 0, exp of the mean of logs, and the first
    and last columns."""
    levels = tuple(sorted(levels))
    original = values.copy()
    streamed = _TimeRowStats(levels, summary=True, growth=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, values.shape[1], block):
            streamed.add(values.T[lo:lo + block].copy())
        whole = _TimeRowStats(levels, summary=True, growth=True).add(values.T)
        want_fan = np.quantile(values, levels, axis=0, method="linear")
        want_median = np.median(values, axis=0)
        want_geometric = np.exp(np.log(values).mean(axis=0))
    assert values.tobytes() == original.tobytes()  # `add` changes no block it is fed
    n = values.shape[0]
    for stats in (streamed, whole):
        assert (stats.joined("sums") / n).tobytes() == values.mean(axis=0).tobytes()
        assert_numpy_bits(stats.joined("median"), want_median, values)
        assert stats.first.tobytes() == values[:, 0].tobytes()
        assert stats.last.tobytes() == values[:, -1].tobytes()
        assert stats.joined("inst_0").tobytes() == values[0].tobytes()
        if n < 2:
            with pytest.raises(SizeError):
                stats.fan()
        else:
            assert_numpy_bits(stats.fan().curves, want_fan, values)
        if np.any(values <= 0.0):
            with pytest.raises(PositivityError):
                stats.summary_curves()
            with pytest.raises(PositivityError):
                stats.growth_rates(1.0)
        else:
            summary = stats.summary_curves()
            assert summary.arithmetic_mean.tobytes() == values.mean(axis=0).tobytes()
            assert summary.geometric_mean.tobytes() == want_geometric.tobytes()
            assert_numpy_bits(summary.median, want_median, values)


class TestSummaryCurves:
    def test_constant_ensemble(self):
        s = summary_curves(make_ensemble(np.full((4, 5), 2.0)))
        for curve in (s.arithmetic_mean, s.median, s.geometric_mean):
            np.testing.assert_allclose(curve, 2.0, atol=1e-12)

    def test_hand_computed_pair(self):
        # instances {1, 4} at a time point: amean 2.5, median 2.5, gmean 2
        s = summary_curves(make_ensemble(np.array([[1.0, 1.0], [4.0, 4.0]])))
        assert s.arithmetic_mean[0] == pytest.approx(2.5)
        assert s.median[0] == pytest.approx(2.5)
        assert s.geometric_mean[0] == pytest.approx(2.0)

    def test_gbm_mean_separation(self):
        # log(arithmetic)/T -> mu, log(geometric)/T -> mu - sigma^2/2
        ens = simulate(GeometricBrownian(0.05, 0.2), 5.0, 0.01, 10**4, 17)
        s = summary_curves(ens)
        assert abs(np.log(s.arithmetic_mean[-1]) / 5.0 - 0.05) < 0.01
        assert abs(np.log(s.geometric_mean[-1]) / 5.0 - 0.03) < 0.01

    def test_am_gm_ordering_random_positive_ensembles(self):
        for seed in range(100):
            z = sample_gaussian(substream(seed, 1), 12 * 9).reshape(12, 9)
            s = summary_curves(make_ensemble(np.exp(z)))
            assert np.all(s.arithmetic_mean - s.geometric_mean >= -1e-12)

    def test_positivity_error(self):
        with pytest.raises(PositivityError):
            summary_curves(make_ensemble(np.array([[1.0, -1.0], [2.0, 3.0]])))

    @given(rough_ensembles(positive=True))
    def test_median_is_numpy_median(self, values):
        with np.errstate(invalid="ignore"):
            got = summary_curves(make_ensemble(values)).median
        assert_numpy_bits(got, np.median(values, axis=0), values)

    @given(ensemble_values(st.floats(1e-100, 1e100)))
    def test_am_at_least_gm_on_positive_ensembles(self, values):
        s = summary_curves(make_ensemble(values))
        assert np.all(s.arithmetic_mean >= s.geometric_mean * (1.0 - 1e-12))


class TestGrowthRates:
    def test_deterministic_exponential(self):
        grid = TimeGrid(dt=0.01, n_steps=500)
        path = np.exp(0.07 * grid.times)
        ens = Ensemble(grid=grid, values=np.vstack([path, path]))
        g = growth_rates(ens)
        assert g.time_average == pytest.approx(0.07, abs=1e-12)
        assert g.ensemble_average == pytest.approx(0.07, abs=1e-12)

    def test_gbm_growth_gap(self):
        ens = simulate(GeometricBrownian(0.05, 0.2), 10.0, 0.01, 10**4, 123)
        g = growth_rates(ens)
        assert abs(g.time_average - 0.03) < 0.006
        assert abs(g.ensemble_average - 0.05) < 0.01
        # gap estimates sigma^2/2 = 0.02
        assert abs((g.ensemble_average - g.time_average) - 0.02) < 0.01

    def test_single_instance_collapse(self):
        grid = TimeGrid(dt=0.5, n_steps=4)
        values = np.array([[1.0, 1.5, 2.0, 2.5, 3.0]])
        g = growth_rates(Ensemble(grid=grid, values=values))
        expected = np.log(3.0) / 2.0
        assert g.time_average == pytest.approx(expected, abs=1e-15)
        assert g.ensemble_average == pytest.approx(expected, abs=1e-15)

    def test_positivity_error(self):
        values = np.array([[1.0, 0.0], [1.0, 2.0]])
        with pytest.raises(PositivityError):
            growth_rates(make_ensemble(values))


class TestPreasymptotics:
    def test_exact_line_recovered(self):
        grid = TimeGrid(dt=0.1, n_steps=100)
        slope, intercept = estimate_asymptote(2.0 + 3.0 * grid.times, grid, 0.5)
        assert slope == pytest.approx(3.0, abs=1e-9)
        assert intercept == pytest.approx(2.0, abs=1e-9)

    def test_constant_series(self):
        grid = TimeGrid(dt=0.1, n_steps=50)
        slope, intercept = estimate_asymptote(np.full(51, 5.0), grid, 1.0)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(5.0, abs=1e-12)

    def test_noisy_slope_recovery(self):
        grid = TimeGrid(dt=0.01, n_steps=10000)
        noise = 0.1 * sample_gaussian(substream(8, 0), grid.n_steps + 1)
        slope, _ = estimate_asymptote(0.03 * grid.times + noise, grid, 0.5)
        assert abs(slope - 0.03) < 0.005

    def test_tail_too_short(self):
        grid = TimeGrid(dt=0.1, n_steps=100)
        with pytest.raises(SizeError):
            estimate_asymptote(np.ones(101), grid, 0.001)

    def test_distance_on_own_line_is_zero(self):
        grid = TimeGrid(dt=0.1, n_steps=20)
        series = 1.0 - 0.5 * grid.times
        d = distance_to_asymptote(series, grid, -0.5, 1.0)
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_distance_simple_and_nonnegative(self):
        grid = TimeGrid(dt=1.0, n_steps=1)
        d = distance_to_asymptote([0.0, 1.0], grid, 0.0, 0.0)
        np.testing.assert_allclose(d, [0.0, 1.0])
        series = sample_gaussian(substream(2, 0), 2)
        assert np.all(distance_to_asymptote(series, grid, 0.3, -0.2) >= 0.0)

    def test_distance_length_mismatch(self):
        grid = TimeGrid(dt=1.0, n_steps=3)
        with pytest.raises(SizeError):
            distance_to_asymptote([1.0, 2.0], grid, 0.0, 0.0)

    def test_rolling_fluctuation_linear_series(self):
        out = rolling_fluctuation(np.linspace(0.0, 10.0, 21), 4)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_rolling_fluctuation_hand_value(self):
        # increments of {0,1,0,1,0} are {1,-1,1,-1}; sd of adjacent pairs
        out = rolling_fluctuation([0.0, 1.0, 0.0, 1.0, 0.0], 2)
        np.testing.assert_allclose(out, np.sqrt(2.0))
        assert out.size == 3

    def test_rolling_fluctuation_homogeneous(self):
        series = sample_gaussian(substream(5, 0), 40)
        np.testing.assert_allclose(rolling_fluctuation(2.0 * series, 6),
                                   2.0 * rolling_fluctuation(series, 6),
                                   rtol=1e-12)

    def test_rolling_fluctuation_errors(self):
        with pytest.raises(DomainError):
            rolling_fluctuation([1.0, 2.0, 3.0], 1)
        with pytest.raises(SizeError):
            rolling_fluctuation([1.0, 2.0, 3.0], 3)

    def test_report_bundles_curves(self):
        grid = TimeGrid(dt=0.01, n_steps=1000)
        series = 0.1 * grid.times + 0.02 * sample_gaussian(substream(6, 0), 1001)
        report = preasymptotic_report(series, grid, window=25)
        assert report.distance_curve.size == 1001
        assert report.fluctuation_curve.size == 1001 - 25
        assert np.all(report.distance_curve >= 0.0)
        assert np.all(report.fluctuation_curve >= 0.0)
