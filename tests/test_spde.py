import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokit import spde
from stokit import (Dirichlet, DomainError, GridError, Neumann, SizeError,
                    SpdeSpec, StabilityError, extract_profiles,
                    simulate_heat_spde, spatial_mean)


def sine_spec(sigma=0.0, kappa=0.1):
    return SpdeSpec(kappa=kappa, sigma=sigma, length=1.0,
                    boundary=Dirichlet(0.0, 0.0),
                    initial_profile=lambda x: np.sin(np.pi * x))


def test_sine_mode_matches_analytic_decay():
    field = simulate_heat_spde(sine_spec(), 1.0 / 128, 2e-5, 0.5, 0)
    exact = np.exp(-0.1 * np.pi**2 * 0.5) * np.sin(np.pi * field.x_grid)
    assert np.max(np.abs(field.u[-1] - exact)) < 1e-3


def test_zero_initial_zero_noise_stays_zero():
    spec = SpdeSpec(kappa=0.2, sigma=0.0, length=1.0,
                    boundary=Dirichlet(0.0, 0.0),
                    initial_profile=lambda x: np.zeros_like(x))
    field = simulate_heat_spde(spec, 0.05, 1e-3, 0.1, 3)
    assert np.all(field.u == 0.0)


def test_stability_guard_names_ratio():
    with pytest.raises(StabilityError, match="1"):
        simulate_heat_spde(sine_spec(kappa=1.0), 0.1, 0.01, 1.0, 0)


def test_grid_must_divide_length():
    with pytest.raises(GridError):
        simulate_heat_spde(sine_spec(), 0.3, 1e-4, 0.1, 0)


def test_horizon_must_be_whole_steps():
    with pytest.raises(GridError):
        simulate_heat_spde(sine_spec(), 0.1, 0.001, 0.0105, 0)


@pytest.mark.parametrize("name", ["dx", "kappa", "sigma", "length"])
def test_non_finite_numbers_rejected(name):
    spec = sine_spec()
    if name != "dx":
        spec = dataclasses.replace(spec, **{name: math.nan})
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        simulate_heat_spde(spec, math.nan if name == "dx" else 0.1, 1e-3, 0.1, 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["left", "right"])
def test_non_finite_dirichlet_values_rejected(side, value):
    with pytest.raises(DomainError, match=f"^{side} boundary value must be finite"):
        Dirichlet(**{side: value})


@pytest.mark.parametrize("spec, step", [
    (sine_spec(sigma=1e308), 2),
    (dataclasses.replace(sine_spec(), initial_profile=[0.0, 1.0, math.inf, 1.0, 0.0]), 0),
], ids=["noise_overflows", "profile_not_finite"])
def test_non_finite_field_refused(spec, step):
    with pytest.raises(StabilityError,
                       match=rf"the field leaves the float range at step {step} "):
        simulate_heat_spde(spec, 0.25, 0.1, 0.3, 12345)


@pytest.mark.parametrize("length, dx", [(1e300, 1e-300), (1e20, 1.0)],
                         ids=["inf_nodes", "1e20_nodes"])
def test_node_count_past_an_array_index_refused(length, dx):
    """Sizes the grid refuses before numpy allocates anything: the initial
    profile is never evaluated."""
    def never_called(x):
        raise AssertionError("the profile was evaluated on a grid")

    spec = dataclasses.replace(sine_spec(), length=length,
                               initial_profile=never_called)
    prefix = re.escape(f"length {length} over dx={dx} is ")
    with pytest.raises(SizeError,
                       match=f"^{prefix}.* nodes, more than an array can index$"):
        simulate_heat_spde(spec, dx, 0.1, 0.3, 0)


def test_bad_initial_profile_length():
    spec = SpdeSpec(kappa=0.1, sigma=0.0, length=1.0,
                    boundary=Dirichlet(0.0, 0.0), initial_profile=[0.0, 1.0])
    with pytest.raises(SizeError):
        simulate_heat_spde(spec, 0.25, 1e-3, 0.1, 0)


def test_dirichlet_columns_pinned():
    spec = SpdeSpec(kappa=0.1, sigma=0.4, length=1.0,
                    boundary=Dirichlet(-1.5, 2.0),
                    initial_profile=lambda x: np.sin(np.pi * x))
    field = simulate_heat_spde(spec, 0.0625, 1e-3, 0.05, 7)
    assert np.all(field.u[:, 0] == -1.5)
    assert np.all(field.u[:, -1] == 2.0)


def test_neumann_conserves_trapezoid_mean():
    spec = SpdeSpec(kappa=0.25, sigma=0.0, length=2.0, boundary=Neumann(),
                    initial_profile=lambda x: np.cos(np.pi * x) + 0.3 * x)
    field = simulate_heat_spde(spec, 0.05, 1e-3, 0.2, 0)
    means = np.array([spatial_mean(row, 0.05, 2.0) for row in field.u])
    assert np.max(np.abs(np.diff(means))) < 1e-10


def test_noiseless_run_ignores_seed():
    a = simulate_heat_spde(sine_spec(), 0.0625, 1e-3, 0.05, 1)
    b = simulate_heat_spde(sine_spec(), 0.0625, 1e-3, 0.05, 999)
    np.testing.assert_array_equal(a.u, b.u)


def test_noisy_run_deterministic_in_seed():
    a = simulate_heat_spde(sine_spec(sigma=0.3), 0.0625, 1e-3, 0.05, 5)
    b = simulate_heat_spde(sine_spec(sigma=0.3), 0.0625, 1e-3, 0.05, 5)
    c = simulate_heat_spde(sine_spec(sigma=0.3), 0.0625, 1e-3, 0.05, 6)
    np.testing.assert_array_equal(a.u, b.u)
    assert np.any(a.u != c.u)


def test_noiseless_linearity():
    def scaled(a):
        return SpdeSpec(kappa=0.1, sigma=0.0, length=1.0,
                        boundary=Dirichlet(0.0, 0.0),
                        initial_profile=lambda x: a * np.sin(np.pi * x))
    one = simulate_heat_spde(scaled(1.0), 1.0 / 32, 1e-3, 0.05, 1)
    three = simulate_heat_spde(scaled(3.0), 1.0 / 32, 1e-3, 0.05, 1)
    np.testing.assert_allclose(three.u, 3.0 * one.u, atol=1e-12)


def test_profiles_are_first_and_last_rows():
    field = simulate_heat_spde(sine_spec(sigma=0.2), 0.125, 1e-3, 0.05, 11)
    initial, final = extract_profiles(field)
    np.testing.assert_array_equal(initial, field.u[0])
    np.testing.assert_array_equal(final, field.u[-1])


def test_single_step_profiles():
    field = simulate_heat_spde(sine_spec(), 0.25, 1e-3, 1e-3, 0)
    assert field.u.shape[0] == 2
    initial, final = extract_profiles(field)
    np.testing.assert_array_equal(initial, field.u[0])
    np.testing.assert_array_equal(final, field.u[1])


def test_max_norm_decays_for_noiseless_diffusion():
    field = simulate_heat_spde(sine_spec(), 1.0 / 64, 1e-4, 0.2, 0)
    initial, final = extract_profiles(field)
    assert np.max(np.abs(final)) < np.max(np.abs(initial))


def test_spec_validation():
    with pytest.raises(DomainError):
        SpdeSpec(kappa=0.0, sigma=0.1, length=1.0, boundary=Neumann(),
                 initial_profile=lambda x: x)
    with pytest.raises(DomainError):
        SpdeSpec(kappa=0.1, sigma=-0.1, length=1.0, boundary=Neumann(),
                 initial_profile=lambda x: x)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 12), st.integers(1, 40), st.integers(1, 64),
       st.booleans(), st.integers(0, 2 ** 64 - 1))
def test_noise_block_size_does_not_move_a_bit(nodes, steps, budget, dirichlet, seed):
    """Step k draws from substream(seed, k), whatever the block of steps."""
    spec = SpdeSpec(kappa=0.1, sigma=0.3, length=1.0,
                    boundary=Dirichlet(0.2, -0.1) if dirichlet else Neumann(),
                    initial_profile=lambda x: np.sin(np.pi * x))
    dx = 1.0 / nodes
    whole = simulate_heat_spde(spec, dx, 1e-3, steps * 1e-3, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spde, "_BUDGET", budget)
        blocked = simulate_heat_spde(spec, dx, 1e-3, steps * 1e-3, seed)
    assert blocked.u.tobytes() == whole.u.tobytes()
