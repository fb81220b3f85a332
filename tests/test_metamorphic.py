"""Exact metamorphic relations of the link budget, end to end through run_comparison.

Each relation scales one side of the model by a power of two and names the
equation it follows from. A power of two commutes with every correctly
rounded + - * / while no value leaves the normal range, so the outputs must
move by exactly the same factor (np.array_equal, no tolerance):

- sizing, P = rho K N0 (d / r0)^alpha / G: P is linear in N0 and in 1 / G;
- the SINR, G (r / r0)^-alpha psi P / K / N0 (M - K): unchanged when P moves
  with N0 or against G, so every rate is too;
- the rate, B log2(1 + rho (M - K)) with rho from 2^(R / B) - 1: scaling B and
  the target R together leaves rho, hence P, unchanged and scales every rate;
- EE = sum rate / P;
- the path loss, (d / r0)^alpha at every sized edge d and user distance r:
  lengths enter the model only as ratios to r0, and the placement radii
  sqrt(u (R^2 - r0^2) + r0^2) and zoom radii (a + 1) R / N scale exactly
  with r0 and R, so scaling every length by a power of two changes no byte.

The N0, G and bandwidth relations hold on any config: they run on the default
config at fixed k and, through Hypothesis, on drawn K, M, n_annuli, n_sectors,
shadowing mode and k.

One relation has no exact form. A trial's users are served alike in any
order, so permuting them moves every power, sector count and sleeping flag
by nothing, and a sum rate only by the rounding of its left-to-right sum:
within (K - 1) u of the exact sum either way, 2 (K - 1) u apart, u = 2^-53.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpzsim import schemes, sim
from cpzsim.partition import PartitionGrid
from cpzsim.propagation import DeterministicUnitShadowing, LinkBudget, LognormalShadowing
from cpzsim.sim import (
    ArcCluster,
    ScenarioConfig,
    format_records_csv,
    run_comparison,
    sweep_sectors,
)

TRIALS = 3000
BUDGET = LinkBudget()
TARGET = ScenarioConfig().rate_target
SHADOWING = {"unit": DeterministicUnitShadowing(),
             "lognormal": LognormalShadowing(sigma_db=8.0, seed=5)}


def config(shadowing, budget=BUDGET, rate_target=TARGET):
    return ScenarioConfig(budget=budget, rate_target=rate_target,
                          shadowing=SHADOWING[shadowing], seed=11, n_trials=TRIALS)


@functools.cache
def base(shadowing):
    return run_comparison(config(shadowing))


def check_scaled(before, after, power, rate):
    """Every scheme's power x power, sum rate x rate and EE x rate / power, exactly."""
    for a, b in zip(before, after):
        assert np.array_equal(b.total_power, a.total_power * power)
        assert np.array_equal(b.sum_rate, a.sum_rate * rate)
        assert np.array_equal(b.ee, a.ee * (rate / power))
        assert np.array_equal(b.n_active_sectors, a.n_active_sectors)
        assert np.array_equal(b.sleeping, a.sleeping)


@pytest.mark.parametrize("shadowing", SHADOWING)
@pytest.mark.parametrize("k", [2, -10])
def test_power_is_linear_in_noise_n0(shadowing, k):
    scaled = config(shadowing, budget=replace(BUDGET, noise_n0=BUDGET.noise_n0 * 2.0 ** k))
    check_scaled(base(shadowing), run_comparison(scaled), power=2.0 ** k, rate=1.0)


@pytest.mark.parametrize("shadowing", SHADOWING)
@pytest.mark.parametrize("k", [3, -4])
def test_power_is_inverse_in_path_gain_g(shadowing, k):
    scaled = config(shadowing, budget=replace(BUDGET, path_gain_g=BUDGET.path_gain_g * 2.0 ** k))
    check_scaled(base(shadowing), run_comparison(scaled), power=2.0 ** -k, rate=1.0)


@pytest.mark.parametrize("shadowing", SHADOWING)
@pytest.mark.parametrize("k", [1, -2])
def test_rate_is_linear_in_bandwidth_at_a_fixed_spectral_efficiency(shadowing, k):
    scaled = config(shadowing, budget=replace(BUDGET, bandwidth=BUDGET.bandwidth * 2.0 ** k),
                    rate_target=TARGET * 2.0 ** k)
    check_scaled(base(shadowing), run_comparison(scaled), power=1.0, rate=2.0 ** k)


# Hypothesis draws the configs too. In these configs every power, gain,
# SINR factor, rate and EE lies within 2^-100 .. 2^100 (powers from about
# 2^-50, faded gains and their products with powers from about 2^-80, EE up to
# about 2^82), so |k| <= 600 keeps every value normal and every relation exact.
SCALES = st.integers(-600, 600)


@st.composite
def configs(draw):
    k_users = draw(st.integers(1, 16))
    grid = PartitionGrid(n_annuli=draw(st.integers(1, 10)), n_sectors=draw(st.integers(1, 64)))
    return ScenarioConfig(grid=grid, k_users=k_users,
                          m_antennas=draw(st.integers(k_users + 1, 256)),
                          shadowing=SHADOWING[draw(st.sampled_from(sorted(SHADOWING)))],
                          seed=draw(st.integers(0, 2**32 - 1)), n_trials=400)


@settings(max_examples=60, deadline=None)
@given(c=configs(), k=SCALES)
def test_power_is_linear_in_noise_n0_on_any_config(c, k):
    scaled = replace(c, budget=replace(c.budget, noise_n0=c.budget.noise_n0 * 2.0 ** k))
    check_scaled(run_comparison(c), run_comparison(scaled), power=2.0 ** k, rate=1.0)


@settings(max_examples=60, deadline=None)
@given(c=configs(), k=SCALES)
def test_power_is_inverse_in_path_gain_g_on_any_config(c, k):
    scaled = replace(c, budget=replace(c.budget, path_gain_g=c.budget.path_gain_g * 2.0 ** k))
    check_scaled(run_comparison(c), run_comparison(scaled), power=2.0 ** -k, rate=1.0)


@settings(max_examples=60, deadline=None)
@given(c=configs(), k=SCALES)
def test_rate_is_linear_in_bandwidth_at_a_fixed_spectral_efficiency_on_any_config(c, k):
    scaled = replace(c, budget=replace(c.budget, bandwidth=c.budget.bandwidth * 2.0 ** k),
                     rate_target=c.rate_target * 2.0 ** k)
    check_scaled(run_comparison(c), run_comparison(scaled), power=1.0, rate=2.0 ** k)


def assert_same_csv(a, b):
    # Line by line: pytest's diff of two megabyte strings runs for minutes.
    a, b = a.splitlines(), b.splitlines()
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x == y


def scaled_lengths(config, k):
    """config with r0, the cell radius and the budget's copy of it all x 2^k."""
    scale = 2.0 ** k
    return replace(config, grid=replace(config.grid, cell_radius=config.grid.cell_radius * scale),
                   budget=replace(config.budget, r0=config.budget.r0 * scale,
                                  cell_radius_r=config.budget.cell_radius_r * scale))


@pytest.mark.parametrize("shadowing", SHADOWING)
@pytest.mark.parametrize("k", [3, -5])
def test_comparison_bytes_do_not_depend_on_the_length_unit(shadowing, k):
    scaled = scaled_lengths(config(shadowing), k)
    assert_same_csv(format_records_csv({None: run_comparison(scaled)}),
                    format_records_csv({None: base(shadowing)}))


def test_sector_sweep_bytes_do_not_depend_on_the_length_unit():
    cluster = replace(config("lognormal"), placement=ArcCluster(sector_count_occupied=2, annulus=1))
    counts = [1, 2, 3, 6, 9, 18, 36]
    assert_same_csv(format_records_csv(sweep_sectors(scaled_lengths(cluster, 3), counts).reports),
                    format_records_csv(sweep_sectors(cluster, counts).reports))


@pytest.mark.parametrize("shadowing", SHADOWING)
@pytest.mark.parametrize("counts", [[18], [1, 2, 3, 6, 9, 18, 36]])
def test_permuting_the_users_of_a_trial_moves_only_sum_rate_rounding(shadowing, counts):
    c = config(shadowing)
    r, phi = sim._trial_users(c)
    psi = sim._trial_psi(c, r.shape[1])
    perm = np.random.default_rng(0).permuted(np.tile(np.arange(r.shape[1]), (len(r), 1)), axis=1)
    grids = [replace(c.grid, n_sectors=count) for count in counts]

    def evaluate(*users):
        return schemes._evaluate_trials(grids, c.budget, c.rate_target, c.k_users,
                                        c.m_antennas, *users)

    permuted = [None if x is None else np.take_along_axis(x, perm, axis=1) for x in (r, phi, psi)]
    bound = 2 * (c.k_users - 1) * 2.0 ** -53
    for before, after in zip(evaluate(r, phi, psi), evaluate(*permuted)):
        for a, b in zip(before, after):
            assert np.array_equal(b.total_power, a.total_power)
            assert np.array_equal(b.n_active_sectors, a.n_active_sectors)
            assert np.array_equal(b.sleeping, a.sleeping)
            assert (np.abs(b.sum_rate - a.sum_rate) <= bound * a.sum_rate).all()
