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
- EE = sum rate / P.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from cpzsim.propagation import DeterministicUnitShadowing, LinkBudget, LognormalShadowing
from cpzsim.sim import ScenarioConfig, run_comparison

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


def check_scaled(shadowing, scaled, power, rate):
    """Every scheme's power x power, sum rate x rate and EE x rate / power, exactly."""
    for a, b in zip(base(shadowing), run_comparison(scaled)):
        assert np.array_equal(b.total_power, a.total_power * power)
        assert np.array_equal(b.sum_rate, a.sum_rate * rate)
        assert np.array_equal(b.ee, a.ee * (rate / power))
        assert np.array_equal(b.n_active_sectors, a.n_active_sectors)
        assert np.array_equal(b.sleeping, a.sleeping)


@pytest.mark.parametrize("shadowing", SHADOWING)
@pytest.mark.parametrize("k", [2, -10])
def test_power_is_linear_in_noise_n0(shadowing, k):
    scaled = config(shadowing, budget=replace(BUDGET, noise_n0=BUDGET.noise_n0 * 2.0 ** k))
    check_scaled(shadowing, scaled, power=2.0 ** k, rate=1.0)


@pytest.mark.parametrize("shadowing", SHADOWING)
@pytest.mark.parametrize("k", [3, -4])
def test_power_is_inverse_in_path_gain_g(shadowing, k):
    scaled = config(shadowing, budget=replace(BUDGET, path_gain_g=BUDGET.path_gain_g * 2.0 ** k))
    check_scaled(shadowing, scaled, power=2.0 ** -k, rate=1.0)


@pytest.mark.parametrize("shadowing", SHADOWING)
@pytest.mark.parametrize("k", [1, -2])
def test_rate_is_linear_in_bandwidth_at_a_fixed_spectral_efficiency(shadowing, k):
    scaled = config(shadowing, budget=replace(BUDGET, bandwidth=BUDGET.bandwidth * 2.0 ** k),
                    rate_target=TARGET * 2.0 ** k)
    check_scaled(shadowing, scaled, power=1.0, rate=2.0 ** k)
