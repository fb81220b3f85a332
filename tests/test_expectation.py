"""Exact expectations of the schemes under area-uniform placement.

With unit shadowing and `UniformDisk` users, zooming's mean power, cpz's mean
power and cpz's mean active-sector count have closed forms that share no
code with the kernel or the scalar oracle: the placement density, the cell
lookup and each scheme's power rule all have to be right for the Monte Carlo
means to land on them. Let p_a be annulus a's share of the ring area over
[r0, R] and F(a) = sum of p_b over b <= a. A sector's top annulus is at most
a with probability G(a) = (1 - (1 - F(a)) / S)^K, and the sector is empty
with probability G(-1) = (1 - 1/S)^K. With P(a) the power sized for
annulus a's outer radius:

    E[P_zoom]   = sum_a P(a) (F(a)^K - F(a-1)^K)
    E[P_cpz]    = sum_a P(a) (G(a) - G(a-1))
    E[n_active] = S (1 - (1 - 1/S)^K)
"""

import math

import pytest

from cpzsim.partition import PartitionGrid
from cpzsim.sim import ScenarioConfig, UniformDisk, run_comparison

# |z| gate, with about 2e4 trials per case.
Z_GATE = 5.0
N_TRIALS = 20_000


def power_for(d, config):
    """Radiated power so a user at distance d gets the target rate, from the link budget."""
    b, k, m = config.budget, config.k_users, config.m_antennas
    rho = (2.0 ** (config.rate_target / b.bandwidth) - 1.0) / (m - k)
    return rho * k * b.noise_n0 * (d / b.r0) ** b.alpha / b.path_gain_g


def expectations(config):
    """(zooming mean, zooming variance, cpz mean, active-sector mean) in closed form."""
    grid, r0, k = config.grid, config.budget.r0, config.k_users
    n, s, big_r = grid.n_annuli, grid.n_sectors, grid.cell_radius
    outer = [big_r if a == n - 1 else (a + 1) * big_r / n for a in range(n)]
    cdf = [max(0.0, (o * o - r0 * r0) / (big_r * big_r - r0 * r0)) for o in outer]
    power = [power_for(max(o, r0), config) for o in outer]
    zoom_cdf = [0.0] + [f ** k for f in cdf]
    zoom_p = [zoom_cdf[a + 1] - zoom_cdf[a] for a in range(n)]
    sector_cdf = [(1.0 - 1.0 / s) ** k] + [(1.0 - (1.0 - f) / s) ** k for f in cdf]
    zoom_mean = math.fsum(p * q for p, q in zip(power, zoom_p))
    zoom_var = math.fsum(p * p * q for p, q in zip(power, zoom_p)) - zoom_mean ** 2
    cpz_mean = math.fsum(power[a] * (sector_cdf[a + 1] - sector_cdf[a]) for a in range(n))
    return zoom_mean, zoom_var, cpz_mean, s * (1.0 - (1.0 - 1.0 / s) ** k)


def sample_z(values, expected):
    """Sample mean against `expected` in units of the sample standard error."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return (mean - expected) / math.sqrt(var / n)


@pytest.mark.parametrize("n_sectors", [6, 18, 36])
@pytest.mark.parametrize("k_users", [3, 10])
def test_scheme_means_match_closed_forms(n_sectors, k_users):
    config = ScenarioConfig(grid=PartitionGrid(3, n_sectors, 1000.0), k_users=k_users,
                            placement=UniformDisk(), n_trials=N_TRIALS)
    _, zooming, cpz = run_comparison(config)
    zoom_mean, zoom_var, cpz_mean, active_mean = expectations(config)
    # zooming rarely differs from always-max at K = 10 (about 5 in 2e4 trials),
    # so its sample spread can be near 0: take its standard error from the
    # closed-form variance.
    zoom_z = ((math.fsum(zooming.total_power.tolist()) / N_TRIALS - zoom_mean)
              / math.sqrt(zoom_var / N_TRIALS))
    cpz_z = sample_z(cpz.total_power.tolist(), cpz_mean)
    active_z = sample_z(cpz.n_active_sectors.tolist(), active_mean)
    assert abs(zoom_z) < Z_GATE, f"zooming z = {zoom_z:+.2f}"
    assert abs(cpz_z) < Z_GATE, f"cpz z = {cpz_z:+.2f}"
    assert abs(active_z) < Z_GATE, f"active sectors z = {active_z:+.2f}"
