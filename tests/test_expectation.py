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

The sum rates follow from one user's rate f_P(r) = B log2(1 + P g (r/r0)^-alpha
(M - K) / (K N0)) at power P. With J_a(b) = E[f_P(a)(r) 1{annulus(r) <= b}]
(a 16-point Gauss-Legendre rule per annulus, J_a(-1) = 0) and H(a) = 1 - (1 -
F(a)) / S, H(-1) = 1 - 1/S, the chance that another user leaves a sector's top
annulus at most a:

    E[R_always] = K J_{A-1}(A-1)
    E[R_zoom]   = K sum_a (J_a(a) F(a)^(K-1) - J_a(a-1) F(a-1)^(K-1))
    E[R_cpz]    = K sum_a (J_a(a) H(a)^(K-1) - J_a(a-1) H(a-1)^(K-1))

and E[EE_zoom] is E[R_zoom]'s sum with each term divided by P(a).
"""

import math

import numpy as np
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


def annuli(config):
    """Each annulus's (inner, outer) radii clipped to [r0, R], its CDF F(a) and power P(a)."""
    grid, r0 = config.grid, config.budget.r0
    n, big_r = grid.n_annuli, grid.cell_radius
    outer = [big_r if a == n - 1 else (a + 1) * big_r / n for a in range(n)]
    bounds = [(max(a * big_r / n, r0), max(o, r0)) for a, o in enumerate(outer)]
    cdf = [max(0.0, (o * o - r0 * r0) / (big_r * big_r - r0 * r0)) for o in outer]
    return bounds, cdf, [power_for(o, config) for _, o in bounds]


def expectations(config):
    """(zooming mean, zooming variance, cpz mean, active-sector mean) in closed form."""
    k, s = config.k_users, config.grid.n_sectors
    _, cdf, power = annuli(config)
    n = len(cdf)
    zoom_cdf = [0.0] + [f ** k for f in cdf]
    zoom_p = [zoom_cdf[a + 1] - zoom_cdf[a] for a in range(n)]
    sector_cdf = [(1.0 - 1.0 / s) ** k] + [(1.0 - (1.0 - f) / s) ** k for f in cdf]
    zoom_mean = math.fsum(p * q for p, q in zip(power, zoom_p))
    zoom_var = math.fsum(p * p * q for p, q in zip(power, zoom_p)) - zoom_mean ** 2
    cpz_mean = math.fsum(power[a] * (sector_cdf[a + 1] - sector_cdf[a]) for a in range(n))
    return zoom_mean, zoom_var, cpz_mean, s * (1.0 - (1.0 - 1.0 / s) ** k)


def rate_expectations(config):
    """(always-max, zooming, cpz) mean sum rates and zooming's mean EE in closed form."""
    b, k, m, s = config.budget, config.k_users, config.m_antennas, config.grid.n_sectors
    bounds, cdf, power = annuli(config)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    area = config.grid.cell_radius ** 2 - b.r0 ** 2

    def rate(p, r):
        return b.bandwidth * np.log2(1.0 + p * b.path_gain_g * (r / b.r0) ** -b.alpha
                                     * (m - k) / (k * b.noise_n0))

    def mean_rate(p, lo, hi):
        # E[f_p(r) 1{lo <= r < hi}] under the area-uniform density 2 r / area.
        r = (hi - lo) / 2 * nodes + (hi + lo) / 2
        return (hi - lo) / 2 * float(np.sum(weights * rate(p, r) * 2 * r / area))

    # j[a][b + 1] = J_a(b), j[a][0] = J_a(-1) = 0.
    j = [np.concatenate([[0.0], np.cumsum([mean_rate(p, lo, hi) for lo, hi in bounds])])
         for p in power]
    zoom_cdf = [0.0] + cdf
    sector_cdf = [1.0 - 1.0 / s] + [1.0 - (1.0 - f) / s for f in cdf]

    def terms(c):
        # Term a of E[R] / K when another user leaves user 1's zoom at most a with chance c[a + 1].
        return [j[a][a + 1] * c[a + 1] ** (k - 1) - j[a][a] * c[a] ** (k - 1)
                for a in range(len(cdf))]

    zoom = terms(zoom_cdf)
    return (k * j[-1][-1], k * math.fsum(zoom), k * math.fsum(terms(sector_cdf)),
            k * math.fsum(t / p for t, p in zip(zoom, power)))


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
    always, zooming, cpz = run_comparison(config)
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
    # Sum rates and zooming's EE, each against its own sample spread.
    samples = [always.sum_rate, zooming.sum_rate, cpz.sum_rate, zooming.ee]
    for name, values, expected in zip(["always-max rate", "zooming rate", "cpz rate",
                                       "zooming EE"], samples, rate_expectations(config)):
        z = sample_z(values.tolist(), expected)
        assert abs(z) < Z_GATE, f"{name} z = {z:+.2f}"
