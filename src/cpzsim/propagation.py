"""Distance-based link budget between the base station and its users.

Received power follows a reference-distance path-loss law with optional
lognormal shadowing; dividing by the noise power gives the linear SNR that
feeds the rate model. The inverse budget sizes the radiated power needed
for a target per-user rate at a given coverage edge, which is what the
power-allocation schemes spend.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream


@dataclass(frozen=True)
class LinkBudget:
    """Propagation and noise parameters of the cell (SI units).

    Defaults are the outdoor-macro values used across the simulator:
    1 km cell, 100 m reference distance, exponent 3.7, 8 dB shadowing,
    5 MHz per component carrier. noise_n0 is the noise power over that
    bandwidth (about -107 dBm).
    """

    path_gain_g: float = 1.0
    r0: float = 100.0
    alpha: float = 3.7
    shadow_sigma_db: float = 8.0
    noise_n0: float = 2.0e-14
    bandwidth: float = 5.0e6
    cell_radius_r: float = 1000.0

    def __post_init__(self):
        if self.path_gain_g <= 0:
            raise ValueError("path_gain_g must be positive")
        if self.r0 <= 0:
            raise ValueError("reference distance r0 must be positive")
        if self.alpha <= 0:
            raise ValueError("path loss exponent must be positive")
        if self.shadow_sigma_db < 0:
            raise ValueError("shadowing std must be nonnegative")
        if self.noise_n0 <= 0:
            raise ValueError("noise power must be positive")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.cell_radius_r < self.r0:
            raise ValueError("cell radius must not be smaller than the reference distance")


@dataclass(frozen=True)
class DeterministicUnitShadowing:
    """No shadowing: the slow-fading factor is identically 1."""

    def psi(self, n_draws: int, trial_index: int = 0) -> np.ndarray:
        return np.ones(n_draws)


@dataclass(frozen=True)
class LognormalShadowing:
    """Lognormal slow fading: 10*log10(psi) is zero-mean Gaussian with std sigma_db."""

    sigma_db: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be nonnegative")

    def psi(self, n_draws: int, trial_index: int = 0) -> np.ndarray:
        rng = substream(self.seed, trial_index)
        # An overflow gives inf, which received_power and the batch kernel reject.
        with np.errstate(over="ignore"):
            return 10.0 ** (rng.normal(0.0, self.sigma_db, size=n_draws) / 10.0)


ShadowingMode = DeterministicUnitShadowing | LognormalShadowing


def received_power(p_bs: float, k_users: int, r: float, budget: LinkBudget,
                   psi: float = 1.0) -> float:
    """Per-user received power in watts at distance r from the base station.

    The radiated power is split equally over k_users and attenuated by
    G * (r / r0)^-alpha * psi. Only valid outside the reference distance.
    """
    if k_users < 1:
        raise ValueError("power is split over at least one user")
    if p_bs < 0:
        raise ValueError("radiated power must be nonnegative")
    if not 0 < psi < math.inf:
        raise ValueError(f"shadowing factor must be positive and finite, got {psi}")
    if r < budget.r0:
        raise ValueError(f"distance {r} m is inside the reference distance {budget.r0} m")
    attenuation = budget.path_gain_g * (r / budget.r0) ** (-budget.alpha)
    return attenuation * psi * p_bs / k_users


def snr_rho(p_bs: float, k_users: int, r: float, budget: LinkBudget,
            psi: float = 1.0) -> float:
    """Linear per-user SNR: received power over the noise power."""
    return received_power(p_bs, k_users, r, budget, psi) / budget.noise_n0


def required_snr(target_rate_per_ue: float, bandwidth: float, k_users: int,
                 m_antennas: int) -> float:
    """Per-user SNR at which the ergodic ZF rate equals the target."""
    if target_rate_per_ue <= 0:
        raise ValueError("target rate must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if m_antennas <= k_users:
        raise ValueError(f"rate model needs M > K, got K={k_users}, M={m_antennas}")
    return (2.0 ** (target_rate_per_ue / bandwidth) - 1.0) / (m_antennas - k_users)


def required_bs_power(d: float, target_rate_per_ue: float, k_users: int,
                      m_antennas: int, budget: LinkBudget) -> float:
    """Radiated power in watts so a user at distance d reaches the target rate.

    Inverts the SNR budget with the deterministic unit shadowing factor;
    monotonically increasing in both d and the target rate.
    """
    if not budget.r0 <= d <= budget.cell_radius_r:
        raise ValueError(
            f"edge distance {d} m outside [{budget.r0}, {budget.cell_radius_r}] m"
        )
    rho_req = required_snr(target_rate_per_ue, budget.bandwidth, k_users, m_antennas)
    return (rho_req * k_users * budget.noise_n0
            * (d / budget.r0) ** budget.alpha / budget.path_gain_g)
