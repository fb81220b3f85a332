"""Distance-based link budget between the base station and its users.

Received power follows a reference-distance path-loss law with optional
lognormal shadowing; dividing by the noise power gives the linear SNR that
feeds the rate model. The inverse budget sizes the radiated power needed
for a target per-user rate at a given coverage edge, which is what the
power-allocation schemes spend.
"""

import itertools
import math

import numpy as np

from ._record import Record, require_finite
from .rng import SHADOWING, uniform_rows


class LinkBudget(Record):
    """Propagation and noise parameters of the cell (SI units).

    Defaults are the outdoor-macro values used across the simulator: 1 km
    cell, 100 m reference distance, exponent 3.7, 5 MHz per carrier, and
    noise_n0 the noise power over it (about -107 dBm). shadow_sigma_db is
    validated but read by nothing: LognormalShadowing.sigma_db sets the
    shadowing. cell_radius_r must equal grid.cell_radius, as ScenarioConfig checks.
    """

    path_gain_g: float = 1.0
    r0: float = 100.0
    alpha: float = 3.7
    shadow_sigma_db: float = 8.0
    noise_n0: float = 2.0e-14
    bandwidth: float = 5.0e6
    cell_radius_r: float = 1000.0

    def __post_init__(self):
        require_finite(self, *self.__match_args__)
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


class DeterministicUnitShadowing(Record):
    """No shadowing: the slow-fading factor is identically 1."""


class LognormalShadowing(Record):
    """Lognormal slow fading: 10*log10(psi) is zero-mean Gaussian with std sigma_db."""

    sigma_db: float = 8.0
    seed: int = 0

    def __post_init__(self):
        require_finite(self, "sigma_db")
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be nonnegative")

    def psi(self, n_draws: int, trial_index: int = 0) -> np.ndarray:
        return self.psi_rows(n_draws, trial_index, trial_index + 1)[0]

    def psi_rows(self, n_draws: int, start: int, stop: int) -> np.ndarray:
        """(stop - start, n_draws) factors of trials [start, stop) from stream (seed, SHADOWING).

        Box-Muller on 2 * n_draws uniforms per trial, so trial i's factors
        are the same whatever range they are drawn in.
        """
        u = uniform_rows(self.seed, SHADOWING, start, stop, 2 * n_draws)
        gauss = (np.sqrt(-2.0 * libm(math.log1p, -u[:, :n_draws]))
                 * libm(math.cos, 2.0 * math.pi * u[:, n_draws:]))
        # An overflow gives inf, which snr_rho and the batch kernel reject.
        return libm(math.pow, 10.0, self.sigma_db / 10.0 * gauss)


ShadowingMode = DeterministicUnitShadowing | LognormalShadowing


def libm(fn, *args) -> np.ndarray:
    """fn elementwise over args broadcast together, inf where fn overflows (numpy's value).

    Every transcendental on a seeded path runs in the platform libm on Python
    floats, since numpy's loops pick a SIMD code path by CPU and can move the last bit.
    A scalar argument is passed as its one Python number, repeated, not as an array.
    """
    arrays = np.broadcast_arrays(*args)
    columns = [itertools.repeat(np.asarray(a).item()) if np.ndim(a) == 0
               else memoryview(np.ravel(b)) for a, b in zip(args, arrays)]
    size = arrays[0].size
    try:
        values = np.fromiter(map(fn, *columns), float, size)
    except OverflowError:
        values = np.array([_or_inf(fn, *xs) for xs in itertools.islice(zip(*columns), size)])
    return values.reshape(arrays[0].shape)


def _or_inf(fn, *xs) -> float:
    try:
        return fn(*xs)
    except OverflowError:
        return math.inf


def snr_rho(p_bs: float, k_users: int, r: float, budget: LinkBudget,
            psi: float = 1.0) -> float:
    """Linear per-user SNR at distance r: received power over the noise power.

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
    return attenuation * psi * p_bs / k_users / budget.noise_n0


def required_snr(target_rate_per_ue: float, bandwidth: float, k_users: int,
                 m_antennas: int) -> float:
    """Per-user SNR at which the ZF rate equals the target; positive and finite.

    The rate B * log2(1 + rho * (M - K)) is not the ergodic ZF rate but its lower
    bound (Ngo, Larsson & Marzetta, IEEE TCOM 2013).
    """
    if target_rate_per_ue <= 0:
        raise ValueError("target rate must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if m_antennas <= k_users:
        raise ValueError(f"rate model needs M > K, got K={k_users}, M={m_antennas}")
    try:
        rho = (2.0 ** (target_rate_per_ue / bandwidth) - 1.0) / (m_antennas - k_users)
    except OverflowError:
        rho = math.inf
    if not 0 < rho < math.inf:
        raise ValueError(f"target rate {target_rate_per_ue} b/s needs a per-user SNR of {rho}")
    return rho


def required_bs_power(d: float, target_rate_per_ue: float, k_users: int,
                      m_antennas: int, budget: LinkBudget) -> float:
    """Radiated power in watts so a user at distance d reaches the target rate.

    Inverts the SNR budget with the deterministic unit shadowing factor;
    monotonically increasing in both d and the target; raises on 0, inf or NaN.
    """
    if not budget.r0 <= d <= budget.cell_radius_r:
        raise ValueError(
            f"edge distance {d} m outside [{budget.r0}, {budget.cell_radius_r}] m"
        )
    rho_req = required_snr(target_rate_per_ue, budget.bandwidth, k_users, m_antennas)
    try:
        path_loss = (d / budget.r0) ** budget.alpha
    except OverflowError:
        path_loss = math.inf
    power = rho_req * k_users * budget.noise_n0 * path_loss / budget.path_gain_g
    if not 0.0 < power < math.inf:
        raise ValueError(f"target rate {target_rate_per_ue} b/s at {d} m needs a power of {power} W")
    return power
