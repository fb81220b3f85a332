"""Complex-Gaussian channel model, zero-forcing beamforming, and rate closed forms.

The downlink channel is a K x M matrix of i.i.d. unit-variance complex
Gaussian entries (K users, M base-station antennas, K << M in the massive
regime). Zero-forcing precoding inverts the channel so every user sees an
interference-free link whose SINR is governed by the inverse Gram trace;
for large arrays that trace concentrates around K/(M-K), which yields the
ergodic sum-rate closed form used throughout the simulator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream

# Gram condition estimate beyond which the channel is treated as singular.
SINGULAR_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """K x M downlink channel; row k is user k's gain vector."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.ndim != 2:
            raise ValueError(f"channel must be a 2-D matrix, got ndim={e.ndim}")
        if e.shape[0] < 1 or e.shape[1] < 1:
            raise ValueError(f"channel dimensions must be positive, got {e.shape}")
        object.__setattr__(self, "entries", e)

    @property
    def k_users(self) -> int:
        return self.entries.shape[0]

    @property
    def m_antennas(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class BeamformingMatrix:
    """M x K zero-forcing precoder W with its power normalization factor.

    gamma is the squared Frobenius norm of W divided by the user count; the
    transmitted precoder is W / sqrt(gamma) so radiated power stays fixed.
    """

    entries: np.ndarray
    gamma: float


def _draw_entries(k_users: int, m_antennas: int, rng: np.random.Generator) -> np.ndarray:
    re = rng.standard_normal((k_users, m_antennas))
    im = rng.standard_normal((k_users, m_antennas))
    return (re + 1j * im) / np.sqrt(2.0)


def sample_channel(k_users: int, m_antennas: int, seed: int) -> ChannelMatrix:
    """Draw a K x M channel with i.i.d. CN(0, 1) entries, deterministic in the seed."""
    if k_users < 1 or m_antennas < 1:
        raise ValueError(f"channel dimensions must be positive, got K={k_users}, M={m_antennas}")
    return ChannelMatrix(_draw_entries(k_users, m_antennas, substream(seed)))


def _gram(h: ChannelMatrix) -> np.ndarray:
    """K x K Gram matrix of the channel rows; raises if singular or K > M."""
    hm = h.entries
    if h.k_users > h.m_antennas:
        raise ValueError(
            f"zero-forcing needs at least as many antennas as users (K={h.k_users}, M={h.m_antennas})"
        )
    gram = hm @ hm.conj().T
    if np.linalg.cond(gram) > SINGULAR_COND_LIMIT:
        raise ValueError("channel Gram matrix is numerically singular")
    return gram


def zf_beamformer(h: ChannelMatrix) -> BeamformingMatrix:
    """Zero-forcing precoder: the conjugate-transpose pseudo-inverse of the channel.

    Solves the K x K Hermitian system instead of forming an explicit inverse.
    The product of the channel with the result is the identity up to rounding.
    """
    gram = _gram(h)
    # gram is Hermitian, so solve(gram, H) equals W^H and W = H^H gram^{-1}.
    w = np.linalg.solve(gram, h.entries).conj().T
    gamma = float(np.vdot(w, w).real) / h.k_users
    return BeamformingMatrix(entries=w, gamma=gamma)


def gram_inverse_trace(h: ChannelMatrix) -> float:
    """tr((H H^H)^-1), the quantity controlling the common ZF SINR."""
    gram = _gram(h)
    inv = np.linalg.solve(gram, np.eye(h.k_users, dtype=np.complex128))
    return float(np.trace(inv).real)


def sinr_zf(rho: float, h: ChannelMatrix) -> float:
    """Post-beamforming SINR shared by all users: rho * K / tr((H H^H)^-1)."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return rho * h.k_users / gram_inverse_trace(h)


def sinr_per_ue(rho: float, h: ChannelMatrix) -> np.ndarray:
    """Per-user SINR evaluated from the normalized precoder itself.

    Computes signal and residual-interference powers entry by entry rather
    than through the Gram-trace shortcut; under exact zero forcing all K
    values coincide with sinr_zf.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    w = zf_beamformer(h)
    w_norm = w.entries / np.sqrt(w.gamma)
    gains = np.abs(h.entries @ w_norm) ** 2
    signal = np.diag(gains).copy()
    interference = gains.sum(axis=1) - signal
    return rho * signal / (rho * interference + 1.0)


def per_ue_rate(bandwidth: float, sinr: float) -> float:
    """Shannon rate of one user in bit/s over `bandwidth` Hz; zero iff the SINR is zero."""
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    if sinr < 0:
        raise ValueError("sinr must be nonnegative")
    return bandwidth * math.log2(1.0 + sinr)


def sum_rate_closed_form(k_users: int, m_antennas: int, rho: float, bandwidth: float) -> float:
    """Ergodic ZF sum rate K * B * log2(1 + rho * (M - K)) in bit/s."""
    if k_users < 1:
        raise ValueError("k_users must be positive")
    if m_antennas <= k_users:
        raise ValueError(f"closed form needs M > K, got K={k_users}, M={m_antennas}")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return k_users * bandwidth * math.log2(1.0 + rho * (m_antennas - k_users))


def wishart_trace_expectation(k_users: int, m_antennas: int) -> float:
    """Expected inverse Gram trace E[tr((H H^H)^-1)] = K / (M - K).

    Exact for any M > K when H has i.i.d. CN(0, 1) entries: the mean of the
    complex inverse Wishart matrix (Tague & Caldwell 1994), not only the
    large-array limit.
    """
    if k_users < 1:
        raise ValueError("k_users must be positive")
    if m_antennas <= k_users:
        raise ValueError(f"expectation needs M > K, got K={k_users}, M={m_antennas}")
    return k_users / (m_antennas - k_users)


def monte_carlo_trace(k_users: int, m_antennas: int, n_trials: int, seed: int) -> float:
    """Sample mean of tr((H H^H)^-1) over independent seeded channel draws.

    Each trial evaluates the trace as the squared Frobenius norm of the ZF
    precoder, so the estimate exercises the beamforming path end to end.
    Trial i draws from stream (seed, i); the mean is invariant to n_trials
    for any fixed prefix of trials.
    """
    if m_antennas <= k_users:
        raise ValueError(f"estimate needs M > K, got K={k_users}, M={m_antennas}")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    total = 0.0
    for i in range(n_trials):
        h = ChannelMatrix(_draw_entries(k_users, m_antennas, substream(seed, i)))
        w = zf_beamformer(h)
        total += float(np.vdot(w.entries, w.entries).real)
    return total / n_trials
