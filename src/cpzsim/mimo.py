"""Complex-Gaussian channel model, zero-forcing beamforming, and rate closed forms.

The downlink channel is a K x M matrix of i.i.d. unit-variance complex
Gaussian entries (K users, M base-station antennas, K << M in the massive
regime). Zero-forcing precoding inverts the channel so every user sees an
interference-free link whose SINR is governed by the inverse Gram trace;
for large arrays that trace concentrates around K/(M-K), which yields the
ergodic sum-rate closed form used throughout the simulator. Seeded channels
are the successive draws of stream (seed, CHANNEL); the Monte Carlo trace
draws its Grams from their law, by Bartlett's decomposition (Goodman 1963).

The Gram H H^H is Hermitian positive definite for a full-rank channel, so
one eigvalsh gives both facts the inverse trace needs: its 2-norm condition
number lambda_max / lambda_min, which decides whether the channel is
numerically singular, and tr((H H^H)^-1) = sum of 1 / lambda.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import CHANNEL, substream

# A Gram is numerically singular unless its 2-norm condition number, the ratio
# of its extreme eigenvalues, is at most this. _eigenvalues states the rule.
SINGULAR_COND_LIMIT = 1e12

# Trials per stacked monte_carlo_trace block. At K=10 a block's arrays hold about
# 100 kB each; 256 trials were at most 5% faster but added 1.2 MB of peak RSS.
_TRACE_BLOCK = 64


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
        if not np.isfinite(e).all():
            raise ValueError("channel entries must be finite")
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


def draw_channel(rng: np.random.Generator, k_users: int, m_antennas: int) -> ChannelMatrix:
    """The next K x M channel with i.i.d. CN(0, 1) entries (re + 1j * im) / sqrt(2) from `rng`."""
    if k_users < 1 or m_antennas < 1:
        raise ValueError(f"channel dimensions must be positive, got K={k_users}, M={m_antennas}")
    re, im = rng.standard_normal((2, k_users, m_antennas))
    return ChannelMatrix((re + 1j * im) / np.sqrt(2.0))


def sample_channel(k_users: int, m_antennas: int, seed: int) -> ChannelMatrix:
    """The first channel of stream (seed, CHANNEL)."""
    return draw_channel(substream(seed, CHANNEL), k_users, m_antennas)


def _gram(h: np.ndarray) -> np.ndarray:
    """Gram matrices H H^H of a (..., K, M) channel stack; raises if K > M.

    A Gram that overflows holds inf or nan, with no warning; _eigenvalues rejects it.
    """
    k_users, m_antennas = h.shape[-2:]
    if k_users > m_antennas:
        raise ValueError(
            f"zero-forcing needs at least as many antennas as users (K={k_users}, M={m_antennas})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return h @ h.conj().swapaxes(-1, -2)


def _eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (..., K, K) Gram stack; raises if any Gram is singular.

    A Gram is numerically singular unless it is finite,
    0 < lambda_max <= SINGULAR_COND_LIMIT * lambda_min (its 2-norm condition
    number is within the limit) and its inverse trace, the sum of 1 / lambda,
    is finite. Written to fail on nan, on a zero Gram, on a non-positive
    lambda_min and on a subnormal Gram, whose 1 / lambda overflows, as well.
    """
    # An overflowed Gram is singular too: eigvalsh would raise LinAlgError on it.
    if np.isfinite(gram).all():
        eig = np.linalg.eigvalsh(gram)
        low, high = eig[..., 0], eig[..., -1]
        with np.errstate(over="ignore"):
            if ((0 < high) & (high <= SINGULAR_COND_LIMIT * low)).all() \
                    and np.isfinite(np.reciprocal(eig).sum(axis=-1)).all():
                return eig
    raise ValueError("channel Gram matrix is numerically singular")


def _inverse_gram_traces(gram: np.ndarray) -> np.ndarray:
    """tr(G^-1) = sum of 1 / lambda of each Gram in a (..., K, K) stack."""
    return np.reciprocal(_eigenvalues(gram)).sum(axis=-1)


def zf_beamformer(h: ChannelMatrix) -> BeamformingMatrix:
    """Zero-forcing precoder: the conjugate-transpose pseudo-inverse of the channel.

    Solves the K x K Hermitian system instead of forming an explicit inverse.
    The product of the channel with the result is the identity up to rounding.
    """
    gram = _gram(h.entries)
    _eigenvalues(gram)  # raises if the Gram is numerically singular
    # gram is Hermitian, so solve(gram, H) equals W^H and W = H^H gram^{-1}.
    w = np.linalg.solve(gram, h.entries).conj().T
    gamma = float(np.vdot(w, w).real) / h.k_users
    return BeamformingMatrix(entries=w, gamma=gamma)


def gram_inverse_trace(h: ChannelMatrix) -> float:
    """tr((H H^H)^-1), the quantity controlling the common ZF SINR."""
    return float(_inverse_gram_traces(_gram(h.entries)))


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
    if not 0 <= sinr < math.inf:
        raise ValueError(f"sinr must be nonnegative and finite, got {sinr}")
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


def monte_carlo_trace(k_users: int, m_antennas: int, n_trials: int,
                      seed: int) -> tuple[float, float]:
    """Sample mean and standard deviation of tr((H H^H)^-1) over seeded Wishart Grams.

    Each trial's Gram is drawn from the law of H H^H, the complex Wishart
    CW_K(M, I), by Bartlett's decomposition G = L L^H with L lower
    triangular. L_ii is the square root of a Gamma(M - i, 1) draw, one row
    of K per trial from stream (seed, CHANNEL, 0); the entries below the
    diagonal, in np.tril_indices(K, -1) order, are (re + 1j * im) / sqrt(2)
    from one row of K(K - 1) normals per trial (all re, then all im) of
    stream (seed, CHANNEL, 1). Blocks of _TRACE_BLOCK trials share one
    eigvalsh for the singularity rule and the traces. Both streams are read
    in trial order and the traces and their squares are summed in it, so
    both results are the same for any block size and any fixed prefix of
    trials is the same whatever n_trials is. The standard deviation (n - 1
    in the denominator) is nan for a single trial.
    """
    if not 0 < k_users < m_antennas:
        raise ValueError(f"estimate needs 0 < K < M, got K={k_users}, M={m_antennas}")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    diagonal, below = substream(seed, CHANNEL, 0), substream(seed, CHANNEL, 1)
    diag = np.arange(k_users)
    shapes = m_antennas - diag
    rows, cols = np.tril_indices(k_users, -1)
    factors = np.zeros((min(n_trials, _TRACE_BLOCK), k_users, k_users), dtype=np.complex128)
    total = total_sq = 0.0
    for start in range(0, n_trials, _TRACE_BLOCK):
        factor = factors[:n_trials - start]
        factor[:, diag, diag] = np.sqrt(diagonal.standard_gamma(shapes, (len(factor), k_users)))
        re, im = below.standard_normal((len(factor), 2, len(rows))).swapaxes(0, 1)
        factor[:, rows, cols] = (re + 1j * im) / np.sqrt(2.0)
        for trace in _inverse_gram_traces(factor @ factor.conj().swapaxes(-1, -2)).tolist():
            total += trace
            total_sq += trace * trace
    mean = total / n_trials
    if n_trials == 1:
        return mean, math.nan
    return mean, math.sqrt(max(total_sq - total * mean, 0.0) / (n_trials - 1))
