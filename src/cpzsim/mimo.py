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
one eigvalsh gives both facts a channel's inverse trace needs: its 2-norm
condition number lambda_max / lambda_min, which decides whether the channel
is numerically singular, and tr((H H^H)^-1) = sum of 1 / lambda. Since
cond(G) <= tr(G) tr(G^-1), the inverse trace also certifies most Grams without
it: the Monte Carlo trace is ||L^-1||_F^2 for G = L L^H, and the ZF precoder's
||W||_F^2 is tr(G^-1) too. Only the Grams those bounds leave undecided go to
eigvalsh.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import CHANNEL, substream

# A Gram is numerically singular unless its 2-norm condition number, the ratio
# of its extreme eigenvalues, is at most this. _eigenvalues states the rule.
SINGULAR_COND_LIMIT = 1e12

# The smallest tr(G) whose certificate zf_beamformer trusts: tr(G) u (u = 2^-53)
# is then a normal float, so rounding G's entries errs relatively, and a
# certified lambda_min >= 2 tr(G) / LIMIT > 2^-1009 keeps every 1 / lambda finite.
_MIN_CERTIFIED_TRACE = 2.0**-969

# Trials per monte_carlo_trace block. At K = 10, 1e4 trials took 71, 57, 55, 52 and
# 52 ms in blocks of 96, 144, 160, 176 and 192 (one core of a shared 2-vCPU Xeon,
# numpy 2.4), with heap peaks of 291, 425, 470, 515 and 560 KiB: 160 is the largest
# of them under the tests' 512 KiB bound.
_TRACE_BLOCK = 160


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


def zf_beamformer(h: ChannelMatrix) -> BeamformingMatrix:
    """Zero-forcing precoder: the conjugate-transpose pseudo-inverse of the channel.

    Solves the K x K Hermitian system instead of forming an explicit inverse.
    The product of the channel with the result is the identity up to rounding.
    That system is consistent even for a singular Gram, so W certifies the
    singularity rule only together with its ZF residual: ||HW - I||_F <= 1/2
    gives sigma_min(H) >= 1 / (2 ||W||_F), hence cond(G) <= 4 tr(G) ||W||_F^2,
    and a channel with tr(G) ||W||_F^2 <= SINGULAR_COND_LIMIT / 8 and tr(G) >=
    _MIN_CERTIFIED_TRACE passes the rule with _factor_traces' factor 2 to
    spare. Any other channel, and one whose solve fails, goes to _eigenvalues,
    which raises or lets W stand.
    """
    gram = _gram(h.entries)
    try:
        # gram is Hermitian, so solve(gram, H) equals W^H and W = H^H gram^{-1}.
        w = np.linalg.solve(gram, h.entries).conj().T
    except np.linalg.LinAlgError:
        _eigenvalues(gram)  # raises: LAPACK met an exactly singular pivot
        raise
    frobenius = float(np.vdot(w, w).real)
    trace_g = float(np.trace(gram).real)
    certified = (trace_g >= _MIN_CERTIFIED_TRACE
                 and trace_g * frobenius <= SINGULAR_COND_LIMIT / 8)
    if certified:
        with np.errstate(over="ignore", invalid="ignore"):
            residual = h.entries @ w - np.eye(h.k_users)
        certified = float(np.vdot(residual, residual).real) <= 0.25
    if not certified:
        _eigenvalues(gram)
    return BeamformingMatrix(entries=w, gamma=frobenius / h.k_users)


def gram_inverse_trace(h: ChannelMatrix) -> float:
    """tr((H H^H)^-1), the quantity controlling the common ZF SINR."""
    return float(np.reciprocal(_eigenvalues(_gram(h.entries))).sum())


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


@functools.cache
def _below_diagonal(k_users: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the K(K - 1) / 2 entries below the diagonal, read-only."""
    rows, cols = np.tril_indices(k_users, -1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _factor_traces(gammas: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """tr(G^-1) of each Bartlett Gram G = L L^H of a block; raises if one is numerically singular.

    Rows of gammas (n, K) and normals (n, 2, K(K - 1) / 2) are trials, laid out
    as monte_carlo_trace states; neither is modified. tr(G^-1) = ||X||_F^2 for
    X = L^-1, which forward substitution (backward stable: Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 8) gives a column of L
    at a time, in re and im arrays with the trials last and one + - * / or
    sqrt per ufunc, so a trace is the same on any CPU: X_ii = 1 / L_ii, X_ij =
    -(sum over k = j, ..., i - 1 of L_ik X_kj) / L_ii, k ascending; then re^2 +
    im^2 of each X_ij summed along each row, and the row sums top to bottom.
    One buffer holds X with L waiting in its empty entries, and one more the
    products of the largest step. A block whose products tr(G) tr(G^-1) >=
    cond(G) are all at most SINGULAR_COND_LIMIT / 2 passes _eigenvalues' rule;
    the Grams of any other block, formed from gammas and normals, go to
    _eigenvalues, which raises or lets the traces stand.
    """
    n, k_users = gammas.shape
    rows, cols = _below_diagonal(k_users)
    trace_g = gammas.sum(axis=1) + np.square(normals).sum(axis=(1, 2)) / 2
    x = np.zeros((2, k_users, k_users, n))
    # L_ij waits above the diagonal, at x[:, j, i], until step j uses column j,
    # and L_ii in X_ii's imaginary part until step i.
    x.transpose(3, 0, 2, 1)[:, :, rows, cols] = normals
    x /= np.sqrt(2.0)
    x_diagonal = x.reshape(2, k_users * k_users, n)[:, ::k_users + 1]
    diagonal = x_diagonal[1]
    np.sqrt(gammas.T, out=diagonal)
    np.divide(1.0, diagonal, out=x_diagonal[0])
    products = np.empty((2, (k_users // 2) * ((k_users + 1) // 2), n))
    # A ufunc buffer of one row of trials, rounded up to the multiple of 16 that
    # numpy 1.x requires: by default numpy 2.4 copies each strided or broadcast
    # operand below through a buffer of up to 8192 elements.
    bufsize = np.setbufsize(-(-n // 16) * 16)
    try:
        for j in range(k_users):
            row = x[:, j, :j]
            row /= diagonal[j]  # X_j0 .. X_j,j-1 from their finished, negated sums
            diagonal[j] = 0.0
            l_re, l_im = x[:, j, j + 1:, None]
            x_re, x_im = x[:, j, None, :j + 1]
            sum_re, sum_im = x[:, j + 1:, :j + 1]
            first, second = products[:, :(k_users - j - 1) * (j + 1)].reshape(
                (2,) + sum_re.shape)
            np.multiply(l_re, x_re, out=first)
            np.multiply(l_im, x_im, out=second)
            first -= second
            sum_re -= first
            np.multiply(l_re, x_im, out=first)
            np.multiply(l_im, x_re, out=second)
            first += second
            sum_im -= first
        x *= x
        squares, squares_im = x
        squares += squares_im
        row_sums = squares[:, 0].copy()
        for j in range(1, k_users):
            row_sums[j:] += squares[j:, j]  # X_ij is zero where j > i
    finally:
        np.setbufsize(bufsize)
    del x, products
    traces = row_sums[0].copy()
    for row_sum in row_sums[1:]:
        traces += row_sum
    # Why / 2: rounding L L^H and eigvalsh's backward error move lambda_min by
    # at most about c K u tr(G) (Weyl; u = 2^-53, c small), relative to it by
    # c K u tr(G) tr(G^-1) <= c K u LIMIT / 2, so a certified Gram's computed
    # ratio stays below LIMIT while c K u LIMIT < 1: c K < 9000 at 1e12.
    if not (trace_g * traces <= SINGULAR_COND_LIMIT / 2).all():
        factor = np.zeros((n, k_users, k_users), dtype=np.complex128)
        factor[:, range(k_users), range(k_users)] = np.sqrt(gammas)
        factor[:, rows, cols] = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0)
        _eigenvalues(_gram(factor))
    return traces


def monte_carlo_trace(k_users: int, m_antennas: int, n_trials: int,
                      seed: int) -> tuple[float, float]:
    """Sample mean and standard deviation of tr((H H^H)^-1) over seeded Wishart Grams.

    Each trial's Gram is drawn from the law of H H^H, the complex Wishart
    CW_K(M, I), by Bartlett's decomposition G = L L^H with L lower
    triangular. L_ii is the square root of a Gamma(M - i, 1) draw, one row
    of K per trial from stream (seed, CHANNEL, 0); the entries below the
    diagonal, in np.tril_indices(K, -1) order, are (re + 1j * im) / sqrt(2)
    from one row of K(K - 1) normals per trial (all re, then all im) of
    stream (seed, CHANNEL, 1). Blocks of _TRACE_BLOCK trials go through
    _factor_traces, which finds each trace as ||L^-1||_F^2. Both streams are read
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
    shapes = m_antennas - np.arange(k_users)
    n_below = k_users * (k_users - 1) // 2
    total = total_sq = 0.0
    for start in range(0, n_trials, _TRACE_BLOCK):
        n = min(_TRACE_BLOCK, n_trials - start)
        traces = _factor_traces(diagonal.standard_gamma(shapes, (n, k_users)),
                                below.standard_normal((n, 2, n_below)))
        # The carried totals, then each trace and its square, added left to right.
        terms = np.empty((2, n + 1))
        terms[:, 0] = total, total_sq
        terms[0, 1:] = traces
        np.square(traces, out=terms[1, 1:])
        total, total_sq = np.add.accumulate(terms, axis=1)[:, -1].tolist()
    mean = total / n_trials
    if n_trials == 1:
        return mean, math.nan
    return mean, math.sqrt(max(total_sq - total * mean, 0.0) / (n_trials - 1))
