"""Complex-Gaussian channel model, zero-forcing beamforming, and rate closed forms.

The downlink channel is a K x M matrix of i.i.d. unit-variance complex
Gaussian entries (K users, M base-station antennas, K << M in the massive
regime). Zero-forcing precoding inverts the channel so every user sees an
interference-free link whose SINR is governed by the inverse Gram trace; for
large arrays that trace concentrates around K/(M-K), which yields the sum-rate
closed form used throughout the simulator: the lower bound on the ergodic ZF
rate of Ngo, Larsson & Marzetta (IEEE TCOM 2013). A ChannelMatrix holds one
channel or an (n, K, M) stack, and each ZF function takes either, its results
carrying the stack's leading axis. Seeded channels are the successive draws of
a stream, in byte-bounded stacks; the Monte Carlo trace draws its Grams from
their law, by Bartlett's decomposition (Goodman 1963).

The Gram H H^H is Hermitian positive definite for a full-rank channel, so one
eigvalsh gives both facts a channel's inverse trace needs: its 2-norm condition
number lambda_max / lambda_min, which decides whether it is numerically singular,
and tr((H H^H)^-1) = sum of 1 / lambda. Most Grams need no eigvalsh: the Monte
Carlo trace is ||L^-1||_F^2 for G = L L^H, the ZF precoder's ||W||_F^2 is
tr(G^-1) too, and _certified decides the rule from them.
"""

import math

import numpy as np

from ._record import Record
from .rng import CHANNEL, substream

# A Gram is numerically singular unless its 2-norm condition number, the ratio
# of its extreme eigenvalues, is at most this. _eigenvalues states the rule, and
# _certified when traces prove it, for no tr(G) below _MIN_CERTIFIED_TRACE.
SINGULAR_COND_LIMIT = 1e12
_MIN_CERTIFIED_TRACE = 2.0**-969

# Trials per monte_carlo_trace block. At K = 10, 1e4 trials took 39, 35, 34, 34, 33 and
# 31 ms in blocks of 96, 128, 144, 160, 176 and 192 (one core of a shared 2-vCPU Xeon,
# numpy 2.4, Python 3.11), with heap peaks of 288, 376, 421, 465, 509 and 553 KiB: of
# the tests' 512 KiB bound, 176 would leave 3 KiB and 160 leaves 47.
_TRACE_BLOCK = 160

# Entry bytes per draw_channels stack: one 32 x 200 channel's, the largest of verify's
# checks, so no stack outgrows a lone channel (13-channel stacks cost 3.2 MB more peak RSS).
_STACK_BYTES = 102_400


class ChannelMatrix(Record, eq=False):
    """K x M downlink channel, row k user k's gain vector, or an (n, K, M) stack of them."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.ndim not in (2, 3):
            raise ValueError(f"channel must be a 2-D matrix or a 3-D stack, got ndim={e.ndim}")
        if min(e.shape) < 1:
            raise ValueError(f"channel dimensions must be positive, got {e.shape}")
        if not np.isfinite(e).all():
            raise ValueError("channel entries must be finite")
        object.__setattr__(self, "entries", e)

    @property
    def k_users(self) -> int:
        return self.entries.shape[-2]

    @property
    def m_antennas(self) -> int:
        return self.entries.shape[-1]


class BeamformingMatrix(Record, eq=False):
    """M x K zero-forcing precoder W, its power normalization factor and its residual H W - I.

    gamma is the squared Frobenius norm of W divided by the user count; the
    transmitted precoder is W / sqrt(gamma) so radiated power stays fixed. Of
    an (n, K, M) channel stack, W is (n, M, K), gamma (n,) and the residual (n, K, K).
    """

    entries: np.ndarray
    gamma: float | np.ndarray
    residual: np.ndarray


def draw_channels(rng: np.random.Generator, n: int, k_users: int, m_antennas: int):
    """The next n K x M channels of `rng`, i.i.d. CN(0, 1) entries (re + 1j * im) / sqrt(2),
    in (n_i, K, M) stacks of at most _STACK_BYTES of entries each (one channel at least)."""
    if k_users < 1 or m_antennas < 1:
        raise ValueError(f"channel dimensions must be positive, got K={k_users}, M={m_antennas}")
    per_stack = max(1, _STACK_BYTES // (16 * k_users * m_antennas))
    for start in range(0, n, per_stack):
        normals = rng.standard_normal((min(per_stack, n - start), 2, k_users, m_antennas))
        h = 1j * normals[:, 1]  # (re + 1j * im) / sqrt(2), with one temporary fewer
        h += normals[:, 0]
        h /= np.sqrt(2.0)
        yield ChannelMatrix(h)


def sample_channel(k_users: int, m_antennas: int, seed: int) -> ChannelMatrix:
    """The first channel of stream (seed, CHANNEL)."""
    return ChannelMatrix(next(draw_channels(substream(seed, CHANNEL), 1, k_users, m_antennas))
                         .entries[0])


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


def _certified(trace_g, inverse_trace, residual_sq=None) -> bool:
    """Whether tr(G) and tr(G^-1), floats or a block's arrays, prove _eigenvalues' rule.

    cond(G) <= tr(G) tr(G^-1). Rounding G and eigvalsh's backward error move
    lambda_min by c K u tr(G) at most (Weyl; u = 2^-53, c small): by less than
    half of it, so the computed ratio stays within the limit, when tr(G) tr(G^-1)
    <= SINGULAR_COND_LIMIT / 2 and c K < 9000. A ZF precoder's ||W||_F^2 =
    tr(G^-1) needs its residual too, as solve(G, H) is consistent for a singular
    G: residual_sq = ||HW - I||_F^2 <= 1/4 gives sigma_min(H) >= 1 / (2 ||W||_F),
    so cond(G) <= 4 tr(G) ||W||_F^2. Then lambda_min >= 2 tr(G) / LIMIT, and
    tr(G) >= _MIN_CERTIFIED_TRACE (tr(G) u normal, so G's rounding errs
    relatively) keeps each 1 / lambda finite.
    """
    bound = SINGULAR_COND_LIMIT / 2
    certified = trace_g >= _MIN_CERTIFIED_TRACE
    if residual_sq is not None:
        bound /= 4
        certified = certified & (residual_sq <= 0.25)
    return bool(np.all(certified & (trace_g * inverse_trace <= bound)))


def zf_beamformer(h: ChannelMatrix) -> BeamformingMatrix:
    """Zero-forcing precoder of a channel, or of each channel of a stack.

    W, H's conjugate-transpose pseudo-inverse, comes from Hermitian solves. The
    residual is formed once: _certified reads it and the precoder keeps it. A
    channel _certified leaves undecided, or whose solve fails, sends its Grams to
    _eigenvalues, which raises or lets W stand. Each norm is its channel's own np.vdot.
    """
    h = h.entries
    gram = _gram(h)
    try:
        # gram is Hermitian, so solve(gram, H) equals W^H and W = H^H gram^{-1}.
        w = np.linalg.solve(gram, h).conj().swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        _eigenvalues(gram)  # raises: LAPACK met an exactly singular pivot
        raise
    with np.errstate(over="ignore", invalid="ignore"):
        residual = h @ w - np.eye(h.shape[-2])
    frobenius, residual_sq = (
        np.array([np.vdot(a, a).real for a in x.reshape(-1, *x.shape[-2:])]).reshape(x.shape[:-2])
        for x in (w, residual))
    if not _certified(np.trace(gram, axis1=-2, axis2=-1).real, frobenius, residual_sq):
        _eigenvalues(gram)
    return BeamformingMatrix(entries=w, gamma=frobenius / h.shape[-2], residual=residual)


def gram_inverse_trace(h: ChannelMatrix) -> float | np.ndarray:
    """tr((H H^H)^-1), the quantity controlling the common ZF SINR, from one eigvalsh call."""
    return np.reciprocal(_eigenvalues(_gram(h.entries))).sum(axis=-1)


def sinr_zf(rho: float, h: ChannelMatrix) -> float | np.ndarray:
    """Post-beamforming SINR shared by all users: rho * K / tr((H H^H)^-1)."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return rho * h.k_users / gram_inverse_trace(h)


def sinr_per_ue(rho: float, h: ChannelMatrix) -> np.ndarray:
    """Per-user SINR evaluated from the normalized precoder itself, (K,) or (n, K).

    Computes signal and residual-interference powers entry by entry rather
    than through the Gram-trace shortcut; under exact zero forcing all K
    values coincide with sinr_zf.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    precoder = zf_beamformer(h)
    gains = np.abs(h.entries @ (precoder.entries / np.sqrt(precoder.gamma)[..., None, None])) ** 2
    signal = np.diagonal(gains, axis1=-2, axis2=-1)
    return rho * signal / (rho * (gains.sum(axis=-1) - signal) + 1.0)


def per_ue_rate(bandwidth: float, sinr: float) -> float:
    """Shannon rate of one user in bit/s over `bandwidth` Hz; zero iff the SINR is zero."""
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    if not 0 <= sinr < math.inf:
        raise ValueError(f"sinr must be nonnegative and finite, got {sinr}")
    return bandwidth * math.log2(1.0 + sinr)


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


def _workspace(k_users: int, n: int) -> tuple:
    """_factor_traces' X of n trials, (re, im) by i, j and trial, its diagonal and for each
    step j: row j's finished sums and L_jj, L_ij for i > j, X_j0 .. X_jj, the sums of the
    rows below and its two products, in one buffer sized for the largest step."""
    x = np.empty((2, k_users, k_users, n))
    x_diagonal = x.reshape(2, k_users * k_users, n)[:, ::k_users + 1]
    products = np.empty(2 * (k_users // 2) * ((k_users + 1) // 2) * n)
    steps = []
    for j in range(k_users):
        sums = x[:, j + 1:, :j + 1]
        steps.append((x[:, j, :j], x_diagonal[1, j], *x[:, j, j + 1:, None],
                      *x[:, j, None, :j + 1], *sums, *products[:sums.size].reshape(sums.shape)))
    return x, x_diagonal, steps


def _factor_traces(gammas: np.ndarray, normals: np.ndarray, workspace: tuple = ()) -> np.ndarray:
    """tr(G^-1) of each Bartlett Gram G = L L^H of a block; raises if one is numerically singular.

    Rows of gammas (n, K) and normals (n, 2, K(K - 1) / 2) are trials, laid out
    as monte_carlo_trace states; neither is modified. tr(G^-1) = ||X||_F^2 for
    X = L^-1, which forward substitution (backward stable: Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 8) gives a column of L
    at a time, in re and im arrays with the trials last and one + - * / or
    sqrt per ufunc, so a trace is the same on any CPU: X_ii = 1 / L_ii, X_ij =
    -(sum over k = j, ..., i - 1 of L_ik X_kj) / L_ii, k ascending; then re^2 +
    im^2 of each X_ij summed along each row, and the row sums top to bottom.
    X, in the _workspace of n trials passed or a new one, holds L waiting in its
    empty entries. A block that _certified leaves undecided sends its Grams to
    _eigenvalues, which raises or lets the traces (a new array) stand.
    """
    n, k_users = gammas.shape
    x, x_diagonal, steps = workspace or _workspace(k_users, n)
    # A ufunc buffer of one row of trials, rounded up to the multiple of 16 that
    # numpy 1.x requires: by default numpy 2.4 copies each strided or broadcast
    # operand below through a buffer of up to 8192 elements.
    bufsize = np.setbufsize(-(-n // 16) * 16)
    try:
        # einsum squares and sums the normals without a temporary of their size.
        trace_g = gammas.sum(axis=1) + np.einsum("tcb,tcb->t", normals, normals) / 2
        x.fill(0.0)  # each sum below the diagonal starts from zero
        # L_ij waits above the diagonal, at x[:, j, i], until step j uses column j,
        # and L_ii in X_ii's imaginary part until step i.
        for i in range(1, k_users):
            np.divide(normals[:, :, i * (i - 1) // 2:i * (i + 1) // 2].transpose(1, 2, 0),
                      np.sqrt(2.0), out=x[:, :i, i])
        np.sqrt(gammas.T, out=x_diagonal[1])
        np.divide(1.0, x_diagonal[1], out=x_diagonal[0])
        for row, pivot, l_re, l_im, x_re, x_im, sum_re, sum_im, first, second in steps:
            row /= pivot  # X_j0 .. X_j,j-1 from their finished, negated sums
            pivot.fill(0.0)
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
        row_sums = squares[:, 0]  # in place: column 0 gathers each row's sum
        for j in range(1, k_users):
            row_sums[j:] += squares[j:, j]  # X_ij is zero where j > i
    finally:
        np.setbufsize(bufsize)
    traces = np.add.accumulate(row_sums, axis=0, out=row_sums)[-1].copy()
    if not _certified(trace_g, traces):
        factor = np.zeros((n, k_users, k_users), dtype=np.complex128)
        factor[:, range(k_users), range(k_users)] = np.sqrt(gammas)
        rows, cols = np.tril_indices(k_users, -1)
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
    block = min(_TRACE_BLOCK, n_trials)
    gammas = np.empty((block, k_users))
    normals = np.empty((block, 2, k_users * (k_users - 1) // 2))
    workspace = _workspace(k_users, block)
    total = total_sq = 0.0
    for start in range(0, n_trials, block):
        n = min(block, n_trials - start)
        if n < block:
            workspace = ()  # the full blocks' is freed before the last block's own
        traces = _factor_traces(diagonal.standard_gamma(shapes, out=gammas[:n]),
                                below.standard_normal(out=normals[:n]), workspace)
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
