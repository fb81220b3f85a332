"""Channel, beamforming, and rate-model tests.

Closed-form outputs are checked against independent routes: the SVD
pseudo-inverse for zero forcing, explicit per-user signal/interference
sums for the SINR, explicit Gram inversion plus Monte Carlo averaging for
the ergodic rate, and elementwise summation for norms. The eigenvalue
trace and singularity rule are checked against trace(solve(G, I)) and
np.linalg.cond. The Monte Carlo trace is checked bit for bit against a
per-trial forward substitution on Python floats, within a cond(G) K u bound
against trace(solve(G, I)), and, in mean and variance, against the traces
of drawn channels; its certificate against the blocks it sends to eigvalsh.
"""

import itertools
import math
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpzsim import mimo
from cpzsim.rng import CHANNEL, SINR_CHECK, ZF_CHECK, substream


def oracle_per_ue_sinr(rho, h_entries):
    """Per-user SINR via the SVD pseudo-inverse, one user at a time."""
    w = np.linalg.pinv(h_entries)
    k = h_entries.shape[0]
    gamma = sum(abs(w[i, j]) ** 2 for i in range(w.shape[0]) for j in range(k)) / k
    w_norm = w / math.sqrt(gamma)
    sinrs = []
    for k_idx in range(k):
        signal = rho * abs(h_entries[k_idx] @ w_norm[:, k_idx]) ** 2
        interference = rho * sum(
            abs(h_entries[k_idx] @ w_norm[:, j]) ** 2 for j in range(k) if j != k_idx
        )
        sinrs.append(signal / (interference + 1.0))
    return np.array(sinrs), interference


# ---------------------------------------------------------------------------
# sample_channel


def test_channel_and_precoder_compare_by_identity():
    h = mimo.ChannelMatrix(np.eye(2))
    assert h == h and h != mimo.ChannelMatrix(np.eye(2)) and hash(h) == object.__hash__(h)
    w = mimo.zf_beamformer(h)
    assert w == w and len({w, mimo.zf_beamformer(h)}) == 2


def test_sample_channel_is_deterministic():
    a = mimo.sample_channel(4, 16, seed=7)
    b = mimo.sample_channel(4, 16, seed=7)
    assert a.entries.shape == (4, 16)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_sample_channel_seed_changes_draw():
    a = mimo.sample_channel(4, 16, seed=7)
    b = mimo.sample_channel(4, 16, seed=8)
    assert np.any(a.entries != b.entries)


def test_sample_channel_minimal_shape():
    h = mimo.sample_channel(1, 1, seed=3)
    assert h.entries.shape == (1, 1)
    assert h.k_users == 1 and h.m_antennas == 1


@pytest.mark.parametrize("shape", [(4,), (1, 2, 3, 4)])
def test_channel_matrix_rejects_ndim_other_than_2_or_3(shape):
    with pytest.raises(ValueError, match="ndim"):
        mimo.ChannelMatrix(np.ones(shape, dtype=complex))


def test_channel_matrix_rejects_nan_in_the_last_channel_of_a_stack():
    entries = np.ones((3, 2, 4), dtype=complex)
    entries[-1, -1, -1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        mimo.ChannelMatrix(entries)


def test_channel_matrix_stack_reads_users_and_antennas_from_the_last_axes():
    h = mimo.ChannelMatrix(np.ones((5, 2, 7), dtype=complex))
    assert (h.k_users, h.m_antennas) == (2, 7)


@pytest.mark.parametrize("k,m", [(0, 4), (4, 0), (-1, 4), (4, -2)])
def test_sample_channel_rejects_bad_dims(k, m):
    with pytest.raises(ValueError):
        mimo.sample_channel(k, m, seed=0)


def test_sample_channel_moments():
    # 10^5 entries: unit variance, zero mean, within law-of-large-numbers slack.
    h = mimo.sample_channel(250, 400, seed=123)
    entries = h.entries.ravel()
    assert abs(entries.mean()) <= 0.02
    assert 0.98 <= np.mean(np.abs(entries) ** 2) <= 1.02
    # Real and imaginary parts carry half the variance each.
    assert 0.45 <= entries.real.var() <= 0.55
    assert 0.45 <= entries.imag.var() <= 0.55


# ---------------------------------------------------------------------------
# zf_beamformer and its normalization factor gamma


def test_zf_identity_channel():
    h = mimo.ChannelMatrix(np.eye(2, dtype=complex))
    w = mimo.zf_beamformer(h)
    np.testing.assert_allclose(w.entries, np.eye(2), atol=1e-12)
    assert w.gamma == pytest.approx(1.0, abs=1e-12)


def test_zf_scalar_inversion():
    h = mimo.ChannelMatrix(np.array([[2.0 + 0j]]))
    w = mimo.zf_beamformer(h)
    assert w.entries[0, 0] == pytest.approx(0.5)
    assert (h.entries @ w.entries)[0, 0] == pytest.approx(1.0)
    assert w.gamma == pytest.approx(0.25)


def test_zf_random_channel_zero_forces():
    h = mimo.sample_channel(4, 16, seed=7)
    w = mimo.zf_beamformer(h)
    assert np.max(np.abs(h.entries @ w.entries - np.eye(4))) < 1e-10


def test_zf_rejects_more_users_than_antennas():
    h = mimo.ChannelMatrix(np.ones((3, 2), dtype=complex))
    with pytest.raises(ValueError):
        mimo.zf_beamformer(h)


def test_zf_rejects_singular_channel():
    row = mimo.sample_channel(1, 8, seed=11).entries
    h = mimo.ChannelMatrix(np.vstack([row, row]))
    with pytest.raises(ValueError):
        mimo.zf_beamformer(h)


def certificate_product(h):
    """tr(G) ||W||_F^2, the product zf_beamformer's certificate bounds."""
    w = mimo.zf_beamformer(h).entries
    return float(np.trace(mimo._gram(h.entries)).real) * float(np.vdot(w, w).real)


@pytest.mark.parametrize("k, m", [(1, 2), (2, 16), (10, 200), (32, 64)])
def test_zf_beamformer_certifies_a_well_conditioned_channel_without_eigvalsh(monkeypatch, k, m):
    calls = []
    monkeypatch.setattr(mimo, "_eigenvalues", calls.append)
    for seed in range(5):
        mimo.zf_beamformer(mimo.sample_channel(k, m, seed))
    assert calls == []


def test_zf_certificate_sends_exactly_the_channels_over_an_eighth_of_the_limit(monkeypatch):
    # Each limit is 4 times the sum of two neighbouring products tr(G) ||W||_F^2,
    # so an eighth of it lies halfway between them. The spy records the Grams
    # that reach _eigenvalues without deciding them.
    channels = [channel_with_gram_cond(4, 16, cond, 1) for cond in np.geomspace(1e1, 1e9, 9)]
    products = sorted(certificate_product(h) for h in channels)
    calls = []
    monkeypatch.setattr(mimo, "_eigenvalues", calls.append)
    for i, (low, high) in enumerate(zip(products, products[1:])):
        calls.clear()
        monkeypatch.setattr(mimo, "SINGULAR_COND_LIMIT", 4 * (low + high))
        for h in channels:
            mimo.zf_beamformer(h)
        assert len(calls) == len(channels) - 1 - i


def test_zf_certificate_leaves_a_tiny_trace_to_eigvalsh(monkeypatch):
    # tr(G) near 1e-295 is below _MIN_CERTIFIED_TRACE, though the Gram is well
    # conditioned and its 1 / lambda finite: eigvalsh decides it, and passes it.
    h = mimo.ChannelMatrix(mimo.sample_channel(2, 8, 3).entries * 1e-148)
    assert 0 < np.trace(mimo._gram(h.entries)).real < mimo._MIN_CERTIFIED_TRACE
    assert certificate_product(h) < mimo.SINGULAR_COND_LIMIT / 8
    calls = []
    eigenvalues = mimo._eigenvalues
    monkeypatch.setattr(mimo, "_eigenvalues", lambda gram: calls.append(eigenvalues(gram)))
    w = mimo.zf_beamformer(h)
    assert len(calls) == 1
    assert np.max(np.abs(h.entries @ w.entries - np.eye(2))) < 1e-12


# cli._check_zf_identity's eight shapes, and the tiny-trace channel above.
@pytest.mark.parametrize("k, m, scale", [
    *[(k, m, 1.0) for k in (2, 8, 32) for m in (16, 64, 200) if k < m],
    pytest.param(2, 8, 1e-148, id="tiny_trace")])
def test_zf_residual_is_the_product_it_hands_over(k, m, scale):
    # cli._check_zf_identity prints max |residual|, so it has to be H W - I itself,
    # also where the certificate forms it but leaves the channel to eigvalsh.
    h = mimo.ChannelMatrix(mimo.sample_channel(k, m, 3).entries * scale)
    w = mimo.zf_beamformer(h)
    assert np.array_equal(w.residual, h.entries @ w.entries - np.eye(k))


@pytest.mark.parametrize("c", [0.01, 0.03, 0.5, 1.0])
def test_certificate_needs_a_residual_within_a_half(c):
    # H = diag(1, 1e-7) (M = 3) has cond(G) = 1e14, over the limit. This W inverts
    # the strong user and a fraction c of the weak one: ||HW - I||_F^2 = (1 - c)^2
    # and tr(G) ||W||_F^2 = 1 + (1e7 c)^2, under an eighth of the limit for
    # c <= 0.03. Any c > 0 makes HW invertible, but only a residual within 1/2
    # (c >= 1/2) bounds sigma_min(H), and then the product is over it.
    h = np.array([[1, 0, 0], [0, 1e-7, 0]], dtype=complex)
    w = np.array([[1, 0], [0, c / 1e-7], [0, 0]], dtype=complex)
    gram = mimo._gram(h)
    residual = h @ w - np.eye(2)
    with pytest.raises(ValueError, match="numerically singular"):
        mimo._eigenvalues(gram)
    assert not mimo._certified(float(np.trace(gram).real), float(np.vdot(w, w).real),
                               float(np.vdot(residual, residual).real))


@pytest.mark.parametrize("name", ["lapack", "repeated_row"])
def test_zf_beamformer_rejects_singular_grams_without_warning(name):
    # test_overflowing_or_zero_gram_is_singular_without_warning has the
    # subnormal and overflowing Grams.
    row = mimo.sample_channel(1, 8, seed=11).entries
    entries = {"lapack": np.ones((2, 3), dtype=complex),
               "repeated_row": np.vstack([row, row])}[name]
    gram = mimo._gram(entries)
    if name == "lapack":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, entries)
    if name == "repeated_row":
        # solve(G, H) is consistent: its W alone would pass the certificate.
        w = np.linalg.solve(gram, entries).conj().T
        assert np.trace(gram).real * np.vdot(w, w).real < mimo.SINGULAR_COND_LIMIT / 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="numerically singular"):
            mimo.zf_beamformer(mimo.ChannelMatrix(entries))


def test_normalization_factor_identity():
    w = mimo.zf_beamformer(mimo.ChannelMatrix(np.eye(2, dtype=complex)))
    assert w.gamma == pytest.approx(1.0)


def test_normalization_factor_matches_elementwise_sum():
    w = mimo.zf_beamformer(mimo.sample_channel(5, 24, seed=42))
    oracle = sum(abs(w.entries[i, j]) ** 2
                 for i in range(w.entries.shape[0])
                 for j in range(w.entries.shape[1])) / 5
    assert w.gamma == pytest.approx(oracle, rel=1e-12)


@given(st.integers(1, 6), st.integers(0, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_zf_property_zero_forcing(k, extra_m, seed):
    h = mimo.sample_channel(k, k + extra_m, seed)
    w = mimo.zf_beamformer(h)
    assert np.max(np.abs(h.entries @ w.entries - np.eye(k))) < 1e-9


@given(st.integers(2, 8), st.integers(4, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_trace_identity_per_realization(k, extra_m, seed):
    # Inverse Gram trace and squared precoder norm are the same quantity.
    h = mimo.sample_channel(k, k + extra_m, seed)
    w = mimo.zf_beamformer(h)
    w_norm_sq = float(np.vdot(w.entries, w.entries).real)
    trace = mimo.gram_inverse_trace(h)
    assert abs(trace - w_norm_sq) / w_norm_sq < 1e-10


# ---------------------------------------------------------------------------
# SINR


def test_sinr_orthonormal_rows_gives_rho():
    h = mimo.ChannelMatrix(np.eye(8, dtype=complex)[:3])
    assert mimo.sinr_zf(2.5, h) == pytest.approx(2.5, rel=1e-12)


def test_sinr_zero_rho():
    h = mimo.sample_channel(4, 16, seed=1)
    assert mimo.sinr_zf(0.0, h) == 0.0


def test_sinr_rejects_negative_rho():
    h = mimo.sample_channel(2, 8, seed=1)
    with pytest.raises(ValueError):
        mimo.sinr_zf(-0.1, h)


def test_sinr_matches_per_ue_oracle():
    h = mimo.sample_channel(4, 16, seed=7)
    rho = 3.0
    oracle, last_interference = oracle_per_ue_sinr(rho, h.entries)
    common = mimo.sinr_zf(rho, h)
    np.testing.assert_allclose(oracle, common, rtol=1e-9)
    assert last_interference < 1e-18
    # Uniform across users.
    assert (oracle.max() - oracle.min()) / oracle.mean() < 1e-9


def test_sinr_per_ue_matches_trace_route():
    h = mimo.sample_channel(10, 200, seed=5)
    per_ue = mimo.sinr_per_ue(0.7, h)
    common = mimo.sinr_zf(0.7, h)
    np.testing.assert_allclose(per_ue, common, rtol=1e-9)


def test_sinr_equals_rho_over_gamma():
    h = mimo.sample_channel(6, 32, seed=9)
    w = mimo.zf_beamformer(h)
    assert mimo.sinr_zf(1.3, h) == pytest.approx(1.3 / w.gamma, rel=1e-10)


# ---------------------------------------------------------------------------
# Channel stacks, as the verify checks run them, against one channel at a time

# cli._check_zf_identity's eight shapes, 13 channels each.
ZF_DIMS = [(k, m) for k in (2, 8, 32) for m in (16, 64, 200) if k < m]


def check_stacks(seed):
    """The verify checks' channel stacks: each ZF shape's, then the SINR check's 20 channels."""
    rng = substream(seed, ZF_CHECK)
    return ([h for k, m in ZF_DIMS for h in mimo.draw_channels(rng, 13, k, m)]
            + list(mimo.draw_channels(substream(seed, SINR_CHECK), 20, 10, 200)))


def one_channel_zf(h):
    """W, ||W||_F^2 and H W - I of one 2-D channel, by the one-channel arithmetic."""
    w = np.linalg.solve(h @ h.conj().T, h).conj().T
    return w, float(np.vdot(w, w).real), h @ w - np.eye(len(h))


def one_channel_sinrs(rho, h):
    """Per-user and common SINR of one 2-D channel, by the one-channel arithmetic."""
    w, frobenius, _ = one_channel_zf(h)
    gains = np.abs(h @ (w / np.sqrt(frobenius / len(h)))) ** 2
    signal = np.diag(gains).copy()
    per_ue = rho * signal / (rho * (gains.sum(axis=1) - signal) + 1.0)
    return per_ue, rho * len(h) / float(np.reciprocal(np.linalg.eigvalsh(h @ h.conj().T)).sum())


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_channel_stacks_are_n_channel_draws(seed):
    # Stacks hold as many channels as fit in _STACK_BYTES of entries, one at least.
    for n, k, m, sizes in [(13, 2, 16, [13]), (13, 8, 200, [4, 4, 4, 1]), (13, 32, 200, 13 * [1]),
                           (20, 10, 200, [3, 3, 3, 3, 3, 3, 2]), (1, 1, 1, [1])]:
        stacked, single, reference = (substream(seed, ZF_CHECK) for _ in range(3))
        stacks = [h.entries for h in mimo.draw_channels(stacked, n, k, m)]
        assert [len(h) for h in stacks] == sizes
        assert all(h.nbytes <= mimo._STACK_BYTES for h in stacks if len(h) > 1)
        stack = np.concatenate(stacks)
        assert same_bits(stack, [next(mimo.draw_channels(single, 1, k, m)).entries[0]
                                 for _ in range(n)])
        normals = [reference.standard_normal((2, k, m)) for _ in range(n)]
        assert same_bits(stack, [(re + 1j * im) / np.sqrt(2.0) for re, im in normals])
        # All three streams are left at the same place.
        assert len({rng.random() for rng in (stacked, single, reference)}) == 1


@pytest.mark.parametrize("seed", range(4))
def test_zero_forcing_stack_equals_each_channel_alone(seed):
    for h in check_stacks(seed):
        stacked = mimo.zf_beamformer(h)
        for i, one in enumerate(h.entries):
            precoder = mimo.zf_beamformer(mimo.ChannelMatrix(one))
            expected_w, expected_frobenius, expected_residual = one_channel_zf(one)
            expected_gamma = (expected_frobenius / len(one)).hex()
            assert same_bits(stacked.entries[i], expected_w)
            assert same_bits(precoder.entries, expected_w)
            assert same_bits(stacked.residual[i], expected_residual)
            assert same_bits(precoder.residual, expected_residual)
            assert stacked.gamma[i].hex() == precoder.gamma.hex() == expected_gamma


@pytest.mark.parametrize("seed", range(4))
def test_sinr_stacks_equal_each_channel_alone(seed):
    for h in check_stacks(seed):
        for rho in (1.0, 0.7):
            per_ue, common = mimo.sinr_per_ue(rho, h), mimo.sinr_zf(rho, h)
            for i, one in enumerate(h.entries):
                expected_per_ue, expected_common = one_channel_sinrs(rho, one)
                channel = mimo.ChannelMatrix(one)
                assert same_bits(per_ue[i], expected_per_ue)
                assert same_bits(mimo.sinr_per_ue(rho, channel), expected_per_ue)
                assert common[i].hex() == expected_common.hex()
                assert mimo.sinr_zf(rho, channel).hex() == expected_common.hex()


# ---------------------------------------------------------------------------
# Rates


def test_per_ue_rate_zero_sinr():
    assert mimo.per_ue_rate(5e6, 0.0) == 0.0


def test_per_ue_rate_log2_point():
    assert mimo.per_ue_rate(5e6, 1.0) == pytest.approx(5e6)


def test_per_ue_rate_peak_point():
    # sinr 15 over 5 MHz: log2(16) = 4 -> 20 Mb/s.
    assert mimo.per_ue_rate(5e6, 15.0) == pytest.approx(20e6)


def test_per_ue_rate_rejects_negative_sinr():
    with pytest.raises(ValueError):
        mimo.per_ue_rate(5e6, -1e-9)


@pytest.mark.parametrize("sinr", [math.inf, math.nan])
def test_per_ue_rate_rejects_non_finite_sinr(sinr):
    with pytest.raises(ValueError, match="sinr"):
        mimo.per_ue_rate(5e6, sinr)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan])
def test_per_ue_rate_rejects_non_positive_bandwidth(bandwidth):
    with pytest.raises(ValueError, match="bandwidth"):
        mimo.per_ue_rate(bandwidth, 1.0)


def test_sum_rate_zero_rho():
    assert mimo.sum_rate_closed_form(10, 200, 0.0, 5e6) == 0.0


def test_sum_rate_single_user_point():
    assert mimo.sum_rate_closed_form(1, 2, 1.0, 1.0) == pytest.approx(1.0)


def test_sum_rate_table_point():
    rate = mimo.sum_rate_closed_form(10, 200, 15.0 / 190.0, 5e6)
    assert rate == pytest.approx(200e6, rel=1e-12)


def test_sum_rate_rejects_k_not_less_than_m():
    with pytest.raises(ValueError):
        mimo.sum_rate_closed_form(10, 10, 1.0, 5e6)


def test_sum_rate_strictly_increasing_in_rho():
    rhos = np.geomspace(1e-3, 10.0, 20)
    rates = [mimo.sum_rate_closed_form(10, 200, float(r), 5e6) for r in rhos]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_sum_rate_increasing_in_m():
    r1 = mimo.sum_rate_closed_form(10, 100, 0.5, 5e6)
    r2 = mimo.sum_rate_closed_form(10, 200, 0.5, 5e6)
    assert r1 < r2


def test_sum_rate_against_monte_carlo():
    # Average the per-draw ergodic rate using explicit Gram inversion.
    k, m, rho, bandwidth = 10, 200, 15.0 / 190.0, 5e6
    draws = 2000
    total = 0.0
    for i in range(draws):
        h = mimo.sample_channel(k, m, seed=900_000 + i)
        trace = float(np.trace(np.linalg.inv(h.entries @ h.entries.conj().T)).real)
        total += k * bandwidth * math.log2(1.0 + rho * k / trace)
    mc = total / draws
    closed = mimo.sum_rate_closed_form(k, m, rho, bandwidth)
    assert abs(closed - mc) / mc < 0.05


# ---------------------------------------------------------------------------
# Wishart trace


def test_wishart_expectation_values():
    assert mimo.wishart_trace_expectation(10, 200) == pytest.approx(10 / 190)
    assert mimo.wishart_trace_expectation(1, 2) == 1.0


def test_wishart_expectation_rejects_m_not_greater():
    with pytest.raises(ValueError):
        mimo.wishart_trace_expectation(10, 10)


def test_monte_carlo_trace_small_case_converges():
    # K = 1, M = 3: the trace is 1 / Gamma(3, 1), of mean 1 / 2 and variance
    # 1 / ((M - 1)(M - 2)) - 1 / 4 = 1 / 4. (At M = 2 the variance is infinite.)
    n = 10_000
    est, _ = mimo.monte_carlo_trace(1, 3, n_trials=n, seed=0)
    assert abs(est - 0.5) < 5 * math.sqrt(0.25 / n)


def test_monte_carlo_trace_single_trial_reproducible():
    a, std = mimo.monte_carlo_trace(10, 200, n_trials=1, seed=77)
    b, _ = mimo.monte_carlo_trace(10, 200, n_trials=1, seed=77)
    assert a == b
    assert math.isnan(std)  # no spread from one trial


def test_monte_carlo_trace_prefix_stable():
    # Trials are successive draws of one stream, so extending the run keeps the prefix.
    short = mimo.monte_carlo_trace(4, 32, n_trials=10, seed=5)
    long = mimo.monte_carlo_trace(4, 32, n_trials=20, seed=5)
    rerun = mimo.monte_carlo_trace(4, 32, n_trials=10, seed=5)
    assert short == rerun
    assert short != long


def test_monte_carlo_trace_validation():
    with pytest.raises(ValueError):
        mimo.monte_carlo_trace(10, 10, n_trials=10, seed=0)
    with pytest.raises(ValueError):
        mimo.monte_carlo_trace(2, 8, n_trials=0, seed=0)


# ---------------------------------------------------------------------------
# Stacked blocks of monte_carlo_trace against the per-trial computation

BLOCK = mimo._TRACE_BLOCK


def oracle_factor(k, gammas, normals):
    """Bartlett's L from one trial's K gammas and its (re, im) rows of K(K - 1) / 2 normals."""
    below = iter((normals[0] + 1j * normals[1]) / np.sqrt(2.0))
    low = np.zeros((k, k), dtype=complex)
    for i in range(k):
        low[i, i] = math.sqrt(gammas[i])
        for j in range(i):
            low[i, j] = next(below)
    return low


def oracle_draws(k, m, n_trials, seed):
    """Per trial, one gamma row of child 0 and one (re, im) pair of normal rows of child 1."""
    diagonal, below = substream(seed, CHANNEL, 0), substream(seed, CHANNEL, 1)
    shapes = [m - i for i in range(k)]
    return [(diagonal.standard_gamma(shapes), below.standard_normal((2, k * (k - 1) // 2)))
            for _ in range(n_trials)]


def oracle_factors(k, m, n_trials, seed):
    """Per-trial Bartlett factors."""
    return [oracle_factor(k, gammas, normals)
            for gammas, normals in oracle_draws(k, m, n_trials, seed)]


def oracle_eigenvalues(k, m, n_trials, seed):
    """Per-trial eigenvalues of the Wishart Grams L L^H."""
    return [np.linalg.eigvalsh(low @ low.conj().T)
            for low in oracle_factors(k, m, n_trials, seed)]


def oracle_trace(k, gammas, normals):
    """||L^-1||_F^2 of one trial's factor by forward substitution on Python floats.

    X_ii = 1 / L_ii and X_ij = -(sum of L_im X_mj over m = j, ..., i - 1) / L_ii,
    each sum added left to right from 0.0, a complex product as (ac - bd, ad + bc);
    then re^2 + im^2 of each row's entries left to right, and the row sums top
    to bottom. Python floats round every operation alone (no fused multiply-add).
    """
    root2 = math.sqrt(2.0)
    below = iter(zip(normals[0].tolist(), normals[1].tolist()))
    low = [[(re / root2, im / root2) for re, im in itertools.islice(below, i)]
           for i in range(k)]
    x = []
    trace = 0.0
    for i in range(k):
        diagonal = math.sqrt(float(gammas[i]))
        row = []
        for j in range(i):
            s_re = s_im = 0.0
            for m in range(j, i):
                (a, b), (c, d) = low[i][m], x[m][j]
                s_re += a * c - b * d
                s_im += a * d + b * c
            row.append((-s_re / diagonal, -s_im / diagonal))
        row.append((1.0 / diagonal, 0.0))
        x.append(row)
        row_sum = 0.0
        for re, im in row:
            row_sum += re * re + im * im
        trace += row_sum
    return trace


def oracle_traces(k, m, n_trials, seed):
    """tr((L L^H)^-1) = ||L^-1||_F^2, one trial at a time."""
    return [oracle_trace(k, gammas, normals)
            for gammas, normals in oracle_draws(k, m, n_trials, seed)]


def oracle_monte_carlo_trace(k, m, n_trials, seed):
    """The traces summed in trial order."""
    total = 0.0
    for trace in oracle_traces(k, m, n_trials, seed):
        total += trace
    return total / n_trials


def oracle_conds(k, m, n_trials, seed):
    """Per-trial 2-norm condition numbers lambda_max / lambda_min of the Grams."""
    return [float(eig[-1] / eig[0]) for eig in oracle_eigenvalues(k, m, n_trials, seed)]


# One trial, partial first blocks, and the sizes around one and two full blocks,
# named by their offsets so that a change of block renames no case.
@pytest.mark.parametrize("n_trials", [
    1, 15, 16, 17, 35,
    pytest.param(BLOCK - 1, id="block-1"), pytest.param(BLOCK, id="block"),
    pytest.param(BLOCK + 1, id="block+1"), pytest.param(2 * BLOCK + 3, id="2block+3")])
@pytest.mark.parametrize("m, seed", [(6, 11), (12, 2**40)])
def test_monte_carlo_trace_equals_per_trial_oracle(n_trials, m, seed):
    for k in range(1, m):
        mean, std = mimo.monte_carlo_trace(k, m, n_trials, seed)
        assert mean == oracle_monte_carlo_trace(k, m, n_trials, seed)
        if n_trials == 1:
            assert math.isnan(std)
        else:
            # The running sum of squares cancels about 3 digits at these spreads.
            assert std == pytest.approx(statistics.stdev(oracle_traces(k, m, n_trials, seed)),
                                        rel=1e-9)


@pytest.mark.parametrize("block", [1, 16, 17, 96])
def test_monte_carlo_trace_is_independent_of_block_size(monkeypatch, block):
    # A small shape, and verify's K = 10, M = 200 over two blocks and a part.
    shapes = [(4, 9, 40), (10, 200, 2 * BLOCK + 3)]
    expected = [mimo.monte_carlo_trace(k, m, n_trials, 3) for k, m, n_trials in shapes]
    monkeypatch.setattr(mimo, "_TRACE_BLOCK", block)
    assert [mimo.monte_carlo_trace(k, m, n_trials, 3) for k, m, n_trials in shapes] == expected


def test_child_streams_are_the_spawned_children():
    # substream builds the children without Generator.spawn (numpy >= 1.25).
    if not hasattr(np.random.Generator, "spawn"):
        pytest.skip("numpy has no Generator.spawn")
    for i, spawned in enumerate(substream(9, CHANNEL).spawn(2)):
        assert spawned.random(4).tolist() == substream(9, CHANNEL, i).random(4).tolist()


def test_trial_i_factor_is_row_i_of_each_child_stream(monkeypatch):
    # The blocks read both children of (seed, CHANNEL) in trial order: trial i's
    # trace is that of the factor from the gammas in row i of one draw of child 0
    # and the normals in row i of one draw of child 1, whatever block it falls in.
    blocks = []
    factor_traces = mimo._factor_traces

    def spy(gammas, normals, workspace):
        blocks.append((gammas.copy(), normals.copy(), factor_traces(gammas, normals, workspace)))
        return blocks[-1][2]

    monkeypatch.setattr(mimo, "_factor_traces", spy)
    k, m, seed, n_trials = 3, 7, 40, BLOCK + 2
    mimo.monte_carlo_trace(k, m, n_trials, seed)
    assert [len(gammas) for gammas, _, _ in blocks] == [BLOCK, 2]
    gammas = substream(seed, CHANNEL, 0).standard_gamma([m, m - 1, m - 2], size=(n_trials, k))
    normals = substream(seed, CHANNEL, 1).standard_normal((n_trials, 2, 3))
    assert np.concatenate([block[0] for block in blocks]).tobytes() == gammas.tobytes()
    assert np.concatenate([block[1] for block in blocks]).tobytes() == normals.tobytes()
    assert np.concatenate([block[2] for block in blocks]).tolist() == [
        oracle_trace(k, g, n) for g, n in zip(gammas, normals)]


def test_monte_carlo_trace_singular_trial_in_first_block(monkeypatch):
    monkeypatch.setattr(mimo, "SINGULAR_COND_LIMIT", 0.5)  # every condition number is >= 1
    with pytest.raises(ValueError, match="numerically singular"):
        mimo.monte_carlo_trace(4, 8, 2 * BLOCK + 3, seed=0)


def test_monte_carlo_trace_singular_trial_in_later_block(monkeypatch):
    # The first seed from 0 on whose worst condition number falls after the first
    # block (about every other seed), so some later trial is over the limit.
    k, m, n_trials = 5, 6, 2 * BLOCK + 3
    for seed in range(20):
        conds = oracle_conds(k, m, n_trials, seed)
        first = max(conds[:BLOCK])
        later = [cond for cond in conds[BLOCK:] if cond > first]
        if later:
            break
    assert later
    # Halfway between, so rounding in lambda_max <= limit * lambda_min cannot move a trial.
    limit = (first + min(later)) / 2
    monkeypatch.setattr(mimo, "SINGULAR_COND_LIMIT", limit)
    mean, _ = mimo.monte_carlo_trace(k, m, BLOCK, seed)
    assert mean == oracle_monte_carlo_trace(k, m, BLOCK, seed)
    with pytest.raises(ValueError, match="numerically singular"):
        mimo.monte_carlo_trace(k, m, n_trials, seed)


def eigenvalue_calls(monkeypatch):
    """The sizes of the Gram stacks that reach _eigenvalues from now on."""
    calls = []
    eigenvalues = mimo._eigenvalues
    monkeypatch.setattr(mimo, "_eigenvalues",
                        lambda gram: calls.append(len(gram)) or eigenvalues(gram))
    return calls


def test_verify_trace_certifies_every_block_without_eigvalsh(monkeypatch):
    calls = eigenvalue_calls(monkeypatch)
    mimo.monte_carlo_trace(10, 200, 10_000, 0)
    assert calls == []


def test_blocks_sent_to_eigvalsh_keep_their_traces(monkeypatch):
    # tr(G) tr(G^-1) >= K^2 (Cauchy-Schwarz on the eigenvalues), while these
    # Grams' condition numbers are about 3: at a limit of K^2 every block
    # fails the certificate and passes eigvalsh.
    k, m, n_trials, seed = 10, 200, 2 * BLOCK + 3, 0
    assert max(oracle_conds(k, m, n_trials, seed)) < k * k / 2
    certified = [x.hex() for x in mimo.monte_carlo_trace(k, m, n_trials, seed)]
    calls = eigenvalue_calls(monkeypatch)
    monkeypatch.setattr(mimo, "SINGULAR_COND_LIMIT", k * k)
    assert [x.hex() for x in mimo.monte_carlo_trace(k, m, n_trials, seed)] == certified
    assert calls == [BLOCK, BLOCK, 3]


def test_certificate_sends_exactly_the_blocks_over_half_the_limit(monkeypatch):
    # Each limit is the sum of two neighbouring block maxima of tr(G) tr(G^-1),
    # so half of it lies between them, far from any product's rounding. The spy
    # records the blocks that reach _eigenvalues without deciding them.
    k, m, n_blocks, seed = 5, 8, 12, 3
    draws = oracle_draws(k, m, n_blocks * BLOCK, seed)
    products = [(math.fsum(g) + math.fsum(n.ravel() ** 2) / 2) * oracle_trace(k, g, n)
                for g, n in draws]
    maxima = sorted(max(products[b * BLOCK:(b + 1) * BLOCK]) for b in range(n_blocks))
    calls = []
    monkeypatch.setattr(mimo, "_eigenvalues", calls.append)
    for i, (low, high) in enumerate(zip(maxima, maxima[1:])):
        calls.clear()
        monkeypatch.setattr(mimo, "SINGULAR_COND_LIMIT", low + high)
        mimo.monte_carlo_trace(k, m, n_blocks * BLOCK, seed)
        assert len(calls) == n_blocks - 1 - i


def test_factor_traces_leave_a_tiny_trace_to_eigvalsh(monkeypatch):
    # Bartlett's tr(G) is a sum of K Gamma(>= 2) draws; scaled by 1e-300 it is
    # below _MIN_CERTIFIED_TRACE, and eigvalsh decides the block (and passes it).
    k, m, n = 4, 9, 5
    rng = np.random.default_rng(0)
    gammas = rng.standard_gamma(m - np.arange(k), (n, k))
    normals = rng.standard_normal((n, 2, k * (k - 1) // 2))
    calls = eigenvalue_calls(monkeypatch)
    traces = mimo._factor_traces(gammas, normals)
    assert calls == []
    tiny = mimo._factor_traces(gammas * 1e-300, normals * 1e-150)
    trace_g = gammas.sum(axis=1) + np.square(normals).sum(axis=(1, 2)) / 2
    assert (trace_g * 1e-300 < mimo._MIN_CERTIFIED_TRACE).all()
    assert calls == [n]
    np.testing.assert_allclose(tiny, traces * 1e300, rtol=1e-12)


# ---------------------------------------------------------------------------
# Bartlett's Wishart Grams against Grams of drawn channels


def bartlett_traces(monkeypatch, k, m, n_trials, seed):
    """monte_carlo_trace's per-trial traces, in trial order."""
    blocks = []
    factor_traces = mimo._factor_traces
    monkeypatch.setattr(mimo, "_factor_traces",
                        lambda *block: blocks.append(factor_traces(*block)) or blocks[-1])
    mimo.monte_carlo_trace(k, m, n_trials, seed)
    monkeypatch.setattr(mimo, "_factor_traces", factor_traces)
    return np.concatenate(blocks)


def moments(x):
    """Mean, variance (n - 1) and fourth central moment of a sample."""
    mean = x.mean()
    return mean, x.var(ddof=1), np.mean((x - mean) ** 4)


@pytest.mark.parametrize("k, m, n_trials", [(4, 32, 20_000), (10, 200, 2_000)])
def test_bartlett_traces_match_channel_traces(monkeypatch, k, m, n_trials):
    # Two independent samples of tr(G^-1): Bartlett's Grams, and Grams of the
    # channels of stream (seed, CHANNEL). Means and variances agree within 5
    # standard errors; a sample variance's is sqrt((mu_4 - sigma^4) / n).
    seed = 1
    rng = substream(seed, CHANNEL)
    channel = np.concatenate([mimo.gram_inverse_trace(h)
                              for h in mimo.draw_channels(rng, n_trials, k, m)])
    (mean_b, var_b, mu4_b), (mean_c, var_c, mu4_c) = (
        moments(bartlett_traces(monkeypatch, k, m, n_trials, seed)), moments(channel))
    z_mean = (mean_b - mean_c) / math.sqrt((var_b + var_c) / n_trials)
    z_var = (var_b - var_c) / math.sqrt((mu4_b - var_b**2 + mu4_c - var_c**2) / n_trials)
    assert abs(z_mean) < 5 and abs(z_var) < 5, (z_mean, z_var)


@pytest.mark.parametrize("n_trials", [1_000, 20_000, pytest.param(2 * BLOCK + 3, id="2block+3")])
def test_monte_carlo_trace_heap_peak_is_bounded(n_trials):
    # The blocks reuse one factor buffer, so the peak is one block's arrays plus
    # about 56 B per block, which tracemalloc counts as live: each block frees
    # one more 2-tuple onto CPython's tuple free list than it takes from it
    # (sys._debugmallocstats on 3.11: 391 free at block 100, 591 at block 300).
    # No reference holds them, as every collection finds nothing unreachable;
    # only a full one, gc.collect(2), empties the list. The list keeps at most
    # 2000 tuples of a size, so the growth stops near 110 KiB. It is under
    # 8 KiB at the sizes here, and crosses the bound from about 1.3e5 trials.
    tracemalloc.start()
    try:
        mimo.monte_carlo_trace(10, 200, n_trials, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, f"heap peak {peak / 1024:.0f} KiB at _TRACE_BLOCK = {BLOCK}"


# ---------------------------------------------------------------------------
# The eigenvalue trace and the singularity rule against solve and cond

EPS = np.finfo(float).eps


def channel_with_gram_cond(k, m, cond, seed):
    """A K x M channel U S V^H whose Gram U S^2 U^H has eigenvalues from 1 down to 1 / cond."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
    s = np.sqrt(np.geomspace(1.0, 1.0 / cond, k))
    return mimo.ChannelMatrix((u * s) @ v.conj().T)


def solve_trace(h):
    gram = h.entries @ h.entries.conj().T
    return float(np.trace(np.linalg.solve(gram, np.eye(h.k_users))).real)


@given(st.integers(1, 12), st.integers(0, 200), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gram_inverse_trace_matches_solve_on_wishart_grams(k, extra_m, seed):
    # M >= 2K keeps a Wishart Gram well conditioned; the next test bounds the rest.
    h = mimo.sample_channel(k, 2 * k + extra_m, seed)
    expected = solve_trace(h)
    assert abs(mimo.gram_inverse_trace(h) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("cond", [1e2, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("k, m, seed", [(2, 4, 1), (10, 200, 2), (16, 16, 3)])
def test_gram_inverse_trace_matches_solve_on_ill_conditioned_grams(k, m, seed, cond):
    # Both routes err by about eps * cond(G) relative, so the bound scales with it.
    h = channel_with_gram_cond(k, m, cond, seed)
    bound = 64 * EPS * np.linalg.cond(h.entries @ h.entries.conj().T)
    expected = solve_trace(h)
    assert abs(mimo.gram_inverse_trace(h) - expected) <= bound * expected


U = EPS / 2  # unit roundoff


def assert_within_cond_bound_of_solve(trace, low):
    # Solving with G errs by a few K u cond(G) relative; substitution on L by
    # about K u sqrt(cond(G)); each trace's sums add a few u more. 8 K u cond(G)
    # bounds the gap.
    gram = low @ low.conj().T
    expected = float(np.trace(np.linalg.solve(gram, np.eye(len(low)))).real)
    assert abs(trace - expected) <= 8 * len(low) * U * np.linalg.cond(gram) * expected


@pytest.mark.parametrize("k, m", [(1, 2), (3, 4), (10, 200), (12, 13)])
def test_factor_traces_match_solve_on_wishart_grams(k, m):
    draws = oracle_draws(k, m, 200, 5)
    gammas, normals = (np.array(rows) for rows in zip(*draws))
    for trace, (g, n) in zip(mimo._factor_traces(gammas, normals).tolist(), draws):
        assert_within_cond_bound_of_solve(trace, oracle_factor(k, g, n))


@pytest.mark.parametrize("cond", [1e2, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("k, m, seed", [(2, 4, 1), (10, 200, 2), (16, 16, 3)])
def test_factor_traces_match_solve_on_ill_conditioned_grams(k, m, seed, cond):
    # The draws that make a Gram's Cholesky factor Bartlett's L.
    h = channel_with_gram_cond(k, m, cond, seed)
    low = np.linalg.cholesky(h.entries @ h.entries.conj().T)
    below = low[np.tril_indices(k, -1)] * np.sqrt(2.0)
    gammas, normals = np.diag(low).real ** 2, np.array([below.real, below.imag])
    # The oracle reads the arrays after the call, so they must be unchanged.
    [trace] = mimo._factor_traces(gammas[None], normals[None]).tolist()
    assert_within_cond_bound_of_solve(trace, oracle_factor(k, gammas, normals))


@pytest.mark.parametrize("limit", [mimo.SINGULAR_COND_LIMIT, 100.0])
@pytest.mark.parametrize("k, m, n", [(1, 2, 3), (4, 9, 17), (10, 200, 33)])
def test_factor_traces_leave_their_arguments_unchanged(monkeypatch, k, m, n, limit):
    # Certified blocks, and at a limit of 100 a K = 10 block whose Grams go to
    # _eigenvalues (tr(G) tr(G^-1) >= K^2) and pass it (their cond is about 3).
    monkeypatch.setattr(mimo, "SINGULAR_COND_LIMIT", limit)
    gammas, normals = (np.array(rows) for rows in zip(*oracle_draws(k, m, n, 7)))
    before = gammas.tobytes(), normals.tobytes()
    traces = mimo._factor_traces(gammas, normals)
    assert (gammas.tobytes(), normals.tobytes()) == before
    assert traces.tolist() == [oracle_trace(k, g, x) for g, x in zip(gammas, normals)]


@pytest.mark.parametrize("cond", [None, 1e3, 1e6])
@pytest.mark.parametrize("k, m, seed", [(1, 3, 4), (4, 16, 5), (10, 200, 6)])
def test_eigenvalue_ratio_is_two_norm_cond(k, m, seed, cond):
    h = mimo.sample_channel(k, m, seed) if cond is None else channel_with_gram_cond(k, m, cond,
                                                                                     seed)
    gram = mimo._gram(h.entries)
    eig = mimo._eigenvalues(gram)
    assert eig[-1] / eig[0] == pytest.approx(np.linalg.cond(gram), rel=1e-6)


@pytest.mark.parametrize("cond, singular", [(1e11, False), (1e13, True)])
def test_singularity_rule_is_cond_limit(cond, singular):
    # Either side of SINGULAR_COND_LIMIT = 1e12, through every public ZF entry point.
    h = channel_with_gram_cond(4, 16, cond, 7)
    calls = (mimo.zf_beamformer, mimo.gram_inverse_trace, lambda h: mimo.sinr_zf(1.0, h))
    for call in calls:
        if singular:
            with pytest.raises(ValueError, match="numerically singular"):
                call(h)
        else:
            call(h)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_channel_rejects_non_finite_entries(bad):
    entries = np.ones((2, 4), dtype=complex)
    entries[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        mimo.ChannelMatrix(entries)


@pytest.mark.parametrize("scale", [1e155, 1e200, 0.0, 1e-160])
def test_overflowing_or_zero_gram_is_singular_without_warning(scale):
    # Entries near 1e155 and beyond overflow the Gram; a zero Gram has lambda_max = 0;
    # entries of 1e-160 give a subnormal Gram, whose eigenvalue ratio is within the
    # limit but whose 1 / lambda, hence inverse trace, overflows.
    h = mimo.ChannelMatrix(mimo.sample_channel(4, 16, 8).entries * scale)
    calls = (mimo.zf_beamformer, mimo.gram_inverse_trace, lambda h: mimo.sinr_zf(1.0, h))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="numerically singular"):
                call(h)
