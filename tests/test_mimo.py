"""Channel, beamforming, and rate-model tests.

Closed-form outputs are checked against independent routes: the SVD
pseudo-inverse for zero forcing, explicit per-user signal/interference
sums for the SINR, explicit Gram inversion plus Monte Carlo averaging for
the ergodic rate, and elementwise summation for norms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpzsim import mimo


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
    est = mimo.monte_carlo_trace(1, 2, n_trials=10_000, seed=0)
    assert abs(est - 1.0) < 0.05


def test_monte_carlo_trace_single_trial_reproducible():
    a = mimo.monte_carlo_trace(10, 200, n_trials=1, seed=77)
    b = mimo.monte_carlo_trace(10, 200, n_trials=1, seed=77)
    assert a == b


def test_monte_carlo_trace_prefix_stable():
    # Trial i draws from its own stream, so extending the run keeps the prefix.
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
