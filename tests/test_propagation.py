"""Link-budget tests: path loss, SNR, shadowing statistics, power sizing, and libm."""

import math

import numpy as np
import pytest

from cpzsim import propagation as prop
from cpzsim.mimo import per_ue_rate


BUDGET = prop.LinkBudget()  # G=1, r0=100 m, alpha=3.7, N0=2e-14 W, B=5 MHz, R=1000 m


def test_budget_defaults():
    assert BUDGET.path_gain_g == 1.0
    assert BUDGET.r0 == 100.0
    assert BUDGET.alpha == 3.7
    assert BUDGET.shadow_sigma_db == 8.0
    assert BUDGET.cell_radius_r == 1000.0


@pytest.mark.parametrize("kwargs", [
    {"r0": 0.0},
    {"alpha": -1.0},
    {"noise_n0": 0.0},
    {"bandwidth": 0.0},
    {"cell_radius_r": 50.0},  # smaller than r0
])
def test_budget_validation(kwargs):
    with pytest.raises(ValueError):
        prop.LinkBudget(**kwargs)


# ---------------------------------------------------------------------------
# snr_rho: the received power over the noise power


def test_received_power_at_reference_distance():
    assert prop.snr_rho(1.0, 1, 100.0, BUDGET) == pytest.approx(1.0 / BUDGET.noise_n0)


def test_received_power_cell_edge():
    # (1000/100)^-3.7 = 10^-3.7
    rho = prop.snr_rho(1.0, 1, 1000.0, BUDGET)
    assert rho == pytest.approx(10.0 ** -3.7 / BUDGET.noise_n0, rel=1e-12)
    assert rho == pytest.approx(1.9953e-4 / BUDGET.noise_n0, rel=1e-4)


def test_received_power_doubling_distance():
    rho1 = prop.snr_rho(1.0, 1, 200.0, BUDGET)
    rho2 = prop.snr_rho(1.0, 1, 400.0, BUDGET)
    assert rho2 / rho1 == pytest.approx(2.0 ** -3.7, rel=1e-12)


def test_received_power_strictly_decreasing():
    radii = np.linspace(100.0, 1000.0, 40)
    rhos = [prop.snr_rho(1.0, 1, float(r), BUDGET) for r in radii]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_received_power_splits_over_users():
    full = prop.snr_rho(1.0, 1, 500.0, BUDGET)
    split = prop.snr_rho(1.0, 10, 500.0, BUDGET)
    assert split == pytest.approx(full / 10)


def test_received_power_near_field_error():
    with pytest.raises(ValueError):
        prop.snr_rho(1.0, 1, 99.9, BUDGET)


def test_received_power_rejects_zero_users():
    with pytest.raises(ValueError):
        prop.snr_rho(1.0, 0, 500.0, BUDGET)


def test_snr_unit_point():
    p_bs = BUDGET.noise_n0 * 4
    assert prop.snr_rho(p_bs, 4, 100.0, BUDGET) == pytest.approx(1.0)


def test_snr_linear_in_power():
    r1 = prop.snr_rho(1.0, 10, 700.0, BUDGET)
    r2 = prop.snr_rho(2.0, 10, 700.0, BUDGET)
    assert r2 == pytest.approx(2 * r1, rel=1e-12)


def test_snr_cell_edge_value():
    rho = prop.snr_rho(1.0, 10, 1000.0, BUDGET)
    assert rho == pytest.approx(10.0 ** -3.7 / (10 * 2.0e-14), rel=1e-12)
    assert rho == pytest.approx(9.977e8, rel=1e-3)


# ---------------------------------------------------------------------------
# required_bs_power


def test_required_snr_peak_rate():
    # 20 Mb/s over 5 MHz with 190 spatial degrees: (2^4 - 1)/190
    assert prop.required_snr(20e6, 5e6, 10, 200) == pytest.approx(15.0 / 190.0, rel=1e-12)


@pytest.mark.parametrize("rate, rho", [(1e12, "inf"), (1e-300, "0.0")])
def test_required_snr_rejects_unsizable_target(rate, rho):
    # 2**(rate / B) overflows, or rounds to exactly 1.
    with pytest.raises(ValueError, match=f"per-user SNR of {rho}"):
        prop.required_snr(rate, 5e6, 10, 200)


def test_required_power_at_reference_distance():
    p = prop.required_bs_power(100.0, 20e6, 10, 200, BUDGET)
    assert p == pytest.approx((15.0 / 190.0) * 10 * 2.0e-14, rel=1e-12)


def test_required_power_distance_scaling():
    p1 = prop.required_bs_power(300.0, 20e6, 10, 200, BUDGET)
    p2 = prop.required_bs_power(600.0, 20e6, 10, 200, BUDGET)
    assert p2 / p1 == pytest.approx(2.0 ** 3.7, rel=1e-12)


def test_required_power_strictly_increasing_in_distance():
    dists = np.linspace(100.0, 1000.0, 40)
    powers = [prop.required_bs_power(float(d), 20e6, 10, 200, BUDGET) for d in dists]
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_required_power_increasing_in_target():
    p1 = prop.required_bs_power(800.0, 10e6, 10, 200, BUDGET)
    p2 = prop.required_bs_power(800.0, 20e6, 10, 200, BUDGET)
    assert p1 < p2


@pytest.mark.parametrize("d", [99.0, 1000.5])
def test_required_power_range_error(d):
    with pytest.raises(ValueError):
        prop.required_bs_power(d, 20e6, 10, 200, BUDGET)


@pytest.mark.parametrize("target, gain, power", [(1e-9, 1e300, "0.0"), (1e9, 1e-300, "inf")])
def test_required_power_rejects_zero_or_infinite_power(target, gain, power):
    # Each number is valid, but the sized power underflows to 0 or overflows.
    budget = prop.LinkBudget(path_gain_g=gain)
    with pytest.raises(ValueError, match=f"needs a power of {power} W"):
        prop.required_bs_power(1000.0, target, 10, 200, budget)


def test_required_power_rejects_nan_power():
    # rho_req * K * N0 underflows to 0 and the path loss overflows to inf.
    budget = prop.LinkBudget(noise_n0=5e-324, alpha=400.0)
    with pytest.raises(ValueError, match="needs a power of nan W"):
        prop.required_bs_power(1000.0, 1.0, 10, 200, budget)


def test_round_trip_power_to_rate():
    # Sizing power for distance d and rate R_t, then pushing the resulting SNR
    # back through the rate model, must reproduce R_t.
    rng = np.random.default_rng(2024)
    for _ in range(50):
        d = float(rng.uniform(BUDGET.r0, BUDGET.cell_radius_r))
        target = float(rng.uniform(1e6, 60e6))
        p = prop.required_bs_power(d, target, 10, 200, BUDGET)
        rho = prop.snr_rho(p, 10, d, BUDGET)
        rate = per_ue_rate(BUDGET.bandwidth, rho * (200 - 10))
        assert rate == pytest.approx(target, rel=1e-9)


# ---------------------------------------------------------------------------
# Shadowing


def test_lognormal_shadowing_statistics():
    mode = prop.LognormalShadowing(sigma_db=8.0, seed=99)
    draws = mode.psi(100_000)
    db = 10.0 * np.log10(draws)
    assert abs(db.std() - 8.0) / 8.0 < 0.02
    assert abs(db.mean()) < 0.1


def test_lognormal_shadowing_deterministic_per_trial():
    mode = prop.LognormalShadowing(sigma_db=8.0, seed=5)
    a = mode.psi(10, trial_index=2)
    b = mode.psi(10, trial_index=2)
    c = mode.psi(10, trial_index=3)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_lognormal_shadowing_rejects_negative_sigma():
    with pytest.raises(ValueError):
        prop.LognormalShadowing(sigma_db=-1.0)


def test_shadowing_factor_scales_snr():
    base = prop.snr_rho(1.0, 10, 500.0, BUDGET, psi=1.0)
    shadowed = prop.snr_rho(1.0, 10, 500.0, BUDGET, psi=0.25)
    assert shadowed == pytest.approx(base / 4)
    with pytest.raises(ValueError):
        prop.snr_rho(1.0, 10, 500.0, BUDGET, psi=0.0)


@pytest.mark.parametrize("psi", [0.0, -1.0, float("inf"), float("nan")])
def test_received_power_rejects_non_positive_or_non_finite_psi(psi):
    with pytest.raises(ValueError, match="positive and finite"):
        prop.snr_rho(1.0, 10, 500.0, BUDGET, psi=psi)


# ---------------------------------------------------------------------------
# libm


def broadcast_libm(fn, *args):
    """libm as it broadcast scalars into full arrays: the reference for its argument forms."""
    arrays = np.broadcast_arrays(*args)
    values = [prop._or_inf(fn, *xs) for xs in zip(*(memoryview(np.ravel(a)) for a in arrays))]
    return np.array(values, dtype=float).reshape(arrays[0].shape)


ROWS = np.random.default_rng(3).random((4, 5)) * 9.0 + 1.0


@pytest.mark.parametrize("fn, args", [
    (pow, (ROWS, -3.7)),
    (pow, (10.0, ROWS - 5.0)),
    (pow, (2, ROWS)),
    (pow, (ROWS[:, ::2], np.float64(-3.7))),
    (pow, (np.array(10.0), ROWS[0])),
    (pow, (np.array(10.0), np.array(0.3))),
    (pow, (10.0, 0.3)),
    (pow, (np.empty((0, 3)), -3.7)),
    (pow, (10.0, np.empty(0))),
    (pow, (ROWS[:, :1], ROWS[:1])),
    (math.log2, (ROWS,)),
    (math.log2, (2.5,)),
    (math.log1p, (-ROWS[:, 1:] / 10.0,)),
    (pow, (10.0, np.array([[1.0, 400.0], [-400.0, 308.0]]))),
    (pow, (np.array([1e200, 2.0, -1e300]), 3.0)),
    (pow, (1e200, np.array([1.0, 2.0]))),
])
def test_libm_argument_forms_give_the_broadcast_bits(fn, args):
    # Scalars pass as one repeated Python number; the bits, shape and the
    # OverflowError -> inf fallback are those of broadcasting them into arrays.
    got, expected = prop.libm(fn, *args), broadcast_libm(fn, *args)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_math_pow_gives_the_bits_of_builtin_pow():
    # The kernel's path loss (r / r0)^-alpha, r0 <= r <= the cell radius, and
    # psi's 10^x from just past the smallest subnormal to overflow (libm's inf).
    rng = np.random.default_rng(5)
    ratios = np.concatenate([[1.0, 2.0, 10.0, 1e4], rng.uniform(1.0, 1e4, 2000),
                             np.geomspace(1.0, 1e4, 2000)])
    for alpha in (2.0, 3.0, 3.7, 4.0, 6.5, *rng.uniform(1.0, 8.0, 4)):
        assert np.array_equal(prop.libm(math.pow, ratios, -alpha).view(np.int64),
                              prop.libm(pow, ratios, -alpha).view(np.int64))
    exponents = np.concatenate([rng.uniform(-8.0, 8.0, 4000), np.linspace(-323.0, 309.0, 20001)])
    got, expected = prop.libm(math.pow, 10.0, exponents), prop.libm(pow, 10.0, exponents)
    assert got[4000] > 0.0 and np.isinf(got[-1])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
