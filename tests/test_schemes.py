"""Power-allocation scheme tests.

The analytic reference is the budget inversion evaluated by hand:
rho_req = (2^(target/B) - 1)/(M - K) and P(d) = rho_req*K*N0*(d/r0)^alpha.
Scheme ordering and refinement monotonicity are asserted without
tolerance; the power construction is supposed to guarantee them exactly.
evaluate_scheme is the batch kernel on one trial; the powered regions and
per-user rates come from the scalar oracle, tests/oracle.py.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpzsim import schemes
from cpzsim.partition import CpzState, PartitionGrid, UePosition, locate
from cpzsim.propagation import LinkBudget, required_bs_power
from cpzsim.schemes import SCHEME_ORDER, SchemeKind, energy_efficiency, evaluate_scheme

from oracle import Region, per_ue_rates, powered_regions, sector_of

GRID = PartitionGrid(3, 18, 1000.0)
BUDGET = LinkBudget()
TARGET = 20e6
K, M = 10, 200
TWO_PI = 2.0 * math.pi


def analytic_power(d):
    rho_req = (2.0 ** (TARGET / BUDGET.bandwidth) - 1.0) / (M - K)
    return rho_req * K * BUDGET.noise_n0 * (d / BUDGET.r0) ** BUDGET.alpha


def state_with(positions):
    state = CpzState(GRID)
    for pos in positions:
        state.join(pos)
    return state


def total_power(kind, state):
    return evaluate_scheme(kind, state, BUDGET, TARGET, K, M).total_power


def random_state(rng, n_ues, grid=GRID):
    state = CpzState(grid)
    for _ in range(n_ues):
        r = math.sqrt(BUDGET.r0**2 + rng.random() * (grid.cell_radius**2 - BUDGET.r0**2))
        state.join(UePosition(r, rng.random() * TWO_PI))
    return state


# ---------------------------------------------------------------------------
# Powers


def test_always_max_analytic_value():
    p = total_power(SchemeKind.ALWAYS_MAX, state_with([]))
    assert p == pytest.approx(analytic_power(1000.0), rel=1e-12, abs=0)
    assert p == pytest.approx(7.91e-11, rel=1e-3)


def test_always_max_ignores_occupancy():
    empty = evaluate_scheme(SchemeKind.ALWAYS_MAX, state_with([]), BUDGET, TARGET, K, M)
    rng = random.Random(3)
    full = evaluate_scheme(SchemeKind.ALWAYS_MAX, random_state(rng, 30), BUDGET, TARGET, K, M)
    assert empty.total_power == full.total_power


def test_zooming_empty_cell_sleeps():
    assert total_power(SchemeKind.ZOOMING, state_with([])) == 0.0


def test_zooming_middle_annulus():
    state = state_with([UePosition(550.0, 0.1)])
    p = total_power(SchemeKind.ZOOMING, state)
    assert p == pytest.approx(analytic_power(2000.0 / 3), rel=1e-12, abs=0)


def test_zooming_attains_always_max_with_outer_ue():
    state = state_with([UePosition(980.0, 0.1)])
    assert total_power(SchemeKind.ZOOMING, state) == total_power(SchemeKind.ALWAYS_MAX, state)


def test_zooming_never_exceeds_always_max():
    rng = random.Random(5)
    p_max = total_power(SchemeKind.ALWAYS_MAX, state_with([]))
    for _ in range(200):
        state = random_state(rng, rng.randint(1, 25))
        assert total_power(SchemeKind.ZOOMING, state) <= p_max


def test_cpz_empty_cell_sleeps():
    assert total_power(SchemeKind.CPZ, state_with([])) == 0.0


def test_cpz_single_ue_is_one_sector_fraction():
    state = state_with([UePosition(550.0, 0.1)])
    p_zoom = total_power(SchemeKind.ZOOMING, state)
    p_cpz = total_power(SchemeKind.CPZ, state)
    assert p_cpz == pytest.approx(p_zoom / 18, rel=1e-12, abs=0)


def test_cpz_full_outer_ring_degenerates_to_zooming():
    width = TWO_PI / 18
    state = state_with([UePosition(900.0, (s + 0.5) * width) for s in range(18)])
    p_cpz = total_power(SchemeKind.CPZ, state)
    # Full coverage: bit-for-bit equal to the zooming and always-max powers.
    assert p_cpz == total_power(SchemeKind.ZOOMING, state)
    assert p_cpz == total_power(SchemeKind.ALWAYS_MAX, state_with([]))


def test_scheme_ordering_exact_on_random_scenarios():
    rng = random.Random(11)
    p_max = total_power(SchemeKind.ALWAYS_MAX, state_with([]))
    for _ in range(100):
        state = random_state(rng, rng.randint(1, 30))
        p_zoom = total_power(SchemeKind.ZOOMING, state)
        p_cpz = total_power(SchemeKind.CPZ, state)
        assert p_cpz <= p_zoom <= p_max


def test_cpz_additive_over_sectors():
    # Two occupied sectors with known zooms: sum of the two fractions.
    state = state_with([
        UePosition(550.0, 0.1),                # sector 0, zoom 2000/3
        UePosition(900.0, 1.5 * TWO_PI / 18),  # sector 1, zoom 1000
    ])
    expected = (analytic_power(2000.0 / 3) + analytic_power(1000.0)) / 18
    assert total_power(SchemeKind.CPZ, state) == pytest.approx(expected, rel=1e-12, abs=0)


def test_cpz_sector_refinement_never_costs_more():
    rng = random.Random(19)
    for trial in range(50):
        n_ues = rng.randint(1, 20)
        positions = []
        for _ in range(n_ues):
            r = math.sqrt(BUDGET.r0**2 + rng.random() * (1000.0**2 - BUDGET.r0**2))
            positions.append(UePosition(r, rng.random() * TWO_PI))
        coarse = CpzState(PartitionGrid(3, 18, 1000.0))
        fine = CpzState(PartitionGrid(3, 36, 1000.0))
        for pos in positions:
            coarse.join(pos)
            fine.join(pos)
        p_coarse = total_power(SchemeKind.CPZ, coarse)
        p_fine = total_power(SchemeKind.CPZ, fine)
        assert p_fine <= p_coarse


# ---------------------------------------------------------------------------
# Energy efficiency


def test_ee_simple_ratio():
    assert energy_efficiency(20e6, 10.0) == pytest.approx(2e6)


def test_ee_zero_power_is_undefined():
    assert energy_efficiency(0.0, 0.0) is None
    assert energy_efficiency(5.0, 0.0) is None


def test_ee_scale_invariance():
    assert energy_efficiency(2 * 20e6, 2 * 10.0) == energy_efficiency(20e6, 10.0)


def test_ee_rejects_negative_inputs():
    with pytest.raises(ValueError):
        energy_efficiency(-1.0, 1.0)
    with pytest.raises(ValueError):
        energy_efficiency(1.0, -1.0)


def test_ee_rejects_overflow_to_infinity():
    # About what 1e300 path gain sizes for 20 Mb/s per user.
    with pytest.raises(ValueError, match="overflows"):
        energy_efficiency(3.3e8, 7.9e-311)
    assert energy_efficiency(1.0, 1e-308) == 1e308


# ---------------------------------------------------------------------------
# evaluate_scheme


def test_evaluate_empty_cell():
    state = state_with([])
    for kind in (SchemeKind.ZOOMING, SchemeKind.CPZ):
        report = evaluate_scheme(kind, state, BUDGET, TARGET, K, M)
        assert report.total_power == 0.0
        assert report.sum_rate == 0.0
        assert report.ee is None
        assert report.n_active_sectors == 0
    report = evaluate_scheme(SchemeKind.ALWAYS_MAX, state, BUDGET, TARGET, K, M)
    assert report.total_power > 0
    assert report.sum_rate == 0.0
    assert report.ee == 0.0
    assert report.n_active_sectors == 18


def test_evaluate_reports_ordering_and_budget():
    rng = random.Random(29)
    for _ in range(50):
        state = random_state(rng, rng.randint(1, 20))
        reports = {kind: evaluate_scheme(kind, state, BUDGET, TARGET, K, M)
                   for kind in SCHEME_ORDER}
        p_max = reports[SchemeKind.ALWAYS_MAX].total_power
        assert reports[SchemeKind.CPZ].total_power <= reports[SchemeKind.ZOOMING].total_power
        assert reports[SchemeKind.ZOOMING].total_power <= p_max
        for report in reports.values():
            assert report.total_power <= p_max


def test_single_sector_cluster_ee_ratio():
    # All users inside one sector: identical rates, power differs by the
    # angular fraction, so the EE ratio is exactly the sector count.
    rng = random.Random(37)
    width = TWO_PI / 18
    positions = [UePosition(rng.uniform(700.0, 1000.0), rng.uniform(0, width * 0.99))
                 for _ in range(8)]
    state = state_with(positions)
    zoom = evaluate_scheme(SchemeKind.ZOOMING, state, BUDGET, TARGET, K, M)
    cpz = evaluate_scheme(SchemeKind.CPZ, state, BUDGET, TARGET, K, M)
    assert cpz.sum_rate == zoom.sum_rate
    assert cpz.total_power == pytest.approx(zoom.total_power / 18, rel=1e-12, abs=0)
    assert cpz.ee == pytest.approx(18 * zoom.ee, rel=1e-9)


def test_ee_ordering_when_rates_are_equal():
    # Users clustered in the outer annulus: every scheme backs each user with
    # the edge-dimensioned power, so rates match and EE orders by power alone.
    rng = random.Random(43)
    width = TWO_PI / 18
    positions = [UePosition(rng.uniform(700.0, 1000.0), rng.uniform(0, 3 * width))
                 for _ in range(9)]
    state = state_with(positions)
    reports = {kind: evaluate_scheme(kind, state, BUDGET, TARGET, K, M)
               for kind in SCHEME_ORDER}
    rates = {r.sum_rate for r in reports.values()}
    assert len(rates) == 1
    assert reports[SchemeKind.CPZ].ee >= reports[SchemeKind.ZOOMING].ee
    assert reports[SchemeKind.ZOOMING].ee >= reports[SchemeKind.ALWAYS_MAX].ee


def test_every_served_ue_meets_target_rate():
    rng = random.Random(41)
    for _ in range(30):
        state = random_state(rng, rng.randint(1, 20))
        for kind in SCHEME_ORDER:
            rates = per_ue_rates(kind, state, BUDGET, TARGET, K, M)
            assert len(rates) == len(state.ue_positions())
            for rate in rates.values():
                assert rate >= TARGET * (1 - 1e-9)


def test_effective_power_is_sector_zoom_power():
    state = state_with([
        UePosition(200.0, 0.05),               # user 0: sector 0, zoom 1000/3
        UePosition(900.0, 1.5 * TWO_PI / 18),  # user 1: sector 1, zoom 1000
    ])
    regions = powered_regions(SchemeKind.CPZ, state)
    assert regions == [Region(1, 1000.0 / 3, (0,)), Region(1, 1000.0, (1,))]
    eff = {i: required_bs_power(region.zoom, TARGET, K, M, BUDGET)
           for region in regions for i in region.members}
    assert eff[0] == pytest.approx(analytic_power(1000.0 / 3), rel=1e-12, abs=0)
    assert eff[1] == pytest.approx(analytic_power(1000.0), rel=1e-12, abs=0)
    # Zooming backs everyone with the global zoom power.
    (zoom_region,) = powered_regions(SchemeKind.ZOOMING, state)
    assert zoom_region == Region(18, 1000.0, (0, 1))
    assert required_bs_power(zoom_region.zoom, TARGET, K, M, BUDGET) == \
        pytest.approx(analytic_power(1000.0), rel=1e-12, abs=0)


def test_shadowing_factor_moves_rates():
    # psi[i] fades user i alone.
    state = state_with([UePosition(550.0, 0.1), UePosition(550.0, 3.0)])
    base = per_ue_rates(SchemeKind.ZOOMING, state, BUDGET, TARGET, K, M)
    faded = per_ue_rates(SchemeKind.ZOOMING, state, BUDGET, TARGET, K, M, psi=[0.1, 10.0])
    assert faded[0] < base[0] == base[1] < faded[1]


def test_guard_rejects_nan_power(monkeypatch):
    # NaN power compares false both ways; the budget guard must still trip.
    # required_bs_power itself raises on NaN, so only a stand-in can hand one over.
    monkeypatch.setattr(schemes, "required_bs_power", lambda *args: float("nan"))
    with pytest.raises(RuntimeError, match="exceeds the always-max budget"):
        evaluate_scheme(SchemeKind.CPZ, state_with([UePosition(550.0, 0.1)]),
                        BUDGET, TARGET, K, M)


# ---------------------------------------------------------------------------
# Region rule


@st.composite
def scenarios(draw):
    radius = draw(st.floats(200.0, 5000.0))
    grid = PartitionGrid(draw(st.integers(1, 6)), draw(st.integers(1, 40)), radius)
    budget = LinkBudget(cell_radius_r=radius)
    points = draw(st.lists(st.tuples(st.floats(budget.r0, radius), st.floats(0.0, TWO_PI)),
                           max_size=25))
    state = CpzState(grid)
    for r, phi in points:
        state.join(UePosition(r, phi))
    return state, budget


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_region_rule_properties(scenario):
    state, budget = scenario
    grid = state.grid
    positions = state.ue_positions()
    totals = {}
    for kind in SCHEME_ORDER:
        regions = powered_regions(kind, state)
        members = [i for region in regions for i in region.members]
        # Disjoint, and every user is served (the sleeping cell has no users).
        assert sorted(members) == list(range(len(positions)))
        for region in regions:
            for i in region.members:
                annulus = locate(positions[i], grid).annulus
                assert grid.annulus_outer_radius(annulus) <= region.zoom
        report = evaluate_scheme(kind, state, budget, TARGET, K, M)
        assert sum(region.wedges for region in regions) == report.n_active_sectors
        totals[kind] = report.total_power
        if kind is SchemeKind.CPZ:
            sectors = []
            for region in regions:
                (sector,) = {sector_of(state, i) for i in region.members}
                assert region.wedges == 1
                assert region.zoom == state.per_sector_zoom[sector]
                sectors.append(sector)
            assert sorted(sectors) == sorted(state.per_sector_zoom)
    assert 0.0 <= totals[SchemeKind.CPZ] <= totals[SchemeKind.ZOOMING] \
        <= totals[SchemeKind.ALWAYS_MAX]
