"""The batch scheme kernel against the scalar oracle.

`run_comparison`, `sweep_distance` and `sweep_sectors` evaluate whole
batches of trials with `schemes._evaluate_trials`. The oracle here rebuilds
every trial from the public scalar API (`place_ues` or fixed positions,
`LognormalShadowing.psi`, `build_state`, `evaluate_scheme`) and the records
must match it with `==` on every field, no tolerance, or both must raise
the same exception type.
"""

import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpzsim import schemes
from cpzsim.partition import PartitionGrid, UePosition
from cpzsim.propagation import DeterministicUnitShadowing, LinkBudget, LognormalShadowing
from cpzsim.schemes import SCHEME_ORDER, evaluate_scheme
from cpzsim.sim import (
    ArcCluster,
    FixedPlacement,
    ScenarioConfig,
    TrialRecord,
    UniformDisk,
    build_state,
    place_ues,
    run_comparison,
    sweep_distance,
    sweep_sectors,
)

TWO_PI = 2.0 * math.pi


def oracle_trial(config, grid, positions, trial):
    state = build_state(grid, positions)
    psi = None
    if isinstance(config.shadowing, LognormalShadowing):
        draws = config.shadowing.psi(len(positions), trial)
        psi = {pos.ue_id: float(d) for pos, d in zip(positions, draws)}
    return tuple(evaluate_scheme(kind, state, config.budget, config.rate_target,
                                 config.k_users, config.m_antennas, psi)
                 for kind in SCHEME_ORDER)


def oracle_records(config, values, scenario):
    """Sweep records from the oracle; scenario(value, trial) gives (grid, positions)."""
    return tuple(TrialRecord(value, trial, rep)
                 for value in values
                 for trial in range(config.n_trials)
                 for rep in oracle_trial(config, *scenario(value, trial), trial))


def outcome(run):
    try:
        return run()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def boundary_radii(grid, budget):
    """r0, R and every ring boundary inside [r0, R], ascending."""
    rings = [a * grid.cell_radius / grid.n_annuli for a in range(1, grid.n_annuli)]
    return sorted({budget.r0, grid.cell_radius,
                   *(r for r in rings if budget.r0 <= r <= grid.cell_radius)})


@st.composite
def scenarios(draw):
    radius = draw(st.one_of(st.just(1000.0), st.just(100.0), st.floats(100.0, 5000.0)))
    grid = PartitionGrid(draw(st.integers(1, 20)), draw(st.integers(1, 40)), radius)
    budget = LinkBudget(cell_radius_r=radius)
    k_users = draw(st.integers(1, 12))
    m_antennas = k_users + draw(st.integers(1, 60))
    radii = st.one_of(st.sampled_from(boundary_radii(grid, budget)),
                      st.floats(budget.r0, radius))
    wedges = [s * TWO_PI / grid.n_sectors for s in range(grid.n_sectors + 1)]
    angles = st.one_of(st.sampled_from(wedges), st.floats(-10.0, 10.0))
    reaches = [a for a in range(grid.n_annuli) if grid.annulus_outer_radius(a) > budget.r0]
    placements = [st.just(UniformDisk()),
                  st.lists(st.tuples(radii, angles), max_size=8).map(
                      lambda points: FixedPlacement(tuple(
                          UePosition(i, r, phi) for i, (r, phi) in enumerate(points))))]
    if reaches:
        placements.append(st.builds(ArcCluster, st.integers(1, grid.n_sectors),
                                    st.sampled_from(reaches)))
    shadowing = st.one_of(st.just(DeterministicUnitShadowing()),
                          st.builds(LognormalShadowing, st.sampled_from([0.0, 8.0, 1000.0]),
                                    st.integers(0, 3)))
    config = ScenarioConfig(grid=grid, budget=budget, k_users=k_users, m_antennas=m_antennas,
                            placement=draw(st.one_of(placements)),
                            shadowing=draw(shadowing), seed=draw(st.integers(0, 2**32)),
                            n_trials=draw(st.integers(1, 5)))
    distances = sorted(set(draw(st.lists(radii, min_size=1, max_size=3))))
    counts = sorted(set(draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))))
    return config, distances, counts


EDGES = PartitionGrid(20, 40, 1000.0)
ON_BOUNDARIES = FixedPlacement(tuple(
    UePosition(i, r, phi) for i, (r, phi) in enumerate(
        [(100.0, 0.0), (1000.0, TWO_PI), (150.0, TWO_PI / 40), (950.0, 39 * TWO_PI / 40),
         (500.0, math.pi), (100.0, -TWO_PI / 40)])))


@settings(max_examples=150, deadline=None)
@given(case=scenarios(), block=st.sampled_from([1, 2, 1024]))
@example(case=(ScenarioConfig(placement=FixedPlacement(()), n_trials=3), [100.0, 1000.0], [1, 7]),
         block=2)
@example(case=(ScenarioConfig(grid=EDGES, placement=ON_BOUNDARIES, n_trials=2,
                              shadowing=LognormalShadowing(8.0, 1)),
               boundary_radii(EDGES, LinkBudget()), [1, 20, 40]), block=1)
@example(case=(ScenarioConfig(shadowing=LognormalShadowing(), n_trials=300),
               [100.0, 550.0, 1000.0], [1, 2, 3, 6, 9, 18, 36]), block=64)
@example(case=(ScenarioConfig(shadowing=LognormalShadowing(1000.0, 195), n_trials=5),
               [1000.0], [1]), block=2)
def test_kernel_matches_scalar_oracle(case, block):
    # The 300-trial example is there for last-bit faults, such as numpy's
    # vector pow in place of Python's, which show in about 1% of reports.
    config, distances, counts = case
    expected_run = outcome(lambda: [oracle_trial(config, config.grid, place_ues(config, t), t)
                                    for t in range(config.n_trials)])
    expected_distance = outcome(lambda: oracle_records(
        config, distances, lambda d, t: (config.grid, [UePosition(0, d, 0.0)])))

    def sector_oracle():
        placement = config.placement
        if isinstance(placement, UniformDisk):
            placement = ArcCluster(1, config.grid.n_annuli - 1)
        cluster = replace(config, grid=replace(config.grid, n_sectors=counts[-1]),
                          placement=placement)
        return oracle_records(config, counts, lambda count, t: (
            replace(config.grid, n_sectors=count), place_ues(cluster, t)))

    expected_sectors = outcome(sector_oracle)
    with mock.patch.object(schemes, "_BLOCK", block):
        assert outcome(lambda: run_comparison(config)) == expected_run
        assert outcome(lambda: sweep_distance(config, distances).records) == expected_distance
        assert outcome(lambda: sweep_sectors(config, counts).records) == expected_sectors


def test_kernel_guard_rejects_nan_power(monkeypatch):
    # The batch form of test_guard_rejects_nan_power: NaN power must trip the budget guard.
    monkeypatch.setattr(schemes, "required_bs_power", lambda *args: float("nan"))
    with pytest.raises(RuntimeError, match="exceeds the always-max budget"):
        run_comparison(ScenarioConfig(n_trials=3))
