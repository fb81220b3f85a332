"""The batch scheme kernel, the package's one scheme model, against the scalar oracle.

`run_comparison`, `sweep_distance` and `sweep_sectors` evaluate whole
batches of trials with `schemes._evaluate_trials`. The scalar oracle,
tests/oracle.py, states the same rule region by region in Python floats and
reaches the package only through public names. Each trial is rebuilt from
`place_ues` or fixed positions, `LognormalShadowing.psi` and `build_state`
and evaluated by the oracle's `evaluate_scheme`; each trial's reports, read
from the scheme columns with `report(t)`, must match it with `==` on every
field, no tolerance, or both must raise the same exception type.
"""

import ast
import collections
import importlib
import inspect
import math
import os
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpzsim import schemes
from cpzsim.partition import MAX_COUNT, PartitionGrid, UePosition
from cpzsim.propagation import (
    DeterministicUnitShadowing,
    LinkBudget,
    LognormalShadowing,
    required_bs_power,
)
from cpzsim.schemes import SCHEME_ORDER
from cpzsim.sim import (
    ArcCluster,
    FixedPlacement,
    ScenarioConfig,
    UniformDisk,
    build_state,
    place_ues,
    run_comparison,
    sweep_distance,
    sweep_sectors,
)

import oracle

TWO_PI = 2.0 * math.pi


def oracle_trial(config, grid, positions, trial):
    state = build_state(grid, positions)
    psi = None
    if isinstance(config.shadowing, LognormalShadowing):
        psi = config.shadowing.psi(len(positions), trial).tolist()
    return tuple(oracle.evaluate_scheme(kind, state, config.budget, config.rate_target,
                                        config.k_users, config.m_antennas, psi)
                 for kind in SCHEME_ORDER)


def oracle_records(config, values, scenario):
    """Sweep reports from the oracle; scenario(value, trial) gives (grid, positions)."""
    return {value: [oracle_trial(config, *scenario(value, trial), trial)
                    for trial in range(config.n_trials)]
            for value in values}


def trial_reports(columns):
    """Per-trial (always_max, zooming, cpz) report tuples of scheme columns."""
    assert tuple(col.scheme for col in columns) == SCHEME_ORDER
    n_trials = len(columns[0].total_power)
    assert all(len(field) == n_trials for col in columns for field in col[1:])
    return [tuple(col.report(t) for col in columns) for t in range(n_trials)]


def by_value(reports):
    return {value: trial_reports(columns) for value, columns in reports.items()}


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
                  st.lists(st.tuples(radii, angles), max_size=min(k_users, 8)).map(
                      lambda points: FixedPlacement(tuple(
                          UePosition(r, phi) for r, phi in points)))]
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
    UePosition(r, phi) for r, phi in [
        (100.0, 0.0), (1000.0, TWO_PI), (150.0, TWO_PI / 40), (950.0, 39 * TWO_PI / 40),
        (500.0, math.pi), (100.0, -TWO_PI / 40)]))

# Users at one angle in different annuli, so a sort by angle has ties to break.
SAME_ANGLES = FixedPlacement(tuple(
    UePosition(r, phi) for r, phi in [
        (950.0, 1.0), (150.0, 1.0), (500.0, 1.0), (120.0, 4.0), (990.0, 4.0), (400.0, 0.5)]))
# Users on sector boundaries of counts 7, 25 and 40 (0 is one of every count).
SHARED_BOUNDARIES = FixedPlacement(tuple(
    UePosition(r, phi) for r, phi in [
        (120.0, TWO_PI / 7), (480.0, TWO_PI / 7), (900.0, 3 * TWO_PI / 7),
        (400.0, 6 * TWO_PI / 7), (300.0, TWO_PI / 25), (560.0, 13 * TWO_PI / 25),
        (700.0, 24 * TWO_PI / 25), (200.0, 5 * TWO_PI / 40), (1000.0, 7 * TWO_PI / 40),
        (850.0, 20 * TWO_PI / 40), (999.0, 39 * TWO_PI / 40), (650.0, 0.0)]))


@settings(max_examples=150, deadline=None)
@given(case=scenarios(), block=st.sampled_from([1, 2, 1024]))
@example(case=(ScenarioConfig(placement=FixedPlacement(()), n_trials=3), [100.0, 1000.0], [1, 7]),
         block=2)
@example(case=(ScenarioConfig(grid=EDGES, placement=ON_BOUNDARIES, n_trials=2,
                              shadowing=LognormalShadowing(8.0, 1)),
               boundary_radii(EDGES, LinkBudget()), [1, 20, 40]), block=1)
@example(case=(ScenarioConfig(shadowing=LognormalShadowing(), n_trials=300),
               [100.0, 550.0, 1000.0], [1, 2, 3, 6, 9, 18, 36]), block=64)
@example(case=(ScenarioConfig(shadowing=LognormalShadowing(1000.0, 323), n_trials=5),
               [1000.0], [1]), block=2)
@example(case=(ScenarioConfig(grid=PartitionGrid(MAX_COUNT, MAX_COUNT, 1000.0),
                              shadowing=LognormalShadowing(8.0, 2), n_trials=4),
               [100.0, 1000.0], [1, MAX_COUNT]), block=2)
@example(case=(ScenarioConfig(budget=LinkBudget(bandwidth=5e307), rate_target=5e307,
                              n_trials=10), [100.0, 1000.0], [1, 18]), block=1024)
@example(case=(ScenarioConfig(placement=SAME_ANGLES, n_trials=2,
                              shadowing=LognormalShadowing(8.0, 1)), [500.0], [1, 2, 3, 18]),
         block=1)
@example(case=(ScenarioConfig(grid=PartitionGrid(3, 40), k_users=12, placement=SHARED_BOUNDARIES,
                              n_trials=2, shadowing=LognormalShadowing(8.0, 1)),
               [1000.0], [1, 7, 25, 40]), block=2)
@example(case=(ScenarioConfig(grid=PartitionGrid(MAX_COUNT, 18, 1000.0), k_users=1030,
                              m_antennas=1100, n_trials=2), [1000.0], [1, 18]), block=1024)
def test_kernel_matches_scalar_oracle(case, block):
    # The 300-trial example is there for last-bit faults, such as numpy's
    # vector pow in place of Python's, which show in about 1% of reports. The
    # MAX_COUNT examples need rings sized only when reached and 2**53 active
    # sectors; in the 1030-user one, an annulus index times the user count
    # exceeds int64, so no planner may pack the two into one integer. In the
    # 5e307 b/s example every rate is at least 5e307, so a sum of ten rates
    # overflows, and a single user's can be inf: the EE overflows.
    config, distances, counts = case
    expected_run = outcome(lambda: [oracle_trial(config, config.grid, place_ues(config, t), t)
                                    for t in range(config.n_trials)])
    expected_distance = outcome(lambda: oracle_records(
        config, distances, lambda d, t: (config.grid, [UePosition(d, 0.0)])))

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
        assert outcome(lambda: trial_reports(run_comparison(config))) == expected_run
        assert outcome(lambda: by_value(sweep_distance(config, distances).reports)) == \
            expected_distance
        assert outcome(lambda: by_value(sweep_sectors(config, counts).reports)) == \
            expected_sectors


def test_kernel_guard_rejects_nan_power(monkeypatch):
    # The batch form of test_guard_rejects_nan_power: NaN power must trip the budget guard.
    monkeypatch.setattr(schemes, "required_bs_power", lambda *args: float("nan"))
    with pytest.raises(RuntimeError, match="exceeds the always-max budget"):
        run_comparison(ScenarioConfig(n_trials=3))


def over_on_rows(monkeypatch, chosen, total, n_sectors):
    """Make cpz's total `total` on an n_sectors grid's trials whose region powers `chosen` picks.

    chosen(regions) gets a trial's one-sector region powers, sorted, as the
    planner sizes them: the power of each sector's top annulus. The fault goes into
    the partition's plan, so a grid of n sectors that shares it gets total * n_sectors / n.
    """
    table_plan = schemes._table_plan

    def spy(size, tops, ring):
        full, fractions, ring, n_regions = table_plan(size, tops, ring)
        picked = [chosen(sorted(size(a) for a in row if a >= 0)) for row in tops.T.tolist()]
        return (np.where(picked, total, full), np.where(picked, n_sectors, fractions), ring,
                n_regions)

    monkeypatch.setattr(schemes, "_table_plan", spy)


def test_kernel_guard_reports_first_trial_in_trial_major_order(monkeypatch):
    # Two cells over budget: cpz on trial 0 and zooming on trial 1. The guard
    # reports trial 0's, with the scheme name and total _check_budget gives it.
    grid, budget, target, k, m = PartitionGrid(3, 18, 1000.0), LinkBudget(), 2e7, 10, 200
    p_max = required_bs_power(grid.cell_radius, target, k, m, budget)
    ring0 = required_bs_power(grid.annulus_outer_radius(0), target, k, m, budget)
    # Zooming's total is its ring's power, so annulus 1 is sized over budget;
    # cpz's one sector of 18 there stays under it.
    monkeypatch.setattr(schemes, "required_bs_power", lambda d, *args: 3 * p_max
                        if d == grid.annulus_outer_radius(1) else required_bs_power(d, *args))
    over_on_rows(monkeypatch, lambda regions: regions == [ring0], 2 * p_max, 18)
    # One user per trial, in annulus 0 on trial 0 and annulus 1 on trial 1.
    r, phi = np.array([[200.0], [500.0]]), np.zeros((2, 1))
    with pytest.raises(RuntimeError) as error:
        schemes._evaluate_trials([grid], budget, target, k, m, r, phi)
    assert str(error.value) == f"cpz power {2 * p_max} exceeds the always-max budget {p_max}"


def test_kernel_sizes_each_annulus_once_in_ascending_order(monkeypatch):
    # The sizing contract of _evaluate_trials' docstring. Past p_max, every
    # required_bs_power call comes from a _ring_powers call; a pass over the
    # grids sizes each annulus at most once, and each _ring_powers call sizes
    # the annuli new to it in ascending order.
    budget, target, k, m = LinkBudget(), 2e7, 10, 200
    outside, calls, current = [], [], [None]
    ring_powers = schemes._ring_powers

    def sizing(d, *args):
        (outside if current[0] is None else current[0]).append(d)
        return required_bs_power(d, *args)

    def spy(size, rings):
        current[0] = []
        calls.append(current[0])
        try:
            return ring_powers(size, rings)
        finally:
            current[0] = None

    monkeypatch.setattr(schemes, "required_bs_power", sizing)
    monkeypatch.setattr(schemes, "_ring_powers", spy)
    u = np.random.default_rng(3).random((150, 2 * k))
    r, phi = 100.0 + 900.0 * u[:, :k], TWO_PI * u[:, k:]
    grids = [PartitionGrid(8, count) for count in (1, 6, 18)]
    monkeypatch.setattr(schemes, "_BLOCK", 64)
    schemes._evaluate_trials(grids, budget, target, k, m, r, phi)
    assert outside == [budget.cell_radius_r]
    sized = [d for call in calls for d in call]
    assert sorted(sized) == sorted(set(sized)) == [grids[0].annulus_outer_radius(a)
                                                   for a in range(8)]
    assert all(call == sorted(call) for call in calls)
    assert max(len(call) for call in calls) > 1


def test_kernel_reports_errors_grid_by_grid(monkeypatch):
    # Sector counts share one kernel call, yet the error raised is the one a call
    # per count would meet first: grid 1's error on trial 0 waits for grid 0's trials.
    # Trial 0's two users are one region on grid 0 and two on grid 1, where cpz
    # is over budget; trial 1's are one region on both grids.
    grids = [PartitionGrid(3, 1), PartitionGrid(3, 2)]
    budget, target, k, m = LinkBudget(), 2e7, 10, 200
    p_max = required_bs_power(1000.0, target, k, m, budget)
    over_on_rows(monkeypatch, lambda regions: len(regions) == 2, 3 * p_max, 2)
    phi, trial0 = np.array([[0.0, 4.0], [0.0, 0.1]]), [200.0, 200.0]
    monkeypatch.setattr(schemes, "_BLOCK", 1)
    with pytest.raises(ValueError, match="user distance 50.0 m outside"):
        schemes._evaluate_trials(grids, budget, target, k, m,
                                 np.array([trial0, [300.0, 50.0]]), phi)
    with pytest.raises(RuntimeError, match="cpz power"):
        schemes._evaluate_trials(grids, budget, target, k, m,
                                 np.array([trial0, [300.0, 300.0]]), phi)


def test_kernel_reports_errors_block_by_block_then_stage_by_stage(monkeypatch):
    # cpz over budget on trial 0 and a user at 50 m on trial 1: in one block the
    # link stage runs before the budget guard, so trial 1's error comes first.
    grid, budget, target, k, m = PartitionGrid(3, 18, 1000.0), LinkBudget(), 2e7, 10, 200
    p_max = required_bs_power(grid.cell_radius, target, k, m, budget)
    ring0 = required_bs_power(grid.annulus_outer_radius(0), target, k, m, budget)
    over_on_rows(monkeypatch, lambda regions: regions == [ring0], 2 * p_max, 18)
    r, phi = np.array([[200.0], [50.0]]), np.zeros((2, 1))
    with pytest.raises(ValueError, match="user distance 50.0 m outside"):
        schemes._evaluate_trials([grid], budget, target, k, m, r, phi)
    monkeypatch.setattr(schemes, "_BLOCK", 1)
    with pytest.raises(RuntimeError, match="cpz power"):
        schemes._evaluate_trials([grid], budget, target, k, m, r, phi)


@pytest.mark.parametrize("n_grids, blocks", [(1, [64, 64]), (3, [64, 64, 64, 64])])
def test_kernel_reruns_only_the_grids_before_a_failure(monkeypatch, n_grids, blocks):
    # A user at 50 m on trial 100 fails block 1 on every grid. A one-grid call
    # is not run again; a multi-grid call runs grid 0 alone up to its failing
    # block, which raises, so no later block and no other grid runs again.
    seen = []
    link_gains = schemes._link_gains

    def spy(budget, cell_radius, r, psi):
        seen.append(len(r))
        return link_gains(budget, cell_radius, r, psi)

    monkeypatch.setattr(schemes, "_link_gains", spy)
    monkeypatch.setattr(schemes, "_BLOCK", 64)
    u = np.random.default_rng(0).random((150, 2))
    r, phi = 100.0 + 900.0 * u[:, :1], TWO_PI * u[:, 1:]
    r[100, 0] = 50.0
    grids = [PartitionGrid(3, count) for count in (1, 6, 18)[:n_grids]]
    with pytest.raises(ValueError, match="user distance 50.0 m outside"):
        schemes._evaluate_trials(grids, LinkBudget(), 2e7, 10, 200, r, phi)
    assert seen == blocks


def test_sector_sweep_runs_the_link_stage_once_per_trial(monkeypatch):
    # All sector counts share each block's link stage: seven counts, one pass per trial.
    blocks = []
    link_gains = schemes._link_gains

    def spy(budget, cell_radius, r, psi):
        blocks.append(len(r))
        return link_gains(budget, cell_radius, r, psi)

    monkeypatch.setattr(schemes, "_link_gains", spy)
    monkeypatch.setattr(schemes, "_BLOCK", 64)
    sweep_sectors(ScenarioConfig(shadowing=LognormalShadowing(), n_trials=150),
                  [1, 2, 3, 6, 9, 18, 36])
    assert blocks == [64, 64, 22]


def test_sector_sweep_sorts_each_block_once(monkeypatch):
    # Users are put in angle order once per block, on coarse and fine sector
    # counts alike, and no sector count sorts them again.
    sorts = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        sorts.append(a.shape)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(schemes.np, "argsort", spy)
    monkeypatch.setattr(schemes, "_BLOCK", 64)
    config = ScenarioConfig(shadowing=LognormalShadowing(), n_trials=150)
    for counts in ([1, 2, 3, 6, 9, 18, 36], [1, 2, 64, 96, 128]):
        sorts.clear()
        sweep_sectors(config, counts)
        assert sorts == [(64, 10), (64, 10), (22, 10)]


def test_sector_sweep_rates_zooming_once_per_block(monkeypatch):
    # A 12-user cluster in annulus 1: every block rates the edge ring, then
    # zooming's and each count's cpz users short of it. always-max and zooming
    # do not depend on the sector count, so zooming is rated once per block.
    calls = []
    rates = schemes._rates

    def spy(budget, k_users, m_antennas, faded, power):
        calls.append(faded.size)
        return rates(budget, k_users, m_antennas, faded, power)

    monkeypatch.setattr(schemes, "_rates", spy)
    monkeypatch.setattr(schemes, "_BLOCK", 64)
    counts = [1, 2, 3, 6, 9, 18, 36]
    sweep_sectors(ScenarioConfig(k_users=12, placement=ArcCluster(1, 1), n_trials=150,
                                 shadowing=LognormalShadowing()), counts)
    # Per block: the edge ring, then zooming, then cpz on each count, all users each time.
    assert calls == [users for block in (64, 64, 22) for users in [block * 12] * (2 + len(counts))]


def spy_on_table_plans(monkeypatch):
    """The number of rows of each _table_plan call, in call order."""
    calls = []
    table_plan = schemes._table_plan

    def spy(size, tops, ring):
        calls.append(len(ring))
        return table_plan(size, tops, ring)

    monkeypatch.setattr(schemes, "_table_plan", spy)
    return calls


def test_sector_sweep_plans_cpz_once_per_block(monkeypatch):
    # The default sweep clusters every trial's users in sector 0 of the finest
    # grid, so all seven counts split them into one region: one plan per block.
    calls = spy_on_table_plans(monkeypatch)
    monkeypatch.setattr(schemes, "_BLOCK", 64)
    sweep_sectors(ScenarioConfig(shadowing=LognormalShadowing(), n_trials=150),
                  [1, 2, 3, 6, 9, 18, 36])
    assert calls == [64, 64, 22]


def arcs(rng, n_trials, k, spans):
    """(r, phi) of k users per trial, each at a random angle in one of the (low, high) spans."""
    low, high = np.moveaxis(np.array(spans)[rng.integers(0, len(spans), (n_trials, k))], -1, 0)
    u = rng.random((2, n_trials, k))
    return 100.0 + 900.0 * u[0], low + (high - low) * u[1]


def shared_plan_cases():
    """(counts, r, phi, rows of each _table_plan call) of counts that share plans, _BLOCK = 64."""
    rng = np.random.default_rng(37)
    # Counts 1 and 2 split block 0's users, all in [0, pi), alike, and block 1's
    # not; count 1 splits both blocks alike, yet each block plans its own users.
    r0, phi0 = arcs(rng, 64, 5, [(0.0, math.pi)])
    r1, phi1 = arcs(rng, 64, 5, [(0.0, TWO_PI)])
    yield [1, 2], np.vstack([r0, r1]), np.vstack([phi0, phi1]), [64, 64, 64]
    # Counts 2 and 4 split users in [0, pi/2) and [pi, 3 pi/2) alike, count 3 not.
    r, phi = arcs(rng, 100, 6, [(0.0, math.pi / 2), (math.pi, 1.5 * math.pi)])
    yield [2, 3, 4], r, phi, [64, 64, 36, 36]


@pytest.mark.parametrize("counts, r, phi, plan_rows", shared_plan_cases(),
                         ids=["blocks", "apart"])
def test_shared_cpz_plan_equals_each_grid_alone(monkeypatch, counts, r, phi, plan_rows):
    # Grids that share a plan share its regions and rings, never their totals:
    # every grid's columns equal its own one-grid call, float for float.
    monkeypatch.setattr(schemes, "_BLOCK", 64)
    grids = [PartitionGrid(3, count) for count in counts]
    args = LinkBudget(), 2e7, 10, 200, r, phi
    calls = spy_on_table_plans(monkeypatch)
    shared = schemes._evaluate_trials(grids, *args)
    assert calls == plan_rows
    for grid, columns in zip(grids, shared):
        (alone,) = schemes._evaluate_trials([grid], *args)
        for col, expected in zip(columns, alone):
            assert col.scheme == expected.scheme
            for field, want in zip(col[1:], expected[1:]):
                assert field.tobytes() == want.tobytes()


def test_kernel_memory_does_not_grow_with_the_sector_count():
    # Sectors are ranked within each trial, so a block's temporaries are
    # (trials, users) arrays on any grid. Measured: a 1.35 MiB peak for one
    # block of 12 users on 2**20 sectors; ranking the block's distinct sectors
    # instead, with a (trials, distinct sectors) array, peaked at 287 MiB.
    u = np.random.default_rng(0).random((schemes._BLOCK, 24))
    r, phi = np.sqrt(100.0**2 + u[:, :12] * (1000.0**2 - 100.0**2)), u[:, 12:] * TWO_PI
    tracemalloc.start()
    try:
        schemes._evaluate_trials([PartitionGrid(3, 2**20, 1000.0)], LinkBudget(), 2e7, 12, 200,
                                 r, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_overflow_example_trips_the_sinr_guard():
    # The seed-323 example above: a finite factor above 1e300 overflows the SINR.
    config = ScenarioConfig(shadowing=LognormalShadowing(1000.0, 323), n_trials=5)
    psi = config.shadowing.psi_rows(config.k_users, 0, config.n_trials)
    assert np.isfinite(psi).all() and psi.max() > 1e300
    with pytest.raises(ValueError, match="sinr must be nonnegative and finite"):
        run_comparison(config)


def test_oracle_imports_only_public_cpzsim_names():
    # The oracle shares no kernel stage: it takes from cpzsim, by name and at the
    # top of its file, public names only, no module through which a private name
    # could be reached, and none of the calls that run the kernel.
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports)
    assert not [alias.name for node in imports if isinstance(node, ast.Import)
                for alias in node.names if alias.name.split(".")[0] == "cpzsim"]
    taken = [(node.module, alias.name) for node in imports if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "cpzsim" for alias in node.names]
    assert taken
    for module, name in taken:
        assert not [part for part in [*module.split("."), name] if part.startswith("_")], name
        assert not inspect.ismodule(getattr(importlib.import_module(module), name)), name
        assert name not in {"evaluate_scheme", "run_comparison", "sweep_distance",
                            "sweep_sectors"}, name
    assert not [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")]


def test_every_private_function_is_used_in_the_package():
    # A private module function that only its own body or the tests refer to is
    # dead code: each single-underscore one is read somewhere else in src/cpzsim.
    package = os.path.dirname(schemes.__file__)
    trees = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees.append(ast.parse(fh.read()))

    def names(root):
        return collections.Counter(node.id if isinstance(node, ast.Name) else node.attr
                                   for node in ast.walk(root)
                                   if isinstance(node, (ast.Name, ast.Attribute)))

    everywhere = sum(map(names, trees), collections.Counter())
    private = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert private
    for function in private:
        assert everywhere[function.name] > names(function)[function.name], function.name


def test_cpz_powering_every_sector_to_the_edge_matches_zooming_exactly():
    # Each of cpz's n fractions is 1.0 here, and every left-to-right partial sum
    # of them is an integer up to n, an exact float: full * (n / n) == full.
    # Users join in a shuffled order, one per 1/37 of the circle, in the top annulus.
    rng = np.random.default_rng(5)
    grid, counts = PartitionGrid(), (1, 2, 5, 18, 37)
    u = rng.random((64, 2 * 37))
    r = grid.cell_radius * (1.0 - u[:, :37] / grid.n_annuli)
    phi = rng.permuted((np.arange(37) + u[:, 37:]) * (TWO_PI / 37), axis=1)
    config = ScenarioConfig(k_users=37)
    grids = [replace(grid, n_sectors=n) for n in counts]
    for n, (_, zooming, cpz) in zip(counts, schemes._evaluate_trials(
            grids, config.budget, config.rate_target, 37, config.m_antennas, r, phi)):
        assert (cpz.n_active_sectors == n).all()
        assert (cpz.total_power == zooming.total_power).all()


def test_empty_cell_sums_without_a_fsum_call():
    # An empty cell's edge sums and cpz totals are empty rows, which sum to +0.0.
    columns = run_comparison(ScenarioConfig(placement=FixedPlacement(()), n_trials=10_000))
    for column in columns:
        assert not np.signbit(column.sum_rate).any() and not column.sum_rate.any()
    for column in columns[1:]:  # zooming and cpz radiate +0.0
        assert not np.signbit(column.total_power).any() and not column.total_power.any()


@pytest.mark.parametrize("rows, k", [(3, 0), (1, 1), (6, 7)])
def test_cpz_plan_scatters_rings_back_to_user_order(monkeypatch, rows, k):
    # The kernel gathers a block's users into angle order, ranks their sectors
    # there and scatters the ranks back through one flat index, so the planner
    # serves user u of row t out to the top annulus of its own sector. Each
    # user sits mid-ring in its annulus and at sector + noise, in fifths of
    # the circle, so the noise breaks the ties of an angle sort.
    rng = np.random.default_rng(10 * rows + k)
    annulus, sector = rng.integers(0, 4, (rows, k)), rng.integers(0, 5, (rows, k))
    phi = (sector + rng.random((rows, k))) * (TWO_PI / 5)
    plans, table_plan = [], schemes._table_plan

    def spy(size, tops, ring):
        plans.append(table_plan(size, tops, ring))
        return plans[-1]

    monkeypatch.setattr(schemes, "_table_plan", spy)
    schemes._evaluate_trials([PartitionGrid(4, 5, 1000.0)], LinkBudget(), 2e7, 10, 200,
                             250.0 * (annulus + 0.5), phi)
    ((_, _, ring, n_regions),) = plans
    assert ring.shape == (rows, k)
    for t in range(rows):
        assert n_regions[t] == len(set(sector[t].tolist()))
        for u in range(k):
            assert ring[t, u] == annulus[t][sector[t] == sector[t, u]].max()


@pytest.mark.parametrize("rings", [[2, -1, 2, 0, 5, 5, 1], [2**52, -1, 7, 2**52], []],
                         ids=["table", "unique", "empty"])
def test_ring_powers_size_each_distinct_annulus_once_ascending(rings):
    # Rings below their count map through a bincount table, others through
    # np.unique: either way each distinct annulus is sized once, in ascending order.
    sized = []
    powers = schemes._ring_powers(lambda a: sized.append(a) or a + 0.5,
                                  np.array(rings, dtype=np.int64))
    assert powers.tolist() == [a + 0.5 if a >= 0 else 0.0 for a in rings]
    assert sized == sorted(set(rings) - {-1})
