"""Polar-grid location and occupancy-state tests.

locate is checked against a boundary-comparison oracle. After every join,
CpzState must hold exactly the joined users, and the zooms it derives from
their cells must equal a from-scratch recomputation over the oracle's cells,
whatever the join order.
"""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpzsim.partition import CellIndex, CpzState, PartitionGrid, UePosition, locate

from oracle import max_zoom, sector_of

GRID = PartitionGrid(n_annuli=3, n_sectors=18, cell_radius=1000.0)
TWO_PI = 2.0 * math.pi


def oracle_locate(pos, grid):
    """Scan annulus/sector boundaries one by one (half-open, last closed)."""
    annulus = grid.n_annuli - 1
    for i in range(grid.n_annuli):
        if pos.r < (i + 1) * grid.cell_radius / grid.n_annuli:
            annulus = i
            break
    sector = grid.n_sectors - 1
    for j in range(grid.n_sectors):
        if pos.phi < (j + 1) * TWO_PI / grid.n_sectors:
            sector = j
            break
    return CellIndex(annulus, sector)


def recompute_zooms(grid, positions):
    """Per-sector zoom map built directly from a list of positions."""
    zooms = {}
    for pos in positions:
        cell = oracle_locate(pos, grid)
        boundary = grid.annulus_outer_radius(cell.annulus)
        zooms[cell.sector] = max(zooms.get(cell.sector, 0.0), boundary)
    return zooms


def random_positions(rng, n, grid):
    return [
        UePosition(float(rng.uniform(0, grid.cell_radius)), float(rng.uniform(0, TWO_PI)))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Grid and positions


def test_grid_validation():
    with pytest.raises(ValueError):
        PartitionGrid(n_annuli=0, n_sectors=18, cell_radius=1000.0)
    with pytest.raises(ValueError):
        PartitionGrid(n_annuli=3, n_sectors=0, cell_radius=1000.0)
    with pytest.raises(ValueError):
        PartitionGrid(n_annuli=3, n_sectors=18, cell_radius=0.0)


def test_annulus_boundaries():
    assert GRID.annulus_outer_radius(0) == pytest.approx(1000.0 / 3)
    assert GRID.annulus_outer_radius(1) == pytest.approx(2000.0 / 3)
    assert GRID.annulus_outer_radius(2) == 1000.0  # exact at the cell edge


def test_grid_repr_equality_and_hash_are_by_value():
    assert repr(PartitionGrid()) == "PartitionGrid(n_annuli=3, n_sectors=18, cell_radius=1000.0)"
    assert repr(UePosition(10, 0)) == "UePosition(r=10.0, phi=0.0)"
    assert PartitionGrid() == GRID and hash(PartitionGrid()) == hash(GRID)
    assert PartitionGrid(3, 9) != GRID and GRID != (3, 18, 1000.0)
    assert GRID.__eq__((3, 18, 1000.0)) is NotImplemented


@pytest.mark.parametrize("action", ["assign to", "delete"])
@pytest.mark.parametrize("name", ["cell_radius", "extra"])
def test_grid_is_frozen(action, name):
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot {action} field '{name}'"):
        if action == "assign to":
            setattr(GRID, name, 1.0)
        else:
            delattr(GRID, name)
    assert GRID.cell_radius == 1000.0 and not hasattr(GRID, "extra")


@pytest.mark.parametrize("args, kwargs, message", [
    ((10.0,), {}, "missing .*'phi'"),
    ((10.0, 0.0), {"theta": 0.0}, "argument 'theta'"),
    ((10.0,), {"r": 10.0, "phi": 0.0}, "argument 'r'"),
    ((10.0, 0.0, 1.0), {}, "takes"),
], ids=["missing", "unknown", "repeated", "too_many"])
def test_position_rejects_missing_unknown_or_repeated_arguments(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        UePosition(*args, **kwargs)


def test_position_normalizes_angle():
    assert UePosition(10.0, TWO_PI + 0.5).phi == pytest.approx(0.5)
    assert UePosition(phi=-0.5, r=10) == UePosition(10.0, TWO_PI - 0.5)
    assert UePosition(10.0, -0.5).phi == pytest.approx(TWO_PI - 0.5)
    # A tiny negative angle rounds up to 2 pi itself, which lies in the last sector.
    tiny = UePosition(500.0, -1e-20)
    assert tiny.phi == TWO_PI and locate(tiny, GRID) == CellIndex(1, 17)
    with pytest.raises(ValueError):
        UePosition(-1.0, 0.0)


def test_position_rejects_non_finite_coordinates():
    with pytest.raises(ValueError):
        UePosition(math.nan, 0.0)
    with pytest.raises(ValueError):
        UePosition(10.0, math.inf)


# ---------------------------------------------------------------------------
# locate


def test_locate_origin():
    assert locate(UePosition(0.0, 0.0), GRID) == CellIndex(0, 0)


def test_locate_outer_corner():
    phi = math.nextafter(TWO_PI, 0.0)
    assert locate(UePosition(1000.0, phi), GRID) == CellIndex(2, 17)


def test_locate_boundary_goes_to_higher_index():
    # On an interior boundary the point belongs to the outer/next interval.
    r_boundary = 1000.0 / 3
    assert locate(UePosition(r_boundary, 0.0), GRID).annulus == 1
    phi_boundary = TWO_PI / 18
    assert locate(UePosition(10.0, phi_boundary), GRID).sector == 1


def test_locate_out_of_cell():
    with pytest.raises(ValueError):
        locate(UePosition(1000.1, 0.0), GRID)


def test_locate_matches_boundary_oracle():
    rng = np.random.default_rng(31)
    for pos in random_positions(rng, 10_000, GRID):
        assert locate(pos, GRID) == oracle_locate(pos, GRID)


@given(st.floats(0.0, 1000.0, allow_nan=False), st.floats(0.0, 7.0, allow_nan=False),
       st.integers(1, 7), st.integers(1, 24))
@settings(max_examples=200, deadline=None)
def test_locate_total_and_in_bounds(r, phi, n_annuli, n_sectors):
    grid = PartitionGrid(n_annuli=n_annuli, n_sectors=n_sectors, cell_radius=1000.0)
    cell = locate(UePosition(r, phi), grid)
    assert 0 <= cell.annulus < n_annuli
    assert 0 <= cell.sector < n_sectors


# ---------------------------------------------------------------------------
# CpzState joins


def test_join_single_ue_zooms_to_annulus_boundary():
    state = CpzState(GRID)
    state.join(UePosition(550.0, 0.1))
    assert state.per_sector_zoom == {0: 2 * 1000.0 / 3}


def test_join_same_cell_leaves_zoom_unchanged():
    state = CpzState(GRID)
    state.join(UePosition(550.0, 0.1))
    before = dict(state.per_sector_zoom)
    state.join(UePosition(500.0, 0.12))
    assert state.per_sector_zoom == before


def test_join_closer_ue_keeps_sector_zoom():
    state = CpzState(GRID)
    state.join(UePosition(900.0, 0.1))
    state.join(UePosition(150.0, 0.1))
    assert state.per_sector_zoom == {0: 1000.0}


def test_per_sector_zoom_is_read_only():
    state = CpzState(GRID)
    with pytest.raises(AttributeError):
        state.per_sector_zoom = {0: 1000.0}


def test_join_same_position_twice_is_two_users():
    state = CpzState(GRID)
    state.join(UePosition(550.0, 0.1))
    state.join(UePosition(550.0, 0.1))
    assert state.ue_positions() == [UePosition(550.0, 0.1)] * 2
    assert [sector_of(state, i) for i in range(2)] == [0, 0]


def test_join_prefixes_match_recomputation():
    rng = np.random.default_rng(7)
    positions = random_positions(rng, 1000, GRID)
    state = CpzState(GRID)
    for i, pos in enumerate(positions):
        state.join(pos)
        assert state.ue_positions() == positions[: i + 1]
        assert state.per_sector_zoom == recompute_zooms(GRID, positions[: i + 1])


def test_join_order_does_not_matter():
    rng = np.random.default_rng(17)
    positions = random_positions(rng, 40, GRID)
    reference = CpzState(GRID)
    for pos in positions:
        reference.join(pos)
    for shuffle_round in range(20):
        random.Random(shuffle_round).shuffle(positions)
        state = CpzState(GRID)
        for pos in positions:
            state.join(pos)
        assert state.per_sector_zoom == reference.per_sector_zoom
        assert Counter(state.ue_positions()) == Counter(reference.ue_positions())


def test_zoom_dominates_every_occupant():
    rng = np.random.default_rng(23)
    state = CpzState(GRID)
    positions = random_positions(rng, 200, GRID)
    for pos in positions:
        state.join(pos)
    for pos in positions:
        sector = locate(pos, GRID).sector
        assert state.per_sector_zoom[sector] >= pos.r


# ---------------------------------------------------------------------------
# coverage_requirements


def test_coverage_empty_state():
    assert CpzState(GRID).coverage_requirements() == []


def test_coverage_single_ue():
    state = CpzState(GRID)
    state.join(UePosition(420.0, 2.0))
    entries = state.coverage_requirements()
    assert len(entries) == 1
    assert entries[0].theta == pytest.approx(TWO_PI / 18)
    assert entries[0].zoom_distance == pytest.approx(2000.0 / 3)


def test_coverage_all_sectors_outer_annulus():
    state = CpzState(GRID)
    width = TWO_PI / 18
    for s in range(18):
        state.join(UePosition(950.0, (s + 0.5) * width))
    entries = state.coverage_requirements()
    # Enumerate expectations sector by sector.
    assert [e.sector for e in entries] == list(range(18))
    assert all(e.zoom_distance == 1000.0 for e in entries)
    assert all(e.theta == pytest.approx(width) for e in entries)


def test_max_zoom_tracks_farthest_sector():
    state = CpzState(GRID)
    assert max_zoom(state) is None
    state.join(UePosition(150.0, 0.1))
    assert max_zoom(state) == pytest.approx(1000.0 / 3)
    state.join(UePosition(900.0, 3.0))
    assert max_zoom(state) == 1000.0
