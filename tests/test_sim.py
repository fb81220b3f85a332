"""Scenario, sweep, and emission tests."""

import json
import math

import pytest

from cpzsim.partition import PartitionGrid, UePosition, locate
from cpzsim.propagation import LognormalShadowing
from cpzsim.schemes import SchemeKind
from cpzsim.sim import (
    ArcCluster,
    FixedPlacement,
    ScenarioConfig,
    UniformDisk,
    comparison_records,
    format_records_csv,
    place_ues,
    run_comparison,
    sweep_distance,
    sweep_sectors,
    write_records_csv,
    write_sweep_json,
    CSV_HEADER,
)

TWO_PI = 2.0 * math.pi


def make_config(**overrides):
    return ScenarioConfig(**overrides)


# ---------------------------------------------------------------------------
# ScenarioConfig validation


def test_config_rejects_k_not_less_than_m():
    with pytest.raises(ValueError):
        make_config(k_users=200, m_antennas=200)


def test_config_rejects_radius_mismatch():
    with pytest.raises(ValueError):
        make_config(grid=PartitionGrid(3, 18, 500.0))


def test_config_rejects_arc_cluster_outside_grid():
    with pytest.raises(ValueError):
        make_config(placement=ArcCluster(sector_count_occupied=19, annulus=0))
    with pytest.raises(ValueError):
        make_config(placement=ArcCluster(sector_count_occupied=1, annulus=3))


def test_config_rejects_bad_fixed_positions():
    with pytest.raises(ValueError):
        make_config(placement=FixedPlacement((UePosition(0, 50.0, 0.0),)))  # inside r0
    with pytest.raises(ValueError):
        make_config(placement=FixedPlacement((UePosition(0, 1200.0, 0.0),)))  # outside cell
    with pytest.raises(ValueError):
        make_config(placement=FixedPlacement(
            (UePosition(0, 500.0, 0.0), UePosition(0, 600.0, 1.0))))  # duplicate id


# ---------------------------------------------------------------------------
# place_ues


def test_fixed_placement_returned_verbatim():
    positions = (UePosition(0, 500.0, 1.0), UePosition(1, 700.0, 2.0))
    config = make_config(placement=FixedPlacement(positions))
    assert place_ues(config, 0) == list(positions)
    assert place_ues(config, 5) == list(positions)


def test_placement_deterministic_per_trial():
    config = make_config(seed=9)
    assert place_ues(config, 3) == place_ues(config, 3)
    assert place_ues(config, 3) != place_ues(config, 4)


def test_placement_independent_of_n_trials():
    a = place_ues(make_config(seed=9, n_trials=5), 2)
    b = place_ues(make_config(seed=9, n_trials=50), 2)
    assert a == b


def test_uniform_disk_area_fraction():
    # Fraction of draws inside r <= R/2 matches the ring-area ratio.
    config = make_config(k_users=100, seed=31)
    inside = total = 0
    for trial in range(1000):
        for pos in place_ues(config, trial):
            total += 1
            inside += pos.r <= 500.0
    r0, radius = config.budget.r0, config.grid.cell_radius
    expected = (0.25 * radius**2 - r0**2) / (radius**2 - r0**2)
    assert abs(inside / total - expected) < 0.01


def test_uniform_disk_stays_in_serviceable_ring():
    config = make_config(k_users=50, seed=8)
    for trial in range(20):
        for pos in place_ues(config, trial):
            assert config.budget.r0 <= pos.r <= config.grid.cell_radius


def test_arc_cluster_confined_to_sector_and_annulus():
    config = make_config(placement=ArcCluster(sector_count_occupied=1, annulus=2),
                         k_users=50, seed=12)
    for trial in range(20):
        for pos in place_ues(config, trial):
            cell = locate(pos, config.grid)
            assert cell.sector == 0
            assert cell.annulus == 2


def test_arc_cluster_multiple_sectors():
    config = make_config(placement=ArcCluster(sector_count_occupied=3, annulus=1),
                         k_users=150, seed=12)
    sectors = {locate(pos, config.grid).sector for pos in place_ues(config, 0)}
    assert sectors <= {0, 1, 2}
    annuli = {locate(pos, config.grid).annulus for pos in place_ues(config, 0)}
    assert annuli == {1}


# ---------------------------------------------------------------------------
# run_comparison


def test_run_comparison_single_fixed_ue():
    config = make_config(
        placement=FixedPlacement((UePosition(0, 550.0, 0.1),)), n_trials=1)
    (reports,) = run_comparison(config)
    assert [r.scheme for r in reports] == [SchemeKind.ALWAYS_MAX, SchemeKind.ZOOMING,
                                           SchemeKind.CPZ]
    p_max, p_zoom, p_cpz = (r.total_power for r in reports)
    assert p_cpz <= p_zoom <= p_max


def test_run_comparison_ordering_holds_across_trials():
    config = make_config(n_trials=100, seed=3)
    for reports in run_comparison(config):
        p_max, p_zoom, p_cpz = (r.total_power for r in reports)
        assert p_cpz <= p_zoom <= p_max


def test_run_comparison_single_sector_cluster_fraction():
    config = make_config(placement=ArcCluster(sector_count_occupied=1, annulus=2),
                         n_trials=20, seed=21)
    for reports in run_comparison(config):
        _, zoom, cpz = reports
        assert cpz.total_power == pytest.approx(zoom.total_power / 18, rel=1e-12)


def test_run_comparison_lognormal_shadowing_changes_rates_not_power():
    base = make_config(n_trials=4, seed=6)
    shadowed = make_config(n_trials=4, seed=6,
                           shadowing=LognormalShadowing(sigma_db=8.0, seed=1))
    for plain, faded in zip(run_comparison(base), run_comparison(shadowed)):
        for a, b in zip(plain, faded):
            assert a.total_power == b.total_power
            assert a.sum_rate != b.sum_rate


# ---------------------------------------------------------------------------
# sweep_distance


def test_sweep_distance_shape_and_order():
    config = make_config(n_trials=2)
    run = sweep_distance(config, [600.0, 200.0, 1000.0])
    values = [row.sweep_var for row in run.result.rows]
    assert values == sorted(values)
    assert len(run.result.rows) == 3 * 3
    assert len(run.records) == 3 * 3 * 2


def test_sweep_distance_edge_row_matches_always_max():
    config = make_config(n_trials=1)
    run = sweep_distance(config, [1000.0])
    by_scheme = {row.scheme: row for row in run.result.rows}
    assert by_scheme[SchemeKind.ZOOMING].mean_total_power == \
        by_scheme[SchemeKind.ALWAYS_MAX].mean_total_power


def test_sweep_distance_power_monotone():
    config = make_config(n_trials=1)
    run = sweep_distance(config, [150.0, 300.0, 450.0, 600.0, 750.0, 900.0, 1000.0])
    for kind in (SchemeKind.ZOOMING, SchemeKind.CPZ):
        powers = [row.mean_total_power for row in run.result.rows if row.scheme is kind]
        assert all(a <= b for a, b in zip(powers, powers[1:]))


def test_sweep_distance_cpz_is_sector_fraction_everywhere():
    config = make_config(n_trials=1)
    run = sweep_distance(config, [200.0, 400.0, 600.0, 800.0, 1000.0])
    zoom = {row.sweep_var: row.mean_total_power for row in run.result.rows
            if row.scheme is SchemeKind.ZOOMING}
    cpz = {row.sweep_var: row.mean_total_power for row in run.result.rows
           if row.scheme is SchemeKind.CPZ}
    for d in zoom:
        assert cpz[d] == pytest.approx(zoom[d] / 18, rel=1e-12)


def test_sweep_distance_rejects_out_of_range():
    config = make_config(n_trials=1)
    with pytest.raises(ValueError):
        sweep_distance(config, [50.0])
    with pytest.raises(ValueError):
        sweep_distance(config, [1200.0])


# ---------------------------------------------------------------------------
# sweep_sectors


def test_sweep_sectors_single_sector_equals_zooming():
    config = make_config(n_trials=1, seed=2)
    run = sweep_sectors(config, [1])
    by_scheme = {row.scheme: row for row in run.result.rows}
    assert by_scheme[SchemeKind.CPZ].mean_total_power == \
        by_scheme[SchemeKind.ZOOMING].mean_total_power


def test_sweep_sectors_power_halves_from_9_to_18():
    config = make_config(n_trials=1, seed=2)
    run = sweep_sectors(config, [9, 18])
    cpz = {row.sweep_var: row.mean_total_power for row in run.result.rows
           if row.scheme is SchemeKind.CPZ}
    assert cpz[18] == pytest.approx(cpz[9] / 2, rel=1e-12)


def test_sweep_sectors_ee_nondecreasing():
    config = make_config(n_trials=3, seed=2)
    run = sweep_sectors(config, [1, 2, 6, 9, 18])
    ees = [row.mean_ee for row in run.result.rows if row.scheme is SchemeKind.CPZ]
    assert all(ee is not None for ee in ees)
    assert all(a <= b for a, b in zip(ees, ees[1:]))


def test_sweep_sectors_uses_fixed_placement_verbatim():
    positions = (UePosition(0, 980.0, 0.05), UePosition(1, 960.0, 0.08))
    config = make_config(placement=FixedPlacement(positions), n_trials=1)
    run = sweep_sectors(config, [1, 18])
    cpz = {row.sweep_var: row.mean_total_power for row in run.result.rows
           if row.scheme is SchemeKind.CPZ}
    assert cpz[18] == pytest.approx(cpz[1] / 18, rel=1e-12)


def test_sweep_sectors_rejects_bad_counts():
    config = make_config(n_trials=1)
    with pytest.raises(ValueError):
        sweep_sectors(config, [0, 9])
    with pytest.raises(ValueError):
        sweep_sectors(config, [])


def test_sweeps_reject_duplicate_values():
    config = make_config(n_trials=3)
    with pytest.raises(ValueError, match="distinct"):
        sweep_sectors(config, [6, 6])
    with pytest.raises(ValueError, match="distinct"):
        sweep_distance(config, [300, 700.0, 300.0])


# ---------------------------------------------------------------------------
# Emission


def test_csv_header_and_shape(tmp_path):
    config = make_config(n_trials=2, seed=4)
    records = comparison_records(run_comparison(config))
    text = format_records_csv(records)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 3
    assert text.endswith("\n")
    out = tmp_path / "reports.csv"
    write_records_csv(out, records)
    assert out.read_text() == text


def test_csv_empty_cell_has_blank_ee(tmp_path):
    config = make_config(placement=FixedPlacement(()), n_trials=1)
    records = comparison_records(run_comparison(config))
    lines = format_records_csv(records).splitlines()
    rows = {line.split(",")[1]: line.split(",") for line in lines[1:]}
    assert rows["zooming"][3] == "0.0"  # total_power_w
    assert rows["zooming"][5] == ""     # ee empty, not 0
    assert rows["cpz"][5] == ""
    assert rows["always_max"][5] != ""


def test_csv_deterministic_bytes(tmp_path):
    config = make_config(n_trials=5, seed=123)
    a = format_records_csv(comparison_records(run_comparison(config)))
    b = format_records_csv(comparison_records(run_comparison(config)))
    assert a == b


def test_sweep_json_mirrors_result(tmp_path):
    config = make_config(n_trials=2, seed=4)
    run = sweep_distance(config, [400.0, 800.0])
    out = tmp_path / "sweep.json"
    write_sweep_json(out, run.result)
    doc = json.loads(out.read_text())
    assert doc["variable"] == "distance"
    assert len(doc["rows"]) == len(run.result.rows)
    first = doc["rows"][0]
    assert set(first) == {"sweep_var", "scheme", "mean_total_power_w",
                          "mean_ee_bit_per_joule", "n_trials_defined"}
    for row, emitted in zip(run.result.rows, doc["rows"]):
        assert emitted["scheme"] == row.scheme.value
        assert emitted["mean_total_power_w"] == row.mean_total_power


def test_sweep_json_null_for_undefined_ee(tmp_path):
    # An empty fixed placement never radiates under zooming/cpz.
    config = make_config(placement=FixedPlacement(()), n_trials=1)
    run = sweep_sectors(config, [1, 18])
    doc_rows = []
    out = tmp_path / "s.json"
    write_sweep_json(out, run.result)
    doc_rows = json.loads(out.read_text())["rows"]
    zoom_rows = [r for r in doc_rows if r["scheme"] == "zooming"]
    assert all(r["mean_ee_bit_per_joule"] is None for r in zoom_rows)
    assert all(r["n_trials_defined"] == 0 for r in zoom_rows)
