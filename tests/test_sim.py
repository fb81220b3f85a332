"""Scenario, sweep, and emission tests."""

import json
import math
import os
import statistics
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cpzsim import _float_text, rng, sim
from cpzsim._float_text import _float_texts as float_texts
from cpzsim.partition import MAX_COUNT, PartitionGrid, UePosition, locate
from cpzsim.propagation import LognormalShadowing
from cpzsim.schemes import SCHEME_ORDER, SchemeColumns, SchemeKind
from cpzsim.sim import (
    ArcCluster,
    FixedPlacement,
    ScenarioConfig,
    UniformDisk,
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


def trial_reports(columns):
    """Per-trial (always_max, zooming, cpz) report tuples of scheme columns."""
    return [tuple(col.report(t) for col in columns) for t in range(len(columns[0].total_power))]


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


def test_config_rejects_more_fixed_positions_than_k_users():
    positions = tuple(UePosition(i, 500.0, 0.1 * i) for i in range(4))
    with pytest.raises(ValueError, match="4 positions, more than k_users = 3"):
        make_config(k_users=3, placement=FixedPlacement(positions))
    assert make_config(k_users=4, placement=FixedPlacement(positions)).k_users == 4


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


@pytest.mark.parametrize("placement", [UniformDisk(), ArcCluster(3, 1)])
def test_scalar_draws_are_rows_of_the_batch_draw(placement):
    # Trial i's users and shadowing are row i of the batch, whatever n_trials is.
    config = make_config(placement=placement, k_users=7, seed=12,
                         shadowing=LognormalShadowing(sigma_db=8.0, seed=5))
    n = 13
    for n_trials in (n, 2 * n):
        batch = replace(config, n_trials=n_trials)
        radii, angles = sim._trial_users(batch)
        psi = sim._trial_psi(batch, config.k_users)
        assert radii.shape == angles.shape == psi.shape == (n_trials, config.k_users)
        for i in range(n):
            positions = place_ues(config, i)
            assert [p.r for p in positions] == radii[i].tolist()
            assert [p.phi for p in positions] == angles[i].tolist()
            assert config.shadowing.psi(config.k_users, i).tolist() == psi[i].tolist()


def test_batch_angles_past_two_pi_normalize_as_ue_position_does(monkeypatch):
    # 25 * (2 pi / 25) > 2 pi, so a 25-of-25 arc cluster's largest draws reach
    # 2 pi, which UePosition's % TWO_PI folds to 0.0.
    top = math.nextafter(1.0, 0.0)
    u = np.array([top, math.nextafter(top, 0.0), 1 - 2**-40, 0.5, 0.0])
    monkeypatch.setattr(sim, "uniform_rows", lambda seed, purpose, start, stop, width:
                        np.tile(u, (stop - start, 2)))
    config = make_config(grid=PartitionGrid(3, 25), placement=ArcCluster(25, 2), k_users=5,
                         n_trials=2)
    assert sim._draw_users(config, 0, 1)[1].max() == TWO_PI
    angles = sim._trial_users(config)[1]
    for i in range(config.n_trials):
        assert [p.phi for p in place_ues(config, i)] == angles[i].tolist()
    assert angles[0, 0] == 0.0


def test_reports_of_a_prefix_of_trials_do_not_depend_on_n_trials():
    config = make_config(seed=4, n_trials=9, shadowing=LognormalShadowing(sigma_db=8.0, seed=2))
    assert trial_reports(run_comparison(replace(config, n_trials=5))) == \
        trial_reports(run_comparison(config))[:5]


def test_placement_and_shadowing_independent_under_default_seeds():
    # Both seeds default to 0. Each user's placement uniforms (radius through
    # its ring-area CDF, and angle) and its shadowing draw (through the normal
    # CDF) must fill a 10 x 10 grid of equal-probability cells evenly: a
    # chi-square of 180.8 on 99 degrees of freedom has p = 1e-6.
    config = make_config(n_trials=20_000, shadowing=LognormalShadowing())
    radii, angles = sim._trial_users(config)
    gauss = 10.0 * np.log10(sim._trial_psi(config, config.k_users)) / config.shadowing.sigma_db
    deciles = [statistics.NormalDist().inv_cdf(q / 10) for q in range(1, 10)]
    shadow_bin = np.digitize(gauss, deciles).ravel()
    r0, big_r = config.budget.r0, config.grid.cell_radius
    for u in ((radii**2 - r0**2) / (big_r**2 - r0**2), angles / TWO_PI):
        place_bin = np.minimum((u * 10).astype(int), 9).ravel()
        counts = np.bincount(place_bin * 10 + shadow_bin, minlength=100)
        expected = u.size / 100
        assert ((counts - expected) ** 2 / expected).sum() < 180.8


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
    (reports,) = trial_reports(run_comparison(config))
    assert [r.scheme for r in reports] == [SchemeKind.ALWAYS_MAX, SchemeKind.ZOOMING,
                                           SchemeKind.CPZ]
    p_max, p_zoom, p_cpz = (r.total_power for r in reports)
    assert p_cpz <= p_zoom <= p_max


def test_run_comparison_ordering_holds_across_trials():
    config = make_config(n_trials=100, seed=3)
    for reports in trial_reports(run_comparison(config)):
        p_max, p_zoom, p_cpz = (r.total_power for r in reports)
        assert p_cpz <= p_zoom <= p_max


def test_run_comparison_single_sector_cluster_fraction():
    config = make_config(placement=ArcCluster(sector_count_occupied=1, annulus=2),
                         n_trials=20, seed=21)
    for reports in trial_reports(run_comparison(config)):
        _, zoom, cpz = reports
        assert cpz.total_power == pytest.approx(zoom.total_power / 18, rel=1e-12)


def test_run_comparison_lognormal_shadowing_changes_rates_not_power():
    base = make_config(n_trials=4, seed=6)
    shadowed = make_config(n_trials=4, seed=6,
                           shadowing=LognormalShadowing(sigma_db=8.0, seed=1))
    for plain, faded in zip(trial_reports(run_comparison(base)),
                            trial_reports(run_comparison(shadowed))):
        for a, b in zip(plain, faded):
            assert a.total_power == b.total_power
            assert a.sum_rate != b.sum_rate


# ---------------------------------------------------------------------------
# sweep_distance


def test_sweep_distance_shape_and_order():
    config = make_config(n_trials=2)
    run = sweep_distance(config, [600.0, 200.0, 1000.0])
    values = [row.sweep_var for row in run.rows]
    assert values == sorted(values)
    assert len(run.rows) == 3 * 3
    assert sum(len(col.total_power) for columns in run.reports.values() for col in columns) \
        == 3 * 3 * 2


def test_sweep_distance_edge_row_matches_always_max():
    config = make_config(n_trials=1)
    run = sweep_distance(config, [1000.0])
    by_scheme = {row.scheme: row for row in run.rows}
    assert by_scheme[SchemeKind.ZOOMING].mean_total_power == \
        by_scheme[SchemeKind.ALWAYS_MAX].mean_total_power


def test_sweep_distance_power_monotone():
    config = make_config(n_trials=1)
    run = sweep_distance(config, [150.0, 300.0, 450.0, 600.0, 750.0, 900.0, 1000.0])
    for kind in (SchemeKind.ZOOMING, SchemeKind.CPZ):
        powers = [row.mean_total_power for row in run.rows if row.scheme is kind]
        assert all(a <= b for a, b in zip(powers, powers[1:]))


def test_sweep_distance_cpz_is_sector_fraction_everywhere():
    config = make_config(n_trials=1)
    run = sweep_distance(config, [200.0, 400.0, 600.0, 800.0, 1000.0])
    zoom = {row.sweep_var: row.mean_total_power for row in run.rows
            if row.scheme is SchemeKind.ZOOMING}
    cpz = {row.sweep_var: row.mean_total_power for row in run.rows
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
    by_scheme = {row.scheme: row for row in run.rows}
    assert by_scheme[SchemeKind.CPZ].mean_total_power == \
        by_scheme[SchemeKind.ZOOMING].mean_total_power


def test_sweep_sectors_power_halves_from_9_to_18():
    config = make_config(n_trials=1, seed=2)
    run = sweep_sectors(config, [9, 18])
    cpz = {row.sweep_var: row.mean_total_power for row in run.rows
           if row.scheme is SchemeKind.CPZ}
    assert cpz[18] == pytest.approx(cpz[9] / 2, rel=1e-12)


def test_sweep_sectors_ee_nondecreasing():
    config = make_config(n_trials=3, seed=2)
    run = sweep_sectors(config, [1, 2, 6, 9, 18])
    ees = [row.mean_ee for row in run.rows if row.scheme is SchemeKind.CPZ]
    assert all(ee is not None for ee in ees)
    assert all(a <= b for a, b in zip(ees, ees[1:]))


def test_sweep_sectors_uses_fixed_placement_verbatim():
    positions = (UePosition(0, 980.0, 0.05), UePosition(1, 960.0, 0.08))
    config = make_config(placement=FixedPlacement(positions), n_trials=1)
    run = sweep_sectors(config, [1, 18])
    cpz = {row.sweep_var: row.mean_total_power for row in run.rows
           if row.scheme is SchemeKind.CPZ}
    assert cpz[18] == pytest.approx(cpz[1] / 18, rel=1e-12)


def test_sweep_sectors_reuses_users_and_shadowing_per_trial():
    config = ScenarioConfig(
        placement=ArcCluster(sector_count_occupied=2, annulus=1),
        shadowing=LognormalShadowing(sigma_db=8.0, seed=3), seed=5, n_trials=4)
    counts = [2, 3, 9, 18]
    run = sweep_sectors(config, counts)
    always_max = {}
    for count, columns in run.reports.items():
        for trial, reports in enumerate(trial_reports(columns)):
            rep = reports[0]
            assert rep.scheme is SchemeKind.ALWAYS_MAX
            assert rep.n_active_sectors == count
            always_max.setdefault(trial, []).append((rep.total_power, rep.sum_rate, rep.ee))
    assert len(always_max) == config.n_trials
    for reports in always_max.values():
        assert len(reports) == len(counts)
        assert reports == [reports[0]] * len(counts)
    # Shadowing does vary the rates from trial to trial.
    assert len({reports[0] for reports in always_max.values()}) == config.n_trials


def test_sweep_sectors_draws_users_and_shadowing_once_per_trial(monkeypatch):
    calls = []

    def counting(substream):
        def wrapped(*key):
            calls.append(key)
            return substream(*key)
        return wrapped

    monkeypatch.setattr(rng, "substream", counting(rng.substream))
    config = make_config(shadowing=LognormalShadowing(sigma_db=8.0, seed=3), n_trials=6)
    sweep_sectors(config, [1, 2, 3, 6, 9, 18, 36])
    # One placement stream and one shadowing stream per sweep, whatever the
    # count or the number of trials: each trial's row is drawn once.
    assert calls == [(0, rng.PLACEMENT), (3, rng.SHADOWING)]


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


def oracle_csv(reports):
    """The CSV as one f-string per (value, trial, scheme) row, repr per float."""
    lines = [CSV_HEADER]
    for value, columns in reports.items():
        sweep_var = "" if value is None else repr(value)
        for trial in range(len(columns[0].total_power)):
            for rep in (col.report(trial) for col in columns):
                ee = "" if rep.ee is None else repr(rep.ee)
                lines.append(f"{sweep_var},{rep.scheme.value},{trial},{rep.total_power!r},"
                             f"{rep.sum_rate!r},{ee},{rep.n_active_sectors}")
    return "\n".join(lines) + "\n"


# Floats the writer must format exactly as repr does: both zeros, two NaN
# objects and a NaN with its sign bit set, the extremes and an inexact sum,
# each side of the positional/scientific switches, the smallest normal and a
# negative value.
AWKWARD = [0.0, -0.0, math.nan, float("nan"), math.copysign(math.nan, -1), 5e-324,
           1.7976931348623157e308, 0.1 + 0.2, 2.5e-11, 1e16, 9999999999999998.0, 1e-05,
           0.0001, 1e22, 2.2250738585072014e-308, -1234.5]


def synthetic_columns(n_trials):
    """Scheme columns cycling through AWKWARD, so values repeat across schemes,
    trials and chunks; zooming and cpz sleep on every third trial."""
    def cycle(k, step):
        return np.array([AWKWARD[(step * t + k) % len(AWKWARD)] for t in range(n_trials)])
    return tuple(SchemeColumns(kind, cycle(k, 1), cycle(k, 3), cycle(k, 5),
                               np.array([(t + k) % 19 for t in range(n_trials)]),
                               np.array([bool(k) and t % 3 == 0 for t in range(n_trials)]))
                 for k, kind in enumerate(SCHEME_ORDER))


def test_report_gives_python_scalars_and_none_exactly_where_sleeping():
    for columns in (synthetic_columns(9), run_comparison(make_config(n_trials=3, seed=1)),
                    run_comparison(make_config(placement=FixedPlacement(()), n_trials=2))):
        for col in columns:
            for t, sleeping in enumerate(col.sleeping.tolist()):
                report = col.report(t)
                assert type(report.total_power) is float and type(report.sum_rate) is float
                assert type(report.n_active_sectors) is int
                assert report.ee is None if sleeping else type(report.ee) is float


def check_csv(tmp_path, reports):
    expected = oracle_csv(reports)
    assert format_records_csv(reports) == expected
    out = tmp_path / "records.csv"
    write_records_csv(out, reports)
    assert out.read_bytes() == expected.encode("ascii")
    return expected


def test_csv_matches_row_formula_on_awkward_floats(tmp_path):
    text = check_csv(tmp_path, {None: synthetic_columns(3 * len(AWKWARD))})
    rows = [line.split(",") for line in text.splitlines()[1:]]
    powers = {row[3] for row in rows}
    assert {"0.0", "-0.0", "nan", "5e-324", "1.7976931348623157e+308"} <= powers
    assert any(row[5] == "" for row in rows if row[1] != "always_max")


def test_csv_keeps_signed_zeros_apart_across_columns(tmp_path):
    # 0.0 and -0.0 compare equal; in one chunk each column keeps its own text.
    zeros, n_active, awake = np.array([0.0, -0.0]), np.zeros(2, dtype=np.int64), np.zeros(2, bool)
    columns = tuple(SchemeColumns(kind, zeros, zeros[::-1].copy(), zeros, n_active, awake)
                    for kind in SCHEME_ORDER)
    rows = [line.split(",")[3:6] for line in check_csv(tmp_path, {None: columns}).splitlines()]
    assert rows[1] == ["0.0", "-0.0", "0.0"] and rows[4] == ["-0.0", "0.0", "-0.0"]


def chunk_bit_patterns(reports):
    """Distinct float bit patterns of each _CSV_CHUNK-trial chunk, in CSV order."""
    return [{struct.pack("<d", x) for col in columns
             for field in (col.total_power, col.sum_rate, col.ee)
             for x in field[start:start + sim._CSV_CHUNK].tolist()}
            for columns in reports.values()
            for start in range(0, len(columns[0].total_power), sim._CSV_CHUNK)]


def formatted_patterns(monkeypatch):
    """The bit patterns of each _float_texts call from now on, one set per call."""
    inputs = []

    def counted_texts(x):
        inputs.append({struct.pack("<d", v) for v in x.tolist()})
        return float_texts(x)

    monkeypatch.setattr(_float_text, "_float_texts", counted_texts)
    return inputs


def test_csv_formats_each_distinct_bit_pattern_once_per_chunk(tmp_path, monkeypatch):
    # No chunk here repeats the previous chunk's trials: each formats exactly
    # its own distinct patterns, once for format_records_csv and once for
    # write_records_csv.
    float_reprs = []

    def counted_repr(x):
        if isinstance(x, float):
            float_reprs.append(x)
        return repr(x)

    inputs = formatted_patterns(monkeypatch)
    for module in (sim, _float_text):
        monkeypatch.setattr(module, "repr", counted_repr, raising=False)
    n_trials = 2 * sim._CSV_CHUNK + 3
    for reports in ({None: synthetic_columns(n_trials)},
                    {None: run_comparison(make_config(n_trials=n_trials, seed=5))},
                    sweep_sectors(make_config(n_trials=n_trials, seed=5), [1, 6]).reports):
        inputs.clear()
        float_reprs.clear()
        check_csv(tmp_path, reports)
        assert inputs == 2 * chunk_bit_patterns(reports)
    # Only NaN and infinities go through repr, and default runs have neither.
    assert float_reprs == []


def test_sweep_chunk_over_the_previous_trials_formats_only_new_patterns(tmp_path, monkeypatch):
    # One chunk per count: each count after the first shares always-max's and
    # zooming's arrays with the one before, so it formats only the patterns
    # the previous count's chunk lacks.
    inputs = formatted_patterns(monkeypatch)
    reports = sweep_sectors(make_config(n_trials=300, seed=5), [1, 6, 18]).reports
    check_csv(tmp_path, reports)
    patterns = chunk_bit_patterns(reports)
    missing = [now - before for before, now in zip([set()] + patterns, patterns)]
    assert inputs == 2 * [new for new in missing if new]
    assert all(len(new) < len(now) for new, now in zip(missing[1:], patterns[1:]))


def test_cli_import_leaves_the_csv_formatter_unloaded():
    # Loaded where the CSV is written, so no command compiles it at start-up.
    src = os.path.dirname(os.path.dirname(sim.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import cpzsim.cli; "
            "print('cpzsim._float_text' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_csv_writer_memory_does_not_grow_with_n_trials(tmp_path):
    # About as many distinct floats per chunk as a default-scenario run has (4k):
    # the peak is one chunk's texts and rows, whatever the number of chunks.
    def peak(n_trials):
        draws = np.random.default_rng(n_trials).integers(0, 4096, (9, n_trials)) / 7
        columns = tuple(SchemeColumns(kind, *draws[3 * k:3 * k + 3],
                                      np.arange(n_trials), np.zeros(n_trials, dtype=bool))
                        for k, kind in enumerate(SCHEME_ORDER))
        tracemalloc.start()
        try:
            write_records_csv(tmp_path / "records.csv", {None: columns})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16 * sim._CSV_CHUNK) < 1.25 * peak(4 * sim._CSV_CHUNK)


@pytest.mark.parametrize("values", [[1, 6, 18], [250.5, 1000.0]], ids=["int", "float"])
def test_csv_matches_row_formula_on_sweep_values(tmp_path, values):
    text = check_csv(tmp_path, {value: synthetic_columns(5) for value in values})
    assert [line.split(",")[0] for line in text.splitlines()[1::15]] == [repr(v) for v in values]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_csv_matches_row_formula_at_chunk_boundaries(tmp_path, offset):
    n_trials = sim._CSV_CHUNK + offset
    check_csv(tmp_path, {None: synthetic_columns(n_trials), 7.5: synthetic_columns(n_trials)})
    reports = {None: run_comparison(make_config(n_trials=n_trials, seed=2))}
    assert len(check_csv(tmp_path, reports).splitlines()) == 1 + 3 * n_trials


def test_csv_matches_row_formula_on_wide_integers(tmp_path):
    # Trial indices past 1e5 and counts near MAX_COUNT fill the integer blocks.
    n_trials = 100_003
    counts = MAX_COUNT - np.arange(n_trials) % 11
    columns = tuple(col._replace(n_active_sectors=counts - k)
                    for k, col in enumerate(synthetic_columns(n_trials)))
    lines = check_csv(tmp_path, {None: columns}).splitlines()
    assert lines[-1].split(",")[2::4] == ["100002", str(MAX_COUNT - 2 - 100002 % 11)]


def test_csv_header_and_shape(tmp_path):
    config = make_config(n_trials=2, seed=4)
    reports = {None: run_comparison(config)}
    text = format_records_csv(reports)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 3
    assert text.endswith("\n")
    out = tmp_path / "reports.csv"
    write_records_csv(out, reports)
    assert out.read_text() == text


def test_csv_empty_cell_has_blank_ee(tmp_path):
    config = make_config(placement=FixedPlacement(()), n_trials=1)
    lines = format_records_csv({None: run_comparison(config)}).splitlines()
    rows = {line.split(",")[1]: line.split(",") for line in lines[1:]}
    assert rows["zooming"][3] == "0.0"  # total_power_w
    assert rows["zooming"][5] == ""     # ee empty, not 0
    assert rows["cpz"][5] == ""
    assert rows["always_max"][5] != ""


def test_csv_deterministic_bytes(tmp_path):
    config = make_config(n_trials=5, seed=123)
    a = format_records_csv({None: run_comparison(config)})
    b = format_records_csv({None: run_comparison(config)})
    assert a == b


def test_sweep_json_mirrors_result(tmp_path):
    config = make_config(n_trials=2, seed=4)
    run = sweep_distance(config, [400.0, 800.0])
    out = tmp_path / "sweep.json"
    write_sweep_json(out, run)
    doc = json.loads(out.read_text())
    assert doc["variable"] == "distance"
    assert len(doc["rows"]) == len(run.rows)
    first = doc["rows"][0]
    assert set(first) == {"sweep_var", "scheme", "mean_total_power_w",
                          "mean_ee_bit_per_joule", "n_trials_defined"}
    for row, emitted in zip(run.rows, doc["rows"]):
        assert emitted["scheme"] == row.scheme.value
        assert emitted["mean_total_power_w"] == row.mean_total_power


def test_sweep_json_null_for_undefined_ee(tmp_path):
    # An empty fixed placement never radiates under zooming/cpz.
    config = make_config(placement=FixedPlacement(()), n_trials=1)
    run = sweep_sectors(config, [1, 18])
    doc_rows = []
    out = tmp_path / "s.json"
    write_sweep_json(out, run)
    doc_rows = json.loads(out.read_text())["rows"]
    zoom_rows = [r for r in doc_rows if r["scheme"] == "zooming"]
    assert all(r["mean_ee_bit_per_joule"] is None for r in zoom_rows)
    assert all(r["n_trials_defined"] == 0 for r in zoom_rows)
