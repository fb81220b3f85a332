"""End-to-end command-line tests, run in-process against cli.main."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpzsim import cli, mimo, rng
from cpzsim.partition import PartitionGrid, UePosition
from cpzsim.rng import substream
from cpzsim.propagation import (
    DeterministicUnitShadowing,
    LinkBudget,
    LognormalShadowing,
    ShadowingMode,
)
from cpzsim.sim import ArcCluster, FixedPlacement, Placement, ScenarioConfig, UniformDisk


def run_cli(args):
    return cli.main(args)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_reports_wishart_error(capsys):
    assert run_cli(["verify", "--trials", "2000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] zf_identity" in out
    assert "[PASS] sinr_uniformity" in out
    match = re.search(r"\[PASS\] wishart_trace: relative error = ([0-9.eE+-]+)", out)
    assert match, out
    assert float(match.group(1)) < 0.02


def test_verify_stdout_is_pinned(capsys):
    # 300 trials span several stacked blocks plus a remainder; the Monte Carlo
    # mean, hence the text, must not depend on how the trials are grouped.
    assert run_cli(["verify", "--trials", "300", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        "[PASS] zf_identity: max |HW - I| = 1.332e-15 (tol 1e-09)\n"
        "[PASS] wishart_trace: relative error = 0.0017, z = +1.21 (tol |z| < 5, 300 trials)\n"
        "[PASS] sinr_uniformity: max relative spread = 3.255e-15, "
        "max deviation from common value = 2.515e-15 (tol 1e-09)\n"
    )


def test_benchmarked_verify_stdout_is_pinned(capsys):
    # The benchmark's verify workload, seed 0: its whole stdout, byte for byte.
    assert run_cli(["verify", "--trials", "10000", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (
        "[PASS] zf_identity: max |HW - I| = 1.337e-15 (tol 1e-09)\n"
        "[PASS] wishart_trace: relative error = 0.0005, z = -2.24 (tol |z| < 5, 10000 trials)\n"
        "[PASS] sinr_uniformity: max relative spread = 2.989e-15, "
        "max deviation from common value = 1.644e-15 (tol 1e-09)\n"
    )


def test_verify_wishart_gate_catches_a_one_percent_model_error(monkeypatch, capsys):
    # The per-trial traces spread by about 2.4%, so at 2000 trials a 1% error
    # in K / (M - K) is about 19 standard errors: far outside |z| < 5.
    expectation = mimo.wishart_trace_expectation
    monkeypatch.setattr(mimo, "wishart_trace_expectation", lambda k, m: 1.01 * expectation(k, m))
    assert run_cli(["verify", "--trials", "2000", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    match = re.search(r"\[FAIL\] wishart_trace: relative error = ([0-9.]+), z = ([0-9.+-]+) ", out)
    assert match, out
    # Inside the old fixed 2% relative gate, yet far outside the z gate.
    assert float(match.group(1)) < 0.02 and float(match.group(2)) < -15


def test_verify_checks_draw_from_their_own_streams(monkeypatch):
    # Each check keys its streams by (seed, its own purpose): the channel checks
    # draw all their channels from that stream, the Wishart check its Grams from
    # the stream's two children.
    keys = []

    def recording(seed, *key):
        keys.append((seed, *key))
        return substream(seed, *key)

    monkeypatch.setattr(cli, "substream", recording)
    monkeypatch.setattr(mimo, "substream", recording)
    seed = 8
    checks = {rng.ZF_CHECK: lambda: cli._check_zf_identity(seed),
              rng.CHANNEL: lambda: cli._check_wishart(seed, 100),
              rng.SINR_CHECK: lambda: cli._check_sinr_uniformity(seed)}
    expected = {rng.ZF_CHECK: [(seed, rng.ZF_CHECK)],
                rng.CHANNEL: [(seed, rng.CHANNEL, 0), (seed, rng.CHANNEL, 1)],
                rng.SINR_CHECK: [(seed, rng.SINR_CHECK)]}
    assert len(set(checks)) == 3
    for purpose, check in checks.items():
        keys.clear()
        assert check()[0]
        assert keys == expected[purpose]
    # Neither check's first channel is the first channel of stream (seed, CHANNEL),
    # nor each other's.
    firsts = [mimo.sample_channel(10, 200, seed).entries,
              next(mimo.draw_channels(substream(seed, rng.ZF_CHECK), 1, 10, 200)).entries[0],
              next(mimo.draw_channels(substream(seed, rng.SINR_CHECK), 1, 10, 200)).entries[0]]
    assert not any(np.array_equal(a, b) for i, a in enumerate(firsts) for b in firsts[i + 1:])


def test_verify_runs_eigvalsh_only_for_the_common_sinr(monkeypatch):
    # The ZF core certifies the ZF and SINR checks' 124 channels and
    # _factor_traces the Wishart blocks; only the 20 common SINRs' inverse traces,
    # which the SINR check compares against, come from eigenvalues, one call per
    # channel stack of the SINR check.
    calls = []
    eigenvalues = mimo._eigenvalues
    monkeypatch.setattr(mimo, "_eigenvalues",
                        lambda gram: calls.append(gram.shape) or eigenvalues(gram))
    assert all(ok for _, ok, _ in cli.run_verification(0, 10_000))
    assert calls == 6 * [(3, 10, 10)] + [(2, 10, 10)]


def test_verify_single_trial_skips_wishart(capsys):
    assert run_cli(["verify", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] wishart_trace" in out
    assert "[PASS] zf_identity" in out


def test_verify_impossible_tolerance_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ZF_TOL", 1e-20)
    assert run_cli(["verify", "--trials", "1"]) == 1
    assert "[FAIL] zf_identity" in capsys.readouterr().out


def test_verify_tolerance_is_not_a_flag(capsys):
    assert run_cli(["verify", "--zf-tol", "1e-9"]) == 2
    assert "unrecognized arguments: --zf-tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "0"],
    ["verify", "--trials", "-5"],
    ["simulate", "--trials", "0"],
    ["sweep", "--variable", "sectors", "--values", "1", "--trials", "-1"],
], ids=" ".join)
def test_non_positive_or_non_finite_flag_exits_2(capsys, argv):
    assert run_cli(argv) == 2
    assert argv[-2] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def check_empty_cell_run(tmp_path, placement):
    config = write_config(tmp_path, {"placement": placement, "n_trials": 2})
    out = tmp_path / "empty.csv"
    assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("sweep_var,scheme,trial,total_power_w,sum_rate_bps,"
                        "ee_bit_per_joule,n_active_sectors")
    for line in lines[1:]:
        fields = line.split(",")
        if fields[1] in ("zooming", "cpz"):
            assert fields[3] == "0.0"
            assert fields[5] == ""


def test_simulate_empty_cell(tmp_path):
    check_empty_cell_run(tmp_path, {"kind": "fixed", "positions": []})


def test_simulate_fixed_placement_without_positions_is_empty_cell(tmp_path):
    check_empty_cell_run(tmp_path, {"kind": "fixed"})


def test_simulate_repeat_is_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", "--seed", "5", "--trials", "20"]
    assert run_cli(args + ["--out", str(out_a)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_ordering_column_check(tmp_path):
    out = tmp_path / "orders.csv"
    assert run_cli(["simulate", "--trials", "100", "--seed", "17", "--out", str(out)]) == 0
    per_trial = {}
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        per_trial.setdefault(int(fields[2]), {})[fields[1]] = float(fields[3])
    assert len(per_trial) == 100
    for powers in per_trial.values():
        assert powers["cpz"] <= powers["zooming"] <= powers["always_max"]


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    assert run_cli(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["simulate", "--config", str(path)]) == 2


def test_simulate_unknown_key_exits_2_with_path(tmp_path, capsys):
    config = write_config(tmp_path, {"budget": {"alpha_x": 3.7}})
    assert run_cli(["simulate", "--config", config]) == 2
    assert "budget.alpha_x" in capsys.readouterr().err


def test_simulate_fixed_position_outside_cell_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {
        "placement": {"kind": "fixed", "positions": [{"r": 5000.0, "phi": 0.0}]},
    })
    assert run_cli(["simulate", "--config", config]) == 2
    assert "error:" in capsys.readouterr().err


def fixed_ring(n_users):
    return [{"r": 500.0, "phi": i * 2.0 * math.pi / n_users} for i in range(n_users)]


@pytest.mark.parametrize("n_users", [11, 30])
def test_simulate_more_fixed_positions_than_k_users_exits_2(tmp_path, capsys, n_users):
    # Each user's power share is sized for k_users = 10; more users used to
    # run with exit 0 and an inflated sum rate.
    config = write_config(tmp_path, {
        "k_users": 10, "placement": {"kind": "fixed", "positions": fixed_ring(n_users)},
    })
    out = tmp_path / "out.csv"
    assert run_cli(["simulate", "--config", config, "--trials", "2", "--out", str(out)]) == 2
    assert f"{n_users} positions, more than k_users = 10" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_exactly_k_fixed_positions_runs(tmp_path):
    config = write_config(tmp_path, {
        "k_users": 10, "placement": {"kind": "fixed", "positions": fixed_ring(10)},
    })
    out = tmp_path / "out.csv"
    assert run_cli(["simulate", "--config", config, "--trials", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    # Every user sits in ring 1 of its own sector: cpz powers ten sectors.
    assert [line.split(",")[-1] for line in lines[1:4]] == ["18", "18", "10"]


def test_simulate_out_dir_missing_exits_3(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli(["simulate", "--trials", "1", "--out", str(out)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_simulate_usage_error_exits_2(capsys):
    assert run_cli(["simulate", "--workers"]) == 2


def test_simulate_workers_below_one_exits_2(capsys):
    assert run_cli(["simulate", "--trials", "1", "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("doc, where", [
    ({"rate_target": float("nan")}, "rate_target"),
    ({"grid": {"cell_radius": float("inf")}}, "grid.cell_radius"),
    ({"budget": {"noise_n0": float("inf")}}, "budget.noise_n0"),
    ({"budget": {"alpha": float("-inf")}}, "budget.alpha"),
    ({"shadowing": {"kind": "lognormal", "sigma_db": float("nan")}}, "shadowing.sigma_db"),
    ({"placement": {"kind": "fixed", "positions": [{"r": float("nan"), "phi": 0.0}]}},
     "placement.positions[0].r"),
])
def test_simulate_non_finite_config_number_exits_2(tmp_path, capsys, doc, where):
    config = write_config(tmp_path, doc)
    assert run_cli(["simulate", "--config", config, "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert f"'{where}' must be finite" in err


def test_simulate_overflowing_shadowing_exits_2(tmp_path, capsys):
    # sigma 1000 dB overflows some factors to inf: no row may carry an infinite rate.
    assert np.isinf(LognormalShadowing(1000.0, 6).psi_rows(10, 0, 20)).any()
    config = write_config(tmp_path, {"shadowing": {"kind": "lognormal", "sigma_db": 1000,
                                                   "seed": 6}})
    out = tmp_path / "out.csv"
    assert run_cli(["simulate", "--config", config, "--trials", "20", "--out", str(out)]) == 2
    assert "shadowing factor must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget", [{}, {"path_gain_g": 1e300}])
def test_simulate_overflowing_sinr_exits_2(tmp_path, capsys, budget):
    # A finite factor of 1.52e308 in trial 1 overflows the SINR (with a large
    # path gain, already the gain times the factor): exit 2, not an infinite EE.
    psi = LognormalShadowing(1000.0, 323).psi_rows(10, 0, 5)
    assert np.isfinite(psi).all() and psi[1].max() > 1e300
    config = write_config(tmp_path, {"budget": budget, "shadowing": {
        "kind": "lognormal", "sigma_db": 1000, "seed": 323}})
    out = tmp_path / "out.csv"
    assert run_cli(["simulate", "--config", config, "--trials", "5", "--out", str(out)]) == 2
    assert "sinr must be nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({"rate_target": 1e12}, "per-user SNR of inf"),
    ({"rate_target": 1e-300}, "per-user SNR of 0.0"),
    ({"budget": {"path_gain_g": 1e300}}, "energy efficiency"),
    ({"rate_target": 1e-9, "budget": {"path_gain_g": 1e300}}, "power of 0.0 W"),
    ({"rate_target": 1e9, "budget": {"path_gain_g": 1e-300}}, "power of inf W"),
    ({"budget": {"alpha": 400}}, "power of inf W"),
    ({"grid": {"n_annuli": 1}, "budget": {"noise_n0": 5e-324, "alpha": 400.0},
      "rate_target": 1.0}, "power of nan W"),
])
def test_simulate_unsizable_target_or_infinite_ee_exits_2(tmp_path, capsys, doc, message):
    # The SNR a target needs overflows or rounds to zero, the sized power
    # underflows to 0 or overflows to inf (also through a path loss (d/r0)**400
    # beyond a float), is NaN (rho_req * K * N0 underflows to 0 times that
    # infinite path loss), or about 7.9e-311 W serves the cell and the EE
    # overflows: exit 2, not a traceback or inf.
    config = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert run_cli(["simulate", "--config", config, "--trials", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_simulate_overflowing_sum_rate_exits_2(tmp_path, capsys):
    # At 5e307 b/s every rate is at least 5e307 and some overflow to inf, so a
    # trial's sum rate leaves the float range: exit 2 with one error line, not
    # an OverflowError traceback, and no overflow warning on the way.
    config = write_config(tmp_path, {"budget": {"bandwidth": 5e307}, "rate_target": 5e307})
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["simulate", "--config", config, "--trials", "10",
                        "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: sum rate overflows the float range\n"
    assert not out.exists()


def test_sweep_distance_overflowing_path_loss_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {"budget": {"alpha": 400}})
    out = tmp_path / "out.csv"
    assert run_cli(["sweep", "--config", config, "--variable", "distance",
                    "--values", "200,1000", "--trials", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "power of inf W" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--variable", "sectors",
                                                  "--values", "1,6"]])
def test_mean_power_near_the_float_max_is_finite(tmp_path, capsys, command):
    # About 7.9e305 W per trial: 1000 trials' power sum overflows a float, their
    # mean does not. Exit 0 with finite means within two roundings of the exact
    # mean of the CSV's values, not an OverflowError traceback from fsum.
    config = write_config(tmp_path, {"budget": {"path_gain_g": 1e-316}})
    out = tmp_path / "out.csv"
    assert run_cli([*command, "--config", config, "--trials", "1000", "--out", str(out)]) == 0
    columns = {}
    for line in out.read_text().splitlines()[1:]:
        value, scheme, _, power, _, ee, _ = line.split(",")
        powers, ees = columns.setdefault((value, scheme), ([], []))
        powers.append(Fraction(float(power)))
        ees.append(Fraction(float(ee)))
    assert sum(columns[("1" if command[0] == "sweep" else "", "always_max")][0]) > \
        Fraction(sys.float_info.max)
    stdout = capsys.readouterr().out
    for (value, scheme), (powers, ees) in columns.items():
        power, ee = (float(sum(x) / len(x)) for x in (powers, ees))
        prefix = f"sectors={value} " if value else ""
        assert f"{prefix}{scheme:>10}: mean power {power:.6e} W, mean EE {ee:.6e}" in stdout
    if command[0] == "sweep":
        for row in json.loads((tmp_path / "out.json").read_text())["rows"]:
            exact = columns[(str(row["sweep_var"]), row["scheme"])]
            for got, values in zip((row["mean_total_power_w"], row["mean_ee_bit_per_joule"]),
                                   exact):
                mean = sum(values) / len(values)
                assert math.isfinite(got) and abs(Fraction(got) - mean) <= 2**-52 * mean


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--variable", "sectors",
                                                  "--values", "1,6"]])
def test_trial_count_too_large_to_allocate_exits_2(tmp_path, capsys, command):
    # Placement asks for a (trials, 2k) float array of 1.6 PB, beyond any
    # address space, so the allocation fails at once, before any work.
    out = tmp_path / "out.csv"
    assert run_cli([*command, "--trials", str(10**13), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


def fixed(*positions):
    return {"placement": {"kind": "fixed", "positions": list(positions)}}


@pytest.mark.parametrize("doc, where", [
    ({"k_users": 10.5}, "'k_users'"),
    ({"grid": {"n_sectors": True}}, "'grid.n_sectors'"),
    ({"grid": 3}, "'grid'"),
    ({"placement": {"kind": 3}}, "'placement.kind'"),
    ({"shadowing": {"kind": "rayleigh"}}, "'shadowing.kind'"),
    ({"placement": {"kind": "arc_cluster", "sector_count_occupied": 1}}, "'placement'"),
    ({"placement": {"kind": "fixed", "positions": {"r": 500.0, "phi": 0.0}}},
     "'placement.positions'"),
    (fixed(3), "'placement.positions[0]'"),
    (fixed({"r": 500.0}), "'placement.positions[0]'"),
    (fixed({"ue_id": 0, "r": 500.0, "phi": 0.0}), "'placement.positions[0].ue_id'"),
    (fixed({"r": 500.0, "phi": 0.0, "ue_id": True}), "'placement.positions[0].ue_id'"),
    (fixed({"r": 500.0, "phi": 0.0}, {"r": 1200.0, "phi": 1.0}), "fixed position 1 at r=1200.0"),
    ({"rate_target": 10**400}, "'rate_target'"),
    (fixed({"r": 500.0, "phi": 10**400}), "'placement.positions[0].phi'"),
    ({"grid": {"n_annuli": 10**400},
      "placement": {"kind": "arc_cluster", "sector_count_occupied": 1, "annulus": 0}},
     "invalid config"),
    ({"grid": {"n_sectors": 10**400}}, "'grid': n_sectors"),
    ({"grid": {"n_annuli": 10**400}}, "'grid': n_annuli"),
    ({"m_antennas": 10**400}, "invalid config: m_antennas"),
    (fixed({"r": 500.0, "phi": 0.0}, {"ue_id": 1, "r": 600.0, "phi": 1.0}),
     "unknown config key 'placement.positions[1].ue_id'"),
])
def test_simulate_malformed_config_exits_2_with_path(tmp_path, capsys, doc, where):
    config = write_config(tmp_path, doc)
    assert run_cli(["simulate", "--config", config, "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert where in err, err


def test_simulate_deeply_nested_config_exits_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    assert run_cli(["simulate", "--config", str(path), "--trials", "1"]) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_simulate_huge_seed_runs(tmp_path, capsys):
    config = write_config(tmp_path, {"seed": 10**400})
    assert run_cli(["simulate", "--config", config, "--trials", "1"]) == 0
    assert f"seed {10**400}" in capsys.readouterr().out


def test_empty_config_is_dataclass_default():
    assert cli.build_config({}) == ScenarioConfig()


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
                | st.sampled_from([10**400, -10**400]))
junk = st.recursive(json_scalars,
                    lambda inner: (st.lists(inner, max_size=2)
                                   | st.dictionaries(st.text(max_size=3), inner, max_size=2)),
                    max_leaves=4)


def shaped(cls):
    """JSON objects with some fields of dataclass `cls`, each value mostly well typed."""
    return st.fixed_dictionaries({}, optional={
        f.name: st.one_of(WELL_TYPED[f.type], WELL_TYPED[f.type], junk)
        for f in dataclasses.fields(cls)
    })


def tagged(**kinds):
    return st.one_of([shaped(cls).map(lambda doc, kind=kind: {"kind": kind, **doc})
                      for kind, cls in kinds.items()])


WELL_TYPED = {
    int: st.integers(-1, 40) | st.just(10**400),
    float: st.integers(-1, 2000) | st.floats(-1.0, 2000.0) | st.sampled_from([10**400, 2e-14]),
    PartitionGrid: st.deferred(lambda: shaped(PartitionGrid)),
    LinkBudget: st.deferred(lambda: shaped(LinkBudget)),
    Placement: st.deferred(lambda: tagged(uniform_disk=UniformDisk, arc_cluster=ArcCluster,
                                          fixed=FixedPlacement)),
    ShadowingMode: st.deferred(lambda: tagged(deterministic_unit=DeterministicUnitShadowing,
                                              lognormal=LognormalShadowing)),
    tuple[UePosition, ...]: st.deferred(lambda: st.lists(shaped(UePosition), max_size=3)),
}
json_docs = st.one_of(shaped(ScenarioConfig), shaped(ScenarioConfig), junk)


def config_numbers(obj):
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from config_numbers(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from config_numbers(item)
    elif isinstance(obj, float):
        yield obj


@given(json_docs)
@settings(max_examples=200, deadline=None)
def test_build_config_returns_config_or_config_error(doc):
    try:
        config = cli.build_config(doc)
    except cli.ConfigError:
        return
    assert isinstance(config, ScenarioConfig)
    assert all(math.isfinite(x) for x in config_numbers(config))


# ---------------------------------------------------------------------------
# sweep


def test_sweep_distance_shape(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli(["sweep", "--variable", "distance",
                    "--values", "200,400,600,800,1000",
                    "--trials", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 5 * 3
    doc = json.loads((tmp_path / "d.json").read_text())
    assert doc["variable"] == "distance"
    assert len(doc["rows"]) == 5 * 3


def test_sweep_sectors_fraction(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--variable", "sectors", "--values", "1,2,6,9,18",
                    "--trials", "1", "--seed", "2", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "s.json").read_text())
    cpz = {row["sweep_var"]: row["mean_total_power_w"]
           for row in doc["rows"] if row["scheme"] == "cpz"}
    assert cpz[18] == pytest.approx(cpz[1] / 18, rel=1e-12)


def test_sweep_distance_out_of_range_exits_2(capsys):
    assert run_cli(["sweep", "--variable", "distance", "--values", "50,400"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_bad_values_exit_2(capsys):
    assert run_cli(["sweep", "--variable", "sectors", "--values", "1,two"]) == 2
    assert run_cli(["sweep", "--variable", "sectors", "--values", ","]) == 2
    assert run_cli(["sweep", "--variable", "sectors", "--values", "6,6", "--trials", "3"]) == 2
    assert "distinct" in capsys.readouterr().err


def test_sweep_requires_variable(capsys):
    assert run_cli(["sweep", "--values", "1,2"]) == 2


def test_sweep_out_that_is_its_own_sidecar_exits_2(tmp_path, capsys):
    # The sidecar of X.json is X.json itself: writing it would replace the CSV.
    code = run_cli(["sweep", "--variable", "distance", "--values", "200,1000",
                    "--trials", "2", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "sidecar" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_worker_pool_byte_identical(tmp_path):
    base = ["sweep", "--variable", "distance", "--values", "300,700,1000",
            "--trials", "8", "--seed", "11"]
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    assert run_cli(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert run_cli(base + ["--workers", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w8.json").read_bytes()


# ---------------------------------------------------------------------------
# emitted bytes

# Two users at fixed positions under unit shadowing: no random stream feeds
# these runs, so the expected text holds whatever the stream layout.
PINNED_CONFIG = {"placement": {"kind": "fixed", "positions": [{"r": 300.0, "phi": 0.1},
                                                               {"r": 850.0, "phi": 2.0}]},
                 "n_trials": 2}

PINNED_SIMULATE_CSV = """\
sweep_var,scheme,trial,total_power_w,sum_rate_bps,ee_bit_per_joule,n_active_sectors
,always_max,0,7.913482636220093e-11,75804837.5790554,9.579200595208974e+17,18
,zooming,0,7.913482636220093e-11,75804837.5790554,9.579200595208974e+17,18
,cpz,0,4.471844403914342e-12,46795956.557145625,1.0464576208461926e+19,2
,always_max,1,7.913482636220093e-11,75804837.5790554,9.579200595208974e+17,18
,zooming,1,7.913482636220093e-11,75804837.5790554,9.579200595208974e+17,18
,cpz,1,4.471844403914342e-12,46795956.557145625,1.0464576208461926e+19,2
"""

PINNED_DISTANCE_CSV = """\
sweep_var,scheme,trial,total_power_w,sum_rate_bps,ee_bit_per_joule,n_active_sectors
400.0,always_max,0,7.913482636220093e-11,44006310.53456203,5.56092842526054e+17,18
400.0,zooming,0,1.765346639803693e-11,33240599.30277435,1.8829502689891384e+18,18
400.0,cpz,0,9.807481332242737e-13,33240599.30277435,3.3893104841804497e+19,1
1000.0,always_max,0,7.913482636220093e-11,20000000.0,2.527332265627246e+17,18
1000.0,zooming,0,7.913482636220093e-11,20000000.0,2.527332265627246e+17,18
1000.0,cpz,0,4.396379242344496e-12,20000000.0,4.549198078129043e+18,1
"""

PINNED_DISTANCE_JSON = """\
{
  "variable": "distance",
  "rows": [
    {
      "sweep_var": 400.0,
      "scheme": "always_max",
      "mean_total_power_w": 7.913482636220093e-11,
      "mean_ee_bit_per_joule": 5.56092842526054e+17,
      "n_trials_defined": 1
    },
    {
      "sweep_var": 400.0,
      "scheme": "zooming",
      "mean_total_power_w": 1.765346639803693e-11,
      "mean_ee_bit_per_joule": 1.8829502689891384e+18,
      "n_trials_defined": 1
    },
    {
      "sweep_var": 400.0,
      "scheme": "cpz",
      "mean_total_power_w": 9.807481332242737e-13,
      "mean_ee_bit_per_joule": 3.3893104841804497e+19,
      "n_trials_defined": 1
    },
    {
      "sweep_var": 1000.0,
      "scheme": "always_max",
      "mean_total_power_w": 7.913482636220093e-11,
      "mean_ee_bit_per_joule": 2.527332265627246e+17,
      "n_trials_defined": 1
    },
    {
      "sweep_var": 1000.0,
      "scheme": "zooming",
      "mean_total_power_w": 7.913482636220093e-11,
      "mean_ee_bit_per_joule": 2.527332265627246e+17,
      "n_trials_defined": 1
    },
    {
      "sweep_var": 1000.0,
      "scheme": "cpz",
      "mean_total_power_w": 4.396379242344496e-12,
      "mean_ee_bit_per_joule": 4.549198078129043e+18,
      "n_trials_defined": 1
    }
  ]
}
"""

PINNED_SECTORS_CSV = """\
sweep_var,scheme,trial,total_power_w,sum_rate_bps,ee_bit_per_joule,n_active_sectors
18,always_max,0,7.913482636220093e-11,75804837.5790554,9.579200595208974e+17,18
18,zooming,0,7.913482636220093e-11,75804837.5790554,9.579200595208974e+17,18
18,cpz,0,4.471844403914342e-12,46795956.557145625,1.0464576208461926e+19,2
"""

PINNED_SECTORS_JSON = """\
{
  "variable": "sectors",
  "rows": [
    {
      "sweep_var": 18,
      "scheme": "always_max",
      "mean_total_power_w": 7.913482636220093e-11,
      "mean_ee_bit_per_joule": 9.579200595208974e+17,
      "n_trials_defined": 1
    },
    {
      "sweep_var": 18,
      "scheme": "zooming",
      "mean_total_power_w": 7.913482636220093e-11,
      "mean_ee_bit_per_joule": 9.579200595208974e+17,
      "n_trials_defined": 1
    },
    {
      "sweep_var": 18,
      "scheme": "cpz",
      "mean_total_power_w": 4.471844403914342e-12,
      "mean_ee_bit_per_joule": 1.0464576208461926e+19,
      "n_trials_defined": 1
    }
  ]
}
"""


@pytest.mark.parametrize("argv, csv_text, json_text", [
    (["simulate"], PINNED_SIMULATE_CSV, None),
    (["sweep", "--variable", "distance", "--values", "1000,400", "--trials", "1"],
     PINNED_DISTANCE_CSV, PINNED_DISTANCE_JSON),
    (["sweep", "--variable", "sectors", "--values", "18", "--trials", "1"],
     PINNED_SECTORS_CSV, PINNED_SECTORS_JSON),
], ids=["simulate", "distance", "sectors"])
def test_emitted_bytes_on_fixed_placement(tmp_path, argv, csv_text, json_text):
    config = write_config(tmp_path, PINNED_CONFIG)
    out = tmp_path / "out.csv"
    assert run_cli(argv + ["--config", config, "--out", str(out)]) == 0
    assert out.read_bytes() == csv_text.encode("ascii")
    sidecar = tmp_path / "out.json"
    if json_text is None:
        assert not sidecar.exists()
    else:
        assert sidecar.read_bytes() == json_text.encode("ascii")
    # Every float field round-trips through repr: no digits lost or padded.
    for line in csv_text.splitlines()[1:]:
        fields = line.split(",")
        for x in fields[3:6] + (fields[:1] if "." in fields[0] else []):
            assert repr(float(x)) == x


# sha256 of the CSV, stdout and sidecar of seeded runs, taken before the batch
# kernel ran every scheme from one plan. simulate at 2049 trials crosses the
# 1024-trial kernel block and the 1024-trial CSV chunk twice each; the sector
# sweep re-places an arc cluster under lognormal shadowing. The distance sweep's
# digests were taken before it ran as run_comparison on one pinned user. The
# simulate CSV and the sector sweep's CSV and sidecar digests were retaken at
# stream layout 5, which sums each trial's rates left to right in user order.
# Never edit a digest to pass.
SEEDED_DIGESTS = [
    (["simulate", "--trials", "2049", "--seed", "0"], None,
     "6d3a3b726ba2cf5adaa0084e9c5f30c87b814a85d0fd2fd1e9f890a249814c59",
     "c07dc27d573c31033487adc30f5b23fd0d0c1bbce37dfbddc3a538bddd1198aa", None),
    (["sweep", "--variable", "sectors", "--values", "1,2,3,6,9,18,36",
      "--trials", "300", "--seed", "0"],
     {"placement": {"kind": "arc_cluster", "sector_count_occupied": 1, "annulus": 2},
      "shadowing": {"kind": "lognormal", "sigma_db": 8.0, "seed": 1}},
     "19e66f0aa7f2ecd30815da134f788eccc56af524be57ed74ba45d0a1d829d551",
     "f237d7ff6d1b2188c59e08aa4b1c0d334d51081360185cc9b0bf0bf35927066b",
     "b8fccd6d49742c80dd0114f45f7eb09b6d23cc9b2cb06a80ba4abf79ddbc0841"),
    (["sweep", "--variable", "distance", "--values", "100,250.5,550,1000",
      "--trials", "2049", "--seed", "0"], None,
     "4ca4beda2ded78434c91677243fa9acc0854cff64afb7997a5f79f9b6843e739",
     "51b9ce248a00298de3c1b93b90bd5c814fe0a33725600531d1d831e46fe630ef",
     "65140c549569db4f0b0684bdc46e2f62ac454920644c1baf9c2af3b391225f73"),
]


@pytest.mark.parametrize("argv, doc, csv_sha, stdout_sha, json_sha", SEEDED_DIGESTS,
                         ids=["simulate", "sweep_sectors", "sweep_distance"])
def test_seeded_output_digests(tmp_path, capsys, argv, doc, csv_sha, stdout_sha, json_sha):
    config = [] if doc is None else ["--config", write_config(tmp_path, doc)]
    out = tmp_path / "out.csv"
    assert run_cli(argv + config + ["--out", str(out)]) == 0

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert sha(out.read_bytes()) == csv_sha
    assert sha(capsys.readouterr().out.encode()) == stdout_sha
    sidecar = tmp_path / "out.json"
    assert (sha(sidecar.read_bytes()) if sidecar.exists() else None) == json_sha


def without_simd_above_x86_v3():
    """Environment for a child process that has numpy's dispatch targets above X86_V3 disabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip("numpy does not report its CPU dispatch targets")
    above = __cpu_dispatch__[__cpu_dispatch__.index("X86_V3") + 1:] \
        if "X86_V3" in __cpu_dispatch__ else []
    disabled = [target for target in above if __cpu_features__.get(target)]
    if not disabled:
        pytest.skip("no numpy dispatch target above X86_V3 runs on this CPU")
    return dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))


def child_code(body):
    """python -c code that imports cpzsim from this checkout, then runs body."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return f"import sys; sys.path.insert(0, {src!r}); {body}"


def test_lognormal_bytes_do_not_depend_on_numpy_simd_dispatch(tmp_path, capsys):
    # Shadowing's log1p, cos and pow run in libm on Python floats, so a child
    # process with numpy's dispatch targets above X86_V3 disabled writes the
    # same bytes as this one: the sector-sweep digest case and a lognormal simulate.
    env = without_simd_above_x86_v3()
    code = child_code("from cpzsim import cli; sys.exit(cli.main(sys.argv[1:]))")

    def outputs(out, stdout):
        sidecar = out.with_suffix(".json")
        return out.read_bytes(), stdout, sidecar.read_bytes() if sidecar.exists() else None

    simulate = (["simulate", "--trials", "300", "--seed", "3"],
                {"shadowing": {"kind": "lognormal", "sigma_db": 8.0, "seed": 5}})
    for i, (argv, doc) in enumerate([SEEDED_DIGESTS[1][:2], simulate]):
        args = argv + ["--config", write_config(tmp_path, doc, f"config{i}.json")]
        here, child = tmp_path / f"here{i}.csv", tmp_path / f"child{i}.csv"
        assert run_cli(args + ["--out", str(here)]) == 0
        expected = outputs(here, capsys.readouterr().out.encode())
        proc = subprocess.run([sys.executable, "-c", code, *args, "--out", str(child)], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert outputs(child, proc.stdout) == expected


def test_monte_carlo_trace_does_not_depend_on_simd_dispatch_or_blas_kernels():
    # The traces are forward substitutions in + - * / and sqrt, no LAPACK or
    # BLAS call, so a child with numpy's dispatch targets above X86_V3 disabled
    # and OpenBLAS on its Sandybridge kernels (which move eigvalsh's last bits)
    # returns the same mean and standard deviation as this process.
    env = dict(without_simd_above_x86_v3(), OPENBLAS_CORETYPE="Sandybridge")
    cases = [(10, 200, 2000, 0), (5, 6, 500, 1)]
    code = child_code("from cpzsim import mimo; "
                      f"print([[x.hex() for x in mimo.monte_carlo_trace(*c)] for c in {cases!r}])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[[x.hex() for x in mimo.monte_carlo_trace(*c)] for c in cases]}\n"


# ---------------------------------------------------------------------------
# the frozen heap


def test_main_freezes_the_heap_once_and_later_garbage_is_still_collected():
    # A fresh interpreter: main moves the import-time heap to gc's permanent
    # generation on its first call only, and a cycle made afterwards still dies.
    code = child_code(
        "import contextlib, gc, io, weakref; from cpzsim import cli\n"
        "before = gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rcs = [cli.main(['verify', '--trials', '100'])]\n"
        "    frozen = gc.get_freeze_count()\n"
        "    rcs.append(cli.main(['verify', '--trials', '100']))\n"
        "    again = gc.get_freeze_count()\n"
        "class Node: pass\n"
        "node = Node(); node.self = node; alive = weakref.ref(node); del node\n"
        "gc.collect()\n"
        "print(before, frozen > 0, again == frozen, rcs, alive() is None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True True [0, 0] True\n"


def test_exit_through_sys_exit_gives_the_in_process_bytes_and_codes(tmp_path, capsys):
    # Process exit after the freeze still flushes stdout and stderr and keeps
    # main's exit code: a simulate run (0) and a bad config (2) in a child
    # process give the bytes and codes they give in this one.
    code = child_code("from cpzsim import cli; sys.exit(cli.main(sys.argv[1:]))")
    bad = write_config(tmp_path, {"n_trials": 3, "no_such_key": 1}, "bad.json")
    runs = [(["simulate", "--trials", "200", "--seed", "3"], 0),
            (["simulate", "--config", bad], 2)]
    for i, (argv, rc) in enumerate(runs):
        here, child = tmp_path / f"here{i}.csv", tmp_path / f"child{i}.csv"
        assert run_cli(argv + ["--out", str(here)]) == rc
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(child)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == rc, proc.stderr
        assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
        assert child.exists() == here.exists() == (rc == 0)
        if rc == 0:
            assert child.read_bytes() == here.read_bytes()


# ---------------------------------------------------------------------------
# seed precedence


def read_first_data_row(path):
    return path.read_text().splitlines()[1]


def test_env_seed_is_fallback(tmp_path, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv(cli.SEED_ENV_VAR, "42")
    assert run_cli(["simulate", "--trials", "3", "--out", str(out_env)]) == 0
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    assert run_cli(["simulate", "--trials", "3", "--seed", "42", "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_flag_overrides_file_overrides_env(tmp_path, monkeypatch):
    config = write_config(tmp_path, {"seed": 7, "n_trials": 3})
    out_file = tmp_path / "file.csv"
    out_ref7 = tmp_path / "ref7.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
    assert run_cli(["simulate", "--config", config, "--out", str(out_file)]) == 0
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    assert run_cli(["simulate", "--trials", "3", "--seed", "7", "--out", str(out_ref7)]) == 0
    assert out_file.read_bytes() == out_ref7.read_bytes()  # file beats env
    assert run_cli(["simulate", "--config", config, "--seed", "1",
                    "--out", str(out_flag)]) == 0
    assert out_flag.read_bytes() != out_file.read_bytes()  # flag beats file


def test_invalid_env_seed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    assert run_cli(["simulate", "--trials", "1"]) == 2
