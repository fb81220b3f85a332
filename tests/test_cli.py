"""End-to-end command-line tests, run in-process against cli.main."""

import dataclasses
import json
import math
import re
from typing import Hashable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpzsim import cli
from cpzsim.partition import PartitionGrid, UePosition
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


def test_verify_single_trial_skips_wishart(capsys):
    assert run_cli(["verify", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] wishart_trace" in out
    assert "[PASS] zf_identity" in out


def test_verify_impossible_tolerance_fails(capsys):
    assert run_cli(["verify", "--trials", "1", "--zf-tol", "1e-20"]) == 1
    assert "[FAIL] zf_identity" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--zf-tol", "nan"],
    ["verify", "--zf-tol", "inf"],
    ["verify", "--zf-tol", "-1"],
    ["verify", "--zf-tol", "0"],
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
    config = write_config(tmp_path, {"shadowing": {"kind": "lognormal", "sigma_db": 1000,
                                                   "seed": 3}})
    out = tmp_path / "out.csv"
    assert run_cli(["simulate", "--config", config, "--trials", "20", "--out", str(out)]) == 2
    assert "shadowing factor must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget", [{}, {"path_gain_g": 1e300}])
def test_simulate_overflowing_sinr_exits_2(tmp_path, capsys, budget):
    # A finite factor of 1.69e308 in trial 2 overflows the SINR (with a large
    # path gain, already the gain times the factor): exit 2, not an infinite EE.
    config = write_config(tmp_path, {"budget": budget, "shadowing": {
        "kind": "lognormal", "sigma_db": 1000, "seed": 195}})
    out = tmp_path / "out.csv"
    assert run_cli(["simulate", "--config", config, "--trials", "5", "--out", str(out)]) == 2
    assert "sinr must be nonnegative and finite" in capsys.readouterr().err
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
    (fixed({"ue_id": 1.5, "r": 500.0, "phi": 0.0}), "'placement.positions[0].ue_id'"),
    (fixed({"ue_id": True, "r": 500.0, "phi": 0.0}), "'placement.positions[0].ue_id'"),
    (fixed({"ue_id": 1, "r": 500.0, "phi": 0.0}, {"ue_id": 1, "r": 600.0, "phi": 1.0}),
     "repeats ue_id 1"),
    ({"rate_target": 10**400}, "'rate_target'"),
    (fixed({"r": 500.0, "phi": 10**400}), "'placement.positions[0].phi'"),
    ({"grid": {"n_annuli": 10**400},
      "placement": {"kind": "arc_cluster", "sector_count_occupied": 1, "annulus": 0}},
     "invalid config"),
    ({"grid": {"n_sectors": 10**400}}, "'grid': n_sectors"),
    ({"grid": {"n_annuli": 10**400}}, "'grid': n_annuli"),
    ({"m_antennas": 10**400}, "invalid config: m_antennas"),
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
    Hashable: st.integers(0, 2) | st.text(max_size=1),
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
