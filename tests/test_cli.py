"""End-to-end command-line tests, run in-process against cli.main."""

import json
import re

import pytest

from cpzsim import cli


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


# ---------------------------------------------------------------------------
# simulate


def test_simulate_empty_cell(tmp_path, capsys):
    config = write_config(tmp_path, {
        "placement": {"kind": "fixed", "positions": []},
        "n_trials": 2,
    })
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
