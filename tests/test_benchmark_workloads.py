"""The benchmark's own workloads, run in-process on their exact inputs.

benchmarks/run.py writes each workload's config file and runs its argv
through the CLI; a sample fails on a non-zero exit or a failed output
check. Every workload runs here at seed 0 the same way, so a change that
drops a config key or a flag the benchmark sends fails tier-1, not only
every benchmark run.
"""

import importlib
import json
import os

import pytest

from cpzsim import _float_text, cli
from test_kernel import spy_on_table_plans

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")


@pytest.fixture
def bench(monkeypatch):
    """benchmarks/run.py and benchmarks/checks.py, imported as run.py imports checks."""
    monkeypatch.syspath_prepend(BENCHMARKS)
    return importlib.import_module("run"), importlib.import_module("checks")


@pytest.mark.parametrize("workload", ["simulate_uniform", "sweep_sectors_lognormal", "verify"])
def test_benchmark_workload_runs_and_passes_its_checks(tmp_path, capsys, monkeypatch, bench,
                                                       workload):
    run, checks = bench
    assert sorted(run.WORKLOADS) == ["simulate_uniform", "sweep_sectors_lognormal", "verify"]
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    inputs = run.WORKLOADS[workload](0, str(tmp_path))
    if inputs.config is not None:
        (tmp_path / "config.json").write_text(json.dumps(inputs.config), encoding="utf-8")
    assert cli.main(inputs.argv) == 0
    stdout = capsys.readouterr().out
    csv_path, sidecar = str(tmp_path / "out.csv"), str(tmp_path / "out.json")
    if workload == "simulate_uniform":
        problems, _ = checks.check_simulate(inputs.config, csv_path)
    elif workload == "sweep_sectors_lognormal":
        problems, _ = checks.check_sweep_sectors(inputs.config, run.SWEEP_VALUES, csv_path,
                                                 sidecar)
    else:
        problems, _ = checks.check_verify(stdout)
    assert problems == []


def test_benchmark_sweep_formats_count_invariant_floats_once(tmp_path, monkeypatch, bench):
    # Each count's 1000 trials are one CSV chunk, so all seven chunks are one
    # text pass, and always-max's and zooming's floats and cpz's sum rates are
    # the same on every count: the formatter sees each of them once (8 007
    # values; 20 013 when every chunk formatted all of its distinct floats).
    # The pass formats its 1000 trial numbers once and each count's active
    # sectors once: 8 integer calls, not 14. The users sit in sector 0 of the
    # finest count, so all seven counts split them alike and the kernel's one
    # block plans cpz once, from its (sectors, trials) table, not once per count.
    run, _ = bench
    plans = spy_on_table_plans(monkeypatch)
    sizes, int_calls = [], []
    float_texts, int_texts = _float_text._float_texts, _float_text._int_texts

    def spy(x):
        sizes.append(len(x))
        return float_texts(x)

    def int_spy(x):
        int_calls.append(len(x))
        return int_texts(x)

    monkeypatch.setattr(_float_text, "_float_texts", spy)
    monkeypatch.setattr(_float_text, "_int_texts", int_spy)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    inputs = run.WORKLOADS["sweep_sectors_lognormal"](1, str(tmp_path))
    (tmp_path / "config.json").write_text(json.dumps(inputs.config), encoding="utf-8")
    assert cli.main(inputs.argv) == 0
    assert sizes == [8007]
    assert len(int_calls) == 8
    assert len(run.SWEEP_VALUES) == 7
    assert plans == [inputs.config["n_trials"]] == [1000]
