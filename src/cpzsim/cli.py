"""Command-line front end: verify the core model, run comparisons, run sweeps.

Exit codes are stable: 0 on success, 1 on a failed verification check,
2 on configuration or usage errors, 3 on I/O failures. Scenario configs
are JSON files mirroring ScenarioConfig; flags override file values, the
CPZ_SIM_SEED environment variable is the fallback seed.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import mimo
from .partition import PartitionGrid, UePosition
from .propagation import DeterministicUnitShadowing, LinkBudget, LognormalShadowing
from .rng import substream
from .sim import (
    ArcCluster,
    FixedPlacement,
    ScenarioConfig,
    UniformDisk,
    _aggregate,
    comparison_records,
    run_comparison,
    sweep_distance,
    sweep_sectors,
    write_records_csv,
    write_sweep_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

SEED_ENV_VAR = "CPZ_SIM_SEED"


class ConfigError(ValueError):
    """Configuration file problem, annotated with the offending key path."""


# ---------------------------------------------------------------------------
# Config file parsing


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key '{where}'")


def _typed(doc: dict, key: str, types, path: str, default):
    if key not in doc:
        return default
    value = doc[key]
    where = f"{path}.{key}" if path else key
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config key '{where}' has invalid type {type(value).__name__}")
    # json.load accepts NaN and Infinity; no config number may be either.
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key '{where}' must be finite, got {value!r}")
    return value


def _parse_grid(doc, path: str) -> PartitionGrid:
    _reject_unknown(doc, {"n_annuli", "n_sectors", "cell_radius"}, path)
    try:
        return PartitionGrid(
            n_annuli=int(_typed(doc, "n_annuli", int, path, 3)),
            n_sectors=int(_typed(doc, "n_sectors", int, path, 18)),
            cell_radius=float(_typed(doc, "cell_radius", (int, float), path, 1000.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid '{path}': {exc}") from exc


def _parse_budget(doc, path: str) -> LinkBudget:
    defaults = LinkBudget()
    fields = ("path_gain_g", "r0", "alpha", "shadow_sigma_db",
              "noise_n0", "bandwidth", "cell_radius_r")
    _reject_unknown(doc, set(fields), path)
    kwargs = {
        name: float(_typed(doc, name, (int, float), path, getattr(defaults, name)))
        for name in fields
    }
    try:
        return LinkBudget(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid '{path}': {exc}") from exc


def _parse_placement(doc, path: str):
    kind = _typed(doc, "kind", str, path, "uniform_disk")
    if kind == "uniform_disk":
        _reject_unknown(doc, {"kind"}, path)
        return UniformDisk()
    if kind == "arc_cluster":
        _reject_unknown(doc, {"kind", "sector_count_occupied", "annulus"}, path)
        if "sector_count_occupied" not in doc or "annulus" not in doc:
            raise ConfigError(f"'{path}' of kind arc_cluster needs sector_count_occupied and annulus")
        return ArcCluster(
            sector_count_occupied=int(_typed(doc, "sector_count_occupied", int, path, 1)),
            annulus=int(_typed(doc, "annulus", int, path, 0)),
        )
    if kind == "fixed":
        _reject_unknown(doc, {"kind", "positions"}, path)
        raw = doc.get("positions", [])
        if not isinstance(raw, list):
            raise ConfigError(f"config key '{path}.positions' must be a list")
        positions = []
        for i, entry in enumerate(raw):
            entry_path = f"{path}.positions[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"config key '{entry_path}' must be an object")
            _reject_unknown(entry, {"ue_id", "r", "phi"}, entry_path)
            if "r" not in entry or "phi" not in entry:
                raise ConfigError(f"'{entry_path}' needs r and phi")
            if "ue_id" in entry and not isinstance(entry["ue_id"], (str, int)):
                raise ConfigError(f"config key '{entry_path}.ue_id' must be a string or integer")
            try:
                positions.append(UePosition(
                    ue_id=entry.get("ue_id", i),
                    r=float(_typed(entry, "r", (int, float), entry_path, 0.0)),
                    phi=float(_typed(entry, "phi", (int, float), entry_path, 0.0)),
                ))
            except ValueError as exc:
                raise ConfigError(f"invalid '{entry_path}': {exc}") from exc
        return FixedPlacement(positions=tuple(positions))
    raise ConfigError(f"config key '{path}.kind' has unknown value '{kind}'")


def _parse_shadowing(doc, path: str):
    kind = _typed(doc, "kind", str, path, "deterministic_unit")
    if kind == "deterministic_unit":
        _reject_unknown(doc, {"kind"}, path)
        return DeterministicUnitShadowing()
    if kind == "lognormal":
        _reject_unknown(doc, {"kind", "sigma_db", "seed"}, path)
        try:
            return LognormalShadowing(
                sigma_db=float(_typed(doc, "sigma_db", (int, float), path, 8.0)),
                seed=int(_typed(doc, "seed", int, path, 0)),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid '{path}': {exc}") from exc
    raise ConfigError(f"config key '{path}.kind' has unknown value '{kind}'")


def build_config(doc: dict, default_seed: int = 0) -> ScenarioConfig:
    """ScenarioConfig from a parsed JSON document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    allowed = {"grid", "budget", "k_users", "m_antennas", "rate_target",
               "placement", "shadowing", "seed", "n_trials"}
    _reject_unknown(doc, allowed, "")
    for key in ("grid", "budget", "placement", "shadowing"):
        if key in doc and not isinstance(doc[key], dict):
            raise ConfigError(f"config key '{key}' must be an object")
    grid = _parse_grid(doc.get("grid", {}), "grid")
    budget = _parse_budget(doc.get("budget", {}), "budget")
    try:
        return ScenarioConfig(
            grid=grid,
            budget=budget,
            k_users=int(_typed(doc, "k_users", int, "", 10)),
            m_antennas=int(_typed(doc, "m_antennas", int, "", 200)),
            rate_target=float(_typed(doc, "rate_target", (int, float), "", 20e6)),
            placement=_parse_placement(doc.get("placement", {}), "placement"),
            shadowing=_parse_shadowing(doc.get("shadowing", {}), "shadowing"),
            seed=int(_typed(doc, "seed", int, "", default_seed)),
            n_trials=int(_typed(doc, "n_trials", int, "", 100)),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path: str | None, default_seed: int = 0) -> ScenarioConfig:
    if path is None:
        return build_config({}, default_seed)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return build_config(doc, default_seed)


def _env_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    if seed < 0:
        raise ConfigError(f"{SEED_ENV_VAR} must be nonnegative, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# verify


def _sub_seeds(seed: int, label: int, count: int) -> list[int]:
    rng = substream(seed, label)
    return [int(s) for s in rng.integers(2**63, size=count)]


def _check_zf_identity(seed: int, tol: float):
    dims = [(k, m) for k in (2, 8, 32) for m in (16, 64, 200) if k < m]
    per_pair = max(1, math.ceil(100 / len(dims)))
    seeds = iter(_sub_seeds(seed, 0, per_pair * len(dims)))
    worst = 0.0
    for k, m in dims:
        for _ in range(per_pair):
            h = mimo.sample_channel(k, m, next(seeds))
            w = mimo.zf_beamformer(h)
            dev = np.max(np.abs(h.entries @ w.entries - np.eye(k)))
            worst = max(worst, float(dev))
    return worst < tol, f"max |HW - I| = {worst:.3e} (tol {tol:g})"


def _check_wishart(seed: int, trials: int, min_trials: int = 100):
    if trials < min_trials:
        return None, f"{trials} trials below minimum {min_trials}"
    expected = mimo.wishart_trace_expectation(10, 200)
    estimate = mimo.monte_carlo_trace(10, 200, trials, seed)
    rel = abs(estimate - expected) / expected
    return rel < 0.02, f"relative error = {rel:.4f} (tol 0.02, {trials} trials)"


def _check_sinr_uniformity(seed: int, tol: float = 1e-9):
    worst_spread = 0.0
    worst_dev = 0.0
    for sub in _sub_seeds(seed, 1, 20):
        h = mimo.sample_channel(10, 200, sub)
        per_ue = mimo.sinr_per_ue(1.0, h)
        common = mimo.sinr_zf(1.0, h)
        worst_spread = max(worst_spread, float(np.ptp(per_ue) / per_ue.mean()))
        worst_dev = max(worst_dev, float(np.max(np.abs(per_ue - common)) / common))
    ok = worst_spread < tol and worst_dev < tol
    return ok, (f"max relative spread = {worst_spread:.3e}, "
                f"max deviation from common value = {worst_dev:.3e} (tol {tol:g})")


def run_verification(seed: int, trials: int, zf_tol: float) -> list[tuple[str, bool | None, str]]:
    return [
        ("zf_identity", *_check_zf_identity(seed, zf_tol)),
        ("wishart_trace", *_check_wishart(seed, trials)),
        ("sinr_uniformity", *_check_sinr_uniformity(seed)),
    ]


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    results = run_verification(seed, args.trials, args.zf_tol)
    failed = False
    for name, ok, detail in results:
        if ok is None:
            status = "SKIP"
        elif ok:
            status = "PASS"
        else:
            status = "FAIL"
            failed = True
        print(f"[{status}] {name}: {detail}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# simulate / sweep


def _scenario_from_args(args) -> ScenarioConfig:
    config = load_config(args.config, default_seed=_env_seed())
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.trials is not None:
        config = replace(config, n_trials=args.trials)
    return config


def _cmd_simulate(args) -> int:
    config = _scenario_from_args(args)
    records = comparison_records(run_comparison(config))
    if args.out is not None:
        write_records_csv(args.out, records)
    print(f"simulated {config.n_trials} trials, seed {config.seed}")
    for row in _aggregate("trial", records).rows:
        ee_text = f"{row.mean_ee:.6e} bit/J" if row.mean_ee is not None else "undefined"
        print(f"{row.scheme.value:>10}: mean power {row.mean_total_power:.6e} W, mean EE {ee_text} "
              f"({row.n_trials_defined}/{config.n_trials} trials with defined EE)")
    return EXIT_OK


def _parse_values(variable: str, raw: str):
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("--values must list at least one value")
    try:
        if variable == "sectors":
            return [int(p) for p in parts]
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad --values entry: {exc}") from exc


def _cmd_sweep(args) -> int:
    config = _scenario_from_args(args)
    values = _parse_values(args.variable, args.values)
    try:
        if args.variable == "distance":
            run = sweep_distance(config, values)
        else:
            run = sweep_sectors(config, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out is not None:
        write_records_csv(args.out, run.records)
        write_sweep_json(_json_sidecar(args.out), run.result)
    print(f"swept {args.variable} over {values}, seed {config.seed}")
    for row in run.result.rows:
        ee_text = f"{row.mean_ee:.6e}" if row.mean_ee is not None else "undefined"
        print(f"{args.variable}={row.sweep_var} {row.scheme.value:>10}: "
              f"mean power {row.mean_total_power:.6e} W, mean EE {ee_text}")
    return EXIT_OK


def _json_sidecar(out_path: str) -> str:
    root, ext = os.path.splitext(out_path)
    return (root if ext else out_path) + ".json"


def _worker_count(raw: str) -> int:
    try:
        count = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


WORKERS_HELP = ("accepted for compatibility (at least 1); trials run in one thread "
                "and outputs never depend on this value")


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpzsim",
        description="Single-cell massive-MIMO energy-efficiency simulator "
                    "(always-max vs zooming vs partition zooming).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the core-model invariant checks")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=10_000,
                          help="Monte Carlo trials for the trace-convergence check")
    p_verify.add_argument("--zf-tol", type=float, default=1e-9, dest="zf_tol")
    p_verify.set_defaults(func=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="run per-trial scheme comparisons")
    p_sim.add_argument("--config", default=None, help="JSON scenario config")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--out", default=None, help="per-trial CSV output path")
    p_sim.add_argument("--workers", type=_worker_count, default=1, help=WORKERS_HELP)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep edge distance or sector count")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--variable", choices=("distance", "sectors"), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--out", default=None, help="per-trial CSV output path")
    p_sweep.add_argument("--workers", type=_worker_count, default=1, help=WORKERS_HELP)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
