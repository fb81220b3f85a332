"""Command-line front end: verify the core model, run comparisons, run sweeps.

Exit codes are stable: 0 on success, 1 on a failed verification check,
2 on configuration or usage errors, 3 on I/O failures. Scenario configs
are JSON files read straight from the ScenarioConfig dataclass tree: the
keys, types and defaults are its fields, a union field is an object with
a "kind" tag, and fixed placement's positions may be left out. Flags
override file values, the CPZ_SIM_SEED environment variable is the
fallback seed.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Hashable

import numpy as np

from . import mimo
from .partition import UePosition
from .propagation import DeterministicUnitShadowing, LognormalShadowing, ShadowingMode
from .rng import substream
from .sim import (
    ArcCluster,
    FixedPlacement,
    Placement,
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

# JSON types accepted for each scalar field type; bool is never a number.
_SCALARS = {int: int, float: (int, float), str: str, Hashable: (str, int)}

# Each config union by its "kind" tag; the first kind is the default.
_KINDS = {
    Placement: {"uniform_disk": UniformDisk, "arc_cluster": ArcCluster, "fixed": FixedPlacement},
    ShadowingMode: {"deterministic_unit": DeterministicUnitShadowing,
                    "lognormal": LognormalShadowing},
}


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(tp, value, path: str):
    """`value` checked and converted against the field type `tp`."""
    if tp in _SCALARS:
        if isinstance(value, bool) or not isinstance(value, _SCALARS[tp]):
            raise ConfigError(f"config key '{path}' has invalid type {type(value).__name__}")
        if tp is not float:
            return value
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"config key '{path}' is too large for a float") from None
        # json.load accepts NaN and Infinity; no config number may be either.
        if not math.isfinite(value):
            raise ConfigError(f"config key '{path}' must be finite, got {value!r}")
        return value
    if tp == tuple[UePosition, ...]:
        if not isinstance(value, list):
            raise ConfigError(f"config key '{path}' must be a list")
        return tuple(_build(UePosition, entry, f"{path}[{i}]", ue_id=i)
                     for i, entry in enumerate(value))
    if tp in _KINDS:
        kinds = _KINDS[tp]
        if not isinstance(value, dict):
            raise ConfigError(f"config key '{path}' must be an object")
        kind = _value(str, value.get("kind", next(iter(kinds))), f"{path}.kind")
        if kind not in kinds:
            raise ConfigError(f"config key '{path}.kind' has unknown value '{kind}'")
        return _build(kinds[kind], {k: v for k, v in value.items() if k != "kind"}, path)
    return _build(tp, value, path)


def _build(cls, doc, path: str, **defaults):
    """Dataclass `cls` from a JSON object whose keys are its field names.

    A key left out takes `defaults`, else the field's own default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config key '{path}' must be an object" if path
                          else "config document must be a JSON object")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in doc:
        if key not in names:
            raise ConfigError(f"unknown config key '{_key(path, key)}'")
    missing = [f.name for f in fields
               if f.name not in doc and f.name not in defaults
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"'{path}' needs {' and '.join(missing)}")
    kwargs = defaults | {f.name: _value(f.type, doc[f.name], _key(path, f.name))
                         for f in fields if f.name in doc}
    try:
        return cls(**kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config '{path}': {exc}" if path else f"invalid config: {exc}") from exc


def build_config(doc: dict, default_seed: int = 0) -> ScenarioConfig:
    """ScenarioConfig from a parsed JSON document; unknown keys are rejected."""
    return _build(ScenarioConfig, doc, "", seed=default_seed)


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
    except RecursionError:
        raise ConfigError(f"config file {path} nests too deeply") from None
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
        config = dataclasses.replace(config, seed=args.seed)
    if args.trials is not None:
        config = dataclasses.replace(config, n_trials=args.trials)
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
    sweep = sweep_distance if args.variable == "distance" else sweep_sectors
    run = sweep(config, values)
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


def _positive(kind):
    """argparse type: a finite `kind` number above zero."""
    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {raw!r}") from None
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw}")
        return value
    return parse


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
    p_verify.add_argument("--trials", type=_positive(int), default=10_000,
                          help="Monte Carlo trials for the trace-convergence check")
    p_verify.add_argument("--zf-tol", type=_positive(float), default=1e-9, dest="zf_tol")
    p_verify.set_defaults(func=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="run per-trial scheme comparisons")
    p_sim.add_argument("--config", default=None, help="JSON scenario config")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--trials", type=_positive(int), default=None)
    p_sim.add_argument("--out", default=None, help="per-trial CSV output path")
    p_sim.add_argument("--workers", type=_positive(int), default=1, help=WORKERS_HELP)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep edge distance or sector count")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--variable", choices=("distance", "sectors"), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--trials", type=_positive(int), default=None)
    p_sweep.add_argument("--out", default=None, help="per-trial CSV output path")
    p_sweep.add_argument("--workers", type=_positive(int), default=1, help=WORKERS_HELP)
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
