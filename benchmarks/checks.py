"""Output checks for the benchmark workloads, and the counters read off the outputs.

The checks use only the scenario parameters and the written files, never
the program's random streams, so they hold for any stream layout. Power
sizing is recomputed here from the link-budget formula rather than
imported from the program under test.
"""

import csv
import hashlib
import json
import math
import os

# |z| gate on a scheme's mean power against its closed-form mean and variance.
# zooming's deviations from always_max are rare (about 2.6 per 1e4 trials),
# so its mean is Poisson-like rather than Gaussian; at 6 sigma a false alarm
# needs 13 or more such trials, a chance of about 4e-6 per sample.
Z_GATE = 6.0
REL_TOL = 1e-12
# Largest CPZ active-sector count reported in the histogram (K users).
HIST_BINS = 11

SCHEMES = ("always_max", "zooming", "cpz")


def required_power(d: float, cfg: dict) -> float:
    """Radiated power so a user at distance d gets the target rate (unit shadowing)."""
    b, k, m = cfg["budget"], cfg["k_users"], cfg["m_antennas"]
    rho_req = (2.0 ** (cfg["rate_target"] / b["bandwidth"]) - 1.0) / (m - k)
    return rho_req * k * b["noise_n0"] * (d / b["r0"]) ** b["alpha"] / b["path_gain_g"]


def expected_power_moments(cfg: dict) -> dict[str, tuple[float, float]]:
    """Mean and variance of each scheme's per-trial power under area-uniform placement.

    A user lies within the outer radius of annulus a with probability
    F(a) = (outer_a^2 - r0^2) / (R^2 - r0^2), and in a given sector with
    probability 1/S. zooming pays the power of the highest occupied annulus.
    cpz pays, per sector, 1/S of the power of that sector's highest occupied
    annulus (nothing for an empty sector). With level -1 for "empty",
    P(sector max <= a) = (1 - (1 - F(a))/S)^K, and for two distinct sectors
    P(max_s <= a, max_t <= b) = (1 - (1 - F(a))/S - (1 - F(b))/S)^K.
    """
    grid, r0, k = cfg["grid"], cfg["budget"]["r0"], cfg["k_users"]
    n, s, big_r = grid["n_annuli"], grid["n_sectors"], grid["cell_radius"]
    p_max = required_power(big_r, cfg)
    outer = [big_r if a == n - 1 else (a + 1) * big_r / n for a in range(n)]
    # Index 0 is the empty level (F = 0, no power); index a + 1 is annulus a.
    cdf = [0.0] + [max(0.0, (o * o - r0 * r0) / (big_r * big_r - r0 * r0)) for o in outer]
    power = [0.0] + [required_power(max(o, r0), cfg) / p_max for o in outer]
    levels = range(1, n + 1)

    def moments(prob):
        mean = math.fsum(power[a] * prob[a] for a in levels)
        return mean, math.fsum(power[a] ** 2 * prob[a] for a in levels)

    zoom_cdf = [f ** k for f in cdf]
    zoom_mean, zoom_sq = moments([0.0] + [zoom_cdf[a] - zoom_cdf[a - 1] for a in levels])

    def joint(a, b):
        if a < 0 or b < 0:
            return 0.0
        return (1.0 - (1.0 - cdf[a]) / s - (1.0 - cdf[b]) / s) ** k

    sector_cdf = [(1.0 - (1.0 - f) / s) ** k for f in cdf]
    sector_mean, sector_sq = moments([0.0] + [sector_cdf[a] - sector_cdf[a - 1] for a in levels])
    cross = math.fsum(
        power[a] * power[b]
        * (joint(a, b) - joint(a - 1, b) - joint(a, b - 1) + joint(a - 1, b - 1))
        for a in levels for b in levels
    )
    cpz_sq = (s * sector_sq + s * (s - 1) * cross) / (s * s)
    scale = p_max * p_max
    return {
        "always_max": (p_max, 0.0),
        "zooming": (zoom_mean * p_max, max(0.0, zoom_sq - zoom_mean ** 2) * scale),
        "cpz": (sector_mean * p_max, max(0.0, cpz_sq - sector_mean ** 2) * scale),
    }


def sha256_file(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def output_counters(rows: list[dict], csv_path: str) -> dict[str, float]:
    """Counters that repeat exactly for a fixed input: rows, bytes, sleeping trials, CPZ sectors."""
    active = [int(r["n_active_sectors"]) for r in rows if r["scheme"] == "cpz"]
    counters = {
        "sim.rows_emitted": len(rows),
        "sim.csv_bytes": os.path.getsize(csv_path),
        "sim.sleeping_trials": sum(1 for r in rows
                                   if r["scheme"] == "cpz" and float(r["total_power_w"]) == 0.0),
        "schemes.cpz.active_sectors_mean": math.fsum(active) / len(active) if active else 0.0,
    }
    for n in range(HIST_BINS):
        counters[f"schemes.cpz.active_sectors_hist.{n}"] = sum(1 for a in active if a == n)
    return counters


def _trial_triples(rows: list[dict], problems: list[str]):
    """Rows grouped as (sweep_var, trial) -> {scheme: row}, checking the layout."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r["sweep_var"], int(r["trial"])), {})[r["scheme"]] = r
    for key, by_scheme in groups.items():
        if sorted(by_scheme) != sorted(SCHEMES):
            problems.append(f"trial {key} has schemes {sorted(by_scheme)}")
    return groups


def check_simulate(cfg: dict, csv_path: str) -> tuple[list[str], dict]:
    """Scheme ordering, always_max sizing, edge-rate floor and mean powers vs closed form."""
    problems: list[str] = []
    rows = _read_rows(csv_path)
    n = cfg["n_trials"]
    if len(rows) != 3 * n:
        problems.append(f"expected {3 * n} rows, got {len(rows)}")
    groups = _trial_triples(rows, problems)
    p_max = required_power(cfg["grid"]["cell_radius"], cfg)
    rate_floor = cfg["k_users"] * cfg["rate_target"] * (1.0 - 1e-9)
    powers = {s: [] for s in SCHEMES}
    for key, by_scheme in groups.items():
        if len(by_scheme) != 3:
            continue
        p = {s: float(by_scheme[s]["total_power_w"]) for s in SCHEMES}
        for s in SCHEMES:
            powers[s].append(p[s])
        if not 0.0 <= p["cpz"] <= p["zooming"] <= p["always_max"]:
            problems.append(f"trial {key[1]}: ordering violated {p}")
        if not _close(p["always_max"], p_max):
            problems.append(f"trial {key[1]}: always_max {p['always_max']!r} != {p_max!r}")
        for s in SCHEMES:
            if p[s] > 0 and float(by_scheme[s]["sum_rate_bps"]) < rate_floor:
                problems.append(f"trial {key[1]}: {s} sum rate below K * rate_target")
    for s, (mean_ref, var_ref) in expected_power_moments(cfg).items():
        xs = powers[s]
        if not xs:
            continue
        mean = math.fsum(xs) / len(xs)
        se = math.sqrt(var_ref / len(xs))
        if abs(mean - mean_ref) > Z_GATE * se + REL_TOL * mean_ref:
            problems.append(f"{s}: mean power {mean:.6e} vs closed form {mean_ref:.6e} "
                            f"(standard error {se:.3e}, gate {Z_GATE} sigma)")
    return problems[:20], output_counters(rows, csv_path)


def check_sweep_sectors(cfg: dict, values: list[int], csv_path: str,
                        sidecar_path: str) -> tuple[list[str], dict]:
    """One cluster sector: cpz is always_max / s with a single active sector."""
    problems: list[str] = []
    rows = _read_rows(csv_path)
    expected_rows = 3 * len(values) * cfg["n_trials"]
    if len(rows) != expected_rows:
        problems.append(f"expected {expected_rows} rows, got {len(rows)}")
    groups = _trial_triples(rows, problems)
    if sorted({int(k[0]) for k in groups}) != sorted(values):
        problems.append(f"sweep values {sorted({k[0] for k in groups})} != {values}")
    for (value, trial), by_scheme in groups.items():
        if len(by_scheme) != 3:
            continue
        s = int(value)
        p_max = float(by_scheme["always_max"]["total_power_w"])
        cpz = by_scheme["cpz"]
        if not _close(float(cpz["total_power_w"]), p_max / s):
            problems.append(f"sectors={s} trial {trial}: cpz {cpz['total_power_w']} "
                            f"!= always_max / {s}")
        if int(cpz["n_active_sectors"]) != 1:
            problems.append(f"sectors={s} trial {trial}: cpz has "
                            f"{cpz['n_active_sectors']} active sectors")
    try:
        with open(sidecar_path, encoding="ascii") as fh:
            doc = json.load(fh)
        if len(doc["rows"]) != 3 * len(values):
            problems.append(f"sidecar has {len(doc['rows'])} rows, expected {3 * len(values)}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"sidecar unreadable: {exc}")
    return problems[:20], output_counters(rows, csv_path)


def check_verify(stdout: str) -> tuple[list[str], dict]:
    """All three invariant checks report PASS."""
    problems = []
    for name in ("zf_identity", "wishart_trace", "sinr_uniformity"):
        if f"[PASS] {name}:" not in stdout:
            problems.append(f"{name} did not PASS")
    return problems, {}
