"""Scenario generation, seeded Monte Carlo comparisons, and parameter sweeps.

A scenario places users in the cell and evaluates the three power-allocation
schemes on them. Trial i places its users from stream (config.seed, i) and
draws their shadowing from stream (shadowing.seed, i); both seeds default to 0,
so by default the two share a stream. Results are reproducible bit for bit and
independent of the order trials run in. Runs and sweeps draw every trial's
users and shadowing up front as (trials, users) arrays and hand them to the
batch kernel `schemes._evaluate_trials`; `place_ues` and `build_state` are the
per-trial scalar form, which gives the same positions and reports. Sweeps pin a
single edge user at each distance, or re-partition one clustered user set per
trial under different sector counts, and aggregate per-trial reports into mean
power and mean energy efficiency per scheme.
"""

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from .partition import MAX_COUNT, TWO_PI, CpzState, PartitionGrid, UePosition
from .propagation import DeterministicUnitShadowing, LinkBudget, ShadowingMode
from .rng import substream
from .schemes import SCHEME_ORDER, SchemeKind, SchemeReport, _evaluate_trials

CSV_HEADER = "sweep_var,scheme,trial,total_power_w,sum_rate_bps,ee_bit_per_joule,n_active_sectors"


@dataclass(frozen=True)
class UniformDisk:
    """Area-uniform placement over the serviceable ring [r0, R]."""


@dataclass(frozen=True)
class ArcCluster:
    """Placement confined to the first `sector_count_occupied` sectors of one annulus."""

    sector_count_occupied: int
    annulus: int


@dataclass(frozen=True)
class FixedPlacement:
    """Placement that returns the given positions verbatim on every trial."""

    positions: tuple[UePosition, ...] = ()


Placement = UniformDisk | ArcCluster | FixedPlacement


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario; defaults follow the outdoor-macro setup."""

    grid: PartitionGrid = field(default_factory=PartitionGrid)
    budget: LinkBudget = field(default_factory=LinkBudget)
    k_users: int = 10
    m_antennas: int = 200
    rate_target: float = 20e6
    placement: Placement = field(default_factory=UniformDisk)
    shadowing: ShadowingMode = field(default_factory=DeterministicUnitShadowing)
    seed: int = 0
    n_trials: int = 100

    def __post_init__(self):
        if self.k_users < 1:
            raise ValueError("k_users must be positive")
        if self.m_antennas <= self.k_users:
            raise ValueError(
                f"need more antennas than users, got K={self.k_users}, M={self.m_antennas}"
            )
        if self.m_antennas > MAX_COUNT:
            raise ValueError("m_antennas must be at most 2**53")
        if self.rate_target <= 0:
            raise ValueError("rate_target must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.grid.cell_radius != self.budget.cell_radius_r:
            raise ValueError(
                "grid.cell_radius and budget.cell_radius_r must agree "
                f"({self.grid.cell_radius} vs {self.budget.cell_radius_r})"
            )
        if isinstance(self.placement, ArcCluster):
            _check_arc_cluster(self.placement, self.grid, self.budget)
        if isinstance(self.placement, FixedPlacement):
            _check_fixed_placement(self.placement, self.grid, self.budget)


def _check_arc_cluster(arc: ArcCluster, grid: PartitionGrid, budget: LinkBudget) -> None:
    if not 1 <= arc.sector_count_occupied <= grid.n_sectors:
        raise ValueError(
            f"sector_count_occupied {arc.sector_count_occupied} outside [1, {grid.n_sectors}]"
        )
    if not 0 <= arc.annulus < grid.n_annuli:
        raise ValueError(f"annulus {arc.annulus} outside [0, {grid.n_annuli})")
    if grid.annulus_outer_radius(arc.annulus) <= budget.r0:
        raise ValueError(
            f"annulus {arc.annulus} lies entirely inside the reference distance {budget.r0} m"
        )


def _check_fixed_placement(placement: FixedPlacement, grid: PartitionGrid,
                           budget: LinkBudget) -> None:
    seen = set()
    for pos in placement.positions:
        if pos.ue_id in seen:
            raise ValueError(f"fixed placement repeats ue_id {pos.ue_id!r}")
        seen.add(pos.ue_id)
        if not budget.r0 <= pos.r <= grid.cell_radius:
            raise ValueError(
                f"fixed position for ue_id {pos.ue_id!r} at r={pos.r} m outside "
                f"[{budget.r0}, {grid.cell_radius}] m"
            )


def _area_uniform_radii(rng, n: int, r_lo: float, r_hi: float):
    # Density proportional to r (uniform over the ring area).
    u = rng.random(n)
    return (r_lo * r_lo + u * (r_hi * r_hi - r_lo * r_lo)) ** 0.5


def _draw_users(config: ScenarioConfig, trial_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii and angles of one trial's randomly placed users, from stream (seed, trial)."""
    placement = config.placement
    rng = substream(config.seed, trial_index)
    k = config.k_users
    grid = config.grid
    if isinstance(placement, UniformDisk):
        radii = _area_uniform_radii(rng, k, config.budget.r0, grid.cell_radius)
        return radii, rng.random(k) * (2.0 * math.pi)

    if isinstance(placement, ArcCluster):
        r_lo = max(placement.annulus * grid.cell_radius / grid.n_annuli, config.budget.r0)
        r_hi = grid.annulus_outer_radius(placement.annulus)
        radii = _area_uniform_radii(rng, k, r_lo, r_hi)
        if placement.annulus < grid.n_annuli - 1:
            # Keep rounding from spilling a draw into the next ring.
            radii = np.minimum(radii, math.nextafter(r_hi, 0.0))
        arc_end = placement.sector_count_occupied * grid.sector_width()
        return radii, np.minimum(rng.random(k) * arc_end, math.nextafter(arc_end, 0.0))

    raise TypeError(f"unknown placement {placement!r}")


def place_ues(config: ScenarioConfig, trial_index: int) -> list[UePosition]:
    """User positions for one trial, deterministic in (config.seed, trial_index)."""
    if isinstance(config.placement, FixedPlacement):
        return list(config.placement.positions)
    radii, angles = _draw_users(config, trial_index)
    return [UePosition(i, r, phi)
            for i, (r, phi) in enumerate(zip(radii.tolist(), angles.tolist()))]


def build_state(grid: PartitionGrid, positions: Iterable[UePosition]) -> CpzState:
    state = CpzState(grid)
    for pos in positions:
        state.join(pos)
    return state


def _trial_users(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(trials, users) radii and angles: row i holds place_ues(config, i)."""
    placement = config.placement
    if isinstance(placement, FixedPlacement):
        every_trial = (config.n_trials, 1)
        return (np.tile([pos.r for pos in placement.positions], every_trial),
                np.tile([pos.phi for pos in placement.positions], every_trial))
    radii = np.empty((config.n_trials, config.k_users))
    angles = np.empty_like(radii)
    for i in range(config.n_trials):
        radii[i], angles[i] = _draw_users(config, i)
    # Angles normalized once, the way UePosition does it.
    return radii, np.remainder(angles, TWO_PI)


def _trial_psi(config: ScenarioConfig, n_users: int) -> np.ndarray | None:
    """(trials, users) slow-fading factors, or None under unit shadowing."""
    shadowing = config.shadowing
    if isinstance(shadowing, DeterministicUnitShadowing):
        return None
    psi = np.empty((config.n_trials, n_users))
    for i in range(config.n_trials):
        psi[i] = shadowing.psi(n_users, i)
    return psi


def _reports(config: ScenarioConfig, grid: PartitionGrid, radii: np.ndarray,
             angles: np.ndarray, psi: np.ndarray | None) -> list[tuple[SchemeReport, ...]]:
    return _evaluate_trials(grid, config.budget, config.rate_target, config.k_users,
                            config.m_antennas, radii, angles, psi)


def run_comparison(config: ScenarioConfig) -> list[tuple[SchemeReport, ...]]:
    """Per-trial reports for all three schemes, in scheme order, trial order preserved."""
    radii, angles = _trial_users(config)
    return _reports(config, config.grid, radii, angles, _trial_psi(config, radii.shape[1]))


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class TrialRecord:
    """One emitted row: a scheme report tagged with its sweep value and trial."""

    sweep_var: float | int | None
    trial: int
    report: SchemeReport


@dataclass(frozen=True)
class SweepRow:
    sweep_var: float | int
    scheme: SchemeKind
    mean_total_power: float
    mean_ee: float | None
    n_trials_defined: int


@dataclass(frozen=True)
class SweepResult:
    variable: str
    rows: tuple[SweepRow, ...]


@dataclass(frozen=True)
class SweepRun:
    """Aggregated sweep result plus the per-trial records behind it."""

    result: SweepResult
    records: tuple[TrialRecord, ...]


def _aggregate(variable: str, records: Iterable[TrialRecord]) -> SweepResult:
    groups: dict[tuple, list[SchemeReport]] = {}
    for rec in records:
        groups.setdefault((rec.sweep_var, rec.report.scheme), []).append(rec.report)
    rows = []
    order = {kind: i for i, kind in enumerate(SCHEME_ORDER)}
    for (value, scheme), reports in sorted(groups.items(), key=lambda kv: (kv[0][0], order[kv[0][1]])):
        defined = [r.ee for r in reports if r.ee is not None]
        rows.append(SweepRow(
            sweep_var=value,
            scheme=scheme,
            mean_total_power=math.fsum(r.total_power for r in reports) / len(reports),
            mean_ee=math.fsum(defined) / len(defined) if defined else None,
            n_trials_defined=len(defined),
        ))
    return SweepResult(variable=variable, rows=tuple(rows))


def _sweep(config: ScenarioConfig, variable: str, values: list, n_users: int,
           scenario: Callable[..., tuple[PartitionGrid, np.ndarray, np.ndarray]]) -> SweepRun:
    """Every trial at every sweep value; scenario(value) gives (grid, radii, angles).

    Each trial's shadowing is drawn once and shared by all values.
    """
    if len(set(values)) < len(values):
        raise ValueError(f"{variable} sweep values must be distinct, got {values}")
    psi = _trial_psi(config, n_users)
    records = tuple(
        TrialRecord(value, trial, rep)
        for value in values
        for trial, reports in enumerate(_reports(config, *scenario(value), psi))
        for rep in reports
    )
    return SweepRun(result=_aggregate(variable, records), records=records)


def sweep_distance(config: ScenarioConfig, d_values: Iterable[float]) -> SweepRun:
    """Scheme comparison with a single user pinned at each distance in turn."""
    values = sorted(float(d) for d in d_values)
    if not values:
        raise ValueError("d_values must not be empty")
    for d in values:
        if not config.budget.r0 <= d <= config.budget.cell_radius_r:
            raise ValueError(
                f"sweep distance {d} m outside "
                f"[{config.budget.r0}, {config.budget.cell_radius_r}] m"
            )
    angles = np.zeros((config.n_trials, 1))
    return _sweep(config, "distance", values, 1,
                  lambda d: (config.grid, np.full((config.n_trials, 1), d), angles))


def sweep_sectors(config: ScenarioConfig, sector_counts: Iterable[int]) -> SweepRun:
    """Scheme comparison of one fixed clustered user set under varying sector counts.

    Trial i places its users once, on the finest grid, and every count
    evaluates that one user set: confined to sector 0 of the finest grid
    unless the config fixes or clusters them.
    """
    counts = sorted(int(c) for c in sector_counts)
    if not counts:
        raise ValueError("sector_counts must not be empty")
    if counts[0] < 1:
        raise ValueError("sector counts must be at least 1")
    placement = config.placement
    if isinstance(placement, UniformDisk):
        placement = ArcCluster(sector_count_occupied=1, annulus=config.grid.n_annuli - 1)
    cluster = replace(config, grid=replace(config.grid, n_sectors=counts[-1]), placement=placement)
    radii, angles = _trial_users(cluster)
    return _sweep(config, "sectors", counts, radii.shape[1],
                  lambda count: (replace(config.grid, n_sectors=count), radii, angles))


# ---------------------------------------------------------------------------
# Emission


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("bool is not a CSV field")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def format_records_csv(records: Iterable[TrialRecord]) -> str:
    """Locale-independent CSV of per-trial reports, with a trailing newline."""
    lines = [CSV_HEADER]
    for rec in records:
        rep = rec.report
        lines.append(",".join([
            _csv_value(rec.sweep_var),
            rep.scheme.value,
            str(rec.trial),
            _csv_value(rep.total_power),
            _csv_value(rep.sum_rate),
            _csv_value(rep.ee),
            str(rep.n_active_sectors),
        ]))
    return "\n".join(lines) + "\n"


def write_records_csv(path, records: Iterable[TrialRecord]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(format_records_csv(records))


def sweep_result_to_doc(result: SweepResult) -> dict:
    return {
        "variable": result.variable,
        "rows": [
            {
                "sweep_var": row.sweep_var,
                "scheme": row.scheme.value,
                "mean_total_power_w": row.mean_total_power,
                "mean_ee_bit_per_joule": row.mean_ee,
                "n_trials_defined": row.n_trials_defined,
            }
            for row in result.rows
        ],
    }


def write_sweep_json(path, result: SweepResult) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        json.dump(sweep_result_to_doc(result), fh, indent=2)
        fh.write("\n")


def comparison_records(reports_per_trial: Iterable[tuple[SchemeReport, ...]]) -> tuple[TrialRecord, ...]:
    """Flatten run_comparison output into CSV records (sweep_var left empty)."""
    return tuple(
        TrialRecord(None, trial, rep)
        for trial, reports in enumerate(reports_per_trial)
        for rep in reports
    )
