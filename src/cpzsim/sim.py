"""Scenario generation, seeded Monte Carlo comparisons, and parameter sweeps.

A scenario places users in the cell, feeds them through the partition
state, and evaluates the three power-allocation schemes. Trial i draws
everything from stream (seed, i), so results are reproducible bit for bit
and independent of the order trials run in. Sweeps pin a single edge user
at each distance, or re-partition a fixed user cluster under different
sector counts, and aggregate per-trial reports into mean power and mean
energy efficiency per scheme.
"""

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from .partition import CpzState, PartitionGrid, UePosition
from .propagation import DeterministicUnitShadowing, LinkBudget, ShadowingMode
from .rng import substream
from .schemes import SCHEME_ORDER, SchemeKind, SchemeReport, evaluate_scheme

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


def place_ues(config: ScenarioConfig, trial_index: int) -> list[UePosition]:
    """User positions for one trial, deterministic in (config.seed, trial_index)."""
    placement = config.placement
    if isinstance(placement, FixedPlacement):
        return list(placement.positions)

    rng = substream(config.seed, trial_index)
    k = config.k_users
    grid = config.grid
    if isinstance(placement, UniformDisk):
        radii = _area_uniform_radii(rng, k, config.budget.r0, grid.cell_radius)
        angles = rng.random(k) * (2.0 * math.pi)
        return [UePosition(i, float(radii[i]), float(angles[i])) for i in range(k)]

    if isinstance(placement, ArcCluster):
        r_lo = max(placement.annulus * grid.cell_radius / grid.n_annuli, config.budget.r0)
        r_hi = grid.annulus_outer_radius(placement.annulus)
        radii = _area_uniform_radii(rng, k, r_lo, r_hi)
        if placement.annulus < grid.n_annuli - 1:
            # Keep rounding from spilling a draw into the next ring.
            radii = [min(r, math.nextafter(r_hi, 0.0)) for r in radii]
        arc_end = placement.sector_count_occupied * grid.sector_width()
        angles = [min(u * arc_end, math.nextafter(arc_end, 0.0)) for u in rng.random(k)]
        return [UePosition(i, float(radii[i]), float(angles[i])) for i in range(k)]

    raise TypeError(f"unknown placement {placement!r}")


def build_state(grid: PartitionGrid, positions: Iterable[UePosition]) -> CpzState:
    state = CpzState(grid)
    for pos in positions:
        state.join(pos)
    return state


def _psi_map(shadowing: ShadowingMode, positions: list[UePosition], trial_index: int):
    if isinstance(shadowing, DeterministicUnitShadowing):
        return None
    draws = shadowing.psi(len(positions), trial_index)
    return {pos.ue_id: float(d) for pos, d in zip(positions, draws)}


def _evaluate_all(config: ScenarioConfig, grid: PartitionGrid,
                  positions: list[UePosition], trial_index: int) -> tuple[SchemeReport, ...]:
    state = build_state(grid, positions)
    psi = _psi_map(config.shadowing, positions, trial_index)
    return tuple(
        evaluate_scheme(kind, state, config.budget, config.rate_target,
                        config.k_users, config.m_antennas, psi=psi)
        for kind in SCHEME_ORDER
    )


def run_comparison(config: ScenarioConfig) -> list[tuple[SchemeReport, ...]]:
    """Per-trial reports for all three schemes, in scheme order, trial order preserved."""
    return [_evaluate_all(config, config.grid, place_ues(config, i), i)
            for i in range(config.n_trials)]


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


def _sweep(config: ScenarioConfig, variable: str, values: list,
           scenario: Callable[..., tuple[PartitionGrid, list[UePosition]]]) -> SweepRun:
    """Every trial at every sweep value; scenario(value, trial) gives (grid, positions)."""
    if len(set(values)) < len(values):
        raise ValueError(f"{variable} sweep values must be distinct, got {values}")
    records = tuple(
        TrialRecord(value, trial, rep)
        for value in values
        for trial in range(config.n_trials)
        for rep in _evaluate_all(config, *scenario(value, trial), trial)
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
    return _sweep(config, "distance", values,
                  lambda d, trial: (config.grid, [UePosition(0, d, 0.0)]))


def _cluster_positions(config: ScenarioConfig, finest_sectors: int,
                       trial_index: int) -> list[UePosition]:
    """User set reused across sector counts; confined to sector 0 of the finest grid."""
    if isinstance(config.placement, FixedPlacement):
        return list(config.placement.positions)
    if isinstance(config.placement, ArcCluster):
        arc = config.placement
    else:
        arc = ArcCluster(sector_count_occupied=1, annulus=config.grid.n_annuli - 1)
    finest = replace(config, grid=replace(config.grid, n_sectors=finest_sectors), placement=arc)
    return place_ues(finest, trial_index)


def sweep_sectors(config: ScenarioConfig, sector_counts: Iterable[int]) -> SweepRun:
    """Scheme comparison of one fixed clustered user set under varying sector counts."""
    counts = sorted(int(c) for c in sector_counts)
    if not counts:
        raise ValueError("sector_counts must not be empty")
    if counts[0] < 1:
        raise ValueError("sector counts must be at least 1")
    finest = counts[-1]
    return _sweep(config, "sectors", counts,
                  lambda count, trial: (replace(config.grid, n_sectors=count),
                                        _cluster_positions(config, finest, trial)))


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
