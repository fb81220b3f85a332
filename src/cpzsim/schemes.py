"""The three power-allocation schemes and their energy-efficiency reports.

All three follow one rule: power a set of regions, each a run of whole
sectors with a zoom distance, charged its angular fraction of the
full-circle power that serves that distance. always_max powers one full-circle region
out to the cell edge whether anyone is there or not. zooming powers one
full-circle region out to the farthest active user, or nothing when the
cell is empty. cpz powers one single-sector region per occupied sector.

A user in a powered region sees the link of a full-circle transmission at
that region's dimensioning power, so per-user rates follow from the SNR at
the user's own distance; the region edge gets exactly the target rate and
everyone closer gets more.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Mapping, NamedTuple

from .mimo import per_ue_rate
from .partition import CpzState
from .propagation import LinkBudget, required_bs_power, snr_rho


class SchemeKind(Enum):
    ALWAYS_MAX = "always_max"
    ZOOMING = "zooming"
    CPZ = "cpz"


# Canonical report order for comparisons and emitted rows.
SCHEME_ORDER = (SchemeKind.ALWAYS_MAX, SchemeKind.ZOOMING, SchemeKind.CPZ)


@dataclass(frozen=True)
class SchemeReport:
    """Outcome of one scheme on one scenario; ee is None when nothing is radiated."""

    scheme: SchemeKind
    total_power: float
    sum_rate: float
    ee: float | None
    n_active_sectors: int


def energy_efficiency(sum_rate: float, total_power: float) -> float | None:
    """Delivered bits per joule, or None for the zero-power sleep state."""
    if sum_rate < 0:
        raise ValueError("sum_rate must be nonnegative")
    if total_power < 0:
        raise ValueError("total_power must be nonnegative")
    if total_power == 0:
        return None
    return sum_rate / total_power


class Region(NamedTuple):
    """A powered region: `wedges` adjacent sectors zoomed to `zoom`, serving `members`.

    Its angular fraction is wedges / grid.n_sectors, and it is charged that
    fraction of the full-circle power P(zoom).
    """

    wedges: int
    zoom: float
    members: tuple[Hashable, ...]


def powered_regions(kind: SchemeKind, state: CpzState) -> list[Region]:
    """The regions a scheme powers on a scenario snapshot; empty means the cell sleeps.

    always_max powers the full circle out to the cell edge, zooming the full
    circle out to the farthest occupied annulus, and cpz one region per
    occupied sector at that sector's zoom. Members keep join order.
    """
    grid = state.grid
    members = tuple(state.ue_positions())
    if kind is SchemeKind.ALWAYS_MAX:
        return [Region(grid.n_sectors, grid.cell_radius, members)]
    if kind is SchemeKind.ZOOMING:
        zoom = state.max_zoom()
        return [] if zoom is None else [Region(grid.n_sectors, zoom, members)]
    if kind is SchemeKind.CPZ:
        by_sector: dict[int, list[Hashable]] = {}
        for ue_id in members:
            by_sector.setdefault(state.sector_of(ue_id), []).append(ue_id)
        return [Region(1, c.zoom_distance, tuple(by_sector[c.sector]))
                for c in state.coverage_requirements()]
    raise ValueError(f"unknown scheme {kind!r}")


def _sized_regions(kind: SchemeKind, state: CpzState, budget: LinkBudget, rate_target: float,
                   k_users: int, m_antennas: int) -> list[tuple[Region, float]]:
    """Each powered region with the full-circle power P(zoom) that dimensions it."""
    return [(region, required_bs_power(region.zoom, rate_target, k_users, m_antennas, budget))
            for region in powered_regions(kind, state)]


def _region_rates(sized: list[tuple[Region, float]], state: CpzState, budget: LinkBudget,
                  k_users: int, m_antennas: int,
                  psi: Mapping[Hashable, float] | None) -> dict[Hashable, float]:
    positions = state.ue_positions()
    rates: dict[Hashable, float] = {}
    for region, power in sized:
        for ue_id in region.members:
            fading = 1.0 if psi is None else psi[ue_id]
            rho = snr_rho(power, k_users, positions[ue_id].r, budget, fading)
            rates[ue_id] = per_ue_rate(budget.bandwidth, rho * (m_antennas - k_users))
    return rates


def per_ue_rates(kind: SchemeKind, state: CpzState, budget: LinkBudget,
                 rate_target: float, k_users: int, m_antennas: int,
                 psi: Mapping[Hashable, float] | None = None) -> dict[Hashable, float]:
    """Modeled rate of every served user at the scheme's granted power.

    psi maps ue_id to a slow-fading factor; omit it for the deterministic
    unit-shadowing mode in which every rate is at least the target.
    """
    sized = _sized_regions(kind, state, budget, rate_target, k_users, m_antennas)
    return _region_rates(sized, state, budget, k_users, m_antennas, psi)


def evaluate_scheme(kind: SchemeKind, state: CpzState, budget: LinkBudget,
                    rate_target: float, k_users: int, m_antennas: int,
                    psi: Mapping[Hashable, float] | None = None) -> SchemeReport:
    """Evaluate one scheme on a scenario snapshot.

    The report carries the scheme's total radiated power, the sum of the
    served users' modeled rates, and the resulting energy efficiency. The
    total can never exceed the always-max budget; that bound is re-checked
    here as a guard against regressions in the power construction.
    """
    sized = _sized_regions(kind, state, budget, rate_target, k_users, m_antennas)
    total = 0.0
    if sized:
        # Accumulate fractions of the largest region power (each <= 1) and
        # divide once: rounding then cannot lift the total above that power,
        # keeping the scheme ordering exact without tolerances.
        full = max(power for _, power in sized)
        fractions = math.fsum(region.wedges * (power / full) for region, power in sized)
        total = full * (fractions / state.grid.n_sectors)
    p_max = required_bs_power(budget.cell_radius_r, rate_target, k_users, m_antennas, budget)
    if not total <= p_max:
        raise RuntimeError(f"{kind.value} power {total} exceeds the always-max budget {p_max}")
    rates = _region_rates(sized, state, budget, k_users, m_antennas, psi)
    sum_rate = math.fsum(rates.values())
    return SchemeReport(
        scheme=kind,
        total_power=total,
        sum_rate=sum_rate,
        ee=energy_efficiency(sum_rate, total),
        n_active_sectors=sum(region.wedges for region, _ in sized),
    )
