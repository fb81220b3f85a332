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

Two forms compute the same reports. `powered_regions`, `per_ue_rates` and
`evaluate_scheme` work on one `CpzState` snapshot: the public scalar API,
and the oracle the batch form is tested against. `_evaluate_trials`
evaluates all three schemes on a whole batch of trials held as
(trials, users) arrays; Monte Carlo runs and sweeps go through it. Both give
the same floats bit for bit.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Mapping, NamedTuple

import numpy as np

from .mimo import per_ue_rate
from .partition import CpzState, PartitionGrid, cell_indices
from .propagation import LinkBudget, required_bs_power, snr_rho


class SchemeKind(Enum):
    ALWAYS_MAX = "always_max"
    ZOOMING = "zooming"
    CPZ = "cpz"


# Canonical report order for comparisons and emitted rows.
SCHEME_ORDER = (SchemeKind.ALWAYS_MAX, SchemeKind.ZOOMING, SchemeKind.CPZ)

# Trials _evaluate_trials works on at once; bounds its temporary arrays.
_BLOCK = 256


@dataclass(frozen=True)
class SchemeReport:
    """Outcome of one scheme on one scenario; ee is None when nothing is radiated."""

    scheme: SchemeKind
    total_power: float
    sum_rate: float
    ee: float | None
    n_active_sectors: int


def energy_efficiency(sum_rate: float, total_power: float) -> float | None:
    """Delivered bits per joule, or None for the zero-power sleep state; never infinite."""
    if sum_rate < 0:
        raise ValueError("sum_rate must be nonnegative")
    if total_power < 0:
        raise ValueError("total_power must be nonnegative")
    if total_power == 0:
        return None
    ee = sum_rate / total_power
    if ee == math.inf:
        raise ValueError(f"energy efficiency of {sum_rate} b/s over {total_power} W overflows")
    return ee


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


def _total_power(sized: list[tuple[int, float]], n_sectors: int) -> float:
    """Radiated power of regions given as (wedges, full-circle power P(zoom)) pairs."""
    if not sized:
        return 0.0
    # Accumulate fractions of the largest region power (each <= 1) and
    # divide once: rounding then cannot lift the total above that power,
    # keeping the scheme ordering exact without tolerances.
    full = max(power for _, power in sized)
    return full * (math.fsum(wedges * (power / full) for wedges, power in sized) / n_sectors)


def _check_budget(kind: SchemeKind, total: float, p_max: float) -> None:
    # Written to fail on NaN too.
    if not total <= p_max:
        raise RuntimeError(f"{kind.value} power {total} exceeds the always-max budget {p_max}")


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
    total = _total_power([(region.wedges, power) for region, power in sized],
                         state.grid.n_sectors)
    p_max = required_bs_power(budget.cell_radius_r, rate_target, k_users, m_antennas, budget)
    _check_budget(kind, total, p_max)
    rates = _region_rates(sized, state, budget, k_users, m_antennas, psi)
    return _report(kind, total, math.fsum(rates.values()),
                   sum(region.wedges for region, _ in sized))


def _report(kind: SchemeKind, total: float, sum_rate: float,
            n_active_sectors: int) -> SchemeReport:
    return SchemeReport(kind, total, sum_rate, energy_efficiency(sum_rate, total), n_active_sectors)


def _evaluate_trials(grid: PartitionGrid, budget: LinkBudget, rate_target: float,
                     k_users: int, m_antennas: int, r: np.ndarray, phi: np.ndarray,
                     psi: np.ndarray | None = None) -> list[tuple[SchemeReport, ...]]:
    """The reports of all three schemes, in SCHEME_ORDER, on every trial of a batch.

    r, phi and psi are (trials, users) arrays of each trial's user distances,
    angles (normalized as UePosition holds them) and slow-fading factors; psi
    None means unit shadowing. Row t gives the same reports, float for float,
    as evaluate_scheme on the build_state of row t's users, and the same
    errors: a distance outside [r0, R] or a factor that is not positive and
    finite, or an SINR that is not finite, raises ValueError, a total above
    the always-max budget RuntimeError.
    """
    def size(d: float) -> float:
        return required_bs_power(d, rate_target, k_users, m_antennas, budget)

    n_sectors = grid.n_sectors
    edge = grid.n_annuli - 1
    p_max = size(budget.cell_radius_r)
    # P(zoom) of each annulus a region reaches, sized when first met: only
    # those, as in the scalar path, since rings inside r0 cannot be sized.
    # -1 stands for an unpowered sector.
    ring_power = {-1: 0.0, edge: size(grid.annulus_outer_radius(edge))}

    @functools.cache
    def total(wedges: int, tops: tuple[int, ...]) -> float:
        # A trial's power: one `wedges`-sector region per annulus in tops.
        return _total_power([(wedges, ring_power[a]) for a in tops if a >= 0], n_sectors)

    full_total = total(n_sectors, (edge,))
    reports = []
    for start in range(0, len(r), _BLOCK):
        rb = r[start:start + _BLOCK]
        n, n_users = rb.shape
        outside = ~((budget.r0 <= rb) & (rb <= grid.cell_radius))
        if outside.any():
            raise ValueError(f"user distance {rb[outside][0]} m outside "
                             f"[{budget.r0}, {grid.cell_radius}] m")
        # pow and log2 run on Python floats: numpy's vector versions can
        # differ from them in the last bit.
        gain = np.array([budget.path_gain_g * x ** -budget.alpha
                         for x in (rb / budget.r0).ravel().tolist()]).reshape(n, n_users)
        fading = 1.0
        if psi is not None:
            fading = psi[start:start + _BLOCK]
            if not ((0 < fading) & (fading < math.inf)).all():
                raise ValueError("shadowing factor must be positive and finite")

        # top[t, j]: the highest annulus occupied in the j-th of the sectors
        # that hold users somewhere in the block, -1 if none in trial t.
        annulus, sector = cell_indices(grid, rb, phi[start:start + _BLOCK])
        sectors, column = np.unique(sector, return_inverse=True)
        column = column.reshape(n, n_users)
        rows = np.arange(n)[:, None]
        top = np.full((n, len(sectors)), -1, dtype=np.int64)
        np.maximum.at(top, (rows, column), annulus.astype(np.int64))
        for a in set(top.ravel().tolist()):
            if a not in ring_power:
                ring_power[a] = size(grid.annulus_outer_radius(a))
        rings = np.array(sorted(ring_power))
        powers = np.array([ring_power[a] for a in rings.tolist()])
        farthest = top.max(axis=1, initial=-1)

        totals = np.array([(full_total, total(n_sectors, (a,)), total(1, tuple(tops)))
                           for a, tops in zip(farthest.tolist(), np.sort(top, axis=1).tolist())])
        over = ~(totals <= p_max)
        if over.any():
            t, k = np.argwhere(over)[0]
            _check_budget(SCHEME_ORDER[k], totals[t, k].item(), p_max)

        sums = []
        for region_ring in (edge, farthest[:, None], top[rows, column]):
            power = powers[np.searchsorted(rings, region_ring)]
            if np.any(power < 0):
                raise ValueError("radiated power must be nonnegative")
            # The order of operations and the finite check of snr_rho and per_ue_rate.
            with np.errstate(over="ignore", invalid="ignore"):
                sinr = gain * fading * power / k_users / budget.noise_n0 * (m_antennas - k_users)
            if not np.isfinite(sinr).all():
                raise ValueError("sinr must be nonnegative and finite")
            rate = budget.bandwidth * np.array([math.log2(x)
                                                for x in (1.0 + sinr).ravel().tolist()])
            sums.append([math.fsum(row) for row in rate.reshape(n, n_users).tolist()])

        active = (top >= 0).sum(axis=1).tolist()
        for (p_full, p_zoom, p_cpz), s_full, s_zoom, s_cpz, n_active in zip(
                totals.tolist(), *sums, active):
            reports.append((_report(SchemeKind.ALWAYS_MAX, p_full, s_full, n_sectors),
                            _report(SchemeKind.ZOOMING, p_zoom, s_zoom,
                                    n_sectors if n_active else 0),
                            _report(SchemeKind.CPZ, p_cpz, s_cpz, n_active)))
    return reports
