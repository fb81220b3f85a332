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
(trials, users) arrays and returns one `SchemeColumns` per scheme, a list
per report field, whose `report(t)` is trial t's `SchemeReport`; Monte Carlo
runs and sweeps go through it, with each scheme one plan of regions (their
width, the annulus each reaches, each user's region) run by one loop. Both
forms give the same floats bit for bit.
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
    sum_rate = math.fsum(_region_rates(sized, state, budget, k_users, m_antennas, psi).values())
    return SchemeReport(kind, total, sum_rate, energy_efficiency(sum_rate, total),
                        sum(region.wedges for region, _ in sized))


class SchemeColumns(NamedTuple):
    """One scheme's outcomes on a batch of trials: trial t is index t of each list."""

    scheme: SchemeKind
    total_power: list[float]
    sum_rate: list[float]
    ee: list[float | None]
    n_active_sectors: list[int]

    def report(self, t: int) -> SchemeReport:
        """Trial t as the SchemeReport evaluate_scheme gives for it."""
        return SchemeReport(self.scheme, self.total_power[t], self.sum_rate[t], self.ee[t],
                            self.n_active_sectors[t])


def _evaluate_trials(grid: PartitionGrid, budget: LinkBudget, rate_target: float,
                     k_users: int, m_antennas: int, r: np.ndarray, phi: np.ndarray,
                     psi: np.ndarray | None = None) -> tuple[SchemeColumns, ...]:
    """The columns of all three schemes, in SCHEME_ORDER, on every trial of a batch.

    r, phi and psi are (trials, users) arrays of each trial's user distances,
    angles (normalized as UePosition holds them) and slow-fading factors; psi
    None means unit shadowing. A scheme's plan (wedges, regions, member) is
    powered_regions on a block: region j of trial t spans `wedges` sectors out
    to annulus regions[t, j] (-1: unpowered) and serves users u with
    member[t, u] == j. Trial t of the columns holds the same reports, float for
    float, as evaluate_scheme on the build_state of row t's users, and the same
    errors: a distance outside [r0, R] or a factor that is not positive and
    finite, or an SINR that is not finite, raises ValueError, a total above the
    always-max budget RuntimeError.
    """
    n_sectors = grid.n_sectors
    edge = grid.n_annuli - 1
    p_max = required_bs_power(budget.cell_radius_r, rate_target, k_users, m_antennas, budget)

    @functools.cache
    def ring_power(a: int) -> float:
        # P(zoom) of an annulus, sized when a region first reaches it: only
        # those, as in the scalar path, since rings inside r0 cannot be sized.
        power = required_bs_power(grid.annulus_outer_radius(a), rate_target, k_users,
                                  m_antennas, budget)
        if power < 0:
            raise ValueError("radiated power must be nonnegative")
        return power

    @functools.cache
    def total(wedges: int, tops: tuple[int, ...]) -> float:
        # A trial's power: one `wedges`-sector region per annulus in tops.
        return _total_power([(wedges, ring_power(a)) for a in tops if a >= 0], n_sectors)

    def rates(faded: np.ndarray, power) -> np.ndarray:
        # The order of operations and the finite check of snr_rho and per_ue_rate;
        # log2 runs on Python floats, since numpy's can differ in the last bit.
        with np.errstate(over="ignore", invalid="ignore"):
            sinr = faded * power / k_users / budget.noise_n0 * (m_antennas - k_users)
        if not np.isfinite(sinr).all():
            raise ValueError("sinr must be nonnegative and finite")
        flat = (1.0 + sinr).ravel().tolist()
        return budget.bandwidth * np.fromiter(map(math.log2, flat), float, len(flat))

    columns = tuple(SchemeColumns(kind, [], [], [], []) for kind in SCHEME_ORDER)
    for start in range(0, len(r), _BLOCK):
        rb = r[start:start + _BLOCK]
        n, n_users = rb.shape
        outside = ~((budget.r0 <= rb) & (rb <= grid.cell_radius))
        if outside.any():
            raise ValueError(f"user distance {rb[outside][0]} m outside "
                             f"[{budget.r0}, {grid.cell_radius}] m")
        # pow runs on Python floats, as log2 does.
        faded = np.array([budget.path_gain_g * x ** -budget.alpha
                          for x in (rb / budget.r0).ravel().tolist()]).reshape(n, n_users)
        if psi is not None:
            fading = psi[start:start + _BLOCK]
            if not ((0 < fading) & (fading < math.inf)).all():
                raise ValueError("shadowing factor must be positive and finite")
            with np.errstate(over="ignore"):
                faded = faded * fading

        # top[t, j]: the highest annulus occupied in the j-th of the sectors
        # that hold users somewhere in the block, -1 if none in trial t.
        annulus, sector = cell_indices(grid, rb, phi[start:start + _BLOCK])
        sectors, column = np.unique(sector, return_inverse=True)
        column = column.reshape(n, n_users)
        rows = np.arange(n)[:, None]
        top = np.full((n, len(sectors)), -1, dtype=np.int64)
        np.maximum.at(top, (rows, column), annulus.astype(np.int64))
        plans = ((n_sectors, np.full((n, 1), edge), np.zeros_like(column)),
                 (n_sectors, top.max(axis=1, initial=-1)[:, None], np.zeros_like(column)),
                 (1, top, column))

        totals = np.array([[total(wedges, tuple(tops))
                            for tops in np.sort(regions, axis=1).tolist()]
                           for wedges, regions, _ in plans])
        over = ~(totals <= p_max)
        if over.any():
            t, k = np.argwhere(over.T)[0]
            _check_budget(SCHEME_ORDER[k], totals[k, t].item(), p_max)

        # Every user is rated at the edge ring first. A user whose region
        # reaches the edge ring gets that power, hence that rate: only users of
        # a powered region short of it are rated again, and their trials (mixed)
        # summed again.
        edge_rates = rates(faded, ring_power(edge)).reshape(n, n_users)
        edge_sums = [math.fsum(row) for row in edge_rates.tolist()]
        for cols, (wedges, regions, member), power in zip(columns, plans, totals.tolist()):
            sum_rate = edge_sums.copy()
            mixed = np.flatnonzero(((0 <= regions) & (regions < edge)).any(axis=1))
            if len(mixed):
                ring = regions[mixed[:, None], member[mixed]]
                inner = ring != edge
                rings, ring_of = np.unique(ring[inner], return_inverse=True)
                scheme_rates = edge_rates[mixed]
                scheme_rates[inner] = rates(faded[mixed][inner], np.array(
                    [ring_power(a) for a in rings.tolist()])[ring_of])
                for t, row in zip(mixed.tolist(), scheme_rates.tolist()):
                    sum_rate[t] = math.fsum(row)
            cols.total_power.extend(power)
            cols.sum_rate.extend(sum_rate)
            cols.ee.extend(map(energy_efficiency, sum_rate, power))
            cols.n_active_sectors.extend((wedges * (regions >= 0).sum(axis=1)).tolist())
    return columns
