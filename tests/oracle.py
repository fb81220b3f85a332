"""The scalar oracle of the scheme model, the reference the batch kernel is tested against.

It states the one rule of all three schemes on one `CpzState` snapshot:
power a set of regions, each a run of whole sectors with a zoom distance,
charged its angular fraction of the full-circle power that serves that
distance. always_max powers one full-circle region out to the cell edge,
zooming one out to the farthest occupied annulus, or nothing when the cell is
empty, and cpz one single-sector region per occupied sector. A user in a
powered region is rated at the SNR of its own distance under that region's
power.

`pow` and `log2` run in libm on Python floats, and every sum adds left to
right from +0.0 in a fixed order (`_sum`): a trial's rates in user (join)
order and cpz's power fractions in sector order. The kernel
(`cpzsim.schemes._evaluate_trials`) keeps the same rule with `_row_sums`, so
its reports equal this oracle's float for float. The oracle reaches cpzsim
only through the public names imported below, so it shares no kernel stage.
`sum_rate_closed_form` is the ZF sum rate the Monte Carlo tests check.
"""

import math
from typing import NamedTuple, Sequence

from cpzsim.mimo import per_ue_rate
from cpzsim.partition import CpzState, locate
from cpzsim.propagation import LinkBudget, required_bs_power, snr_rho
from cpzsim.schemes import SchemeKind, SchemeReport, energy_efficiency


class Region(NamedTuple):
    """A powered region: `wedges` adjacent sectors zoomed to `zoom`, serving users `members`.

    Its angular fraction is wedges / grid.n_sectors, and it is charged that
    fraction of the full-circle power P(zoom).
    """

    wedges: int
    zoom: float
    members: tuple[int, ...]


def max_zoom(state: CpzState) -> float | None:
    """Largest per-sector zoom distance, or None when the cell is empty."""
    return max(state.per_sector_zoom.values(), default=None)


def sector_of(state: CpzState, i: int) -> int:
    """The sector of user i."""
    return locate(state.ue_positions()[i], state.grid).sector


def powered_regions(kind: SchemeKind, state: CpzState) -> list[Region]:
    """The regions a scheme powers on a scenario snapshot; empty means the cell sleeps.

    always_max powers the full circle out to the cell edge, zooming the full
    circle out to the farthest occupied annulus, and cpz one region per
    occupied sector at that sector's zoom. Members are user indices in join order.
    """
    grid = state.grid
    members = tuple(range(len(state.ue_positions())))
    if kind is SchemeKind.ALWAYS_MAX:
        return [Region(grid.n_sectors, grid.cell_radius, members)]
    if kind is SchemeKind.ZOOMING:
        zoom = max_zoom(state)
        return [] if zoom is None else [Region(grid.n_sectors, zoom, members)]
    if kind is SchemeKind.CPZ:
        by_sector: dict[int, list[int]] = {}
        for i in members:
            by_sector.setdefault(sector_of(state, i), []).append(i)
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
                  psi: Sequence[float] | None) -> dict[int, float]:
    positions = state.ue_positions()
    rates: dict[int, float] = {}
    for region, power in sized:
        for i in region.members:
            fading = 1.0 if psi is None else psi[i]
            rho = snr_rho(power, k_users, positions[i].r, budget, fading)
            rates[i] = per_ue_rate(budget.bandwidth, rho * (m_antennas - k_users))
    return rates


def per_ue_rates(kind: SchemeKind, state: CpzState, budget: LinkBudget,
                 rate_target: float, k_users: int, m_antennas: int,
                 psi: Sequence[float] | None = None) -> dict[int, float]:
    """Modeled rate of every served user, by index, at the scheme's granted power.

    psi[i] is user i's slow-fading factor; omit it for the deterministic
    unit-shadowing mode in which every rate is at least the target.
    """
    sized = _sized_regions(kind, state, budget, rate_target, k_users, m_antennas)
    return _region_rates(sized, state, budget, k_users, m_antennas, psi)


def _total_power(sized: list[tuple[int, float]], n_sectors: int) -> float:
    """Radiated power of regions given as (wedges, full-circle power P(zoom)) pairs."""
    if not sized:
        return 0.0
    # Accumulate fractions of the largest region power (each <= 1) and divide
    # once: each left-to-right partial sum of n of them stays <= n, an exact
    # float, so rounding cannot lift the total above that power, keeping the
    # scheme ordering exact without tolerances.
    full = max(power for _, power in sized)
    return full * (_sum(wedges * (power / full) for wedges, power in sized) / n_sectors)


def _check_budget(kind: SchemeKind, total: float, p_max: float) -> None:
    # Written to fail on NaN too.
    if not total <= p_max:
        raise RuntimeError(f"{kind.value} power {total} exceeds the always-max budget {p_max}")


def _sum(values) -> float:
    """values added left to right from +0.0, raising ValueError if the sum is infinite.

    An explicit loop: builtin sum compensates float sums from Python 3.12 on, so
    it gives this sum only on 3.10 and 3.11.
    """
    total = 0.0
    for value in values:
        total += value
    if math.isinf(total):
        raise ValueError("sum rate overflows the float range")
    return total


def evaluate_scheme(kind: SchemeKind, state: CpzState, budget: LinkBudget,
                    rate_target: float, k_users: int, m_antennas: int,
                    psi: Sequence[float] | None = None) -> SchemeReport:
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
    sum_rate = _sum(rates[i] for i in range(len(state.ue_positions())))
    return SchemeReport(kind, total, sum_rate, energy_efficiency(sum_rate, total),
                        sum(region.wedges for region, _ in sized))


def sum_rate_closed_form(k_users: int, m_antennas: int, rho: float, bandwidth: float) -> float:
    """ZF sum rate K * B * log2(1 + rho * (M - K)) in bit/s, a lower bound on the ergodic one."""
    if k_users < 1:
        raise ValueError("k_users must be positive")
    if m_antennas <= k_users:
        raise ValueError(f"closed form needs M > K, got K={k_users}, M={m_antennas}")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return k_users * bandwidth * math.log2(1.0 + rho * (m_antennas - k_users))
