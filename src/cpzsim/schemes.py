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

One model computes the reports. `_evaluate_trials`, the batch kernel, runs
(trials, users) arrays of Monte Carlo runs and sweeps, on one or more grids
that differ in sector count (cpz planned once per distinct partition of the
users, which are sorted by angle once), and returns per grid one `SchemeColumns`
per scheme: an array per report field and a `sleeping` mask. `evaluate_scheme`
is the kernel on one `CpzState` snapshot. `pow` and `log2` run in libm on
Python floats, and every sum adds left to right from +0.0 in a fixed order
(`_row_sums`): a trial's rates in user (join) order and cpz's power fractions
in sector order, once per partition (a sector count only divides their sum).
The tests keep a scalar oracle of the same rule, `tests/oracle.py`, which
sizes and rates one region at a time; the kernel's reports equal its reports
float for float.
"""

import functools
import math
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from ._record import Record
from .partition import CpzState, PartitionGrid, cell_indices, sector_indices
from .propagation import LinkBudget, libm, required_bs_power


class SchemeKind(Enum):
    ALWAYS_MAX = "always_max"
    ZOOMING = "zooming"
    CPZ = "cpz"


# Canonical report order for comparisons and emitted rows.
SCHEME_ORDER = (SchemeKind.ALWAYS_MAX, SchemeKind.ZOOMING, SchemeKind.CPZ)

# Trials _evaluate_trials works on at once; bounds its temporary arrays.
_BLOCK = 1024


class SchemeReport(Record):
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


def _check_budget(kind: SchemeKind, total: float, p_max: float) -> None:
    # Written to fail on NaN too.
    if not total <= p_max:
        raise RuntimeError(f"{kind.value} power {total} exceeds the always-max budget {p_max}")


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row of a (rows, k) float64 array added left to right from +0.0.

    Raises ValueError if a sum is infinite. An explicit loop over the columns,
    so the sums are those of the oracle's scalar loop bit for bit.
    """
    total = np.zeros(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for column in x.T:
            total += column
    if np.isinf(total).any():
        raise ValueError("sum rate overflows the float range")
    return total


def evaluate_scheme(kind: SchemeKind, state: CpzState, budget: LinkBudget,
                    rate_target: float, k_users: int, m_antennas: int,
                    psi: Sequence[float] | None = None) -> SchemeReport:
    """Evaluate one scheme on a scenario snapshot: the batch kernel on one trial.

    The report carries the scheme's total radiated power, the sum of the
    served users' modeled rates, and the resulting energy efficiency. psi[i]
    is user i's slow-fading factor, None for unit shadowing. All three schemes
    run, so the error raised is the first of theirs (always-max's first).
    """
    positions = state.ue_positions()
    r = np.array([[pos.r for pos in positions]])
    phi = np.array([[pos.phi for pos in positions]])
    fading = None if psi is None else np.array([psi], dtype=float)
    (columns,) = _evaluate_trials([state.grid], budget, rate_target, k_users, m_antennas,
                                  r, phi, fading)
    return columns[SCHEME_ORDER.index(kind)].report(0)


class SchemeColumns(NamedTuple):
    """One scheme's outcomes on a batch of trials, trial t at index t of each array.

    Float64 arrays, int64 n_active_sectors; ee is undefined where sleeping is set.
    """

    scheme: SchemeKind
    total_power: np.ndarray
    sum_rate: np.ndarray
    ee: np.ndarray
    n_active_sectors: np.ndarray
    sleeping: np.ndarray

    def report(self, t: int) -> SchemeReport:
        """Trial t, in Python scalars, as a SchemeReport."""
        return SchemeReport(self.scheme, float(self.total_power[t]), float(self.sum_rate[t]),
                            None if self.sleeping[t] else float(self.ee[t]),
                            int(self.n_active_sectors[t]))


def _link_gains(budget: LinkBudget, cell_radius: float, r: np.ndarray,
                psi: np.ndarray | None) -> np.ndarray:
    """The batch kernel's link stage: faded gains G (r / r0)^-alpha psi, psi None for 1."""
    outside = ~((budget.r0 <= r) & (r <= cell_radius))
    if outside.any():
        raise ValueError(f"user distance {r[outside][0]} m outside "
                         f"[{budget.r0}, {cell_radius}] m")
    # Products round alike in numpy and Python, and sums follow _row_sums' order.
    loss = libm(math.pow, r / budget.r0, -budget.alpha)
    if psi is not None and not ((0 < psi) & (psi < math.inf)).all():
        raise ValueError("shadowing factor must be positive and finite")
    with np.errstate(over="ignore"):
        faded = loss * budget.path_gain_g
        return faded if psi is None else faded * psi


def _rates(budget: LinkBudget, k_users: int, m_antennas: int, faded: np.ndarray,
           power) -> np.ndarray:
    """The batch kernel's rate stage: per_ue_rate of users of faded gains at a power."""
    # The order of operations and the finite check of snr_rho and per_ue_rate.
    with np.errstate(over="ignore", invalid="ignore"):
        sinr = faded * power / k_users / budget.noise_n0 * (m_antennas - k_users)
    if not np.isfinite(sinr).all():
        raise ValueError("sinr must be nonnegative and finite")
    with np.errstate(over="ignore"):
        return budget.bandwidth * libm(math.log2, 1.0 + sinr)


def _ring_powers(size, rings: np.ndarray) -> np.ndarray:
    """The sizing stage: size(a) of each annulus a of 1-d rings, 0.0 for -1; new a ascending."""
    if (top := rings.max(initial=-1)) < len(rings):
        present = np.zeros(top + 2, dtype=bool)
        present[index := rings + 1] = True
        distinct = np.flatnonzero(present) - 1
    else:
        distinct, index = np.unique(rings, return_inverse=True)
        present = np.ones(len(distinct), dtype=bool)
    powers = np.zeros(len(present))
    powers[present] = [size(a) if a >= 0 else 0.0 for a in distinct.tolist()]
    return powers[index]


def _table_plan(size, tops: np.ndarray, ring: np.ndarray) -> tuple[np.ndarray, ...]:
    """cpz's (full, fractions, ring, region count) from a (users, trials) table of top annuli.

    tops[j, t] is the top annulus of row t's j-th occupied sector, ascending (-1: none);
    ring[t, u] is the annulus user u of row t is served out to. A row's total on n sectors
    is full * (fractions / n): full is its largest region power (1.0 with no region), and
    fractions adds a table column over full in sector order, a -1 adding +0.0, which leaves
    the partial sum as it is. Every left-to-right partial sum of n fractions (each <= 1)
    stays <= n, an exact float, so no total rounds above that power, and the scheme
    ordering holds exactly, without tolerances.
    """
    sized = _ring_powers(size, tops.ravel()).reshape(tops.shape)
    full = sized.max(axis=0, initial=0.0)
    full[full == 0.0] = 1.0  # no region
    sized /= full
    return full, _row_sums(sized.T), ring, np.count_nonzero(tops >= 0, axis=0)


def _guard(columns: Sequence[SchemeColumns], powers: np.ndarray, p_max: float) -> None:
    """The budget guard: _check_budget on the first powers[k, t] over p_max, trial-major."""
    over = ~(powers <= p_max)
    if over.any():
        t, k = np.argwhere(over.T)[0]
        _check_budget(columns[k].scheme, powers[k, t].item(), p_max)


def _evaluate_trials(grids: Sequence[PartitionGrid], budget: LinkBudget, rate_target: float,
                     k_users: int, m_antennas: int, r: np.ndarray, phi: np.ndarray,
                     psi: np.ndarray | None = None) -> list[tuple[SchemeColumns, ...]]:
    """Per grid, the columns of all three schemes, in SCHEME_ORDER, on every trial of a batch.

    The grids differ only in n_sectors. r, phi and psi are (trials, users) arrays of user
    distances, angles (normalized as UePosition holds them) and slow-fading factors, psi
    None for unit shadowing. A block of trials runs the link stage once for all grids
    (faded gains, then rates and sums at the edge ring). After the faded gains it puts
    each trial's users in angle order once, in which sectors ascend along a row on every
    grid, and ranks each user's sector among its trial's occupied ones; rates and sums run
    in user order. always_max and zooming power a full-circle region out to the edge and
    to the trial's top annulus on any grid: sized and rated once per block, their arrays
    are shared by all grids' columns but n_active_sectors. Per grid, cpz powers each
    sector out to the sector's top annulus and serves user u out to ring[t, u], planned
    once per distinct partition of a block's users, which sums its fractions in sector
    order once; a grid's total only divides by its count. This is the one model of the
    schemes; trial t of a grid's columns equals, float for float, the reports of the
    tests' scalar oracle (tests/oracle.py) on row t's users on that grid, and
    evaluate_scheme is this function on one trial. The error raised is the one a call per
    grid would raise first; on one grid, errors come block by block and, within a block,
    stage by stage: _link_gains (ValueError for a distance outside [r0, R] or a factor
    that is not positive and finite), _ring_powers and _table_plan (ValueError for a power
    of 0 or inf; a pass over the grids sizes each annulus at most once, and each
    _ring_powers call sizes its new annuli in ascending order), _guard (RuntimeError for a
    total above the budget, the first in trial-major order), _rates and _row_sums at the
    edge ring, then each scheme's _rates, _row_sums and EE (ValueError for an SINR that is
    not finite, a sum rate or an EE that overflows).
    """
    try:
        return _evaluate_grids(grids, budget, rate_target, k_users, m_antennas, r, phi, psi)
    except (ValueError, RuntimeError) as exc:
        error = exc
    # The first grid that fails on its own raises; if none before the last
    # does, the pass's error is the last grid's.
    for grid in grids[:-1]:
        _evaluate_grids([grid], budget, rate_target, k_users, m_antennas, r, phi, psi)
    raise error


def _evaluate_grids(grids: Sequence[PartitionGrid], budget: LinkBudget, rate_target: float,
                    k_users: int, m_antennas: int, r: np.ndarray, phi: np.ndarray,
                    psi: np.ndarray | None) -> list[tuple[SchemeColumns, ...]]:
    """_evaluate_trials in one pass over all grids, raising the first error it meets."""
    grid = grids[0]
    edge = grid.n_annuli - 1
    p_max = required_bs_power(budget.cell_radius_r, rate_target, k_users, m_antennas, budget)

    @functools.cache
    def size(a: int) -> float:
        # P(zoom) of an annulus, sized once a region reaches it: rings inside r0 cannot be.
        return required_bs_power(grid.annulus_outer_radius(a), rate_target, k_users,
                                 m_antennas, budget)

    n, users = r.shape
    # always-max's and zooming's columns, then cpz's of each grid; n_active_sectors
    # holds region counts until a grid's region width is known.
    columns = [SchemeColumns(kind, np.empty(n), np.empty(n), np.full(n, math.nan),
                             np.empty(n, dtype=np.int64), np.empty(n, dtype=bool))
               for kind in SCHEME_ORDER[:2] + SCHEME_ORDER[2:] * len(grids)]
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        rb, phib = r[block], phi[block]
        faded = _link_gains(budget, grid.cell_radius, rb, None if psi is None else psi[block])
        annulus, sector = cell_indices(grid, rb, phib)
        annulus = annulus.astype(np.int64)
        # Plans in column order. A full circle is charged all of P(zoom), so
        # always-max's and zooming's totals are ring powers.
        tops = (np.full(len(rb), edge), annulus.max(axis=1, initial=-1))
        plans = [(_ring_powers(size, top), top[:, None], top >= 0) for top in tops]
        # Users in angle order, sorted once per block: sectors ascend along a row on every
        # grid. flat[t, j] is the flat user-order index of row t's j-th user in that order.
        rows = np.arange(len(rb))[:, None]
        flat = np.argsort(phib, axis=1) + users * rows
        # cpz's plans by partition, keyed by its run starts in angle order: grids that
        # split the users alike share one plan, and a grid's total only divides by its count.
        partitions = {}
        for g, each in enumerate(grids):
            sectors = (sector_indices(each, phib) if g else sector).take(flat)
            first = np.ones(sectors.shape, dtype=bool)
            first[:, 1:] = sectors[:, 1:] != sectors[:, :-1]
            if (key := first.tobytes()) not in partitions:
                # Each user's cell of a (users, trials) table, (rank of its sector among
                # the row's occupied ones, row), back in user order; it gets the top annulus.
                starts = np.cumsum(first).reshape(first.shape)
                cells = np.empty_like(starts)
                cells.reshape(-1)[flat] = (starts - starts[:, :1]) * len(rb) + rows
                table = np.full(users * len(rb), -1)
                np.maximum.at(table, cells.ravel(), annulus.ravel())
                partitions[key] = _table_plan(size, table.reshape(users, len(rb)), table[cells])
            full, fractions, ring, n_regions = partitions[key]
            plans.append((full * (fractions / each.n_sectors), ring, n_regions))
        _guard(columns, np.stack([power for power, _, _ in plans]), p_max)
        edge_rates = _rates(budget, k_users, m_antennas, faded, size(edge))
        edge_sums = _row_sums(edge_rates)
        for cols, (power, ring, n_regions) in zip(columns, plans):
            # A user served out to the edge ring has its edge rate: only the
            # others (inner) are rated again, and the block summed again.
            sum_rate, ring = edge_sums, np.broadcast_to(ring, faded.shape)
            if (inner := ring != edge).any():
                scheme_rates = edge_rates.copy()
                scheme_rates[inner] = _rates(budget, k_users, m_antennas, faded[inner],
                                             _ring_powers(size, ring[inner]))
                sum_rate = _row_sums(scheme_rates)
            sleeping = power == 0
            with np.errstate(over="ignore"):
                ee = np.divide(sum_rate, power, out=cols.ee[block], where=~sleeping)
            for t in np.flatnonzero(ee == math.inf)[:1].tolist():
                energy_efficiency(sum_rate[t].item(), power[t].item())  # raises its message
            cols.total_power[block], cols.sum_rate[block] = power, sum_rate
            cols.n_active_sectors[block], cols.sleeping[block] = n_regions, sleeping
    return [(*(cols._replace(n_active_sectors=each.n_sectors * cols.n_active_sectors)
               for cols in columns[:2]), columns[2 + g]) for g, each in enumerate(grids)]
