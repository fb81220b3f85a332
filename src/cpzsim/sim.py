"""Scenario generation, seeded Monte Carlo comparisons, and parameter sweeps.

A scenario places users in the cell and evaluates the three power-allocation
schemes on them. Trial i places its users from row i of stream
(config.seed, PLACEMENT) and draws their shadowing from row i of stream
(shadowing.seed, SHADOWING); the purpose tags keep the two independent even
though both seeds default to 0, and a trial's draws do not depend on how many
trials run. Results are the same bit for bit on any host with the same libm
(`propagation.libm`): each trial's sums add left to right in a fixed order
(`schemes._row_sums`), and each mean is one `math.fsum` over the trials.
`_evaluate` is the one way into the batch kernel
`schemes._evaluate_trials`, the package's one model of the schemes (the
tests check it against a scalar oracle, tests/oracle.py): it draws the
config's users and shadowing as (trials, users) arrays and evaluates them on
a list of grids.
A distance sweep is run_comparison on one user pinned at each distance; a
sector sweep evaluates one clustered user set on every count's grid at once.
Results are the kernel's per-scheme columns (`schemes.SchemeColumns`, an
array per report field and a `sleeping` mask) keyed by sweep value (None for
a plain comparison): the CSV writer streams them a chunk of trials at a time,
assembled in numpy from Ryu digits (`_float_text`) with repr's bytes, where
consecutive chunks, over any trials, share one text pass of up to _CSV_PASS
floats that formats each of their distinct floats in one call, and
`_aggregate` reduces them to mean power and mean EE per value and scheme,
each shared array set once.
"""

import math
from dataclasses import field, replace
from typing import Iterable, Iterator, Mapping

import numpy as np

from ._record import Record, require_finite
from .partition import MAX_COUNT, TWO_PI, CpzState, PartitionGrid, UePosition
from .propagation import DeterministicUnitShadowing, LinkBudget, ShadowingMode
from .rng import PLACEMENT, uniform_rows
from .schemes import SchemeColumns, SchemeKind, _evaluate_trials

CSV_HEADER = "sweep_var,scheme,trial,total_power_w,sum_rate_bps,ee_bit_per_joule,n_active_sectors"


class UniformDisk(Record):
    """Area-uniform placement over the serviceable ring [r0, R]."""


class ArcCluster(Record):
    """Placement confined to the first `sector_count_occupied` sectors of one annulus."""

    sector_count_occupied: int
    annulus: int


class FixedPlacement(Record):
    """Placement that returns the given positions verbatim on every trial."""

    positions: tuple[UePosition, ...] = ()


Placement = UniformDisk | ArcCluster | FixedPlacement


class ScenarioConfig(Record):
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
        require_finite(self, "rate_target")
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
            _check_fixed_placement(self.placement, self.k_users, self.grid, self.budget)


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


def _check_fixed_placement(placement: FixedPlacement, k_users: int, grid: PartitionGrid,
                           budget: LinkBudget) -> None:
    # Each served user gets a 1/k_users share of the sized power, so more
    # users than k_users would be served beyond the budget.
    if len(placement.positions) > k_users:
        raise ValueError(f"fixed placement lists {len(placement.positions)} positions, "
                         f"more than k_users = {k_users}")
    for i, pos in enumerate(placement.positions):
        if not budget.r0 <= pos.r <= grid.cell_radius:
            raise ValueError(f"fixed position {i} at r={pos.r} m outside "
                             f"[{budget.r0}, {grid.cell_radius}] m")


def _draw_users(config: ScenarioConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(trials, users) radii and angles of trials [start, stop) of a random placement.

    Trial i takes row i of 2k uniforms from stream (config.seed, PLACEMENT):
    the first k give the radii, the last k the angles. Both are computed in
    place, as views of the one uniforms array.
    """
    placement = config.placement
    k = config.k_users
    grid = config.grid
    u = uniform_rows(config.seed, PLACEMENT, start, stop, 2 * k)
    radii, angles = u[:, :k], u[:, k:]
    if isinstance(placement, UniformDisk):
        r_lo, r_hi, arc_end = config.budget.r0, grid.cell_radius, 2.0 * math.pi
    elif isinstance(placement, ArcCluster):
        r_lo = max(placement.annulus * grid.cell_radius / grid.n_annuli, config.budget.r0)
        r_hi = grid.annulus_outer_radius(placement.annulus)
        arc_end = placement.sector_count_occupied * grid.sector_width()
    else:
        raise TypeError(f"unknown placement {placement!r}")
    # Density proportional to r (uniform over the ring area).
    radii *= r_hi * r_hi - r_lo * r_lo
    radii += r_lo * r_lo
    np.sqrt(radii, out=radii)
    angles *= arc_end
    if isinstance(placement, ArcCluster):
        if placement.annulus < grid.n_annuli - 1:
            # Keep rounding from spilling a draw into the next ring.
            np.minimum(radii, math.nextafter(r_hi, 0.0), out=radii)
        np.minimum(angles, math.nextafter(arc_end, 0.0), out=angles)
    return radii, angles


def place_ues(config: ScenarioConfig, trial_index: int) -> list[UePosition]:
    """User positions for one trial, deterministic in (config.seed, trial_index)."""
    if isinstance(config.placement, FixedPlacement):
        return list(config.placement.positions)
    radii, angles = _draw_users(config, trial_index, trial_index + 1)
    return [UePosition(r, phi) for r, phi in zip(radii[0].tolist(), angles[0].tolist())]


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
    radii, angles = _draw_users(config, 0, config.n_trials)
    # Normalized as UePosition does: draws lie below an arc cluster's end, which
    # can round past 2 pi, and x % TWO_PI is x - TWO_PI there, exact (Sterbenz).
    angles[angles >= TWO_PI] -= TWO_PI
    return radii, angles


def _trial_psi(config: ScenarioConfig, n_users: int) -> np.ndarray | None:
    """(trials, users) slow-fading factors, or None under unit shadowing."""
    shadowing = config.shadowing
    if isinstance(shadowing, DeterministicUnitShadowing):
        return None
    return shadowing.psi_rows(n_users, 0, config.n_trials)


def _evaluate(config: ScenarioConfig, grids: list[PartitionGrid]) -> list[tuple[SchemeColumns, ...]]:
    """Per grid, the columns of all three schemes on the config's users and shadowing."""
    radii, angles = _trial_users(config)
    return _evaluate_trials(grids, config.budget, config.rate_target, config.k_users,
                            config.m_antennas, radii, angles, _trial_psi(config, radii.shape[1]))


def run_comparison(config: ScenarioConfig) -> tuple[SchemeColumns, ...]:
    """The columns of all three schemes, in scheme order; trial t is index t of each.

    `columns[k].report(t)` is scheme k's SchemeReport on trial t.
    """
    return _evaluate(config, [config.grid])[0]


# ---------------------------------------------------------------------------
# Sweeps

# The scheme columns by sweep value, None for a plain comparison.
ReportsByValue = Mapping[float | int | None, tuple[SchemeColumns, ...]]


class SweepRow(Record):
    sweep_var: float | int | None
    scheme: SchemeKind
    mean_total_power: float
    mean_ee: float | None
    n_trials_defined: int


class SweepRun(Record):
    """A sweep's aggregated rows and the per-trial results behind them.

    reports maps each sweep value, in sorted order, to its scheme columns,
    the shape run_comparison returns.
    """

    variable: str
    rows: tuple[SweepRow, ...]
    reports: ReportsByValue


def _mean(x: np.ndarray) -> float:
    """math.fsum(x) / len(x), summed at a power-of-two scale where fsum overflows a float."""
    try:
        return math.fsum(memoryview(x)) / len(x)
    except OverflowError:
        scale = len(x).bit_length() + 1
        return math.ldexp(math.fsum(memoryview(np.ldexp(x, -scale))) / len(x), scale)


def _aggregate(reports: ReportsByValue) -> tuple[SweepRow, ...]:
    """Mean power and mean defined EE per sweep value and scheme, in scheme order."""
    rows, means = [], {}
    for value, columns in reports.items():
        for column in columns:
            # Sweep values share always-max's and zooming's arrays: reduced once.
            key = (id(column.total_power), id(column.ee), id(column.sleeping))
            if key not in means:
                defined = column.ee[~column.sleeping]
                means[key] = (_mean(column.total_power),
                              _mean(defined) if len(defined) else None, len(defined))
            rows.append(SweepRow(value, column.scheme, *means[key]))
    return tuple(rows)


def _check_distinct(variable: str, values: list) -> None:
    if len(set(values)) < len(values):
        raise ValueError(f"{variable} sweep values must be distinct, got {values}")


def _sweep(variable: str, values: list, columns: list[tuple[SchemeColumns, ...]]) -> SweepRun:
    reports = dict(zip(values, columns))
    return SweepRun(variable, _aggregate(reports), reports)


def sweep_distance(config: ScenarioConfig, d_values: Iterable[float]) -> SweepRun:
    """run_comparison with a single user pinned at each distance in turn."""
    values = sorted(float(d) for d in d_values)
    if not values:
        raise ValueError("d_values must not be empty")
    r0, radius = config.budget.r0, config.grid.cell_radius
    for d in values:
        if not r0 <= d <= radius:
            raise ValueError(f"sweep distance {d} m outside [{r0}, {radius}] m")
    _check_distinct("distance", values)
    return _sweep("distance", values, [
        run_comparison(replace(config, placement=FixedPlacement((UePosition(d, 0.0),))))
        for d in values])


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
    _check_distinct("sectors", counts)
    placement = config.placement
    if isinstance(placement, UniformDisk):
        placement = ArcCluster(sector_count_occupied=1, annulus=config.grid.n_annuli - 1)
    cluster = replace(config, grid=replace(config.grid, n_sectors=counts[-1]), placement=placement)
    # One kernel call for all counts: they share each trial's link stage.
    return _sweep("sectors", counts, _evaluate(
        cluster, [replace(config.grid, n_sectors=count) for count in counts]))


# ---------------------------------------------------------------------------
# Emission


# Trials per CSV chunk; bounds the texts held at once.
_CSV_CHUNK = 1024
# Floats per text pass, at most, whatever the number of chunks or sweep values:
# three comparison chunks, or seven counts over 1000 trials, are 27 pieces, one pass.
_CSV_PASS = 32 * 1024
_COMMA, _NEWLINE = np.frombuffer(b",", np.uint8), np.frombuffer(b"\n", np.uint8)


def _text_passes(reports: ReportsByValue) -> Iterator[tuple[list, dict]]:
    """The (value, columns, trials) chunks of each text pass and its float pieces.

    A piece is one float array over one chunk's trials, keyed by (array id,
    first trial); a pass is consecutive chunks, over any trials, whose distinct
    pieces hold at most _CSV_PASS floats, so a sector sweep's counts read
    always-max's and zooming's arrays once.
    """
    chunks, pieces = [], {}
    for value, columns in reports.items():
        n_trials = len(columns[0].total_power)
        for start in range(0, n_trials, _CSV_CHUNK):
            chunk = slice(start, min(start + _CSV_CHUNK, n_trials))
            own = {(id(field), start): field[chunk] for col in columns
                   for field in (col.total_power, col.sum_rate, col.ee)}
            if chunks and sum(map(len, (pieces | own).values())) > _CSV_PASS:
                yield chunks, pieces
                chunks, pieces = [], {}
            chunks.append((value, columns, chunk))
            pieces |= own
    if chunks:
        yield chunks, pieces


def _distinct(floats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of floats, sorted, and each float's place
    among them counted from 1, in int32: np.unique holds about twice the memory."""
    order = np.argsort(floats.view(np.int64))
    floats = floats.view(np.int64)[order]
    first = np.concatenate(([True], floats[1:] != floats[:-1]))
    patterns, index = floats[first], np.empty(len(order), np.int32)
    index[order] = np.cumsum(first, out=floats)
    return patterns, index


def _csv_chunks(reports: ReportsByValue) -> Iterator[bytes]:
    """The CSV bytes in pieces: the header line, then whole rows of up to _CSV_CHUNK trials."""
    # Imported here: run without cached bytecode, a top-level import would add
    # this module's compile to the start-up of every command, verify's too.
    from ._float_text import _float_texts, _int_texts

    yield (CSV_HEADER + "\n").encode("ascii")
    for chunks, pieces in _text_passes(reports):
        # One text per distinct bit pattern, so -0.0 keeps its sign, each
        # after its comma; row 0, a comma alone, is a sleeping trial's EE. A
        # pass is one _float_texts call: a comparison's three chunks are 27 648 floats.
        patterns, index = _distinct(np.concatenate(list(pieces.values())))
        texts = _float_texts(patterns.view(np.float64))
        cells = np.zeros((len(texts) + 1, 1 + texts.shape[1]), np.uint8)
        cells[:, 0], cells[1:, 1:] = ord(","), texts
        del patterns, texts
        starts, span = dict(zip(pieces, np.cumsum([0, *map(len, pieces.values())]).tolist())), None
        for value, columns, chunk in chunks:
            if chunk != span:  # each value of a one-chunk sweep reuses its trials' texts
                span, trials = chunk, _int_texts(np.arange(chunk.start, chunk.stop))[:, None]
            label = b"" if value is None else repr(value).encode("ascii")
            prefix = np.array([b"%s,%s," % (label, col.scheme.value.encode("ascii"))
                               for col in columns])[:, None].view(np.uint8)
            shape = (chunk.stop - chunk.start, len(columns))
            at = np.stack([index[starts[id(field), chunk.start]:][:shape[0]] for col in columns
                           for field in (col.total_power, col.sum_rate, col.ee)], axis=1)
            at[:, 2::3][np.stack([col.sleeping[chunk] for col in columns], axis=1)] = 0
            counts = np.stack([col.n_active_sectors[chunk] for col in columns], axis=1)
            # Fixed-width blocks side by side; the row bytes are the non-NUL ones.
            rows = np.concatenate([np.broadcast_to(block, shape + block.shape[-1:]) for block in (
                prefix, trials, cells[at].reshape(shape + (-1,)), _COMMA,
                _int_texts(counts.ravel()).reshape(shape + (-1,)), _NEWLINE)], axis=2)
            rows = rows[rows != 0].tobytes()  # frees the blocks before the yield
            yield rows
            del rows  # before the next chunk's blocks
        del index, cells  # before the next pass's _distinct


def format_records_csv(reports: ReportsByValue) -> str:
    """Locale-independent CSV of the reports, rows in value, trial, scheme order."""
    return b"".join(_csv_chunks(reports)).decode("ascii")


def write_records_csv(path, reports: ReportsByValue) -> None:
    """Write format_records_csv(reports) to path, a chunk at a time."""
    with open(path, "wb") as fh:
        fh.writelines(_csv_chunks(reports))


def write_sweep_json(path, run: SweepRun) -> None:
    doc = {
        "variable": run.variable,
        "rows": [
            {
                "sweep_var": row.sweep_var,
                "scheme": row.scheme.value,
                "mean_total_power_w": row.mean_total_power,
                "mean_ee_bit_per_joule": row.mean_ee,
                "n_trials_defined": row.n_trials_defined,
            }
            for row in run.rows
        ],
    }
    import json  # here, not at the top: verify, which writes no sidecar, need not load it

    # One write of bytes: json.dump makes many small writes, and a text stream
    # would load the ascii codec. json.dumps escapes every non-ASCII character.
    with open(path, "wb") as fh:
        fh.write((json.dumps(doc, indent=2) + "\n").encode("ascii"))
