"""Polar partition of the cell disk and the occupancy state behind partition zooming.

The disk is cut into n_annuli equal-width rings and n_sectors equal wedges.
CpzState holds each user's position and cell; how far coverage must reach
in a sector, the outer radius of the highest occupied ring there, is read
off those cells. Sectors with no users need no power at all.
"""

import math
from typing import NamedTuple

import numpy as np

from ._record import Record, require_finite

TWO_PI = 2.0 * math.pi

# Largest integer a float holds exactly; grid and scenario counts stay at or below it.
MAX_COUNT = 2**53


class PartitionGrid(Record):
    """Annulus-by-sector decomposition of a disk of radius cell_radius."""

    n_annuli: int = 3
    n_sectors: int = 18
    cell_radius: float = 1000.0

    def __post_init__(self):
        if not 1 <= self.n_annuli <= MAX_COUNT:
            raise ValueError("n_annuli must be in [1, 2**53]")
        if not 1 <= self.n_sectors <= MAX_COUNT:
            raise ValueError("n_sectors must be in [1, 2**53]")
        require_finite(self, "cell_radius")
        if self.cell_radius <= 0:
            raise ValueError("cell_radius must be positive")

    def annulus_outer_radius(self, annulus: int) -> float:
        """Outer boundary of ring `annulus`; the last ring ends exactly at the cell edge."""
        if not 0 <= annulus < self.n_annuli:
            raise ValueError(f"annulus {annulus} outside [0, {self.n_annuli})")
        if annulus == self.n_annuli - 1:
            return self.cell_radius
        return (annulus + 1) * self.cell_radius / self.n_annuli

    def sector_width(self) -> float:
        return TWO_PI / self.n_sectors


class UePosition(Record):
    """Polar position of one user; the angle is normalized into [0, 2*pi].

    2*pi itself comes only from rounding a tiny negative angle, and lies in the
    last sector.
    """

    r: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.phi)):
            raise ValueError("position coordinates must be finite")
        if self.r < 0:
            raise ValueError("distance r must be nonnegative")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "r", float(self.r))


class CellIndex(NamedTuple):
    annulus: int
    sector: int


class SectorCoverage(NamedTuple):
    sector: int
    theta: float
    zoom_distance: float


def locate(pos: UePosition, grid: PartitionGrid) -> CellIndex:
    """Map a position to its partition cell.

    Intervals are half-open toward larger indices, with the outermost ring
    and last wedge closed, so every in-cell position has exactly one index.
    """
    if pos.r > grid.cell_radius:
        raise ValueError(f"position at r={pos.r} m lies outside the cell radius {grid.cell_radius} m")
    annulus, sector = cell_indices(grid, pos.r, pos.phi)
    return CellIndex(int(annulus), int(sector))


def sector_indices(grid: PartitionGrid, phi):
    """Sector indices, as floats, of normalized angles, scalars or arrays alike."""
    return np.minimum(np.floor(phi * grid.n_sectors / TWO_PI), grid.n_sectors - 1)


def cell_indices(grid: PartitionGrid, r, phi):
    """Annulus and sector indices, as floats, of in-cell radii and normalized angles.

    Takes scalars or arrays alike; `locate` is the checked single-position form.
    """
    annulus = np.minimum(np.floor(r * grid.n_annuli / grid.cell_radius), grid.n_annuli - 1)
    return annulus, sector_indices(grid, phi)


class CpzState:
    """Occupancy bookkeeping for partition zooming.

    Holds each user's position and partition cell in join order; a user is
    its index in that order. A sector's zoom distance, the outer radius of
    its highest occupied annulus, is derived from those cells on every read.
    """

    def __init__(self, grid: PartitionGrid):
        self.grid = grid
        self._ues: list[tuple[UePosition, CellIndex]] = []

    def join(self, pos: UePosition) -> None:
        """Append a user; rejects a position outside the cell."""
        self._ues.append((pos, locate(pos, self.grid)))

    @property
    def per_sector_zoom(self) -> dict[int, float]:
        """Zoom distance of each occupied sector, in sector order."""
        top: dict[int, int] = {}
        for _, (annulus, sector) in self._ues:
            if annulus >= top.get(sector, 0):
                top[sector] = annulus
        outer = self.grid.annulus_outer_radius
        return {sector: outer(top[sector]) for sector in sorted(top)}

    def coverage_requirements(self) -> list[SectorCoverage]:
        """Per active sector: its index, angular width, and zoom distance.

        Empty when the cell holds no users, which is the base station's cue
        to sleep.
        """
        theta = self.grid.sector_width()
        return [SectorCoverage(sector, theta, zoom)
                for sector, zoom in self.per_sector_zoom.items()]

    def ue_positions(self) -> list[UePosition]:
        """The users' positions in join order."""
        return [pos for pos, _ in self._ues]
