"""Single-cell massive-MIMO energy-efficiency simulator.

Compares three downlink power-allocation schemes, always-max, coverage
zooming, and cellular partition zooming (sector-wise zooming on a polar
grid), under a zero-forcing rate model and a path-loss link budget.
"""

from .mimo import (
    BeamformingMatrix,
    ChannelMatrix,
    monte_carlo_trace,
    per_ue_rate,
    sample_channel,
    sinr_per_ue,
    sinr_zf,
    sum_rate_closed_form,
    wishart_trace_expectation,
    zf_beamformer,
)
from .partition import CellIndex, CpzState, PartitionGrid, SectorCoverage, UePosition, locate
from .propagation import (
    DeterministicUnitShadowing,
    LinkBudget,
    LognormalShadowing,
    ShadowingMode,
    required_bs_power,
    required_snr,
    snr_rho,
)
from .schemes import SchemeColumns, SchemeKind, SchemeReport, energy_efficiency, evaluate_scheme
from .sim import (
    ArcCluster,
    FixedPlacement,
    ScenarioConfig,
    SweepRow,
    SweepRun,
    UniformDisk,
    place_ues,
    run_comparison,
    sweep_distance,
    sweep_sectors,
)

__version__ = "0.1.0"
