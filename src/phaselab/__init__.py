"""phaselab: a desk-scale traffic-signal-control laboratory.

Single intersections and small grids run on a deterministic point-queue
simulator; the phase-competition Q-network, a flat DQN baseline, and classical
controllers (fixed-time, Webster, SOTL) compete on identical vehicle flows.
"""

from .classical import FixedPlan, FixedTimeController, SOTLController, webster_plan
from .flows import (
    FlowSchedule,
    FlowSynthesisSpec,
    benchmark_flow_spec,
    mirror_flow,
    parse_flow_csv,
    synthesize_flow,
    write_flow_csv,
)
from .networks import FrapConfig, FrapNetwork, VanillaConfig, VanillaNetwork
from .simulator import (
    EpisodeMetrics,
    GridSim,
    IntersectionSim,
    SimConfig,
    run_controller,
    run_grid_controller,
)
from .state import CLEARANCE_PHASE, TrafficState
from .topology import (
    PhaseTable,
    Relation,
    SymmetryOp,
    Turn,
    apply_symmetry,
    build_phase_table,
    symmetry_group,
)
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "CLEARANCE_PHASE",
    "EpisodeMetrics",
    "FixedPlan",
    "FixedTimeController",
    "FlowSchedule",
    "FlowSynthesisSpec",
    "FrapConfig",
    "FrapNetwork",
    "GridSim",
    "IntersectionSim",
    "PhaseTable",
    "Relation",
    "SOTLController",
    "SimConfig",
    "SymmetryOp",
    "TrafficState",
    "TrainConfig",
    "Turn",
    "VanillaConfig",
    "VanillaNetwork",
    "apply_symmetry",
    "benchmark_flow_spec",
    "build_phase_table",
    "mirror_flow",
    "parse_flow_csv",
    "run_controller",
    "run_grid_controller",
    "symmetry_group",
    "synthesize_flow",
    "train",
    "webster_plan",
    "write_flow_csv",
]
