"""swarmsync: synchronization of unit-speed planar agents coupled through
heterogeneous controller gains.

Simulation, closed-form direction prediction, reachability and gain
synthesis, perturbation bounds, and bounded-control schemes, with a
scenario-driven CLI.
"""

from .analysis import (
    CriticalKind,
    CriticalPointConfig,
    NonAcuteConeError,
    PerturbationBounds,
    ReachabilityReport,
    RotatedFrame,
    classify_critical_point,
    conic_hull_contains,
    convex_weights,
    critical_point_hessian,
    is_reachable,
    perturbation_bounds,
    predict_direction,
    rotated_frame,
    synthesize_gains,
    two_agent_direction,
    two_agent_gains,
)
from .angles import heading_spread, wrap_angle
from .config import ConfigError, dump_config, load_config, parse_config
from .control import (
    GainClass,
    GainVector,
    control_all_to_all,
    control_limited,
    gain_cap,
    named_gain_set,
)
from .dynamics import (
    ConvergenceReport,
    DivergenceError,
    SimulationConfig,
    SwarmState,
    TrajectoryRecord,
    rotating_frame,
    simulate,
    step,
)
from .phase import (
    OrderParameter,
    alignment_potential,
    alignment_potential_grad,
    laplacian_potential,
    laplacian_potential_grad,
    lyapunov_rate,
    order_parameter,
)
from .scenarios import SCENARIOS, run_scenario
from .topology import (
    InteractionGraph,
    complete_graph,
    is_connected,
    laplacian,
    laplacian_spectrum,
    ring_graph,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalKind",
    "CriticalPointConfig",
    "NonAcuteConeError",
    "PerturbationBounds",
    "ReachabilityReport",
    "RotatedFrame",
    "classify_critical_point",
    "conic_hull_contains",
    "convex_weights",
    "critical_point_hessian",
    "is_reachable",
    "perturbation_bounds",
    "predict_direction",
    "rotated_frame",
    "synthesize_gains",
    "two_agent_direction",
    "two_agent_gains",
    "heading_spread",
    "wrap_angle",
    "ConfigError",
    "dump_config",
    "load_config",
    "parse_config",
    "GainClass",
    "GainVector",
    "control_all_to_all",
    "control_limited",
    "gain_cap",
    "named_gain_set",
    "ConvergenceReport",
    "DivergenceError",
    "SimulationConfig",
    "SwarmState",
    "TrajectoryRecord",
    "rotating_frame",
    "simulate",
    "step",
    "OrderParameter",
    "alignment_potential",
    "alignment_potential_grad",
    "laplacian_potential",
    "laplacian_potential_grad",
    "lyapunov_rate",
    "order_parameter",
    "SCENARIOS",
    "run_scenario",
    "InteractionGraph",
    "complete_graph",
    "is_connected",
    "laplacian",
    "laplacian_spectrum",
    "ring_graph",
]
