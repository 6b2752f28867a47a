"""The package's exported names: a change to the public surface shows up here."""

import swarmsync

PUBLIC_NAMES = {
    # analysis
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
    # angles
    "heading_spread",
    "wrap_angle",
    # config
    "ConfigError",
    "dump_config",
    "load_config",
    "parse_config",
    # control
    "GainClass",
    "GainVector",
    "control_all_to_all",
    "control_limited",
    "gain_cap",
    "named_gain_set",
    # dynamics
    "ConvergenceReport",
    "DivergenceError",
    "SimulationConfig",
    "SwarmState",
    "TrajectoryRecord",
    "rotating_frame",
    "simulate",
    "simulate_batch",
    "step",
    # phase
    "OrderParameter",
    "alignment_potential",
    "alignment_potential_grad",
    "laplacian_potential",
    "laplacian_potential_grad",
    "lyapunov_rate",
    "order_parameter",
    # scenarios
    "SCENARIOS",
    "run_scenario",
    # topology
    "InteractionGraph",
    "complete_graph",
    "is_connected",
    "laplacian",
    "laplacian_spectrum",
    "ring_graph",
}


def test_exported_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 53
    assert len(swarmsync.__all__) == len(set(swarmsync.__all__))
    assert set(swarmsync.__all__) == PUBLIC_NAMES
    for name in swarmsync.__all__:
        assert getattr(swarmsync, name) is not None, name
