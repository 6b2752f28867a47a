"""Built-in demonstration scenarios.

A scenario is a table of config documents, plain dicts in the config schema
that parse_config reads as it reads a user's --config file, plus the checks
its outcome is expected to satisfy (_scenario_checks); output.write_scenario
writes its per-run trajectory/convergence files and its summary. A scenario's
runs go through one simulate_batch call, so runs that share n, dt, t_max,
stride and clip limit are integrated together whatever their law, each equal
to its own simulate() bit for bit: sim1 and sim1-omega are one batch of four
mean-field and ring runs each, and sim2, sim3-caps and sim3-sat one batch of two.

    sim1        six agents, heterogeneous negative gain sets, straight-line
                motion, mean-field vs ring coupling
    sim1-omega  same with a common orbital turn rate omega0 = 0.5 rad/s
    sim2        two agents steered outside their initial arc with mixed-sign
                gains (targets +-120 deg)
    sim3-caps   bounded actuation via capped gains (u_max = 0.1)
    sim3-sat    bounded actuation via command saturation (u_max = 0.1)
    fig6        six agents, one positive gain; sync lands outside the
                initial (-60, 60) deg arc
"""

from __future__ import annotations

import numpy as np

from .analysis import predict_direction
from .angles import wrap_angle
from .config import parse_config, with_overrides
from .dynamics import SimulationConfig, simulate_batch
from .output import write_scenario
# Not called here: the benchmark's trace table (perfbench/measure.py) resolves
# scenarios.simulate by name.
from .dynamics import simulate  # noqa: F401

# the fields every six-agent run shares, and every two-agent run
_SIM1 = {"n": 6, "theta0_deg": [-60.0, -45.0, -30.0, 30.0, 45.0, 60.0], "t_max": 100.0,
         "record_stride": 5, "positions0": [[-1.0, -2.0], [4.0, -2.0], [-1.0, 1.0],
                                            [2.0, 3.0], [0.0, 1.0], [2.0, -6.0]]}
_SIM2 = {"n": 2, "theta0_deg": [-60.0, 60.0], "t_max": 60.0, "record_stride": 5}


def _sim1(gain_sets: tuple[str, ...], topologies=("complete", "ring"), **fields) -> dict:
    """Six-agent documents per gain set and topology, named by topology alone for one gain set."""
    return {f"{g}-{topo}" if len(gain_sets) > 1 else topo:
            {**_SIM1, "gains": g, "topology": topo, **fields}
            for g in gain_sets for topo in topologies}


# name: {run name: config document}, the runs in the order they are written
_RUNS = {
    "sim1": _sim1(("set1", "set2")),
    "sim1-omega": _sim1(("set1", "set2"), omega0=0.5),
    # the positions are the first eight values numpy's default_rng(2) draws
    # from uniform(-5, 5), two positions a run in run order
    "sim2": {
        "a": {**_SIM2, "gains": [-3.0, 1.0], "positions0": [
            [-2.383878657506836, -2.015088565858767], [3.1422574059428037, -4.080840578649031]]},
        "b": {**_SIM2, "gains": [1.0, -3.0], "positions0": [
            [1.00100525965654, 2.285605268117946], [-3.1209892663339653, -4.448533726669318]]},
    },
    "sim3-caps": _sim1(("set4",), t_max=800.0, u_max=0.1, record_stride=20),
    "sim3-sat": _sim1(("set2",), t_max=300.0, u_max=0.1, saturate=True, record_stride=20),
    "fig6": _sim1(("set3",), ("complete",), t_max=200.0),
}


# name: () -> [(run name, config), ...], the runs in the order they are written
SCENARIOS = {name: lambda runs=runs: [(run, parse_config(doc)) for run, doc in runs.items()]
             for name, runs in _RUNS.items()}

_PREDICTION_TOL = 1e-3  # rad, simulated vs closed-form final direction


def _run_summary(cfg: SimulationConfig, traj, report) -> dict:
    out = report.to_dict()
    out["max_abs_u"] = float(np.max(np.abs(traj.controls)))
    out["u_max"] = cfg.u_max
    # clipping breaks the conserved sum behind the closed form, so saturated
    # runs carry no direction prediction
    if cfg.gains.all_negative and not cfg.saturate:
        predicted = predict_direction(cfg.theta0, cfg.gains)
        out["predicted_direction"] = predicted
        out["predicted_direction_deg"] = float(np.degrees(predicted))
        if report.synchronized:
            out["prediction_error"] = float(
                abs(wrap_angle(report.final_heading_common - predicted))
            )
    return out


def _scenario_checks(name: str, configs: dict, runs: dict) -> tuple[dict, dict]:
    """Gating checks plus non-gating observations, read from each run's config
    and its _run_summary.

    The |u| <= u_max gate applies only where it is guaranteed: saturated runs
    (exact by clipping) and mean-field runs with capped gains. The gain cap
    bounds the 1/N-normalized law only; a neighbor-law run can exceed u_max
    with capped gains, so there it is reported as an observation.
    """
    checks: dict[str, bool] = {}
    observations: dict = {}
    for run_name, run in runs.items():
        cfg = configs[run_name]
        checks[f"{run_name}:synchronized"] = run["synchronized"]
        if cfg.u_max is not None:
            within = run["max_abs_u"] <= cfg.u_max
            if cfg.saturate or cfg.topology is None:
                checks[f"{run_name}:control_within_u_max"] = within
            else:
                observations[f"{run_name}:control_within_u_max"] = within
        if "prediction_error" in run:
            checks[f"{run_name}:matches_prediction"] = run["prediction_error"] < _PREDICTION_TOL
    if name in ("sim1", "sim1-omega"):
        # under the unnormalized neighbor law the ring couples more strongly
        # than the 1/N-normalized mean-field law, so it synchronizes first
        for gain_set in ("set1", "set2"):
            t_complete = runs[f"{gain_set}-complete"]["t_sync"]
            t_ring = runs[f"{gain_set}-ring"]["t_sync"]
            observations[f"{gain_set}:t_sync_complete"] = t_complete
            observations[f"{gain_set}:t_sync_ring"] = t_ring
            observations[f"{gain_set}:ring_slower_than_complete"] = bool(
                t_complete is not None and t_ring is not None and t_ring > t_complete
            )
    if name == "sim2":
        for run_name, label, target in (("a", "+120", 2 * np.pi / 3),
                                        ("b", "-120", -2 * np.pi / 3)):
            run = runs[run_name]
            ok = run["synchronized"] and abs(
                wrap_angle(run["final_heading_common"] - target)
            ) < _PREDICTION_TOL
            checks[f"{run_name}:final_heading_{label}deg"] = bool(ok)
    if name == "fig6":
        run = runs["complete"]
        outside = bool(
            run["synchronized"]
            and not (-np.pi / 3 < run["final_heading_common"] < np.pi / 3)
        )
        checks["final_heading_outside_initial_arc"] = outside
    return checks, observations


def run_scenario(name: str, out_dir, dt: float | None = None,
                 t_max: float | None = None) -> tuple[int, dict]:
    """Execute a built-in scenario, its runs with the dt/t_max overrides that
    are set (no bundled run draws, so no seed); returns (exit_code, summary).

    Exit code 0 when every run synchronized and every check passed, 2
    otherwise. Unknown names raise ValueError. Every run is integrated
    before any file is written: a run that breaks a budget (ValueError) or
    diverges (DivergenceError) raises with nothing written.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    configs = {run_name: with_overrides(cfg, dt, t_max, None)
               for run_name, cfg in SCENARIOS[name]()}
    records = dict(zip(configs, simulate_batch(configs.values())))
    summary_runs = {run_name: _run_summary(configs[run_name], *record)
                    for run_name, record in records.items()}
    checks, observations = _scenario_checks(name, configs, summary_runs)
    summary = {
        "scenario": name,
        "runs": summary_runs,
        "checks": checks,
        "observations": observations,
    }
    write_scenario(out_dir, name, records, summary)
    code = 0 if all(checks.values()) else 2
    return code, summary
