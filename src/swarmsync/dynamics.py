"""Closed-loop integration of the unit-speed planar swarm.

Each agent moves at unit speed, position derivative e^{i*theta_k}, and is
steered only through its turn rate theta_dot_k = u_k. The closed loop is
integrated with a classical fixed-step 4th-order Runge-Kutta scheme on the
joint (theta, x, y) state. Saturation, when enabled, is applied inside every
derivative evaluation so the integrated vector field is exactly the clipped
closed loop.

Headings are integrated unwrapped, which keeps the linear conserved quantity
sum_k theta_k / K_k exact (Runge-Kutta schemes preserve linear invariants up
to roundoff); wrapping happens only at reporting boundaries.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .angles import heading_spread, wrap_angle
from .control import GainClass, GainVector
from .phase import _grad, _potential, as_heading_vector
from .topology import InteractionGraph, edge_arrays, is_connected
# Not called here: the benchmark's trace table (perfbench/measure.py) resolves
# dynamics.laplacian, dynamics.is_connected and dynamics.heading_spread by name.
from .topology import laplacian  # noqa: F401

SYNC_TOL = 1e-4  # rad; largest pairwise wrapped spread counting as synchronized
SYNC_HOLD = 1.0  # s; spread must stay below SYNC_TOL this long

CSV_FLOAT_FMT = "%.17g"

# Largest n * (number of recorded samples) simulate() may record. The record
# arrays (state, control, saturation flag) take 33 bytes a value, 1.1 GB at
# the budget; with the complex temporaries and the CSV table, the peak RSS of
# `swarmsync simulate` grew by about 72 bytes a value (measured from 4.2M to
# 8.4M values at n=2048), so a run at the budget peaks near 2.4 GB.
RECORD_BUDGET = 2**25
# Largest number of RK4 steps simulate() may take: about 14 minutes at the
# 50 us a step of an n=6 run, far above every bundled scenario (80,000 steps).
STEP_BUDGET = 2**24


class DivergenceError(RuntimeError):
    """Raised when the integrated state stops being finite."""


@dataclass(frozen=True)
class SwarmState:
    """Positions (n, 2) and unwrapped headings of n agents at time t."""

    t: float
    positions: np.ndarray
    theta: np.ndarray


@dataclass(eq=False)
class SimulationConfig:
    """Everything one closed-loop run needs.

    ``topology`` None selects the mean-field all-to-all law (with its 1/N
    factor); an InteractionGraph selects the neighbor law. ``u_max`` is the
    actuation limit; it only clips commands when ``saturate`` is True, but may
    be set alone to document the cap the gains were chosen for. ``jitter``
    adds uniform noise of +-1e-6 rad to the initial headings (seeded
    by ``seed``) to break exact critical-point ties.
    """

    n: int
    theta0: np.ndarray
    gains: GainVector
    positions0: np.ndarray | None = None
    omega0: float = 0.0
    topology: InteractionGraph | None = None
    dt: float = 0.01
    t_max: float = 100.0
    u_max: float | None = None
    saturate: bool = False
    record_stride: int = 1
    seed: int | None = None
    jitter: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 agents")
        th = as_heading_vector(self.theta0)
        if th.size != self.n:
            raise ValueError(f"theta0 has {th.size} entries, expected n={self.n}")
        self.theta0 = th
        if not isinstance(self.gains, GainVector):
            self.gains = GainVector(np.asarray(self.gains, dtype=float))
        if len(self.gains) != self.n:
            raise ValueError(f"gains has {len(self.gains)} entries, expected n={self.n}")
        if self.positions0 is None:
            self.positions0 = np.zeros((self.n, 2))
        else:
            pos = np.asarray(self.positions0, dtype=float)
            if pos.shape != (self.n, 2):
                raise ValueError(f"positions0 shape {pos.shape}, expected ({self.n}, 2)")
            if not np.all(np.isfinite(pos)):
                raise ValueError("positions0 contains non-finite entries")
            self.positions0 = pos
        for name in ("omega0", "dt", "t_max", "u_max"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.t_max > self.dt:
            raise ValueError("t_max must exceed dt")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.topology is not None and self.topology.n != self.n:
            raise ValueError("topology node count does not match n")
        if self.saturate and self.u_max is None:
            raise ValueError("saturate=True requires u_max")
        if self.u_max is not None and not self.u_max > 0.0:
            raise ValueError("u_max must be positive")


def _step_counts(cfg: SimulationConfig) -> tuple[int, int]:
    """Integration steps to t_max and the samples recorded along them; raises
    ValueError when the steps exceed STEP_BUDGET or n * samples exceeds
    RECORD_BUDGET."""
    steps = cfg.t_max / cfg.dt + 1e-9
    if not np.isfinite(steps):  # a subnormal dt
        raise ValueError(f"t_max/dt = {cfg.t_max!r}/{cfg.dt!r} is not a finite step count")
    n_steps = int(steps)
    n_samples = n_steps // cfg.record_stride + 1
    if n_samples * cfg.n > RECORD_BUDGET:
        raise ValueError(f"t_max/record_stride give {n_samples} samples x {cfg.n} "
                         f"agents, above the record budget of {RECORD_BUDGET} values")
    if n_steps > STEP_BUDGET:
        raise ValueError(f"t_max/dt give {n_steps} integration steps, above the "
                         f"step budget of {STEP_BUDGET}")
    return n_steps, n_samples


@dataclass(eq=False)
class TrajectoryRecord:
    """Sampled time series of one run (sample s, agent k indexing). The order
    parameter, potentials and conserved sum are derived from theta on
    construction; mean-field runs (edges None) report N*U as graph_potential.
    ``edges`` are the graph's directed edge arrays from topology.edge_arrays."""

    times: np.ndarray
    theta: np.ndarray
    positions: np.ndarray
    controls: np.ndarray
    saturated: np.ndarray
    gains: np.ndarray
    omega0: float
    edges: tuple[np.ndarray, np.ndarray] | None = field(repr=False, default=None)
    p_mag: np.ndarray = field(init=False)
    p_psi: np.ndarray = field(init=False)
    potential: np.ndarray = field(init=False)
    graph_potential: np.ndarray = field(init=False)
    conserved: np.ndarray = field(init=False)

    def __post_init__(self):
        z = np.exp(1j * self.theta)
        p = z.mean(axis=1)
        self.p_mag = np.abs(p)
        self.p_psi = np.where(self.p_mag > 1e-12, np.angle(p), np.nan)
        self.potential = _potential(z, None)
        self.graph_potential = (
            self.n * self.potential if self.edges is None else _potential(z, self.edges)
        )
        self.conserved = self.theta @ (1.0 / self.gains)

    @property
    def sample_count(self) -> int:
        return self.times.size

    @property
    def n(self) -> int:
        return self.theta.shape[1]

    def to_csv(self, path) -> None:
        """Write the record as CSV with one CRLF-terminated row per sample.

        Columns: t, theta_1..N (unwrapped rad), x_1..N, y_1..N, u_1..N,
        p_mag, p_psi, U, WL, conserved, each value as %.17g. p_psi is nan
        where undefined.
        """
        agents = range(1, self.n + 1)
        header = (
            ["t"]
            + [f"{col}_{k}" for col in ("theta", "x", "y", "u") for k in agents]
            + ["p_mag", "p_psi", "U", "WL", "conserved"]
        )
        table = np.column_stack((
            self.times, self.theta, self.positions[:, :, 0], self.positions[:, :, 1],
            self.controls, self.p_mag, self.p_psi, self.potential,
            self.graph_potential, self.conserved,
        ))
        row = ",".join([CSV_FLOAT_FMT] * len(header)) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(row % tuple(values.tolist()) for values in table)


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of sync detection for one run.

    ``final_heading_common`` is the common direction wrapped to (-pi, pi];
    for omega0 != 0 it is the common phase in the frame rotating at omega0.
    None when the run did not synchronize.
    """

    synchronized: bool
    t_sync: float | None
    final_heading_common: float | None
    max_heading_spread_final: float

    def to_dict(self) -> dict:
        return {
            "synchronized": self.synchronized,
            "t_sync": self.t_sync,
            "final_heading_common": self.final_heading_common,
            "final_heading_common_deg": (
                None
                if self.final_heading_common is None
                else float(np.degrees(self.final_heading_common))
            ),
            "max_heading_spread_final": self.max_heading_spread_final,
        }


def _make_rhs(kvec: np.ndarray, omega0: float,
              edges: tuple[np.ndarray, np.ndarray] | None, u_max: float | None):
    """Derivative of the joint state y = [theta; x; y], shape (3, n)."""

    def rhs(y: np.ndarray) -> np.ndarray:
        z = np.exp(1j * y[0])
        u = omega0 + kvec * _grad(z, edges)
        if u_max is not None:
            np.clip(u, -u_max, u_max, out=u)
        out = np.empty_like(y)
        out[0] = u
        out[1] = z.real
        out[2] = z.imag
        return out

    return rhs


def _rk4_step(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(state: SwarmState, cfg: SimulationConfig) -> SwarmState:
    """Advance one dt with the classical 4th-order scheme."""
    kvec = cfg.gains.gains
    edges = None if cfg.topology is None else edge_arrays(cfg.topology)
    rhs = _make_rhs(kvec, cfg.omega0, edges, cfg.u_max if cfg.saturate else None)
    y = np.empty((3, cfg.n))
    y[0] = state.theta
    y[1] = state.positions[:, 0]
    y[2] = state.positions[:, 1]
    y = _rk4_step(rhs, y, cfg.dt)
    if not np.all(np.isfinite(y)):
        raise DivergenceError(f"non-finite state after step from t={state.t:g}")
    return SwarmState(
        t=state.t + cfg.dt,
        positions=np.column_stack((y[1], y[2])),
        theta=y[0].copy(),
    )


def _controls(theta_s: np.ndarray, edges: tuple[np.ndarray, np.ndarray] | None,
              kvec: np.ndarray, omega0: float, u_max: float | None):
    """Commands the right-hand side evaluates at each (S, n) sample, and where
    clipping changed them (strictly beyond u_max)."""
    u = omega0 + kvec * _grad(np.exp(1j * theta_s), edges)
    if u_max is None:
        return u, np.zeros_like(u, dtype=bool)
    return np.clip(u, -u_max, u_max), np.abs(u) > u_max


def simulate(cfg: SimulationConfig) -> tuple[TrajectoryRecord, ConvergenceReport]:
    """Run the closed loop to t_max; record samples and detect synchronization.

    Synchronization is declared when the largest pairwise wrapped heading
    difference stays below SYNC_TOL for SYNC_HOLD seconds; t_sync is the start
    of the first such window.
    """
    n_steps, n_samples = _step_counts(cfg)
    kvec = cfg.gains.gains
    if cfg.gains.classification is GainClass.OTHER:
        warnings.warn("gain set has non-negative sum; no descent guarantee applies")
    edges = None
    if cfg.topology is not None:
        if not is_connected(cfg.topology):
            warnings.warn("interaction graph is not connected; synchronization is not guaranteed")
        edges = edge_arrays(cfg.topology)

    theta0 = cfg.theta0.astype(float).copy()
    if cfg.jitter:
        rng = np.random.default_rng(cfg.seed)
        theta0 = theta0 + rng.uniform(-1e-6, 1e-6, cfg.n)

    rhs = _make_rhs(kvec, cfg.omega0, edges, cfg.u_max if cfg.saturate else None)
    y = np.empty((3, cfg.n))
    y[0] = theta0
    y[1] = cfg.positions0[:, 0]
    y[2] = cfg.positions0[:, 1]

    stride = cfg.record_stride
    states = np.empty((n_samples, 3, cfg.n))

    def fast_spread(th: np.ndarray) -> float:
        # exact pairwise spread whenever the headings fit in an arc < pi,
        # which covers the sync threshold regime
        d = wrap_angle(th - th[0])
        return float(d.max() - d.min())

    below_since: float | None = None
    t_sync: float | None = None

    def observe(t: float, th: np.ndarray) -> None:
        nonlocal below_since, t_sync
        if t_sync is not None:
            return
        if fast_spread(th) < SYNC_TOL:
            if below_since is None:
                below_since = t
            if t - below_since >= SYNC_HOLD:
                t_sync = below_since
        else:
            below_since = None

    states[0] = y
    observe(0.0, y[0])
    for i in range(n_steps):
        y = _rk4_step(rhs, y, cfg.dt)
        t = (i + 1) * cfg.dt
        if (i + 1) % stride == 0:
            if not np.all(np.isfinite(y)):
                raise DivergenceError(f"non-finite state at t={t:g}")
            states[(i + 1) // stride] = y
        observe(t, y[0])
    if not np.all(np.isfinite(y)):
        raise DivergenceError(f"non-finite state at t={n_steps * cfg.dt:g}")
    # a below-threshold window still open at t_max counts if long enough
    if t_sync is None and below_since is not None and n_steps * cfg.dt - below_since >= SYNC_HOLD:
        t_sync = below_since

    theta_s = states[:, 0]
    controls, sat_mask = _controls(theta_s, edges, kvec, cfg.omega0,
                                   cfg.u_max if cfg.saturate else None)
    traj = TrajectoryRecord(
        times=np.arange(n_samples) * stride * cfg.dt,
        theta=theta_s,
        positions=states[:, 1:].transpose(0, 2, 1),
        controls=controls,
        saturated=sat_mask,
        gains=kvec,
        omega0=cfg.omega0,
        edges=edges,
    )

    theta_final = y[0]
    t_final = n_steps * cfg.dt
    final_spread = heading_spread(theta_final)
    synchronized = t_sync is not None
    heading: float | None = None
    if synchronized:
        th_rot = theta_final - cfg.omega0 * t_final
        heading = float(np.angle(np.exp(1j * th_rot).mean()))
    report = ConvergenceReport(
        synchronized=synchronized,
        t_sync=t_sync,
        final_heading_common=heading,
        max_heading_spread_final=final_spread,
    )
    return traj, report


def rotating_frame(traj: TrajectoryRecord, omega0: float) -> TrajectoryRecord:
    """Re-express a trajectory in the frame rotating at omega0.

    Headings become theta_k(t) - omega0*t and every heading-derived column is
    recomputed from them; controls become the frame-relative turn rates
    u_k - omega0. Positions are left in the inertial frame. For omega0 = 0
    this is the identity transform.
    """
    return TrajectoryRecord(
        times=traj.times.copy(),
        theta=traj.theta - omega0 * traj.times[:, None],
        positions=traj.positions.copy(),
        controls=traj.controls - omega0,
        saturated=traj.saturated.copy(),
        gains=traj.gains,
        omega0=traj.omega0 - omega0,
        edges=traj.edges,
    )


def write_run(run_dir, traj: TrajectoryRecord,
              report: ConvergenceReport) -> tuple[Path, Path]:
    """Write a run's trajectory.csv and convergence.json into run_dir (made
    if missing); returns the two paths."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    csv_path = run_dir / "trajectory.csv"
    json_path = run_dir / "convergence.json"
    traj.to_csv(csv_path)
    json_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return csv_path, json_path
