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
# Largest number of RK4 steps simulate() may take: 7 to 15 minutes at the
# 26 to 53 us a step of an n=6 mean-field run with stride 1 (a shared 2-core
# x86-64 host, quiet and busy), far above every bundled scenario (80,000 steps).
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
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
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


def _make_rhs(kvec, omega0, edges: tuple[np.ndarray, np.ndarray] | None,
              u_max: float | None, runs: int, n: int):
    """The right-hand side of R runs of n agents that share edges and u_max,
    and the shape of their joint state; kvec and omega0 broadcast to (R, n).

    rhs(theta, u, xy) writes the derivative of the joint state [theta; x; y]
    at headings theta into its heading row u and position rows xy. The state
    is heading-major, run r's agents at columns r*n..r*n+n-1 of each row, and
    the rows are 1-D (R*n,) so that every ufunc runs over contiguous rows as
    for one run: the neighbour law sums the disjoint union of the R graphs
    with _grad's 1-D bincount, each node over its edges in the order of one
    run. Only a mean-field batch (R > 1) shapes its rows (R, n), so each
    run's mean is a row reduction; one mean-field run keeps the scalar mean.
    """
    heading = (runs, n) if edges is None and runs > 1 else (runs * n,)
    if edges is not None:  # the disjoint union of the R graphs: run r's nodes offset by r*n
        offsets = np.arange(0, runs * n, n)[:, None]
        edges = tuple((e + offsets).ravel() for e in edges)
    kvec, omega0 = (np.full((runs, n), a, dtype=float).reshape(heading) for a in (kvec, omega0))
    z = np.empty(heading, dtype=complex)
    cos_sin = z.view(float).reshape(*heading, 2).transpose(-1, *range(z.ndim))  # (2, *heading)
    # numpy scalars as 0-d arrays: the same floats, a faster ufunc call than Python numbers
    i1 = np.array(1j)

    def rhs(theta: np.ndarray, u: np.ndarray, xy: np.ndarray) -> None:
        np.exp(np.multiply(i1, theta, out=z), out=z)
        np.multiply(kvec, _grad(z, edges), out=u)
        np.add(omega0, u, out=u)
        if u_max is not None:
            np.clip(u, -u_max, u_max, out=u)
        np.copyto(xy, cos_sin)

    return rhs, (3, *heading)


def _rk4_step(rhs, dt: float, shape: tuple[int, ...]):
    """step(y, out): one classical RK4 step of dt from y into out, both of
    the state's shape, through stage buffers allocated once here. Each
    operation writes into a buffer, in the order of the expression
    y + dt/6 (k1 + 2 k2 + 2 k3 + k4) with stage headings theta + (dt/2) k1,
    theta + (dt/2) k2 and theta + dt k3, so the result is the same floats."""
    k1, k2, k3, k4 = (np.empty(shape) for _ in range(4))
    (u1, xy1), (u2, xy2), (u3, xy3), (u4, xy4) = ((k[0], k[1:]) for k in (k1, k2, k3, k4))
    stage = np.empty(u1.shape)
    half, full, sixth, two = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0), np.array(2.0)

    def step(y: np.ndarray, out: np.ndarray) -> None:
        theta = y[0]
        rhs(theta, u1, xy1)
        rhs(np.add(theta, np.multiply(half, u1, out=stage), out=stage), u2, xy2)
        rhs(np.add(theta, np.multiply(half, u2, out=stage), out=stage), u3, xy3)
        rhs(np.add(theta, np.multiply(full, u3, out=stage), out=stage), u4, xy4)
        np.add(k1, np.multiply(two, k2, out=k2), out=k1)
        np.add(k1, np.multiply(two, k3, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        np.add(y, np.multiply(sixth, k1, out=k1), out=out)

    return step


def _sync_block(theta: np.ndarray, t: np.ndarray, below_since: np.ndarray,
                t_sync: np.ndarray) -> None:
    """Advance sync detection over the headings theta (L, R, n) of R runs at
    the L consecutive step times t.

    below_since (R,) holds the start of each run's open window of spreads
    below SYNC_TOL and t_sync (R,) the start of the first window held for
    SYNC_HOLD, nan for none; both are updated in place. The decisions are
    those of checking each step in turn: a window opens at the first step
    below SYNC_TOL, closes at the next step that is not, and counts once
    t - start >= SYNC_HOLD at one of its steps. The spread is exact whenever
    the headings fit in an arc < pi, which covers the sync threshold regime.
    """
    d = wrap_angle(theta - theta[..., :1])
    below = d.max(axis=-1) - d.min(axis=-1) < SYNC_TOL
    if not below.any():  # every window closes: the common case before sync
        below_since[:] = np.nan
        return
    steps = np.arange(t.size)[:, None]
    last_above = np.maximum.accumulate(np.where(below, -1, steps), axis=0)
    carried = np.where(np.isnan(below_since), t[0], below_since)
    start = np.where(last_above < 0, carried, t[np.minimum(last_above + 1, t.size - 1)])
    held = below & (t[:, None] - start >= SYNC_HOLD)
    first = held.argmax(axis=0)[None]
    found = np.take_along_axis(held, first, axis=0)[0] & np.isnan(t_sync)
    t_sync[found] = np.take_along_axis(start, first, axis=0)[0][found]
    below_since[:] = np.where(below[-1], start[-1], np.nan)


# The sync observer evaluates the states of as many steps at once as fit in
# this many bytes (at least two): hundreds of steps at small n, where the
# per-step cost of numpy calls dominates, and two at large n, where a larger
# block and its temporaries would add to the peak memory of the run.
OBSERVER_BLOCK_BYTES = 2**16


def _integrate(y0: np.ndarray, kvec, omega0, edges: tuple[np.ndarray, np.ndarray] | None,
               u_max: float | None, dt: float, n_steps: int, stride: int):
    """Integrate R runs of the closed loop that share edges, u_max, dt, the
    step count and the stride, from the joint states y0 of shape (3, R, n)
    (run r's state at [:, r]), with gains kvec and turn rates omega0 that
    broadcast to (R, n).

    The runs are integrated as one heading-major state (see _make_rhs), so
    a step of a few small runs costs about one step of one run, and one run
    (R = 1) is the plain (3, n) state. Steps fill a block of states; each
    block goes through the sync observer at once, and its states at
    multiples of ``stride`` steps are recorded and checked finite. Returns
    the recorded states (n_steps // stride + 1, 3, R, n) and the final state
    (3, R, n), both views of the heading-major arrays, and per run as (R,)
    arrays the sync time and the time of its first non-finite recorded or
    final state, nan for none. Stops early once every run has diverged.
    """
    _, runs, n = y0.shape
    rhs, shape = _make_rhs(kvec, omega0, edges, u_max, runs, n)
    step = _rk4_step(rhs, dt, shape)
    states = np.empty((n_steps // stride + 1, *shape))
    slots = max(2, min(OBSERVER_BLOCK_BYTES // y0.nbytes, n_steps + 1))
    block = np.empty((slots, *shape))
    below_since = np.full(runs, np.nan)
    t_sync = np.full(runs, np.nan)
    t_bad = np.full(runs, np.nan)

    block[0] = y0.reshape(shape)
    # a diverging run overflows; the finite checks below report it as t_bad,
    # so numpy's overflow/invalid warnings would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps + 1, slots):
            size = min(slots, n_steps + 1 - start)
            for i in range(1 if start == 0 else 0, size):
                step(block[i - 1], block[i])
            t = np.arange(start, start + size) * dt
            if np.isnan(t_sync).any():  # once every run has synchronized, nothing is left to detect
                _sync_block(block[:size, 0].reshape(size, runs, n), t, below_since, t_sync)
            first = -(-start // stride) * stride
            recorded = block[first - start:size:stride]
            states[first // stride:first // stride + len(recorded)] = recorded
            finite = np.isfinite(recorded).reshape(len(recorded), 3, runs, n).all(axis=(1, 3))
            if not finite.all():
                bad = ~finite.all(axis=0) & np.isnan(t_bad)
                t_bad[bad] = t[first - start::stride][finite[:, bad].argmin(axis=0)]
                if not np.isnan(t_bad).any():
                    break
    final = block[size - 1].reshape(3, runs, n)
    if start + size == n_steps + 1:
        bad = ~np.isfinite(final).all(axis=(0, 2)) & np.isnan(t_bad)
        t_bad[bad] = n_steps * dt
    return states.reshape(-1, 3, runs, n), final, t_sync, t_bad


def _law(cfg: SimulationConfig):
    """The coupling law of cfg as _integrate takes it: gains, omega0, edge
    arrays (None for mean-field) and the clip limit (None unless saturating)."""
    edges = None if cfg.topology is None else edge_arrays(cfg.topology)
    return cfg.gains.gains, cfg.omega0, edges, cfg.u_max if cfg.saturate else None


def _start(cfg: SimulationConfig) -> np.ndarray:
    """The run's initial joint state [theta; x; y], (3, n), with the seeded
    heading jitter if set; warns when the gains or the graph give no
    convergence guarantee."""
    if cfg.gains.classification is GainClass.OTHER:
        warnings.warn("gain set has non-negative sum; no descent guarantee applies")
    if cfg.topology is not None and not is_connected(cfg.topology):
        warnings.warn("interaction graph is not connected; synchronization is not guaranteed")
    theta0 = cfg.theta0
    if cfg.jitter:
        rng = np.random.default_rng(cfg.seed)
        theta0 = theta0 + rng.uniform(-1e-6, 1e-6, cfg.n)
    return np.vstack((theta0, cfg.positions0.T), dtype=float)


def step(state: SwarmState, cfg: SimulationConfig) -> SwarmState:
    """Advance one dt with the classical 4th-order scheme: the first step
    simulate() takes from this state, bit for bit."""
    y = np.vstack((state.theta, np.transpose(state.positions)), dtype=float)
    rhs, shape = _make_rhs(*_law(cfg), 1, cfg.n)
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4_step(rhs, cfg.dt, shape)(y, y)
    if not np.all(np.isfinite(y)):
        raise DivergenceError(f"non-finite state after step from t={state.t:g}")
    return SwarmState(t=state.t + cfg.dt, positions=y[1:].T.copy(), theta=y[0].copy())


def _outcome(cfg: SimulationConfig, n_steps: int, states: np.ndarray, final: np.ndarray,
             t_sync: float) -> tuple[TrajectoryRecord, ConvergenceReport]:
    """The record and report of one run from its recorded states (S, 3, n),
    its final state (3, n) and its sync time (nan for none)."""
    kvec, omega0, edges, u_max = _law(cfg)
    theta_s = states[:, 0]
    # the commands the right-hand side evaluates at each sample, and where
    # clipping changed them (strictly beyond u_max)
    u = omega0 + kvec * _grad(np.exp(1j * theta_s), edges)
    if u_max is None:
        controls, saturated = u, np.zeros_like(u, dtype=bool)
    else:
        controls, saturated = np.clip(u, -u_max, u_max), np.abs(u) > u_max
    traj = TrajectoryRecord(
        times=np.arange(len(states)) * cfg.record_stride * cfg.dt,
        theta=theta_s,
        positions=states[:, 1:].transpose(0, 2, 1),
        controls=controls,
        saturated=saturated,
        gains=kvec,
        omega0=omega0,
        edges=edges,
    )
    synchronized = not np.isnan(t_sync)
    heading: float | None = None
    if synchronized:
        th_rot = final[0] - omega0 * (n_steps * cfg.dt)
        heading = float(np.angle(np.exp(1j * th_rot).mean()))
    report = ConvergenceReport(
        synchronized=synchronized,
        t_sync=float(t_sync) if synchronized else None,
        final_heading_common=heading,
        max_heading_spread_final=heading_spread(final[0]),
    )
    return traj, report


def simulate(cfg: SimulationConfig) -> tuple[TrajectoryRecord, ConvergenceReport]:
    """Run the closed loop to t_max; record samples and detect synchronization.

    Synchronization is declared when the largest pairwise wrapped heading
    difference stays below SYNC_TOL for SYNC_HOLD seconds; t_sync is the start
    of the first such window.
    """
    n_steps, _ = _step_counts(cfg)
    states, final, t_sync, t_bad = _integrate(_start(cfg)[:, None], *_law(cfg), cfg.dt,
                                              n_steps, cfg.record_stride)
    if not np.isnan(t_bad[0]):
        raise DivergenceError(f"non-finite state at t={t_bad[0]:g}")
    return _outcome(cfg, n_steps, states[:, :, 0], final[:, 0], t_sync[0])


def simulate_batch(cfgs) -> list[tuple[TrajectoryRecord, ConvergenceReport]]:
    """simulate() for each config, in input order, each result equal to
    simulate(cfg) bit for bit.

    Configs that share n, topology, dt, t_max, record_stride and the clip
    limit (u_max when saturating) are integrated together as one
    heading-major batch (see _integrate), so they share the per-step cost;
    a group of one costs what simulate() does. They may differ in theta0,
    gains, positions0, omega0, seed and jitter. Every config is checked against the
    budgets before any run starts, and the first one rejected raises
    simulate's ValueError. When runs diverge, the DivergenceError simulate
    would raise for the first diverging config in input order is raised.
    """
    cfgs = list(cfgs)
    counts = [_step_counts(cfg) for cfg in cfgs]
    starts = [_start(cfg) for cfg in cfgs]
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        limit = cfg.u_max if cfg.saturate else None
        groups.setdefault((cfg.n, cfg.topology, cfg.dt, cfg.t_max, cfg.record_stride, limit),
                          []).append(i)
    results: list = [None] * len(cfgs)
    diverged: dict[int, float] = {}
    for rows in groups.values():
        lead = cfgs[rows[0]]
        n_steps, n_samples = counts[rows[0]]
        _, _, edges, u_max = _law(lead)
        # one batch records no more values than one run at the record budget
        size = max(1, RECORD_BUDGET // (n_samples * lead.n))
        for chunk in (rows[lo:lo + size] for lo in range(0, len(rows), size)):
            states, final, t_sync, t_bad = _integrate(
                np.stack([starts[i] for i in chunk], axis=1),
                np.stack([cfgs[i].gains.gains for i in chunk]),
                np.array([[cfgs[i].omega0] for i in chunk]),
                edges, u_max, lead.dt, n_steps, lead.record_stride)
            for b, i in enumerate(chunk):
                if np.isnan(t_bad[b]):
                    results[i] = _outcome(cfgs[i], n_steps, states[:, :, b], final[:, b],
                                          t_sync[b])
                else:
                    diverged[i] = t_bad[b]
    if diverged:
        raise DivergenceError(f"non-finite state at t={diverged[min(diverged)]:g}")
    return results


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
