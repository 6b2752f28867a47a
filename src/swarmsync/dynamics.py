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

It holds the integrator: the config and budgets, RHS, RK4, sync observer and
simulate. What a run writes, its record, report and files, is in output.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .angles import heading_spread, wrap_angle
from .control import GainVector
from .output import ConvergenceReport, TrajectoryRecord
from .phase import _coupling, _edge_products, _expi, _grad, _unit_vectors, as_heading_vector
from .topology import InteractionGraph, edge_arrays, is_connected
# Not called here: the benchmark's trace table (perfbench/measure.py) resolves
# dynamics.laplacian, dynamics.is_connected and dynamics.heading_spread by name.
from .topology import laplacian  # noqa: F401

SYNC_TOL = 1e-4  # rad; largest pairwise wrapped spread counting as synchronized
SYNC_HOLD = 1.0  # s; spread must stay below SYNC_TOL this long
SYNC_PREFIX = 8  # agents whose spread _sync_block tests before all n (see there)

# Largest n * (number of recorded samples) simulate() may record. The record
# arrays (state, control, saturation flag) take 33 bytes a value, 1.1 GB at
# the budget; with the complex temporaries, the peak RSS of `swarmsync
# simulate` grew by about 64 bytes a value (measured from 4.2M to 8.4M values
# at n=2048, with the CSV written in blocks of output._CSV_BLOCK values), so
# a run at the budget peaks near 2.2 GB.
RECORD_BUDGET = 2**25
# Largest number of RK4 steps simulate() may take: 6 to 10 minutes at the
# 20 to 35 us a step of an n=6 mean-field run with stride 1 (a shared 2-core
# x86-64 host, BENCH_rk4_dispatch.json), far above any bundled scenario's 80,000.
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
        seed = 0 if self.seed is None else self.seed
        for name, value in (("n", self.n), ("record_stride", self.record_stride), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        if not 1 <= self.record_stride <= STEP_BUDGET:  # a larger stride records nothing more
            raise ValueError(f"record_stride must be between 1 and the step budget {STEP_BUDGET}")
        if seed < 0:
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
        raise ValueError(f"t_max/record_stride give {n_samples:.12g} samples x {cfg.n} "
                         f"agents, above the record budget of {RECORD_BUDGET} values")
    if n_steps > STEP_BUDGET:
        raise ValueError(f"t_max/dt give {n_steps:.12g} integration steps, above the "
                         f"step budget of {STEP_BUDGET}")
    return n_steps, n_samples


def _make_rhs(kvec, omega0, edges: list, u_max: float | None, n: int, zero: bool):
    """(angle, bind) for R runs of n agents that share u_max, one per entry of
    edges (as phase._coupling takes them), kvec and omega0 broadcast to (R,
    n), all one flat row. angle is the float buffer of a stage's R*n angles;
    bind(u, z) binds phase._coupling's kernel to z once and gives the stage's
    rhs(), which writes e^{i angle} into z (phase._unit_vectors, ``zero``
    adding +0.0 to the angles first) and the commands into u. omega0 None
    adds nothing (exact where _integrate passes it). The clip is np.clip's
    maximum then minimum, called without np.clip's Python layers."""
    runs = len(edges)
    kvec = np.full((runs, n), kvec, dtype=float).ravel()
    omega0 = None if omega0 is None else np.full((runs, n), omega0, dtype=float).ravel()
    lo, hi = (np.array(b) for b in (-u_max, u_max)) if u_max is not None else (None, None)
    angle, unit_into = _unit_vectors((runs * n,), zero)
    coupling = _coupling(edges, n)

    def bind(u: np.ndarray, z: np.ndarray):
        write, grad = unit_into(z), coupling(z)

        def rhs() -> None:
            write()
            np.multiply(kvec, grad(), u)
            if omega0 is not None:
                np.add(omega0, u, u)
            if u_max is not None:
                np.minimum(np.maximum(u, lo, out=u), hi, out=u)

        return rhs

    return angle, bind


def _rk4_step(rhs, dt: float, m: int):
    """step(y, out): one classical RK4 step of dt from the flat state y into
    out, through buffers allocated once here and the (angle, bind) of
    _make_rhs, whose rhs is bound to each stage's buffers once.

    A state is [theta | x0, y0, x1, y1, ...], 3m floats for m headings, so
    the position part of a stage derivative k, k[m:] viewed as complex, is
    the e^{i theta} that the rhs writes in place. A stage's angles are the
    plain real theta + h u, written into the rhs's angle buffer; the plain
    scheme forms e^{i (theta + h u)} from 1j * (theta + h u), which turns an
    angle of -0.0 into +0.0, and _make_rhs's ``zero`` does the same where an
    angle can be -0.0 (see _integrate). Each operation writes into a buffer
    in the order of y + dt/6 (k1 + 2 k2 + 2 k3 + k4), the plain scheme's: the
    k are rows of one buffer, summed by one reduce that starts from -0.0, as
    -0.0 + k1 is k1 where numpy's default start +0.0 would turn -0.0 to +0.0.
    Also returns acc, which after a step holds its increment out - y."""
    angle, bind = rhs
    ks, acc = np.empty((4, 3 * m)), np.empty(3 * m)
    mid = ks[1:3]
    (u1, f1), (u2, f2), (u3, f3), (_, f4) = (
        (k[:m], bind(k[:m], k[m:].view(complex))) for k in ks)
    half, full = np.array(0.5 * dt), np.array(dt)  # 0-d: faster ufunc calls
    sixth, two = np.array(dt / 6.0), np.array(2.0)

    def step(y: np.ndarray, out: np.ndarray) -> None:
        theta = y[:m]
        angle[:] = theta
        f1()
        np.add(theta, np.multiply(half, u1, angle), angle)
        f2()
        np.add(theta, np.multiply(half, u2, angle), angle)
        f3()
        np.add(theta, np.multiply(full, u3, angle), angle)
        f4()
        np.multiply(two, mid, mid)
        np.add.reduce(ks, 0, None, acc, False, -0.0)
        np.add(y, np.multiply(sixth, acc, acc), out)

    return step, acc


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

    Runs of more than SYNC_PREFIX agents first test the spread of agents
    0..SYNC_PREFIX-1 alone. Their wrapped differences from agent 0 are the
    same floats as the first entries of the full d below, so their max is
    at most the full max and their min at least the full min, and rounded
    subtraction is monotone: the prefix spread is never above the full one
    (a nan among the agents leaves the full spread nan, never below). A
    block in which no step's prefix spread is below SYNC_TOL therefore
    closes every window, as the full test would, without wrapping all n
    headings; any other block takes the full test.
    """
    if theta.shape[-1] > SYNC_PREFIX:
        d = wrap_angle(theta[..., :SYNC_PREFIX] - theta[..., :1])
        if not (d.max(axis=-1) - d.min(axis=-1) < SYNC_TOL).any():
            below_since[:] = np.nan
            return
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
# OBSERVER_BLOCK_BYTES: hundreds at small n, where the per-step cost of
# numpy calls dominates, and these blocks for any batch of up to 85
# headings. Larger states get FREEZE_CHECK_STEPS steps a block as far as
# they fit in OBSERVER_BLOCK_MAX_BYTES, and never fewer than two: ten at
# n = 1000, where the budget alone gives two and a 50-step run would pay
# the observer's fixed cost 25 times. A 1 MiB ceiling (32 steps there) was
# no faster and raised the benchmark's peak RSS by 0.3 to 0.5 MB
# (BENCH_unit_vectors.json). A block far from sync costs the prefix test of
# _sync_block alone: the spread of SYNC_PREFIX agents is a lower bound on
# the spread of all n, so a block it finds nowhere below SYNC_TOL is one
# the full test would too.
OBSERVER_BLOCK_BYTES = 2**16
OBSERVER_BLOCK_MAX_BYTES = 2**18
FREEZE_CHECK_STEPS = 32  # steps between _integrate's fixed-point checks, each ~one numpy call


def _block_steps(state_bytes: int, n_steps: int) -> int:
    """Rows of _integrate's block for states of state_bytes and n_steps steps."""
    most = max(2, OBSERVER_BLOCK_BYTES // state_bytes,
               min(FREEZE_CHECK_STEPS, OBSERVER_BLOCK_MAX_BYTES // state_bytes))
    return min(most, n_steps + 1)


def _has_negative_zero(theta: np.ndarray) -> bool:
    """Whether a heading is -0.0, the one float whose sign 1j * theta drops."""
    return bool(np.signbit(theta[theta == 0.0]).any())


def _runs(states: np.ndarray, runs: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the headings (..., R, n) and positions (..., R, n, 2) of R runs."""
    lead, m = states.shape[:-1], runs * n
    return states[..., :m].reshape(*lead, runs, n), states[..., m:].reshape(*lead, runs, n, 2)


def _integrate(y0: np.ndarray, kvec, omega0, edges: list, u_max: float | None, dt: float,
               n_steps: int, stride: int):
    """Integrate R runs of the closed loop that share u_max, dt, the step
    count and the stride, from the joint states y0 of shape (3, R, n) (run
    r's theta, x and y at [:, r]), with gains kvec and turn rates omega0 that
    broadcast to (R, n) and the runs' edges as _make_rhs takes them.

    The runs are one flat state (see _rk4_step, _make_rhs), so a step of a
    few small runs of either law costs about one step of one run. Steps
    fill a block; each block goes through the sync observer at once, and its
    states at multiples of ``stride`` steps are recorded and checked finite.
    Returns views of the recorded headings (S, R, n) and positions (S, R, n,
    2), the final headings (R, n), and per run (R,) the sync time and
    the time of its first non-finite recorded or final state, nan for none.
    Stops early once every run has diverged. A heading is -0.0 only if it
    starts so, as x + y is -0.0 only if both are, and so is a stage angle
    theta + h u; only on a -0.0 heading does the sign of a zero h u show in
    it. Where some initial heading is -0.0, the rhs adds +0.0 to the stage
    angles (see _rk4_step). Where none is and every omega0 is zero, the rhs
    skips adding omega0: adding +0.0 only turns a -0.0 command into +0.0,
    which neither the stage angles nor the final combine show on a heading
    that is not -0.0.

    After each FREEZE_CHECK_STEPS steps, and at a block's end, the last two
    rows of headings are compared bit for bit. Once a step leaves every
    heading of the batch the same and finite, they are a fixed point of the
    RK4 map: a step reads only the headings (positions never feed back), so
    the next one takes the same stages in the same buffers, computes the
    same increment and leaves them again. Each later step is y + incr, made
    in the same order by one np.add.accumulate a block. Only a batch whose
    runs are all frozen skips steps; one that never freezes takes them all,
    so the step budget's worst case is unchanged.
    """
    _, runs, n = y0.shape
    m = runs * n
    zero = _has_negative_zero(y0[0])
    omega0 = omega0 if zero or np.any(omega0) else None
    step, incr = _rk4_step(_make_rhs(kvec, omega0, edges, u_max, n, zero), dt, m)
    states = np.empty((n_steps // stride + 1, 3 * m))
    slots = _block_steps(y0.nbytes, n_steps)
    block = np.empty((slots, 3 * m))
    rows, frozen = list(block), False  # row views made once: each step takes two
    below_since, t_sync, t_bad = (np.full(runs, np.nan) for _ in range(3))

    def finite(s: np.ndarray) -> np.ndarray:  # (..., R): each run's state is finite
        theta, xy = _runs(np.isfinite(s), runs, n)
        return theta.all(axis=-1) & xy.all(axis=(-2, -1))

    block[0] = np.concatenate((y0[0].ravel(), np.moveaxis(y0[1:], 0, -1).ravel()))
    # a diverging run overflows; the finite checks below report it as t_bad,
    # so numpy's overflow/invalid warnings would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps + 1, slots):
            size = min(slots, n_steps + 1 - start)
            i = 1 if start == 0 else 0  # row -1 is the previous block's last
            while i < size and not frozen:
                for j in range(i, min(i + FREEZE_CHECK_STEPS, size)):
                    step(rows[j - 1], rows[j])
                i, theta = j + 1, rows[j][:m]
                frozen = theta.tobytes() == rows[j - 1][:m].tobytes() and np.isfinite(theta).all()
            if i < size:  # frozen: rows i.. each add incr to the row before
                np.add(rows[i - 1], incr, rows[i])
                block[i + 1:size] = incr
                np.add.accumulate(block[i:size], 0, None, block[i:size])
            t = np.arange(start, start + size) * dt
            if np.isnan(t_sync).any():  # once every run has synchronized, nothing is left to detect
                _sync_block(_runs(block[:size], runs, n)[0], t, below_since, t_sync)
            first = -(-start // stride) * stride
            recorded = block[first - start:size:stride]
            states[first // stride:first // stride + len(recorded)] = recorded
            ok = finite(recorded)
            if not ok.all():
                bad = ~ok.all(axis=0) & np.isnan(t_bad)
                t_bad[bad] = t[first - start::stride][ok[:, bad].argmin(axis=0)]
                if not np.isnan(t_bad).any():
                    break
    if start + size == n_steps + 1:
        t_bad[~finite(block[size - 1]) & np.isnan(t_bad)] = n_steps * dt
    # a copy of the final headings, so the block is freed before the records are built
    return (*_runs(states, runs, n), _runs(block[size - 1], runs, n)[0].copy(), t_sync, t_bad)


def _law(cfg: SimulationConfig):
    """The coupling law of cfg as _integrate takes it: gains, omega0, edge
    arrays (None for mean-field) and the clip limit (None unless saturating)."""
    edges = None if cfg.topology is None else edge_arrays(cfg.topology)
    return cfg.gains.gains, cfg.omega0, edges, cfg.u_max if cfg.saturate else None


def _start(cfg: SimulationConfig) -> np.ndarray:
    """The run's initial joint state [theta; x; y], (3, n), with the seeded
    heading jitter if set; warns when the gains or the graph give no
    convergence guarantee."""
    if not cfg.gains.sync_stable:
        warnings.warn("gains are not sync-stable: need all K < 0, or one K > 0 and sum(1/K) > 0")
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
    y = np.concatenate((state.theta, np.ravel(state.positions)), dtype=float)
    kvec, omega0, edges, u_max = _law(cfg)
    rhs = _make_rhs(kvec, omega0, [edges], u_max, cfg.n, _has_negative_zero(y[:cfg.n]))
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4_step(rhs, cfg.dt, cfg.n)[0](y, y)
    if not np.all(np.isfinite(y)):
        raise DivergenceError(f"non-finite state after step from t={state.t:g}")
    return SwarmState(t=state.t + cfg.dt, positions=y[cfg.n:].reshape(-1, 2), theta=y[:cfg.n])


def _outcome(cfg: SimulationConfig, n_steps: int, run: tuple,
             b: int) -> tuple[TrajectoryRecord, ConvergenceReport]:
    """The record and report of run b of the runs that _integrate returned."""
    theta, positions, final, t_sync, _ = run
    theta_s, final, t_sync = theta[:, b], final[b], t_sync[b]
    kvec, omega0, edges, u_max = _law(cfg)
    # the commands the right-hand side evaluates at each sample, and where
    # clipping changed them (strictly beyond u_max); a gain near the float
    # limit overflows a command to +-inf, which the clip bounds, so numpy's
    # overflow warning is silenced as in _integrate. z and the edge products
    # also give the record's derived columns.
    with np.errstate(over="ignore", invalid="ignore"):
        z = _expi(theta_s)
        products = None if edges is None else _edge_products(z, *edges)
        u = omega0 + kvec * _grad(z, edges, products)
    if u_max is None:
        controls, saturated = u, np.zeros_like(u, dtype=bool)
    else:
        controls, saturated = np.clip(u, -u_max, u_max), np.abs(u) > u_max
    traj = TrajectoryRecord(times=np.arange(len(theta_s)) * cfg.record_stride * cfg.dt,
                            theta=theta_s, positions=positions[:, b], controls=controls,
                            saturated=saturated, gains=kvec, omega0=omega0, edges=edges,
                            z=z, edge_products=products)
    synchronized = not np.isnan(t_sync)
    heading = (float(np.angle(_expi(final - omega0 * (n_steps * cfg.dt)).mean()))
               if synchronized else None)
    return traj, ConvergenceReport(synchronized=synchronized,
                                   t_sync=float(t_sync) if synchronized else None,
                                   final_heading_common=heading,
                                   max_heading_spread_final=heading_spread(final))


def simulate(cfg: SimulationConfig) -> tuple[TrajectoryRecord, ConvergenceReport]:
    """Run the closed loop to t_max; record samples and detect synchronization.

    Synchronization is declared when the largest pairwise wrapped heading
    difference stays below SYNC_TOL for SYNC_HOLD seconds; t_sync is the start
    of the first such window.
    """
    return simulate_batch([cfg])[0]


def simulate_batch(cfgs) -> list[tuple[TrajectoryRecord, ConvergenceReport]]:
    """simulate() for each config, in input order, each result equal to
    simulate(cfg) bit for bit.

    Configs that share n, dt, t_max, record_stride and the clip limit
    (u_max when saturating) are integrated as one batch (see _integrate),
    whatever their topologies, mean-field runs first, and share the per-step
    cost; simulate() is a batch of one.
    Every config is checked against the budgets before any run starts; the
    first one rejected raises simulate's ValueError. When runs diverge, the
    DivergenceError simulate raises for the first such config in input order
    is raised.
    """
    cfgs = list(cfgs)
    counts = [_step_counts(cfg) for cfg in cfgs]
    starts = [_start(cfg) for cfg in cfgs]
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault((cfg.n, cfg.dt, cfg.t_max, cfg.record_stride, _law(cfg)[3]), []).append(i)
    results: list = [None] * len(cfgs)
    diverged: dict[int, float] = {}
    for (n, dt, _, stride, u_max), rows in groups.items():
        rows.sort(key=lambda i: cfgs[i].topology is not None)  # mean-field runs first
        n_steps, n_samples = counts[rows[0]]
        # one batch records no more values than one run at the record budget
        size = max(1, RECORD_BUDGET // (n_samples * n))
        for chunk in (rows[lo:lo + size] for lo in range(0, len(rows), size)):
            run = _integrate(
                np.stack([starts[i] for i in chunk], axis=1),
                np.stack([cfgs[i].gains.gains for i in chunk]),
                np.array([[cfgs[i].omega0] for i in chunk]),
                [_law(cfgs[i])[2] for i in chunk], u_max, dt, n_steps, stride)
            for b, i in enumerate(chunk):
                if np.isnan(run[-1][b]):
                    results[i] = _outcome(cfgs[i], n_steps, run, b)
                else:
                    diverged[i] = run[-1][b]
    if diverged:
        raise DivergenceError(f"non-finite state at t={diverged[min(diverged)]:g}")
    return results


def rotating_frame(traj: TrajectoryRecord, omega0: float) -> TrajectoryRecord:
    """Re-express a trajectory in the frame rotating at omega0.

    Headings become theta_k(t) - omega0*t and every heading-derived column is
    recomputed from them; controls become the frame-relative turn rates
    u_k - omega0. Positions are left in the inertial frame. For omega0 = 0
    this is the identity transform. The new record shares times, positions,
    saturated, gains and edges with traj, as the records of one batch
    already share the batch's buffers.
    """
    return replace(traj, theta=traj.theta - omega0 * traj.times[:, None],
                   controls=traj.controls - omega0, omega0=traj.omega0 - omega0)
