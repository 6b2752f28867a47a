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

import math
import numbers
import warnings
from dataclasses import InitVar, asdict, dataclass, field, replace
from functools import partial
from itertools import chain, filterfalse
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .angles import heading_spread, wrap_angle
from .control import GainVector
from .phase import ZERO_MAGNITUDE_TOL, _edge_products, _grad, _potential, as_heading_vector
from .topology import InteractionGraph, edge_arrays, is_connected
# Not called here: the benchmark's trace table (perfbench/measure.py) resolves
# dynamics.laplacian, dynamics.is_connected and dynamics.heading_spread by name.
from .topology import laplacian  # noqa: F401

SYNC_TOL = 1e-4  # rad; largest pairwise wrapped spread counting as synchronized
SYNC_HOLD = 1.0  # s; spread must stay below SYNC_TOL this long
SYNC_PREFIX = 8  # agents whose spread _sync_block tests before all n (see there)

CSV_FLOAT_FMT = "%.17g"

# Largest n * (number of recorded samples) simulate() may record. The record
# arrays (state, control, saturation flag) take 33 bytes a value, 1.1 GB at
# the budget; with the complex temporaries and the CSV table, the peak RSS of
# `swarmsync simulate` grew by about 72 bytes a value (measured from 4.2M to
# 8.4M values at n=2048), so a run at the budget peaks near 2.4 GB.
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


@dataclass(eq=False)
class TrajectoryRecord:
    """Sampled time series of one run (sample s, agent k indexing). The order
    parameter, potentials and conserved sum are derived from theta on
    construction; mean-field runs (edges None) report N*U as graph_potential.
    ``edges`` are the graph's directed edge arrays from topology.edge_arrays.
    A caller that has already computed z = exp(1j*theta) and, for a graph,
    phase._edge_products(z, *edges) passes them so that they are not
    computed again; they are not stored, so replace() derives them anew."""

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
    z: InitVar[np.ndarray | None] = None
    edge_products: InitVar[np.ndarray | None] = None

    def __post_init__(self, z, edge_products):
        if z is None:
            z = np.exp(1j * self.theta)
        p = z.mean(axis=1)
        self.p_mag = np.abs(p)
        self.p_psi = np.where(self.p_mag > ZERO_MAGNITUDE_TOL, np.angle(p), np.nan)
        self.potential = _potential(z, None)
        self.graph_potential = (
            self.n * self.potential if self.edges is None
            else _potential(z, self.edges, edge_products)
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
        heading = self.final_heading_common
        return {**asdict(self),
                "final_heading_common_deg": None if heading is None else float(np.degrees(heading))}


def _make_rhs(kvec, omega0, edges: list, u_max: float | None, n: int):
    """bind(u, z) for R runs of n agents that share u_max, one run per entry
    of edges (its edge arrays, None for mean-field; mean-field runs first),
    kvec and omega0 broadcast to (R, n). bind gives a stage's rhs(exponent),
    which writes exp(exponent) = e^{i theta} into z and the commands into u.
    Run r's headings are r*n..r*n+n-1 of one flat row, so exp, gains, omega0
    and clip run once over it. Graph runs take _grad's 1-D bincount over the
    disjoint union of their edges; mean-field runs _grad's Im(conj(p) z), p a
    scalar for one run, else a (R_mf, 1) buffer divided by a 0-d complex n.
    omega0 None adds nothing (exact where _integrate passes it). The clip is
    np.clip's maximum then minimum, called without np.clip's Python layers."""
    runs, mf = len(edges), sum(e is None for e in edges)
    k, n_c = mf * n, np.array(n, dtype=complex)
    kvec = np.full((runs, n), kvec, dtype=float).ravel()
    omega0 = None if omega0 is None else np.full((runs, n), omega0, dtype=float).ravel()
    lo, hi = (np.array(b) for b in (-u_max, u_max)) if u_max is not None else (None, None)
    union = tuple(np.concatenate([e[j] + r * n for r, e in enumerate(edges) if e is not None])
                  for j in (0, 1)) if mf < runs else None  # run r's nodes offset by r*n

    def bind(u: np.ndarray, z: np.ndarray):
        w, p = np.empty(k, dtype=complex), np.empty((mf, 1), dtype=complex)
        zm, zr, w_imag, wr = z[:k], z[:k].reshape(mf, n), w.imag, w.reshape(mf, n)

        def one_mean():  # a scalar mean: faster than the buffer for one run
            np.multiply(np.conj(np.add.reduce(zm, -1, None, None, False) / n), zm, w)
            return w_imag

        def means():  # a mean per run
            np.add.reduce(zr, -1, None, p, True)
            np.multiply(np.conjugate(np.divide(p, n_c, p), p), zr, wr)
            return w_imag

        def mixed():
            g = _grad(z, union)
            g[:k] = mean()
            return g

        mean = one_mean if mf == 1 else means
        grad = mean if mf == runs else partial(_grad, z, union) if mf == 0 else mixed

        def rhs(exponent: np.ndarray) -> None:
            np.exp(exponent, z)
            np.multiply(kvec, grad(), u)
            if omega0 is not None:
                np.add(omega0, u, u)
            if u_max is not None:
                np.minimum(np.maximum(u, lo, out=u), hi, out=u)

        return rhs

    return bind


def _rk4_step(bind, dt: float, m: int):
    """step(y, out): one classical RK4 step of dt from the flat state y into
    out, through buffers allocated once here and the rhs of _make_rhs's bind
    bound to each stage's buffers once.

    A state is [theta | x0, y0, x1, y1, ...], 3m floats for m headings, so
    the position part of a stage derivative k, k[m:] viewed as complex, is
    the e^{i theta} that exp writes in place. Stage exponents are i*theta
    plus h u written into the imaginary part of a zeroed buffer (whose real
    part stays +-0, or nan for a non-finite theta): the floats of i*(theta
    + h u), as both turn -0.0 into +0.0. Each operation writes into a buffer
    in the order of y + dt/6 (k1 + 2 k2 + 2 k3 + k4), the plain scheme's: the
    k are rows of one buffer, summed by one reduce that starts from -0.0, as
    -0.0 + k1 is k1 where numpy's default start +0.0 would turn -0.0 to +0.0.
    Also returns acc, which after a step holds its increment out - y."""
    ks, acc = np.empty((4, 3 * m)), np.empty(3 * m)
    mid = ks[1:3]
    (u1, f1), (u2, f2), (u3, f3), (_, f4) = (
        (k[:m], bind(k[:m], k[m:].view(complex))) for k in ks)
    itheta, stage = np.empty(m, dtype=complex), np.zeros(m, dtype=complex)
    stage_imag = stage.imag
    i1, half, full = np.array(1j), np.array(0.5 * dt), np.array(dt)  # 0-d: faster ufunc calls
    sixth, two = np.array(dt / 6.0), np.array(2.0)

    def step(y: np.ndarray, out: np.ndarray) -> None:
        f1(np.multiply(i1, y[:m], itheta))
        np.multiply(half, u1, stage_imag)
        f2(np.add(itheta, stage, stage))
        np.multiply(half, u2, stage_imag)
        f3(np.add(itheta, stage, stage))
        np.multiply(full, u3, stage_imag)
        f4(np.add(itheta, stage, stage))
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
# this many bytes (at least two): hundreds of steps at small n, where the
# per-step cost of numpy calls dominates, and two at large n, where a larger
# block and its temporaries would add to the peak memory of the run. There,
# a block far from sync costs the prefix test of _sync_block alone: the
# spread of SYNC_PREFIX agents is a lower bound on the spread of all n, so
# a block it finds nowhere below SYNC_TOL is one the full test would too.
OBSERVER_BLOCK_BYTES = 2**16
FREEZE_CHECK_STEPS = 32  # steps between _integrate's fixed-point checks, each ~one numpy call


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
    2) and of the final headings (R, n), and per run (R,) the sync time and
    the time of its first non-finite recorded or final state, nan for none.
    Stops early once every run has diverged. When every omega0 is zero and
    no initial heading is -0.0, the rhs skips adding omega0: adding +0.0
    only turns a -0.0 command into +0.0, which the stage exponents drop (see
    _rk4_step) and the final combine shows only on a -0.0 heading, and a
    heading is -0.0 only if it starts so, as x + y is -0.0 only if both are.

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
    omega0 = omega0 if np.any(omega0) or np.signbit(y0[0][y0[0] == 0.0]).any() else None
    step, incr = _rk4_step(_make_rhs(kvec, omega0, edges, u_max, n), dt, m)
    states = np.empty((n_steps // stride + 1, 3 * m))
    slots = max(2, min(OBSERVER_BLOCK_BYTES // y0.nbytes, n_steps + 1))
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
    return (*_runs(states, runs, n), _runs(block[size - 1], runs, n)[0], t_sync, t_bad)


def _law(cfg: SimulationConfig):
    """The coupling law of cfg as _integrate takes it: gains, omega0, edge
    arrays (None for mean-field) and the clip limit (None unless saturating)."""
    edges = None if cfg.topology is None else edge_arrays(cfg.topology)
    return cfg.gains.gains, cfg.omega0, edges, cfg.u_max if cfg.saturate else None


def _start(cfg: SimulationConfig) -> np.ndarray:
    """The run's initial joint state [theta; x; y], (3, n), with the seeded
    heading jitter if set; warns when the gains or the graph give no
    convergence guarantee."""
    # near the float limit the sum overflows to +-inf, which still decides the
    # test, so numpy's overflow warning would only repeat the warning below
    with np.errstate(over="ignore"):
        descent = cfg.gains.all_negative or cfg.gains.gains.sum() < 0.0
    if not descent:
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
    y = np.concatenate((state.theta, np.ravel(state.positions)), dtype=float)
    kvec, omega0, edges, u_max = _law(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4_step(_make_rhs(kvec, omega0, [edges], u_max, cfg.n), cfg.dt, cfg.n)[0](y, y)
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
        z = np.exp(1j * theta_s)
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
    heading = (float(np.angle(np.exp(1j * (final - omega0 * (n_steps * cfg.dt))).mean()))
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


def write_run(run_dir, traj: TrajectoryRecord,
              report: ConvergenceReport) -> tuple[Path, Path]:
    """Write a run's trajectory.csv and convergence.json into run_dir (made
    if missing); returns the two paths."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    csv_path = run_dir / "trajectory.csv"
    json_path = run_dir / "convergence.json"
    traj.to_csv(csv_path)
    json_path.write_text(_json_text(report.to_dict()))
    return csv_path, json_path


def _json_text(obj) -> str:
    """obj as the JSON of every file the package writes and everything the
    CLI prints: the bytes that json.dumps writes with indent=2,
    sort_keys=True and allow_nan=False, errors included, so a NaN or infinity
    raises ValueError (the CLI's error JSON). Number lists are encoded in
    bulk, where json's indented encoder steps a generator per element. There
    is no cycle check: the package builds no cyclic document."""
    return _json(obj, "\n")


def _json(o, nl: str) -> str:
    """o as JSON, its lines after the first starting with nl."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return float.__repr__(_finite((o,))[0])
    inner = nl + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        kinds = set(map(type, o))
        if all(issubclass(kind, float) for kind in kinds):
            body = sep.join(map(float.__repr__, _finite(o)))
        elif kinds <= {list, tuple} and (row := _row_template(o, inner)):
            body = sep.join(map(row.__mod__, map(tuple, o)))
        else:
            body = sep.join([_json(v, inner) for v in o])
        return f"[{inner}{body}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = sep.join([f"{_json_key(k)}: {_json(v, inner)}" for k, v in sorted(o.items())])
        return f"{{{inner}{body}{nl}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_key(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):  # json writes these as strings
        return encode_basestring_ascii(_json(k, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _row_template(rows, nl: str) -> str | None:
    """The %-template of one of rows, when they share a nonzero length and
    their entries are all floats or all ints (exact types, whose %r and %d
    are json's float.__repr__ and int.__repr__); else None."""
    cells = list(chain.from_iterable(rows))
    kinds = set(map(type, cells))
    if len(set(map(len, rows))) != 1 or kinds not in ({float}, {int}):
        return None
    if kinds == {float}:
        _finite(cells)
    inner = nl + "  "
    fields = f",{inner}".join(["%r" if float in kinds else "%d"] * len(rows[0]))
    return f"[{inner}{fields}{nl}]"


def _finite(values):
    """values, once each is a finite number; else json's ValueError."""
    for bad in filterfalse(math.isfinite, values):
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return values
