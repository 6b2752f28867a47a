"""Measurement loop, layer probes and metric extraction behind perfbench/run.py.

End-to-end metrics come from untraced rounds; per-layer metrics from traced
rounds and probes. ``PER_LAYER`` also records, for each layer metric, the
end-to-end metric and workload it should move. End-to-end times are scaled
by ``host_seconds()``, sampled around and inside each operation and set-up,
to seconds at the host speed ``HOST_REF_S`` marks (``Workload.host_weights``
says how); per-layer times are plain seconds.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from swarmsync import analysis, angles, cli, config, control, dynamics, phase, scenarios, topology
from swarmsync.dynamics import SYNC_HOLD, SwarmState

from spans import Span, Tracer
from workloads import WORKLOADS, n_steps, run_cli, write_json

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RUNS_DIR = BENCH_DIR / "_runs"
SETUP_REPS = 7
HOST_REF_S = np.array([0.5e-3, 2.0e-3])  # host_seconds() on a 2-vCPU Xeon guest, usual speed
HOST_EVERY_S = 0.1  # host_seconds() period inside an untraced operation
PLAIN = (0.0, 0.0)  # host weights that leave a time unscaled
PROBE_SECONDS = 0.2  # each probe repeats its call this long, PROBE_MIN..PROBE_MAX times
PROBE_MIN = 3
PROBE_MAX = 200

END_TO_END = {  # times host-scaled by Workload.host_weights
    "wall_s": ("s", "one round, each operation at its median over the run's rounds"),
    "setup_s": ("s", "median of fresh-interpreter import plus in-process set-up"),
    "agent_steps_per_s": ("1/s", "n*steps per round over wall_s; a closed-form call counts n"),
    "op_s_p50": ("s", "median operation time"),
    "peak_rss_mb": ("MB", "peak resident set size of the process"),
}

_CF = "closed-form-large-n"
_INTEGRATION = "agent_steps_per_s, op_s_p50 on ensemble-mf, ring-large-n"
PER_LAYER = {  # name: (unit, the end-to-end metric and workload it should move)
    "dynamics.simulate_us_per_step": ("us", _INTEGRATION),
    "dynamics.step_us": ("us", _INTEGRATION),
    "phase.grad_us": ("us", "wall_s on ring-large-n; small on ensemble-mf"),
    "control.command_us": ("us", "wall_s on ring-large-n; small on ensemble-mf"),
    "topology.laplacian_s": ("s", "setup_s, wall_s on ring-large-n"),
    "topology.is_connected_s": ("s", "setup_s, wall_s on ring-large-n"),
    "topology.dense_bytes_per_rhs": ("B", "setup_s, wall_s on ring-large-n (computed n^2*24)"),
    "dynamics.rotating_frame_s": ("s", "wall_s on cli-record (stands in for the derived columns)"),
    "dynamics.to_csv_s": ("s", "wall_s on cli-record"),
    "dynamics.csv_rows_per_s": ("1/s", "wall_s on cli-record"),
    "dynamics.csv_bytes": ("B", "wall_s on cli-record"),
    "cli.main_s": ("s", f"wall_s, op_s_p50 on cli-record, {_CF}"),
    "config.load_config_s": ("s", f"wall_s, op_s_p50 on cli-record, {_CF}"),
    "scenarios.run_scenario_s": ("s", f"wall_s, op_s_p50 on cli-record, {_CF}"),
    "analysis.rotated_frame_s": ("s", f"wall_s on {_CF}; none on ensemble-mf"),
    "analysis.predict_direction_s": ("s", f"wall_s on {_CF}; none on ensemble-mf"),
    "analysis.synthesize_gains_s": ("s", f"wall_s on {_CF}; none on ensemble-mf"),
    "angles.heading_spread_s": ("s", f"wall_s on {_CF}; none on ensemble-mf"),
    "dynamics.steps": ("count", "agent_steps_per_s on ensemble-mf, ring-large-n (per round)"),
    "dynamics.rhs_evals": ("count", "agent_steps_per_s on ensemble-mf, ring-large-n (4 per step)"),
    "dynamics.samples": ("count", "wall_s on cli-record (recorded samples per round)"),
    "dynamics.sync_frac": ("frac", "wall_s on ensemble-mf (runs synchronized / runs)"),
    "dynamics.post_sync_step_frac": ("frac", "wall_s on ensemble-mf (steps wasted after sync)"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall_s, host-scaled alike"),
}


@dataclass
class OpRecord:
    round: int
    index: int  # position in the round
    traced: bool
    name: str
    seconds: float
    host: np.ndarray  # mean host_seconds() before, during and after an untraced operation
    agent_steps: int
    fails: list[str]


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    env: dict
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, note)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    self_times: dict = field(default_factory=dict)
    reported: list[str] = field(default_factory=list)  # printed, not in the result line


# -- span annotations ------------------------------------------------------

def annotate_simulate(span: Span, args, result) -> None:
    cfg = args[0]
    _, report = result
    steps = n_steps(cfg)
    post = 0
    if report.synchronized:
        post = max(0, steps - math.floor((report.t_sync + SYNC_HOLD) / cfg.dt + 1e-9))
    span.attrs.update(
        n=cfg.n, steps=steps, samples=steps // cfg.record_stride + 1,
        synced=report.synchronized, post_sync_steps=post,
        dense_bytes=cfg.n * cfg.n * 24 if cfg.topology is not None else 0,
    )


def annotate_csv(span: Span, args, result) -> None:
    traj, path = args[0], args[1]
    span.attrs.update(rows=traj.sample_count, bytes=os.path.getsize(path))


def patch_table():
    """Public calls made inside the program, by the namespace that makes them."""
    sim = ("dynamics.simulate", annotate_simulate)
    table = [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "run_scenario", "scenarios.run_scenario", None),
        (cli, "simulate", *sim),
        (scenarios, "simulate", *sim),
        (dynamics, "simulate", *sim),
        (scenarios, "predict_direction", "analysis.predict_direction", None),
        (dynamics, "heading_spread", "angles.heading_spread", None),
        (angles, "heading_spread", "angles.heading_spread", None),
        (dynamics, "laplacian", "topology.laplacian", None),
        (dynamics, "is_connected", "topology.is_connected", None),
        (dynamics.TrajectoryRecord, "to_csv", "dynamics.to_csv", annotate_csv),
    ]
    for fn in ("predict_direction", "rotated_frame", "is_reachable", "synthesize_gains",
               "perturbation_bounds", "classify_critical_point", "critical_point_hessian"):
        table.append((analysis, fn, f"analysis.{fn}", None))
    return table


# -- environment -----------------------------------------------------------

def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


# -- measuring -------------------------------------------------------------

_PROBE_X = np.linspace(0.0, 1.0, 8)
_PROBE_SRC = np.linspace(0.0, 1.0, 1 << 20)  # 8 MiB, and as much again for the copy: past L2
_PROBE_DST = np.empty_like(_PROBE_SRC)


def _host_kernel(reps: int) -> None:
    for _ in range(reps):
        y = np.sin(_PROBE_X) * 2.0 + _PROBE_X
        float(y.sum())
        [i * i for i in range(20)]


def host_seconds() -> np.ndarray:
    """Times of two fixed kernels that call nothing of the program: the host's speed now.

    [0] interpreter work and numpy calls on 8 floats; [1] copying 8 MiB
    arrays there and back, through the last-level cache. On the shared
    2-vCPU host the benchmark was written on, interpreter-bound code ran up
    to 1.8x slower in spells from a second to minutes long, with kernel [0]
    slowed alike; large-array code slowed less, in step with kernel [1].
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        np.copyto(_PROBE_DST, _PROBE_SRC)  # refill the caches the previous operation evicted
        _host_kernel(30)
        t0 = time.perf_counter()
        _host_kernel(100)
        t1 = time.perf_counter()
        np.copyto(_PROBE_DST, _PROBE_SRC)
        np.copyto(_PROBE_SRC, _PROBE_DST)
        return np.array([t1 - t0, time.perf_counter() - t1])
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Runs host_seconds() every HOST_EVERY_S of an operation, from a SIGALRM handler.

    Python runs the handler in the main thread between bytecodes, so the
    samples interleave with the operation; ``spent`` is their time, which
    the caller takes out of the operation's time.
    """

    def __init__(self):
        self.samples: list[np.ndarray] = []
        self.spent = 0.0
        self._saved = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(host_seconds())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, HOST_EVERY_S, HOST_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)


def _check(op, res) -> list[str]:
    try:
        return op.check(res)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"check raised {type(exc).__name__}: {exc}"]


def _run_rounds(wl, seconds: float, tracer: Tracer | None) -> list[OpRecord]:
    """Whole rounds until ``seconds`` pass; with a tracer, every other round is traced."""
    records: list[OpRecord] = []
    host = host_seconds()
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.patch(patch_table())
        try:
            for i, op in enumerate(wl.ops):
                span = tracer.open(f"op:{op.name}", round=r) if traced else None
                sampler = HostSampler()  # not in traced rounds: it would sit inside the spans
                t0 = time.perf_counter()
                if not traced:
                    sampler.start()
                try:
                    res, err = op.run(), None
                except Exception as exc:  # counted as a failed operation
                    res, err = None, f"{type(exc).__name__}: {exc}"
                finally:
                    if not traced:
                        sampler.stop()
                dt = time.perf_counter() - t0 - sampler.spent
                if span is not None:
                    tracer.close(span)
                fails = [err] if err else _check(op, res)
                before, host = host, host_seconds()
                records.append(OpRecord(r, i, traced, op.name, dt,
                                        np.mean([before, *sampler.samples, host], axis=0),
                                        op.agent_steps, fails))
                if isinstance(res, tuple) and isinstance(res[0], dynamics.TrajectoryRecord):
                    wl.last_traj = res[0]
        finally:
            if traced:
                tracer.unpatch()
        r += 1
        if time.perf_counter() >= deadline and (tracer is None or r >= 2):
            return records


def _probe(tracer: Tracer, name: str, fn, *args, annotate=None):
    """Repeat one public call inside a ``probe:<name>`` span; returns the last result."""
    outer = tracer.open(f"probe:{name}")
    end = time.perf_counter() + PROBE_SECONDS
    k = 0
    while k < PROBE_MIN or (k < PROBE_MAX and time.perf_counter() < end):
        result = tracer.call(name, fn, *args, annotate=annotate)
        k += 1
    tracer.close(outer)
    return result


def _run_probes(tracer: Tracer, wl, tmp: Path, covered: set[str]) -> None:
    """Time, at the workload's shape, each layer its traced rounds did not reach."""
    cfg = wl.probe_cfg
    theta, gains = cfg.theta0, cfg.gains.gains
    graph = cfg.topology if cfg.topology is not None else topology.ring_graph(cfg.n)
    lap = topology.laplacian(graph)

    def probe(name, fn, *args, **kw):
        if name not in covered:
            _probe(tracer, name, fn, *args, **kw)

    traj = getattr(wl, "last_traj", None)
    if traj is None or "dynamics.simulate" not in covered:
        traj, _ = _probe(tracer, "dynamics.simulate", dynamics.simulate, cfg,
                         annotate=annotate_simulate)
    _probe(tracer, "dynamics.step", dynamics.step,
           SwarmState(0.0, cfg.positions0, cfg.theta0), cfg)
    if cfg.topology is not None:
        _probe(tracer, "phase.grad", phase.laplacian_potential_grad, theta, lap)
        _probe(tracer, "control.command", control.control_limited, theta, gains, graph)
    else:
        _probe(tracer, "phase.grad", phase.alignment_potential_grad, theta)
        _probe(tracer, "control.command", control.control_all_to_all, theta, gains)
    probe("topology.laplacian", topology.laplacian, graph)
    probe("topology.is_connected", topology.is_connected, graph)
    _probe(tracer, "dynamics.rotating_frame", dynamics.rotating_frame, traj, 0.5)
    probe("dynamics.to_csv", type(traj).to_csv, traj, tmp / "probe.csv", annotate=annotate_csv)
    if not wl.config_path.exists():
        write_json(wl.config_path, config.dump_config(cfg))
    probe("config.load_config", config.load_config, wl.config_path)
    probe("cli.main", run_cli, ["predict", "--config", str(wl.config_path)])
    probe("scenarios.run_scenario", scenarios.run_scenario, "sim2", tmp / "probe-scenario",
          None, 5.0)
    probe("analysis.rotated_frame", analysis.rotated_frame, theta)
    probe("analysis.predict_direction", analysis.predict_direction, theta, gains)
    probe("analysis.synthesize_gains", analysis.synthesize_gains, theta, float(theta.mean()))
    probe("angles.heading_spread", angles.heading_spread, theta)


def _import_program_fresh() -> None:
    """Start a fresh interpreter that imports numpy and the program, as a CLI user pays."""
    subprocess.run([sys.executable, "-c", "import numpy, swarmsync"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)


def run(name: str, seed: int, seconds: float, trace: bool, size: dict | None = None) -> Result:
    spec = WORKLOADS[name]
    RUNS_DIR.mkdir(exist_ok=True)
    tmp = RUNS_DIR / f"{name}-{seed}-{os.getpid()}"
    result = Result(name, seed, trace, environment(seed))
    try:
        setups = []  # (import s, in-process set-up s, host_seconds() around them)
        for _ in range(SETUP_REPS):
            shutil.rmtree(tmp, ignore_errors=True)
            before = host_seconds()
            t0 = time.perf_counter()
            _import_program_fresh()
            t1 = time.perf_counter()
            tmp.mkdir(parents=True)
            wl = spec.build(np.random.default_rng(seed), tmp, size or spec.size)
            wl.warm_up()
            t2 = time.perf_counter()
            setups.append((t1 - t0, t2 - t1, 0.5 * (before + host_seconds())))
        tracer = Tracer() if trace else None
        root = tracer.open(f"workload:{name}") if trace else None
        records = _run_rounds(wl, seconds, tracer)
        if trace:
            covered = {s.name for s in tracer.spans if _op_of(tracer, s) is not None}
            tracer.close(root)
            _run_probes(tracer, wl, tmp, covered)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result.attempted = len(records)
    failing = [r for r in records if r.fails]
    result.failed = len(failing)
    result.failures = [f"{r.name} (round {r.round}): {'; '.join(r.fails)}" for r in failing]
    if trace:
        _layer_metrics(result, tracer, records, spec.host_weights)
        path = RUNS_DIR / f"trace-{name}-seed{seed}.json"
        tracer.dump(path, {"workload": name, "seed": seed, "env": result.env,
                           "self_s_per_round": result.self_times})
    else:
        _end_to_end_metrics(result, records, setups, spec)
    return result


# -- metrics ---------------------------------------------------------------

def _quartiles(values) -> tuple[float, float]:
    q1, q3 = np.percentile(np.asarray(values, dtype=float), [25, 75])
    return float(q1), float(q3)


def _host_scale(host: np.ndarray, weights) -> float:
    """Factor from seconds at the host speed ``host`` to seconds at HOST_REF_S."""
    return float(np.prod((HOST_REF_S / host) ** np.asarray(weights)))


def _op_seconds(r: OpRecord, weights) -> float:
    return r.seconds * _host_scale(r.host, weights)


def _round_time(records, traced: bool, weights) -> tuple[float, int]:
    """One round with each operation at its median over the rounds; and the round count."""
    by_index: dict[int, list[float]] = {}
    for r in records:
        if r.traced == traced:
            by_index.setdefault(r.index, []).append(_op_seconds(r, weights))
    rounds = max((len(v) for v in by_index.values()), default=0)
    return sum(float(np.median(v)) for v in by_index.values()), rounds


def _put(result: Result, name: str, value: float, note: str, spread=None) -> None:
    unit = END_TO_END[name][0] if name in END_TO_END else PER_LAYER[name][0]
    if spread is not None:
        q1, q3 = _quartiles(spread)
        note = f"{note}; q1 {q1:.6g}, q3 {q3:.6g}, n={len(spread)}"
    result.metrics[name] = (float(value), unit, note)


def _end_to_end_metrics(result: Result, records, setups, spec) -> None:
    weights = spec.host_weights
    how = (f"; host-scaled, weights {weights[0]:g} interpreter, {weights[1]:g} cache"
           if any(weights) else "; plain")
    times = [_op_seconds(r, weights) for r in records]
    plain = [r.seconds for r in records]
    wall, rounds = _round_time(records, traced=False, weights=weights)
    _put(result, "wall_s", wall, f"{len(times)} operations in {rounds} rounds{how}")
    setup = [(imp + build) * _host_scale(host, weights) for imp, build, host in setups]
    _put(result, "setup_s", float(np.median(setup)),
         f"median of {len(setup)}; plain import median "
         f"{np.median([s[0] for s in setups]):.4f} s, in-process set-up median "
         f"{np.median([s[1] for s in setups]):.4f} s{how}")
    steps = sum(r.agent_steps for r in records if r.round == 0)
    _put(result, "agent_steps_per_s", steps / wall, f"{steps} agent-steps per round{how}")
    _put(result, "op_s_p50", float(np.median(times)),
         f"median of {len(times)} operations{how}", times)
    tail = float(np.percentile(times, spec.tail_pct))
    probes = np.median([r.host for r in records], axis=0)
    result.reported += [
        f"op_s_tail = {tail:.6g} s  [p{spec.tail_pct} of {len(times)} operations, "
        f"{sum(t > tail for t in times)} beyond it{how}]",
        f"plain_wall_s = {_round_time(records, traced=False, weights=PLAIN)[0]:.6g} s  "
        f"[as wall_s, not host-scaled]",
        f"plain_op_s_p50 = {np.median(plain):.6g} s  [as op_s_p50, not host-scaled]",
        f"host_probe_s = {probes[0]:.6g} s, {probes[1]:.6g} s  [median host_seconds() "
        f"over operations, interpreter and cache; HOST_REF_S {HOST_REF_S[0]:g}, "
        f"{HOST_REF_S[1]:g}]",
    ]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _put(result, "peak_rss_mb", peak, "ru_maxrss of this process")


def _op_of(tracer: Tracer, span: Span) -> Span | None:
    return tracer.ancestor(span, "op:")


def _layer_spans(tracer: Tracer, name: str) -> tuple[list[Span], str]:
    """Outermost spans of ``name`` under operations, else those under its own probe."""
    def nested(s: Span) -> bool:
        return s.parent is not None and tracer.ancestor(tracer.spans[s.parent], name) is not None

    named = [s for s in tracer.spans if s.name == name and not nested(s)]
    in_ops = [s for s in named if _op_of(tracer, s) is not None]
    if in_ops:
        return in_ops, "ops"
    return [s for s in named if tracer.ancestor(s, f"probe:{name}") is not None], "probe"


def _per_round(tracer: Tracer, spans, source: str, key=None) -> list[float]:
    """Per-round totals for spans under operations, per-call values for probe spans."""
    value = (lambda s: s.duration) if key is None else key
    if source == "probe":
        return [value(s) for s in spans]
    totals: dict[int, float] = {}
    for s in spans:
        rnd = _op_of(tracer, s).attrs["round"]
        totals[rnd] = totals.get(rnd, 0.0) + value(s)
    return list(totals.values())


def _layer_metrics(result: Result, tracer: Tracer, records, weights) -> None:
    for metric, layer in (
        ("topology.laplacian_s", "topology.laplacian"),
        ("topology.is_connected_s", "topology.is_connected"),
        ("dynamics.rotating_frame_s", "dynamics.rotating_frame"),
        ("dynamics.to_csv_s", "dynamics.to_csv"),
        ("cli.main_s", "cli.main"),
        ("config.load_config_s", "config.load_config"),
        ("scenarios.run_scenario_s", "scenarios.run_scenario"),
        ("analysis.rotated_frame_s", "analysis.rotated_frame"),
        ("analysis.predict_direction_s", "analysis.predict_direction"),
        ("analysis.synthesize_gains_s", "analysis.synthesize_gains"),
        ("angles.heading_spread_s", "angles.heading_spread"),
    ):
        spans, source = _layer_spans(tracer, layer)
        values = _per_round(tracer, spans, source)
        per = "per round" if source == "ops" else "per probe call"
        _put(result, metric, float(np.median(values)), f"median {per} ({source})", values)

    for metric, layer in (("dynamics.step_us", "dynamics.step"), ("phase.grad_us", "phase.grad"),
                          ("control.command_us", "control.command")):
        spans, _ = _layer_spans(tracer, layer)
        values = [s.duration * 1e6 for s in spans]
        _put(result, metric, float(np.median(values)), "median per probe call", values)

    sims, source = _layer_spans(tracer, "dynamics.simulate")
    _put(result, "dynamics.simulate_us_per_step",
         1e6 * sum(s.duration for s in sims) / sum(s.attrs["steps"] for s in sims),
         f"simulate time / steps over {len(sims)} runs ({source})")

    csvs, source = _layer_spans(tracer, "dynamics.to_csv")
    _put(result, "dynamics.csv_rows_per_s",
         sum(s.attrs["rows"] for s in csvs) / sum(s.duration for s in csvs),
         f"rows / to_csv time over {len(csvs)} files ({source})")
    csv_bytes = _per_round(tracer, csvs, source, key=lambda s: s.attrs["bytes"])
    per = "per round" if source == "ops" else "per probe file"
    _put(result, "dynamics.csv_bytes", csv_bytes[0], f"bytes {per} ({source})")

    # counts: one traced round of the workload's own runs; they repeat exactly per seed
    first = min((r.round for r in records if r.traced), default=None)
    runs = [s for s in tracer.spans if s.name == "dynamics.simulate"
            and _op_of(tracer, s) is not None and _op_of(tracer, s).attrs["round"] == first]
    steps = sum(s.attrs["steps"] for s in runs)
    _put(result, "dynamics.steps", steps, f"{len(runs)} runs in one round")
    _put(result, "dynamics.rhs_evals", 4 * steps, "computed: 4 per RK4 step")
    _put(result, "dynamics.samples", sum(s.attrs["samples"] for s in runs), "per round")
    _put(result, "dynamics.sync_frac",
         sum(s.attrs["synced"] for s in runs) / len(runs) if runs else 0.0,
         f"{sum(s.attrs['synced'] for s in runs)} of {len(runs)} runs")
    post = sum(s.attrs["post_sync_steps"] for s in runs)
    _put(result, "dynamics.post_sync_step_frac", post / steps if steps else 0.0,
         f"{post} of {steps} steps after t_sync + SYNC_HOLD")
    _put(result, "topology.dense_bytes_per_rhs",
         max((s.attrs["dense_bytes"] for s in runs), default=0),
         "computed n^2*(8+16): the Laplacian and its complex cast; 0 without a graph")

    traced, n_traced = _round_time(records, traced=True, weights=weights)
    untraced, n_untraced = _round_time(records, traced=False, weights=weights)
    _put(result, "trace.overhead_s", traced - untraced,
         f"round time over {n_traced} traced minus over {n_untraced} untraced rounds, "
         f"host-scaled alike")

    ops = [s for s in tracer.spans if _op_of(tracer, s) is not None]
    per_layer: dict[str, float] = {}
    for name, secs in tracer.self_times(ops).items():
        key = "benchmark (op: spans)" if name.startswith("op:") else name
        per_layer[key] = per_layer.get(key, 0.0) + secs / n_traced
    result.self_times = dict(sorted(per_layer.items(), key=lambda kv: -kv[1]))


# -- output ----------------------------------------------------------------

def report(result: Result) -> None:
    names = list(PER_LAYER if result.trace else END_TO_END)
    print(f"# perfbench workload={result.workload} seed={result.seed} "
          f"trace={int(result.trace)}")
    print("env " + json.dumps(result.env, sort_keys=True))
    for name in names:
        value, unit, note = result.metrics[name]
        moves = f"  -> {PER_LAYER[name][1]}" if result.trace else ""
        print(f"metric {name} = {value:.6g} {unit}  [{note}]{moves}")
    if result.trace:
        round_s = sum(result.self_times.values())
        print(f"self time per traced round ({round_s:.4f} s):")
        for layer, secs in result.self_times.items():
            print(f"  {layer:40s} {secs:.6f} s  {100.0 * secs / round_s:5.1f}%")
    frac = result.failed / result.attempted if result.attempted else 1.0
    result.reported.append(
        f"failed_frac = {frac:.6g} 1  [{result.failed} of {result.attempted} operations]")
    for line in result.reported:
        print(f"report {line}")
    for line in result.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": result.metrics[n][0], "unit": result.metrics[n][1]}
                    for n in names},
    }))
