"""The benchmark's four workloads: seeded inputs, operations and output checks.

Every workload is a fixed, seeded list of operations (one round). An
operation is one ``dynamics.simulate`` run, one in-process ``cli.main`` call
or one public library call; its check returns the list of ways the output is
wrong, empty when it is right. Checks use the paper's invariants with the
tolerances of the acceptance criteria: the conserved sum of theta_k/K_k
(1e-6), the 1/K-weighted closed-form direction (1e-3 rad after simulation)
and a Laplacian potential that never rises (1e-9).

All generated headings lie in one arc that does not cross +-pi, so the
closed-form direction is the plain 1/K-weighted mean of the headings; the
benchmark computes it itself (``closed_form_direction``) instead of asking
the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from swarmsync import angles, cli, dynamics, scenarios, topology
from swarmsync.angles import wrap_angle
from swarmsync.config import load_config
from swarmsync.control import GainVector
from swarmsync.dynamics import SimulationConfig

CONSERVED_TOL = 1e-6  # criterion 01
DIRECTION_TOL = 1e-3  # rad, criterion 02: simulated vs closed-form direction
POTENTIAL_RISE_TOL = 1e-9  # criterion 09
CLOSED_FORM_TOL = 1e-9  # rad, closed-form answers vs the benchmark's own formula
EDGE_MARGIN = 0.05  # rad kept between generated headings and +-pi


@dataclass
class Op:
    """One timed call; ``check(result)`` lists what is wrong with its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    agent_steps: int  # n * integration steps; n for a call that integrates nothing


def closed_form_direction(theta0, gains) -> float:
    """1/K-weighted mean heading, for headings in one arc that does not cross +-pi."""
    inv = 1.0 / np.asarray(gains, dtype=float)
    return float(wrap_angle(np.dot(np.asarray(theta0, dtype=float), inv) / inv.sum()))


def n_steps(cfg: SimulationConfig) -> int:
    return int(math.floor(cfg.t_max / cfg.dt + 1e-9))


def acute_headings_deg(rng, n: int, span_lo: float, span_hi: float) -> list[float]:
    """n headings (degrees) spanning a random arc in [span_lo, span_hi] rad."""
    span = rng.uniform(span_lo, span_hi)
    hat = np.concatenate([[0.0, span], rng.uniform(0.0, span, n - 2)])
    rng.shuffle(hat)
    offset = rng.uniform(-np.pi + EDGE_MARGIN, np.pi - EDGE_MARGIN - span)
    return [float(v) for v in np.degrees(hat + offset)]


def negative_gains(rng, n: int) -> list[float]:
    """Gains of criterion 02: -10^U(-0.3, 0.4)."""
    return [float(v) for v in -(10.0 ** rng.uniform(-0.3, 0.4, n))]


def drift(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(x - x[0])))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``swarmsync <argv>`` in-process; returns the exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def simulate(cfg: SimulationConfig):
    # looked up at call time so a traced round sees the span wrapper
    return dynamics.simulate(cfg)


def check_csv(path: Path, n: int, rows: int) -> list[str]:
    """Row and column counts of a trajectory CSV, and drift of its conserved column."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        conserved = [float(line.rsplit(",", 1)[1]) for line in fh]
    fails = []
    if len(header) != 1 + 4 * n + 5 or header[-1] != "conserved":
        fails.append(f"{path.name}: {len(header)} columns, expected {1 + 4 * n + 5}")
    if len(conserved) != rows:
        fails.append(f"{path.name}: {len(conserved)} rows, expected {rows}")
    if conserved and drift(conserved) >= CONSERVED_TOL:
        fails.append(f"{path.name}: conserved drift {drift(conserved):.3e}")
    return fails


def check_sync_run(cfg: SimulationConfig, traj, report) -> list[str]:
    """A synchronized run hitting the closed form, with the conserved sum held."""
    fails = []
    if not report.synchronized:
        fails.append("did not synchronize")
    else:
        err = abs(wrap_angle(report.final_heading_common
                             - closed_form_direction(cfg.theta0, cfg.gains.gains)))
        if not err < DIRECTION_TOL:
            fails.append(f"direction error {err:.3e} rad")
    if not drift(traj.conserved) < CONSERVED_TOL:
        fails.append(f"conserved drift {drift(traj.conserved):.3e}")
    return fails


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


class EnsembleMF:
    """Many small mean-field runs shaped like acceptance criterion 02.

    Per-step numpy call overhead in the RK4 loop and the sync observer
    dominate; there is no graph, no CSV and next to no geometry. A batched
    integrator would target exactly this.
    """

    def __init__(self, rng, tmp: Path, size: dict):
        ns = list(size["ns"])
        rng.shuffle(ns)
        self.cfgs = [
            SimulationConfig(
                n=n,
                theta0=np.deg2rad(acute_headings_deg(rng, n, 0.3, 2.6)),
                gains=GainVector(negative_gains(rng, n)),
                t_max=45.0,
                record_stride=10,
            )
            for n in ns
        ]
        self.ops = [
            Op(f"simulate n={c.n}", lambda c=c: simulate(c),
               lambda res, c=c: check_sync_run(c, *res), c.n * n_steps(c))
            for c in self.cfgs
        ]
        self.probe_cfg = sorted(self.cfgs, key=lambda c: c.n)[len(self.cfgs) // 2]
        self.config_path = tmp / "probe.json"

    def warm_up(self) -> None:
        simulate(self.cfgs[0])


class CliRecord:
    """``swarmsync scenario sim1`` plus stride-1 ``swarmsync simulate`` calls at n=6.

    CSV writing, derived columns, recorded controls and config/CLI handling
    do most of the work; integration stays small. The simulate calls use
    ``set1`` gains and ``t_max`` 20, which synchronize well inside the
    horizon, so each call is short and a run holds enough of them for a
    tail percentile.
    """

    N = 6

    def __init__(self, rng, tmp: Path, size: dict):
        n = self.N
        self.scn_out = tmp / "scenario"
        self.sim1_runs = {name: n_steps(c) // c.record_stride + 1
                          for name, c in scenarios.SCENARIOS["sim1"]()}
        sim1_steps = sum(c.n * n_steps(c) for _, c in scenarios.SCENARIOS["sim1"]())
        self.ops = [Op("cli scenario sim1",
                       lambda: run_cli(["scenario", "sim1", "--out", str(self.scn_out)]),
                       self.check_sim1, sim1_steps)]
        for i in range(size["simulate_calls"]):
            theta_deg = acute_headings_deg(rng, n, 1.0, 2.4)
            path = write_json(tmp / f"sim{i}.json", {
                "n": n, "theta0_deg": theta_deg, "gains": "set1",
                "positions0": rng.uniform(-5.0, 5.0, (n, 2)).tolist(),
                "t_max": size["t_max"], "record_stride": 1,
            })
            cfg = load_config(path)
            argv = ["simulate", "--config", str(path), "--out", str(tmp / f"out{i}")]
            self.ops.append(Op(f"cli simulate {i}", lambda argv=argv: run_cli(argv),
                               lambda res, cfg=cfg: self.check_simulate(cfg, res),
                               n * n_steps(cfg)))
        self.config_path = path
        self.probe_cfg = cfg

    def warm_up(self) -> None:
        run_cli(["simulate", "--config", str(self.config_path), "--t-max", "0.5",
                 "--out", str(self.config_path.parent / "warm-up")])

    def check_sim1(self, res) -> list[str]:
        code, out = res
        fails = [] if code == 0 else [f"exit code {code}"]
        runs = json.loads(out)["runs"]
        if set(runs) != set(self.sim1_runs):
            fails.append(f"runs {sorted(runs)}")
        for name, rows in self.sim1_runs.items():
            fails += check_csv(self.scn_out / "sim1" / name / "trajectory.csv", self.N, rows)
        return fails

    def check_simulate(self, cfg: SimulationConfig, res) -> list[str]:
        code, out = res
        fails = [] if code == 0 else [f"exit code {code}"]
        doc = json.loads(out)
        heading = doc.get("final_heading_common")
        if heading is None:
            fails.append("no common heading")
        else:
            err = abs(wrap_angle(heading - closed_form_direction(cfg.theta0, cfg.gains.gains)))
            if not err < DIRECTION_TOL:
                fails.append(f"direction error {err:.3e} rad")
        rows = n_steps(cfg) // cfg.record_stride + 1
        return fails + check_csv(Path(doc["trajectory_csv"]), self.N, rows)


class RingLargeN:
    """One large neighbour-law run on a ring.

    The dense ``lap @ z`` coupling dominates every step and the mean-field
    path is bypassed: the opposite use of ``dynamics`` to EnsembleMF. A run
    is 50 steps, so that a run holds enough of them for a tail percentile;
    building the Laplacian once per run stays a few percent of it.
    """

    def __init__(self, rng, tmp: Path, size: dict):
        n = size["n"]
        graph = topology.ring_graph(n)
        self.cfg = SimulationConfig(
            n=n,
            theta0=np.deg2rad(acute_headings_deg(rng, n, 1.0, 2.0)),
            gains=GainVector(negative_gains(rng, n)),
            topology=graph,
            t_max=size["t_max"],
            record_stride=5,
        )
        self.ops = [Op(f"simulate ring n={n}", lambda: simulate(self.cfg), self.check,
                       n * n_steps(self.cfg))]
        self.probe_cfg = self.cfg
        self.config_path = tmp / "probe.json"

    def warm_up(self) -> None:
        simulate(dataclasses.replace(self.cfg, t_max=0.05, record_stride=1))

    @staticmethod
    def check(res) -> list[str]:
        traj, _ = res
        fails = []
        if not (np.all(np.isfinite(traj.theta)) and np.all(np.isfinite(traj.positions))):
            fails.append("non-finite state")
        if not drift(traj.conserved) < CONSERVED_TOL:
            fails.append(f"conserved drift {drift(traj.conserved):.3e}")
        rise = float(np.max(np.diff(traj.graph_potential)))
        if rise > POTENTIAL_RISE_TOL:
            fails.append(f"WL rose by {rise:.3e}")
        return fails


class ClosedFormLargeN:
    """The closed-form CLI commands and heading geometry on one large config.

    The O(n^2) ``rotated_frame`` and ``heading_spread`` geometry and the
    saddle Hessian, which cost under 1% of the other workloads; no
    integration.
    """

    def __init__(self, rng, tmp: Path, size: dict):
        n = size["n"]
        theta_deg = acute_headings_deg(rng, n, 1.0, 2.5)
        gains = negative_gains(rng, n)
        self.theta0 = np.deg2rad(theta_deg)
        self.gains = np.asarray(gains)
        self.span = float(self.theta0.max() - self.theta0.min())
        self.target_deg = float(np.degrees(self.theta0.min() + rng.uniform(0.2, 0.8) * self.span))
        self.eta = float(rng.uniform(0.05, 0.3))
        self.config_path = write_json(tmp / "acute.json", {
            "n": n, "theta0_deg": theta_deg, "gains": gains,
        })
        self.antipodal = int(rng.integers(1, n // 2 - 1))
        psi = float(rng.uniform(-180.0, 180.0))
        saddle = np.where(np.arange(n) < self.antipodal, psi + 180.0, psi)
        rng.shuffle(saddle)
        self.saddle_path = write_json(tmp / "saddle.json", {
            "n": n, "theta0_deg": saddle.tolist(), "gains": "set2",
        })
        out = str(tmp / "synth")
        cfg = str(self.config_path)
        target = repr(self.target_deg)
        outside = repr(float(np.degrees(self.theta0.min() - 0.1)))
        self.ops = [
            Op("cli predict", lambda: run_cli(["predict", "--config", cfg]),
               self.check_predict, n),
            Op("cli reachable",
               lambda: run_cli(["reachable", "--config", cfg, "--target-deg", target]),
               lambda res: self.check_reachable(res, True), n),
            Op("cli reachable outside",
               lambda: run_cli(["reachable", "--config", cfg, "--target-deg", outside]),
               lambda res: self.check_reachable(res, False), n),
            Op("cli synthesize",
               lambda: run_cli(["synthesize", "--config", cfg, "--target-deg", target,
                                "--out", out]),
               self.check_synthesize, n),
            Op("cli perturb",
               lambda: run_cli(["perturb", "--config", cfg, "--eta", repr(self.eta)]),
               self.check_perturb, n),
            Op("cli classify", lambda: run_cli(["classify", "--config", str(self.saddle_path)]),
               self.check_classify, n),
            Op("heading_spread", lambda: angles.heading_spread(self.theta0),
               self.check_spread, n),
        ]
        self.probe_cfg = dataclasses.replace(load_config(self.config_path), t_max=1.0)

    def warm_up(self) -> None:
        run_cli(["predict", "--config", str(self.config_path)])

    def check_predict(self, res) -> list[str]:
        code, out = res
        err = abs(wrap_angle(json.loads(out)["theta_c"]
                             - closed_form_direction(self.theta0, self.gains)))
        return ([] if code == 0 else [f"exit code {code}"]) + (
            [] if err < CLOSED_FORM_TOL else [f"theta_c off by {err:.3e} rad"])

    def check_reachable(self, res, inside: bool) -> list[str]:
        code, out = res
        doc = json.loads(out)
        fails = [] if code == 0 else [f"exit code {code}"]
        if doc["reachable_negative_gains"] is not inside:
            fails.append(f"reachable_negative_gains is {doc['reachable_negative_gains']}, "
                         f"target {'inside' if inside else 'outside'} the arc")
        if not abs(doc["span"] - self.span) < CLOSED_FORM_TOL:
            fails.append(f"span {doc['span']!r}, expected {self.span!r}")
        return fails

    def check_synthesize(self, res) -> list[str]:
        code, out = res
        doc = json.loads(out)
        gains = np.asarray(doc["gains"])
        target = np.deg2rad(self.target_deg)
        fails = [] if code == 0 else [f"exit code {code}"]
        if gains.size != self.theta0.size or not np.all(gains < 0.0):
            fails.append("gains are not n negative values")
        else:
            err = abs(wrap_angle(closed_form_direction(self.theta0, gains) - target))
            if not err < CLOSED_FORM_TOL:
                fails.append(f"synthesized gains miss the target by {err:.3e} rad")
        return fails

    def check_perturb(self, res) -> list[str]:
        code, out = res
        b = json.loads(out)
        ordered = (0.0 <= b["admissible_lo"] <= b["mean_direction"] <= b["admissible_hi"]
                   <= b["span"] and 0.0 <= b["delta_lower"] <= b["delta_upper"])
        return ([] if code == 0 else [f"exit code {code}"]) + (
            [] if ordered else [f"perturbation band not ordered: {b}"])

    def check_classify(self, res) -> list[str]:
        code, out = res
        doc = json.loads(out)
        fails = [] if code == 0 else [f"exit code {code}"]
        if doc.get("kind") != "saddle" or doc.get("antipodal_count") != self.antipodal:
            fails.append(f"classified {doc}, expected a saddle with {self.antipodal} opposed")
        return fails

    def check_spread(self, spread) -> list[str]:
        err = abs(spread - self.span)
        return [] if err < CLOSED_FORM_TOL else [f"heading spread off by {err:.3e} rad"]


@dataclass(frozen=True)
class Workload:
    build: type
    size: dict
    tail_pct: int  # fixed per workload so a faster commit reports the same percentile
    # Weights, summing to one, of the host's slowness as the two kernels of
    # measure.host_seconds (interpreter, cache copy) measure it: a time is
    # multiplied by (reference / kernel time) ** weight for each. Chosen
    # where one-minute medians over 12 minutes of a shared 2-vCPU host were
    # steadiest: plain ones ranged over 19 to 30 percent, scaled ones over 4.
    host_weights: tuple[float, float] = (1.0, 0.0)


# Why each workload exists is in BENCHMARK.json and in the class docstrings.
WORKLOADS = {
    "ensemble-mf": Workload(EnsembleMF, {"ns": tuple(range(2, 9))}, 90),
    "cli-record": Workload(CliRecord, {"simulate_calls": 8, "t_max": 20.0}, 75),
    "ring-large-n": Workload(RingLargeN, {"n": 1000, "t_max": 0.5}, 80, (0.25, 0.75)),
    "closed-form-large-n": Workload(ClosedFormLargeN, {"n": 3000}, 85, (0.5, 0.5)),
}
