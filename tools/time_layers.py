"""Time the simulator's layers one at a time and print one JSON object.

    python3 tools/time_layers.py --n 1000 --topology ring --repeats 9

Each layer is timed on its own, on one run of n agents shaped like the
benchmark's ring-large-n workload: headings spread over about 1 rad, far
from sync; negative gains; DT = 0.01 s; STEPS = 50 steps, every STRIDE = 5th
recorded.

  unit       phase._unit_vectors alone: e^{i theta} of the n headings
  kernel     phase._coupling alone: the coupling kernel over the run's one
             row, bound to e^{i theta} of the n headings as each RHS stage
             binds it
  rhs        one right-hand-side evaluation of _make_rhs, which binds that
             kernel
  step       one RK4 step of _rk4_step
  observer   one _sync_block call over a block of as many steps as
             _integrate puts in one (_block_steps)
  outcome    _outcome: the recorded controls and the record's derived columns
  derive     TrajectoryRecord construction alone: the derived columns of that
             record, from the run's recorded views, given z = e^{i theta} and
             the edge products as _outcome passes them
  csv        TrajectoryRecord.to_csv of that record
  simulate   one whole dynamics.simulate of the run: its steps, the observer
             and the record, timed here next to the step so that a step and a
             run are compared within one session
  geometry   angles.heading_spread plus analysis.rotated_frame of the headings
  geometry_even
             analysis.rotated_frame of n evenly spread headings, where every
             circular gap ties and each tied end is a candidate reference
  json       output.json_text of the document synthesize writes for the
             run's config, its gains from analysis.synthesize_gains at the
             mean heading: n headings, n gains of which most are equal, and
             n positions0 rows of [0.0, 0.0]

A repeat calls a layer until ROUND_S seconds have passed; the output gives
each layer's median and quartiles over the repeats in microseconds a call,
with the interpreter, numpy and core count. ``unit_ways_us`` times the unit
layer bound each way _unit_vectors can take, one complex np.exp and
np.cos/np.sin, whichever phase.UNIT_COS_SIN_MIN would pick at this n;
running the script at several n locates the crossover that constant is set
from.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from swarmsync import analysis, config, dynamics, output, phase  # noqa: E402
from swarmsync.angles import heading_spread  # noqa: E402
from swarmsync.control import GainVector  # noqa: E402
from swarmsync.topology import ring_graph  # noqa: E402

DT, STEPS, STRIDE = 0.01, 50, 5
ROUND_S = 0.05


def per_call_us(fn, repeats: int) -> dict:
    """Median and quartiles over the repeats of fn's time a call, in us."""
    fn()
    rounds, total = [], 0
    for _ in range(repeats):
        calls, start = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= ROUND_S:
                break
        rounds.append(elapsed / calls * 1e6)
        total += calls
    q1, median, q3 = np.percentile(rounds, [25, 50, 75])
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3), "calls": total}


def layers(n: int, topology: str, seed: int, csv_path: Path):
    """The zero-argument callable of each layer, those of unit_ways, and the
    shapes they run on."""
    rng = np.random.default_rng(seed)
    cfg = dynamics.SimulationConfig(
        n=n, theta0=rng.uniform(0.0, 1.0, n), gains=GainVector(-rng.uniform(0.5, 2.0, n)),
        topology=ring_graph(n) if topology == "ring" else None,
        dt=DT, t_max=(STEPS + 0.5) * DT, record_stride=STRIDE)
    kvec, omega0, edges, u_max = dynamics._law(cfg)
    n_steps, _ = dynamics._step_counts(cfg)
    y0 = dynamics._start(cfg)

    angle, bind = dynamics._make_rhs(kvec, omega0, [edges], u_max, n, False)
    angle[:] = y0[0]
    rhs = bind(np.empty(n), np.empty(n, dtype=complex))
    step = dynamics._rk4_step((angle, bind), DT, n)[0]
    y = np.concatenate((y0[0], y0[1:].T.ravel()))
    out = np.empty_like(y)

    slots = dynamics._block_steps(y0.nbytes, n_steps)
    block = np.empty((slots, y.size))
    block[0] = y
    for j in range(1, slots):
        step(block[j - 1], block[j])
    theta_block, t = block[:, None, :n], np.arange(slots) * DT

    def observer():
        dynamics._sync_block(theta_block, t, np.full(1, np.nan), np.full(1, np.nan))

    run = dynamics._integrate(y0[:, None], kvec, np.array([[omega0]]), [edges], u_max, DT,
                              n_steps, STRIDE)
    traj, _ = dynamics._outcome(cfg, n_steps, run, 0)
    final = run[2][0]
    z = phase._expi(traj.theta)
    products = None if edges is None else phase._edge_products(z, *edges)

    def derive():  # traj's theta and positions are the views of run that _outcome passes
        output.TrajectoryRecord(
            times=traj.times, theta=traj.theta, positions=traj.positions, controls=traj.controls,
            saturated=traj.saturated, gains=kvec, omega0=omega0, edges=edges, z=z,
            edge_products=products)

    def geometry():
        heading_spread(final)
        analysis.rotated_frame(cfg.theta0)

    even = (np.arange(n) + 0.5) * (2.0 * np.pi / n) - np.pi
    gains = analysis.synthesize_gains(cfg.theta0, float(np.mean(cfg.theta0)))
    synthesized = config.dump_config(dataclasses.replace(cfg, gains=gains))

    return {
        "unit": unit_vectors(y0[0]),
        "kernel": phase._coupling([edges], n)(phase._expi(y0[0])),
        "rhs": rhs,
        "step": lambda: step(y, out),
        "observer": observer,
        "outcome": lambda: dynamics._outcome(cfg, n_steps, run, 0),
        "derive": derive,
        "csv": lambda: traj.to_csv(csv_path),
        "simulate": lambda: dynamics.simulate(cfg),
        "geometry": geometry,
        "geometry_even": lambda: analysis.rotated_frame(even),
        "json": lambda: output.json_text(synthesized),
    }, unit_ways(y0[0]), {"observer_block_steps": slots, "samples": traj.sample_count}


def unit_vectors(theta: np.ndarray):
    """The zero-argument writer of e^{i theta} that phase._unit_vectors
    binds for these headings, as the right-hand side uses it."""
    angle, bind = phase._unit_vectors(theta.shape, False)
    angle[:] = theta
    return bind(np.empty(theta.shape, dtype=complex))


def unit_ways(theta: np.ndarray) -> dict:
    """The unit layer bound each way _unit_vectors can take: one complex
    np.exp (the switch set above the size) and np.cos/np.sin (set to 0)."""
    switch, ways = phase.UNIT_COS_SIN_MIN, {}
    try:
        for way, at in (("exp", np.inf), ("cos_sin", 0)):
            phase.UNIT_COS_SIN_MIN = at
            ways[way] = unit_vectors(theta)
    finally:
        phase.UNIT_COS_SIN_MIN = switch
    return ways


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--topology", choices=("ring", "mean-field"), default="ring")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fns, ways, shape = layers(args.n, args.topology, args.seed, Path(tmp) / "trajectory.csv")
        timings = {name: per_call_us(fn, args.repeats) for name, fn in fns.items()}
        ways = {name: per_call_us(fn, args.repeats) for name, fn in ways.items()}
    print(json.dumps({
        "n": args.n, "topology": args.topology, "steps": STEPS, "stride": STRIDE,
        "dt": DT, "batch": 1, "repeats": args.repeats, "round_s": ROUND_S,
        "seed": args.seed, **shape, "layers_us": timings, "unit_ways_us": ways,
        "unit_cos_sin_min": phase.UNIT_COS_SIN_MIN,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "cores": os.cpu_count(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")},
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
