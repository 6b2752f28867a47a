"""Time the simulator's layers one at a time and print one JSON object.

    python3 tools/time_layers.py --n 1000 --topology ring --repeats 9

Each layer is timed on its own, on one run of n agents shaped like the
benchmark's ring-large-n workload: headings spread over about 1 rad, far
from sync; negative gains; DT = 0.01 s; STEPS = 50 steps, every STRIDE = 5th
recorded.

  rhs        one right-hand-side evaluation of _make_rhs
  step       one RK4 step of _rk4_step
  observer   one _sync_block call over a block of as many steps as
             _integrate puts in one (OBSERVER_BLOCK_BYTES)
  outcome    _outcome: the recorded controls and the record's derived columns
  csv        TrajectoryRecord.to_csv of that record
  geometry   angles.heading_spread plus analysis.rotated_frame of the headings

A repeat calls a layer until ROUND_S seconds have passed; the output gives
each layer's median and quartiles over the repeats in microseconds a call,
with the interpreter, numpy and core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from swarmsync import analysis, dynamics  # noqa: E402
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
    """The zero-argument callable of each layer, and the shapes they run on."""
    rng = np.random.default_rng(seed)
    cfg = dynamics.SimulationConfig(
        n=n, theta0=rng.uniform(0.0, 1.0, n), gains=GainVector(-rng.uniform(0.5, 2.0, n)),
        topology=ring_graph(n) if topology == "ring" else None,
        dt=DT, t_max=(STEPS + 0.5) * DT, record_stride=STRIDE)
    kvec, omega0, edges, u_max = dynamics._law(cfg)
    n_steps, _ = dynamics._step_counts(cfg)
    y0 = dynamics._start(cfg)

    bind = dynamics._make_rhs(kvec, omega0, [edges], u_max, n)
    rhs = bind(np.empty(n), np.empty(n, dtype=complex))
    exponent = 1j * y0[0]
    step = dynamics._rk4_step(bind, DT, n)[0]
    y = np.concatenate((y0[0], y0[1:].T.ravel()))
    out = np.empty_like(y)

    slots = max(2, min(dynamics.OBSERVER_BLOCK_BYTES // y0.nbytes, n_steps + 1))
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

    def geometry():
        heading_spread(final)
        analysis.rotated_frame(cfg.theta0)

    return {
        "rhs": lambda: rhs(exponent),
        "step": lambda: step(y, out),
        "observer": observer,
        "outcome": lambda: dynamics._outcome(cfg, n_steps, run, 0),
        "csv": lambda: traj.to_csv(csv_path),
        "geometry": geometry,
    }, {"observer_block_steps": slots, "samples": traj.sample_count}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--topology", choices=("ring", "mean-field"), default="ring")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fns, shape = layers(args.n, args.topology, args.seed, Path(tmp) / "trajectory.csv")
        timings = {name: per_call_us(fn, args.repeats) for name, fn in fns.items()}
    print(json.dumps({
        "n": args.n, "topology": args.topology, "steps": STEPS, "stride": STRIDE,
        "dt": DT, "batch": 1, "repeats": args.repeats, "round_s": ROUND_S,
        "seed": args.seed, **shape, "layers_us": timings,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "cores": os.cpu_count(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")},
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
