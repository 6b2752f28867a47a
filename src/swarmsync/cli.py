"""Command-line interface.

Subcommands: simulate, predict, reachable, synthesize, perturb, classify,
scenario. Analysis results go to stdout as JSON; simulate and scenario write
CSV/JSON files under the output directory (--out, else $SWARMSYNC_OUT, else
./out).

Exit codes: 0 success / synchronized, 2 finished without synchronizing (or a
scenario check failed), 1 error or bad arguments (an error JSON is printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import ConfigError, dump_config, load_config, with_overrides
from .dynamics import DivergenceError, SimulationConfig, _json_text, simulate, write_run
from .scenarios import SCENARIOS, run_scenario

DEFAULT_OUT = "out"


def _emit(obj) -> None:
    # flushed here, so a closed stdout raises inside main, not at exit
    print(_json_text(obj), flush=True)


def _out_dir(arg: str | None) -> Path:
    path = Path(arg or os.environ.get("SWARMSYNC_OUT") or DEFAULT_OUT)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> SimulationConfig:
    return with_overrides(load_config(args.config), args.dt, args.t_max, args.seed)


def run_simulate(args) -> int:
    traj, report = simulate(_load(args))
    csv_path, json_path = write_run(_out_dir(args.out), traj, report)
    _emit({**report.to_dict(), "trajectory_csv": str(csv_path), "convergence_json": str(json_path)})
    return 0 if report.synchronized else 2


def run_predict(args) -> int:
    cfg = _load(args)
    theta_c = analysis.predict_direction(cfg.theta0, cfg.gains)
    _emit({"theta_c": theta_c, "theta_c_deg": float(np.degrees(theta_c))})
    return 0


def run_reachable(args) -> int:
    cfg = _load(args)
    report = analysis.is_reachable(cfg.theta0, np.deg2rad(args.target_deg))
    _emit(report.to_dict())
    return 0


def run_synthesize(args) -> int:
    cfg = _load(args)
    # one rotated frame serves both the synthesis and the prediction
    gains, frame = analysis._synthesis(cfg.theta0, np.deg2rad(args.target_deg), args.c)
    theta_c = analysis._prediction(frame, gains)
    out = _out_dir(args.out)
    synth_cfg = dataclasses.replace(cfg, gains=gains)
    cfg_path = out / "config_synthesized.json"
    cfg_path.write_text(_json_text(dump_config(synth_cfg)))
    _emit(
        {
            "gains": gains.gains.tolist(),
            "theta_c": theta_c,
            "theta_c_deg": float(np.degrees(theta_c)),
            "config": str(cfg_path),
        }
    )
    return 0


def run_perturb(args) -> int:
    cfg = _load(args)
    bounds = analysis.perturbation_bounds(cfg.theta0, args.eta)
    _emit(bounds.to_dict())
    return 0


def run_classify(args) -> int:
    cfg = _load(args)
    result = analysis.classify_critical_point(cfg.theta0)
    _emit(result.to_dict())
    return 0


def run_scenario_cmd(args) -> int:
    code, summary = run_scenario(
        args.name, _out_dir(args.out), dt=args.dt, t_max=args.t_max, seed=args.seed
    )
    _emit(summary)
    return code


class UsageError(ValueError):
    """A command line the parser rejects."""


# every negative number float() reads: argparse's own test takes only the
# -1 and -1.5 forms, so it read `--c -1e-3` or `--c -inf` as an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # subparsers are built with this class too
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and reused: parsing
    leaves no state in it. Not built at import, which would lengthen every
    import of the package."""
    parser = _Parser(prog="swarmsync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--dt", type=float, default=None, help="override step size (s)")
        p.add_argument("--t-max", dest="t_max", type=float, default=None, help="override horizon (s)")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")

    p = sub.add_parser("simulate", help="integrate the closed loop, write CSV + JSON")
    add_common(p)
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("predict", help="closed-form synchronized direction")
    add_common(p)
    p.set_defaults(func=run_predict)

    p = sub.add_parser("reachable", help="test whether a direction is reachable")
    add_common(p)
    p.add_argument("--target-deg", dest="target_deg", type=float, required=True)
    p.set_defaults(func=run_reachable)

    p = sub.add_parser("synthesize", help="construct gains for a target direction")
    add_common(p)
    p.add_argument("--target-deg", dest="target_deg", type=float, required=True)
    p.add_argument("--c", type=float, default=-1.0, help="negative scale constant")
    p.set_defaults(func=run_synthesize)

    p = sub.add_parser("perturb", help="gain-error deviation bounds")
    add_common(p)
    p.add_argument("--eta", type=float, required=True, help="max fractional gain error in [0, 1)")
    p.set_defaults(func=run_perturb)

    p = sub.add_parser("classify", help="classify the config headings as a critical point")
    add_common(p)
    p.set_defaults(func=run_classify)

    p = sub.add_parser("scenario", help="run a built-in scenario")
    p.add_argument("name", choices=sorted(SCENARIOS))
    add_common(p, config=False)
    p.set_defaults(func=run_scenario_cmd)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout, so no error JSON can reach it; stdout goes
        # to devnull, or the flush at interpreter exit would raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ConfigError, ValueError, DivergenceError, OSError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
