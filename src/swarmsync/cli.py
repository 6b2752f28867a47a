"""Command-line interface.

Subcommands: simulate, predict, reachable, synthesize, perturb, classify,
scenario. Analysis results go to stdout as JSON; simulate and scenario write
CSV/JSON files under the output directory (--out, else $SWARMSYNC_OUT, else
./out).

Exit codes: 0 success / synchronized, 2 finished without synchronizing (or a
scenario check failed), 1 error or bad arguments (an error JSON is printed).

Each subcommand is one entry of the table _COMMANDS, which _build_parser turns
into a subparser and main dispatches on. This paragraph is left out of --help.
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
from .dynamics import DivergenceError, simulate
from .output import json_text, write_run, write_synthesized
from .scenarios import SCENARIOS, run_scenario

DEFAULT_OUT = "out"


def _emit(obj) -> None:
    # flushed here, so a closed stdout raises inside main, not at exit
    print(json_text(obj), flush=True)


def _out_dir(arg: str | None) -> Path:
    path = Path(arg or os.environ.get("SWARMSYNC_OUT") or DEFAULT_OUT)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _direction(theta_c: float) -> dict:
    return {"theta_c": theta_c, "theta_c_deg": float(np.degrees(theta_c))}


def _simulate(cfg, args) -> tuple[dict, int]:
    traj, report = simulate(cfg)
    csv_path, json_path = write_run(_out_dir(args.out), traj, report)
    doc = {**report.to_dict(), "trajectory_csv": str(csv_path), "convergence_json": str(json_path)}
    return doc, 0 if report.synchronized else 2


def _synthesize(cfg, args) -> tuple[dict, int]:
    # one rotated frame serves both the synthesis and the prediction
    gains, frame = analysis._synthesis(cfg.theta0, np.deg2rad(args.target_deg), args.c)
    doc = {"gains": gains.gains.tolist(), **_direction(analysis._prediction(frame, gains))}
    cfg_path = write_synthesized(_out_dir(args.out),
                                 dump_config(dataclasses.replace(cfg, gains=gains)))
    return {**doc, "config": str(cfg_path)}, 0


def _scenario(_, args) -> tuple[dict, int]:
    code, summary = run_scenario(args.name, _out_dir(args.out), args.dt, args.t_max, args.seed)
    return summary, code


def _opt(*flags, **kw) -> tuple[tuple, dict]:
    return flags, kw


_COMMON = (
    _opt("--out", default=None, help="output directory"),
    _opt("--dt", type=float, default=None, help="override step size (s)"),
    _opt("--t-max", dest="t_max", type=float, default=None, help="override horizon (s)"),
    _opt("--seed", type=int, default=None, help="override RNG seed"),
)
_TARGET = _opt("--target-deg", dest="target_deg", type=float, required=True)
_ETA = _opt("--eta", type=float, required=True, help="max fractional gain error in [0, 1)")

# name: (help, options after the common ones, command(cfg, args) -> (document, exit code));
# scenario takes a name in place of --config and gets no config
_COMMANDS = {
    "simulate": ("integrate the closed loop, write CSV + JSON", (), _simulate),
    "predict": ("closed-form synchronized direction", (), lambda cfg, args: (
        _direction(analysis.predict_direction(cfg.theta0, cfg.gains)), 0)),
    "reachable": ("test whether a direction is reachable", (_TARGET,), lambda cfg, args: (
        analysis.is_reachable(cfg.theta0, np.deg2rad(args.target_deg)).to_dict(), 0)),
    "synthesize": ("construct gains for a target direction",
                   (_TARGET, _opt("--c", type=float, default=-1.0, help="negative scale constant")),
                   _synthesize),
    "perturb": ("gain-error deviation bounds", (_ETA,), lambda cfg, args: (
        analysis.perturbation_bounds(cfg.theta0, args.eta).to_dict(), 0)),
    "classify": ("classify the config headings as a critical point", (), lambda cfg, args: (
        analysis.classify_critical_point(cfg.theta0).to_dict(), 0)),
    "scenario": ("run a built-in scenario", (), _scenario),
}


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
    parser = _Parser(prog="swarmsync", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, extras, _) in _COMMANDS.items():
        first = (_opt("name", choices=sorted(SCENARIOS)) if name == "scenario" else
                 _opt("--config", required=True, help="path to a JSON config"))
        p = sub.add_parser(name, help=help_)
        for flags, kw in (first, *_COMMON, *extras):
            p.add_argument(*flags, **kw)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = None if args.command == "scenario" else with_overrides(
            load_config(args.config), args.dt, args.t_max, args.seed)
        doc, code = _COMMANDS[args.command][2](cfg, args)
        _emit(doc)
        return code
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
