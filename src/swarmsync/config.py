"""JSON configuration ingestion.

Configs carry angles in degrees (the conventional reporting unit); everything
internal is radians. The degree-to-radian conversion happens exactly once,
here.

Schema (single JSON object):

    n              int, >= 2                              required
    theta0_deg     list of n initial headings, degrees    required
    gains          list of n reals, or "set1".."set4"     required
    positions0     list of n [x, y] pairs                 default zeros
    omega0         rad/s                                  default 0.0
    topology       "complete" | "ring" | {"edges": [[j, k], ...]}   default "complete"
    dt             step, s                                default 0.01
    t_max          horizon, s                             default 100.0
    u_max          actuation limit, rad/s                 optional
    saturate       clip commands at u_max                 default false
    record_stride  steps per recorded sample              default 1
    seed           RNG seed (jitter)                      optional
    jitter         add +-1e-6 rad noise to theta0         default false

"complete" selects the mean-field law (1/N-normalized); "ring" and explicit
edge lists select the neighbor law.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .control import GainVector, named_gain_set
from .dynamics import SimulationConfig
from .topology import InteractionGraph, ring_graph


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


_DEFAULTS = {
    "positions0": None,
    "omega0": 0.0,
    "topology": "complete",
    "dt": 0.01,
    "t_max": 100.0,
    "u_max": None,
    "saturate": False,
    "record_stride": 1,
    "seed": None,
    "jitter": False,
}
_REQUIRED = ("n", "theta0_deg", "gains")


def resolve_gains(value, n: int) -> np.ndarray:
    """Turn a config gains entry (array or named set) into a gain array."""
    if isinstance(value, str):
        try:
            return named_gain_set(value, n)
        except ValueError as exc:
            raise ConfigError(f"field 'gains': {exc}") from exc
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1 or arr.size != n:
        raise ConfigError(f"field 'gains': expected {n} values, got shape {arr.shape}")
    return arr


def resolve_topology(value, n: int) -> InteractionGraph | None:
    """None means the mean-field all-to-all law."""
    if value == "complete" or value is None:
        return None
    if value == "ring":
        try:
            return ring_graph(n)
        except ValueError as exc:
            raise ConfigError(f"field 'topology': {exc}") from exc
    if isinstance(value, dict) and set(value) == {"edges"}:
        try:
            return InteractionGraph(n, tuple(tuple(e) for e in value["edges"]))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"field 'topology.edges': {exc}") from exc
    raise ConfigError(
        "field 'topology': expected 'complete', 'ring', or {'edges': [[j, k], ...]}"
    )


def _integer(name: str, value) -> int:
    """An integral config entry: 2.0 is read as 2, while 2.9 is an error, not 2."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int):
        return value
    raise ConfigError(f"field '{name}': expected an integer, got {value!r}")


def _boolean(name: str, value) -> bool:
    """A JSON true/false entry; a string such as "false" is an error, not True."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"field '{name}': expected true or false, got {value!r}")


def parse_config(doc: dict) -> SimulationConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - set(_REQUIRED) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown field(s): {sorted(unknown)}")
    for name in _REQUIRED:
        if name not in doc:
            raise ConfigError(f"field '{name}': missing")
    n = _integer("n", doc["n"])
    theta0_deg = np.asarray(doc["theta0_deg"], dtype=float)
    if theta0_deg.ndim != 1 or theta0_deg.size != n:
        raise ConfigError(f"field 'theta0_deg': expected {n} values")
    merged = {**_DEFAULTS, **doc}
    positions0 = merged["positions0"]
    if positions0 is not None:
        positions0 = np.asarray(positions0, dtype=float)
        if positions0.shape != (n, 2):
            raise ConfigError(f"field 'positions0': expected shape ({n}, 2)")
    try:
        gains = GainVector(resolve_gains(merged["gains"], n))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"field 'gains': {exc}") from exc
    topology = resolve_topology(merged["topology"], n)
    try:
        return SimulationConfig(
            n=n,
            theta0=np.deg2rad(theta0_deg),
            gains=gains,
            positions0=positions0,
            omega0=float(merged["omega0"]),
            topology=topology,
            dt=float(merged["dt"]),
            t_max=float(merged["t_max"]),
            u_max=None if merged["u_max"] is None else float(merged["u_max"]),
            saturate=_boolean("saturate", merged["saturate"]),
            record_stride=_integer("record_stride", merged["record_stride"]),
            seed=None if merged["seed"] is None else _integer("seed", merged["seed"]),
            jitter=_boolean("jitter", merged["jitter"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> SimulationConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc)


def with_overrides(cfg: SimulationConfig, dt: float | None, t_max: float | None,
                   seed: int | None) -> SimulationConfig:
    """cfg with each of the --dt/--t-max/--seed overrides that is set; the
    replaced config is validated again."""
    overrides = {
        name: value
        for name, value in (("dt", dt), ("t_max", t_max), ("seed", seed))
        if value is not None
    }
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def dump_config(cfg: SimulationConfig) -> dict:
    """Normalized plain-JSON form of a config; parse(dump(cfg)) == cfg."""
    if cfg.topology is None:
        topology = "complete"
    else:
        topology = {"edges": [list(e) for e in cfg.topology.edges]}
    return {
        "n": cfg.n,
        "theta0_deg": [float(v) for v in np.degrees(cfg.theta0)],
        "gains": [float(v) for v in cfg.gains.gains],
        "positions0": [[float(x), float(y)] for x, y in cfg.positions0],
        "omega0": cfg.omega0,
        "topology": topology,
        "dt": cfg.dt,
        "t_max": cfg.t_max,
        "u_max": cfg.u_max,
        "saturate": cfg.saturate,
        "record_stride": cfg.record_stride,
        "seed": cfg.seed,
        "jitter": cfg.jitter,
    }
