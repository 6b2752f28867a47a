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
    return _numbers("gains", value, (n,))


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
        edges, pair = value["edges"], (list, tuple)
        if not (isinstance(edges, pair)
                and all(isinstance(e, pair) and len(e) == 2 for e in edges)):
            raise ConfigError("field 'topology.edges': expected a list of [j, k] pairs")
        # each node index held to _integer's rule: 1.5, true and "0" are errors, 2.0 is 2
        edges = tuple(tuple(_integer("topology.edges", v) for v in e) for e in edges)
        try:
            return InteractionGraph(n, edges)
        except ValueError as exc:
            raise ConfigError(f"field 'topology.edges': {exc}") from exc
    raise ConfigError(
        "field 'topology': expected 'complete', 'ring', or {'edges': [[j, k], ...]}"
    )


def _integer(name: str, value) -> int:
    """An integral config entry: 2.0 is read as 2, while 2.9 and true are
    errors, not 2 and 1."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"field '{name}': expected an integer, got {value!r}")


def _number(name: str, value) -> float:
    """A JSON number; true/false, strings, null, lists and objects are errors,
    not coerced (true is not 1.0)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ConfigError(f"field '{name}': expected a number, got {value!r}")


def _numbers(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """A JSON list of numbers of a 1-D shape, or of rows of numbers of a 2-D
    shape, as a float array; entries are held to _number's rule."""
    ok = isinstance(value, list) and len(value) == shape[0]
    flat = value
    if ok and len(shape) == 2:
        ok = all(isinstance(row, list) and len(row) == shape[1] for row in value)
        flat = [v for row in value for v in row] if ok else None
    if not ok:
        expected = f"{shape[0]} values" if len(shape) == 1 else f"shape {shape}"
        raise ConfigError(f"field '{name}': expected {expected}")
    for kind in set(map(type, flat)):  # one check per distinct type, fast at large n
        if not issubclass(kind, (int, float)) or issubclass(kind, bool):
            bad = next(v for v in flat if type(v) is kind)
            raise ConfigError(f"field '{name}': expected numbers, got {bad!r}")
    try:
        return np.array(flat, dtype=float).reshape(shape)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ConfigError(f"field '{name}': {exc}") from exc


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
    theta0_deg = _numbers("theta0_deg", doc["theta0_deg"], (n,))
    merged = {**_DEFAULTS, **doc}
    positions0 = merged["positions0"]
    if positions0 is not None:
        positions0 = _numbers("positions0", positions0, (n, 2))
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
            omega0=_number("omega0", merged["omega0"]),
            topology=topology,
            dt=_number("dt", merged["dt"]),
            t_max=_number("t_max", merged["t_max"]),
            u_max=None if merged["u_max"] is None else _number("u_max", merged["u_max"]),
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
        "theta0_deg": np.degrees(cfg.theta0).tolist(),
        "gains": cfg.gains.gains.tolist(),
        "positions0": cfg.positions0.tolist(),
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
