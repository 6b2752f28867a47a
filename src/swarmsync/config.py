"""JSON configuration ingestion.

Configs carry angles in degrees (the conventional reporting unit); everything
internal is radians. The degree-to-radian conversion happens exactly once,
here.

A config is a single JSON object whose fields are the keys of ``_FIELDS``
(the README's "Config schema" table describes each). Which fields are
required, and the default of each other field, are ``SimulationConfig``'s; a
field whose default is None may also be null, which means that default.

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


def _field_error(name: str, reason) -> ConfigError:
    return ConfigError(f"field '{name}': {reason}")


def _read(name: str, read, value, n):
    """read(value, n), with any ValueError it raises naming the field."""
    try:
        return read(value, n)
    except ConfigError:  # already names a field within this one
        raise
    except ValueError as exc:
        raise _field_error(name, exc) from exc


def _integer(value, n=None) -> int:
    """An integral config entry: 2.0 is read as 2, while 2.9 and true are
    errors, not 2 and 1."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _number(value, n=None) -> float:
    """A JSON number; true/false, strings, null, lists and objects are errors,
    not coerced (true is not 1.0)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ValueError(f"expected a number, got {value!r}")


def _numbers(value, shape: tuple[int, ...]) -> np.ndarray:
    """A JSON list of numbers of a 1-D shape, or of rows of numbers of a 2-D
    shape, as a float array; entries are held to _number's rule."""
    ok = isinstance(value, list) and len(value) == shape[0]
    flat = value
    if ok and len(shape) == 2:
        ok = all(isinstance(row, list) and len(row) == shape[1] for row in value)
        flat = [v for row in value for v in row] if ok else None
    if not ok:
        raise ValueError(f"expected {shape[0]} values" if len(shape) == 1
                         else f"expected shape {shape}")
    for kind in set(map(type, flat)):  # one check per distinct type, fast at large n
        if not issubclass(kind, (int, float)) or issubclass(kind, bool):
            bad = next(v for v in flat if type(v) is kind)
            raise ValueError(f"expected numbers, got {bad!r}")
    try:
        return np.array(flat, dtype=float).reshape(shape)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ValueError(exc) from exc


def _boolean(value, n=None) -> bool:
    """A JSON true/false entry; a string such as "false" is an error, not True."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")


def _gains(value, n: int) -> GainVector:
    """n gains, or the name of a built-in gain set."""
    return GainVector(named_gain_set(value, n) if isinstance(value, str)
                      else _numbers(value, (n,)))


def _topology(value, n: int) -> InteractionGraph | None:
    """None means the mean-field all-to-all law."""
    if value == "complete":
        return None
    if value == "ring":
        return ring_graph(n)
    if isinstance(value, dict) and set(value) == {"edges"}:
        return _read("topology.edges", _edges, value["edges"], n)
    raise ValueError("expected 'complete', 'ring', or {'edges': [[j, k], ...]}")


def _edges(value, n: int) -> InteractionGraph:
    pair = (list, tuple)
    if not (isinstance(value, pair) and all(isinstance(e, pair) and len(e) == 2 for e in value)):
        raise ValueError("expected a list of [j, k] pairs")
    # each node index held to _integer's rule: 1.5, true and "0" are errors, 2.0 is 2
    return InteractionGraph(n, tuple(tuple(_integer(v) for v in e) for e in value))


def _as_is(value):
    return value


# The config schema: each JSON field's SimulationConfig attribute, its reader
# (value, n) with n the agent count read before it, and its dump_config
# writer. Fields are read in this order, so a config with several bad fields
# reports the first of them.
_FIELDS = {
    "n": ("n", _integer, _as_is),
    "theta0_deg": ("theta0", lambda value, n: np.deg2rad(_numbers(value, (n,))),
                   lambda theta0: np.degrees(theta0).tolist()),
    "positions0": ("positions0", lambda value, n: _numbers(value, (n, 2)), np.ndarray.tolist),
    "gains": ("gains", _gains, lambda gains: gains.gains.tolist()),
    "topology": ("topology", _topology, lambda graph: "complete" if graph is None
                 else {"edges": [list(e) for e in graph.edges]}),
    "omega0": ("omega0", _number, _as_is),
    "dt": ("dt", _number, _as_is),
    "t_max": ("t_max", _number, _as_is),
    "u_max": ("u_max", _number, _as_is),
    "saturate": ("saturate", _boolean, _as_is),
    "record_stride": ("record_stride", _integer, _as_is),
    "seed": ("seed", _integer, _as_is),
    "jitter": ("jitter", _boolean, _as_is),
}


def parse_config(doc: dict) -> SimulationConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = doc.keys() - _FIELDS.keys()
    if unknown:
        raise ConfigError(f"unknown field(s): {sorted(unknown)}")
    default = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}
    for name, (attr, _, _) in _FIELDS.items():
        if name not in doc and default[attr] is dataclasses.MISSING:
            raise _field_error(name, "missing")
    values = {}
    for name, (attr, read, _) in _FIELDS.items():
        if name in doc and (doc[name] is not None or default[attr] is not None):
            values[attr] = _read(name, read, doc[name], values.get("n"))
    try:
        return SimulationConfig(**values)
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
    """cfg with each dt/t_max/seed override that is set, the run options of
    simulate and synthesize (scenario has no seed); a replaced config is validated again."""
    overrides = {
        name: value
        for name, value in (("dt", dt), ("t_max", t_max), ("seed", seed))
        if value is not None
    }
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def dump_config(cfg: SimulationConfig) -> dict:
    """Normalized plain-JSON form of a config, one entry per field.

    Headings go from radians to degrees, so parse(dump(cfg)) has cfg's
    headings to within 1 ulp and its other fields exactly. One such pass
    fixes the form: dump(parse(dump(c))) == dump(c) for every config c that
    parse_config returns. (SimulationConfig compares by identity, so
    parse(dump(cfg)) == cfg is false.)"""
    return {name: write(getattr(cfg, attr)) for name, (attr, _, write) in _FIELDS.items()}
