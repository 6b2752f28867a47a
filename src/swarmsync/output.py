"""What a run writes: TrajectoryRecord (the samples, their derived columns
and the CSV), ConvergenceReport, and every file the package writes, each
named here: trajectory.csv and convergence.json (write_run), a scenario's
summary.json (write_scenario) and config_synthesized.json
(write_synthesized). json_text formats every JSON text written or printed.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field
from itertools import chain, filterfalse
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .phase import ZERO_MAGNITUDE_TOL, _expi, _potential

CSV_FLOAT_FMT = "%.17g"


@dataclass(eq=False)
class TrajectoryRecord:
    """Sampled time series of one run (sample s, agent k indexing). The order
    parameter, potentials and conserved sum are derived from theta on
    construction; mean-field runs (edges None) report N*U as graph_potential.
    ``edges`` are the graph's directed edge arrays from topology.edge_arrays.
    A caller that has already computed z = e^{i theta} (phase._expi) and,
    for a graph, phase._edge_products(z, *edges) passes them so that they
    are not computed again; they are not stored, so replace() derives them
    anew."""

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
            z = _expi(self.theta)
        p = z.mean(axis=1)
        self.p_mag = np.abs(p)
        self.p_psi = np.where(self.p_mag > ZERO_MAGNITUDE_TOL, np.angle(p), np.nan)
        self.potential = _potential(z, None)
        self.graph_potential = (
            self.n * self.potential if self.edges is None
            else _potential(z, self.edges, edge_products)
        )
        with np.errstate(over="ignore", invalid="ignore"):  # +-inf or nan where 1/K overflows
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


def write_run(run_dir, traj: TrajectoryRecord,
              report: ConvergenceReport) -> tuple[Path, Path]:
    """Write a run's trajectory.csv and convergence.json into run_dir (made
    if missing); returns the two paths."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    csv_path = run_dir / "trajectory.csv"
    json_path = run_dir / "convergence.json"
    traj.to_csv(csv_path)
    write_json(json_path, report.to_dict())
    return csv_path, json_path


def write_scenario(out_dir, name: str, records: dict, summary: dict) -> None:
    """Write each run, {run name: (record, report)}, with write_run into
    out_dir/name/<run name>, then summary into out_dir/name/summary.json."""
    for run_name, (traj, report) in records.items():
        write_run(Path(out_dir) / name / run_name, traj, report)
    write_json(Path(out_dir) / name / "summary.json", summary)


def write_synthesized(out_dir, config_doc: dict) -> Path:
    """Write config_doc as out_dir/config_synthesized.json; returns its path."""
    return write_json(Path(out_dir) / "config_synthesized.json", config_doc)


def write_json(path: Path, doc) -> Path:
    """Write doc as json_text to path; returns the path."""
    path.write_text(json_text(doc))
    return path


def json_text(obj) -> str:
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
