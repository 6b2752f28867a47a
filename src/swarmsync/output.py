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
        where undefined. The rows are formatted in blocks by _csv_block.
        """
        agents = range(1, self.n + 1)
        header = (
            ["t"]
            + [f"{col}_{k}" for col in ("theta", "x", "y", "u") for k in agents]
            + ["p_mag", "p_psi", "U", "WL", "conserved"]
        )
        columns = (
            self.times, self.theta, self.positions[:, :, 0], self.positions[:, :, 1],
            self.controls, self.p_mag, self.p_psi, self.potential,
            self.graph_potential, self.conserved,
        )
        rows = max(1, _CSV_BLOCK // len(header))
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            for lo in range(0, self.sample_count, rows):
                fh.write(_csv_block(np.column_stack([col[lo:lo + rows] for col in columns])))


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
    bulk, where json's indented encoder steps a generator per element, and
    each distinct float or float row of a long list is formatted once
    (_each_once). There is no cycle check: the package builds no cyclic
    document."""
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
            body = sep.join(_each_once(float.__repr__, _finite(o), o))
        elif kinds <= {list, tuple} and (rows := _row_texts(o, inner)) is not None:
            body = sep.join(rows)
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


def _row_texts(rows, nl: str):
    """The JSON of each of rows, when they share a nonzero length and their
    entries are all floats or all ints (exact types, whose %r and %d are
    json's float.__repr__ and int.__repr__), formatted by one %-template,
    each distinct float row once; else None."""
    cells = list(chain.from_iterable(rows))
    kinds = set(map(type, cells))
    if len(set(map(len, rows))) != 1 or kinds not in ({float}, {int}):
        return None
    inner = nl + "  "
    fields = f",{inner}".join(["%r" if float in kinds else "%d"] * len(rows[0]))
    row = f"[{inner}{fields}{nl}]".__mod__
    rows = list(map(tuple, rows))
    return map(row, rows) if kinds == {int} else _each_once(row, rows, _finite(cells))


# From this many values on, _each_once sorts a list's values to format each
# distinct one once; below it, formatting every value costs less than the
# sort. The 2-element intervals of a reachability report stay below it.
_DISTINCT_MIN = 64


def _each_once(fmt, values, cells):
    """fmt(v) for each of values, fmt called once per distinct value. cells
    are the floats of values in order (a float is its own cell, a row its
    entries), and two values are the same where their cells have the same
    bit patterns: -0.0 and 0.0, equal as floats, differ, as their repr do.
    Below _DISTINCT_MIN values, or where no two are the same, fmt is called
    on each."""
    m = len(values)
    if m < _DISTINCT_MIN:
        return map(fmt, values)
    bits = np.array(cells, dtype=np.float64).view(np.int64).reshape(m, -1)
    rank, first = _ranks(bits[:, 0])
    for column in bits.T[1:]:  # rows ranked by their columns so far: both ranks are below m
        rank, first = _ranks(rank * m + _ranks(column)[0])
    if first.size == m:
        return map(fmt, values)
    texts = np.array([fmt(values[i]) for i in first.tolist()], dtype=object)
    return texts[rank].tolist()


def _ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rank of each of the int64 keys among the distinct keys, and for
    each rank the index of one key of it."""
    order = keys.argsort()
    ordered = keys[order]
    new = np.empty(keys.size, bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.empty(keys.size, np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, order[new]


def _finite(values):
    """values, once each is a finite number; else json's ValueError."""
    for bad in filterfalse(math.isfinite, values):
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return values


# Values _csv_block formats at once: to_csv's memory stays bounded, and
# smaller blocks pay numpy's fixed cost a call on too few values
# (BENCH_csv_writer.json).
_CSV_BLOCK = 4096

# _csv_block's digits. For a finite nonzero x, y = |x| 10^s lies in
# [1e16, 1e17) and rint(y) is the 17 digits %.17g writes. 64y is one long
# double product of |x| and a correctly rounded 64e^s, within 64 times half
# an ulp of y (2^-8 at a 64-bit significand) plus the rounding of 10^s
# (1e17 * 2^-64): 0.0094 in all, below 1/64, so floor(64y) rounds y exactly
# unless y lies within 1/64 of a tie. Where long double cannot give that
# bound (or reach 64e342, about 2^1142), every value takes the template.
_LD = np.finfo(np.longdouble)
_LONG_DIGITS = bool(_LD.maxexp > 1150
                    and 2.0 ** (55 - _LD.nmant) + 1e17 * 2.0 ** (-1 - _LD.nmant) < 1 / 64)
_S_MIN, _S_MAX = -294, 342  # s of every double, past one correction and a carry
_E_MIN = 16 - _S_MAX  # the lowest decimal exponent E = 16 - s of a first digit
_Y_LO, _Y_HI = 64 * 10**16, 64 * 10**17  # 64y at the ends of [1e16, 1e17)
_POW64 = (np.array([f"64e{s}" for s in range(_S_MIN, _S_MAX + 1)]).astype(np.longdouble)
          if _LONG_DIGITS else None)
# The byte rows _text lays a value out on, in the order they are written.
_SIGN, _PREFIX, _HEAD, _MANTISSA = 0, slice(1, 6), 6, slice(7, 24)
_EXPONENT, _SEP = slice(24, 29), 29  # a value's text takes the rows before _SEP
_WIDTH = _SEP + 2  # and ',' or CR, then NUL or LF
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]  # the mantissa rows' places 1-17
# the text of 0, -0, nan, inf and -inf, in the order _csv_block codes them
_SPECIAL = np.array([b"0", b"-0", b"nan", b"inf", b"-inf"], f"S{_SEP}")
_SPECIAL = _SPECIAL.view(np.uint8).reshape(5, -1)


def _affixes():
    """Per decimal exponent E from _E_MIN: the bytes of %g's 0.000 prefix and
    of its e+XX exponent (hundreds NUL below 100), the count of digits before
    the point, and the place among digits 1-17 where the point goes (17:
    none there)."""
    e = np.arange(_E_MIN, 16 - _S_MIN + 1)
    fixed, below = (-4 <= e) & (e < 17), (-4 <= e) & (e < 0)
    mag = np.abs(e)
    exponent = [np.full(e.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                np.where(mag < 100, 0, 48 + mag // 100), 48 + mag // 10 % 10, 48 + mag % 10]
    affix = np.vstack((below * ord("0"), below * ord("."),
                       (below & (np.arange(1, 4)[:, None] <= -1 - e)) * ord("0"),
                       np.where(fixed, 0, exponent))).astype(np.uint8)
    whole = np.where(fixed, np.maximum(e + 1, 0), 1)
    return affix, whole.astype(np.uint8), np.where(below, 17, whole).astype(np.uint8)


def _groups():
    """The 4 ASCII digits of each of 0..9999 in the bytes of one uint32; and
    for group k of 4 among digits 1-16 (row k), the place after the group's
    last nonzero digit, counted from digit 0 of the 17 (0 where all 4 are
    zero)."""
    digits = np.arange(10000, dtype=np.int16) // np.array([[1000], [100], [10], [1]], np.int16) % 10
    ascii4 = np.ascontiguousarray(48 + digits.T, dtype=np.uint8).view(np.uint32).ravel()
    last = ((digits != 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
    last = np.where(last > 0, last + np.array([[1], [5], [9], [13]], np.uint8), 0)
    return ascii4, last.astype(np.uint8)


_AFFIX, _WHOLE, _POINT = _affixes()
_DIGITS4, _LAST4 = _groups()
_GROUP_ROWS = 10000 * np.arange(4)[:, None]  # where row k of _LAST4 starts, flattened


def _csv_block(table: np.ndarray) -> bytes:
    """The CSV bytes of table's rows: each value as CSV_FLOAT_FMT writes it,
    ',' between values and CRLF after each row.

    The digits of the finite nonzero values come from _digits and their text
    from _text, column-major; its rows are transposed once into one row of
    _WIDTH bytes a value and the NULs dropped. Zeros, nan and +-inf are
    written from _SPECIAL, and values whose digits are not exact take
    CSV_FLOAT_FMT itself, as every value does where _LONG_DIGITS is false.
    """
    if not _LONG_DIGITS:
        row = ",".join([CSV_FLOAT_FMT] * table.shape[1]) + "\r\n"
        return "".join([row % tuple(cells) for cells in table.tolist()]).encode()
    x = np.asarray(table, dtype=np.float64).ravel()
    finite = np.isfinite(x)
    finite &= x != 0
    s, q, exact = _digits(np.where(finite, np.abs(x), 2.0))  # 2: any value with exact digits
    fallback = np.flatnonzero(~exact)
    q[fallback] = _Y_LO + 32  # the digits of 1e16 until the template's text replaces them
    values = np.ascontiguousarray(_text(x, s, q, table.shape[1]).T)
    special = np.flatnonzero(~finite)
    if special.size:
        v = x[special]
        values[special, :_SEP] = _SPECIAL[np.where(np.isnan(v), 2, (v != 0) * 3 + np.signbit(v))]
    if fallback.size:
        v = x[fallback].tolist()
        texts = (",".join([CSV_FLOAT_FMT] * len(v)) % tuple(v)).encode().split(b",")
        values[fallback, :_SEP] = np.array(texts, f"S{_SEP}").view(np.uint8).reshape(-1, _SEP)
    return values.tobytes().translate(None, b"\0")


def _scaled(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """floor(64 a 10^s) for positive doubles a, as one long double product."""
    return (a.astype(np.longdouble) * _POW64[s - _S_MIN]).astype(np.int64)


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, q, exact) for positive finite doubles a: q = floor(64y) of
    y = a 10^s in [1e16, 1e17), and whether (q + 31) // 64 is rint(y), the
    17 digits of a. It is not where y lies within 1/64 of a tie (q % 64 in
    {31, 32}) or outside [1e16, 1e17) after one correction of s. Where y
    rounds up to 1e17, q and s are those of 1e16 at s - 1. A y just above
    1e16 whose exact value lies below it gets the right digits: at s + 1,
    10y would round up to 1e17."""
    s = 16 - np.floor(np.log10(a)).astype(np.int64)  # off by one near a power of 10
    q = _scaled(a, s)
    exact = ((q + 33) & 63) >= 2
    odd = np.flatnonzero((q < _Y_LO) | (q >= _Y_HI - 31))  # s missed, or y rounds up to 1e17
    if odd.size:
        s_odd = s[odd] + (q[odd] < _Y_LO) - (q[odd] >= _Y_HI)
        q_odd = _scaled(a[odd], s_odd)
        exact[odd] = (q_odd >= _Y_LO) & (q_odd < _Y_HI) & (((q_odd + 33) & 63) >= 2)
        carry = q_odd >= _Y_HI - 31
        q[odd] = np.where(carry, _Y_LO + 32, q_odd)
        s[odd] = s_odd - carry
    return s, q, exact


def _text(x: np.ndarray, s: np.ndarray, q: np.ndarray, width: int) -> np.ndarray:
    """The text of the values x, in rows of width values, as _WIDTH rows of
    x.size bytes: one row per byte position (_SIGN .. _SEP + 1), one column
    per value, NUL where a value has no byte. s and q = floor(64y) are
    _digits'.

    It follows %g's rules for the 17 significant digits d0..d16 = rint(y)
    and the decimal exponent E = 16 - s of d0: fixed notation for
    -4 <= E < 17, after the prefix 0.000 below 1; else d0.d1..d16 and e+XX.
    Trailing zeros after the point are dropped, and a bare point.
    """
    n = x.size
    d = (q + 31) >> 6
    top = d // 10**8
    low = (d - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    d0 = top // 10**8
    groups = np.empty((4, n), np.int32)  # digits 1-4, 5-8, 9-12 and 13-16
    np.divmod(top - d0 * 10**8, 10**4, out=(groups[0], groups[1]))
    np.divmod(low, 10**4, out=(groups[2], groups[3]))

    e = 16 - _E_MIN - s  # the index of E in the _affixes tables
    digits = np.empty((18, n), np.uint8)  # d0..d16 as ASCII, then a NUL
    np.add(d0, 48, out=digits[0], casting="unsafe")
    digits[1:17].reshape(4, 4, n)[:] = (
        np.take(_DIGITS4, groups).view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1))
    digits[17] = 0
    # the digits before the point, or up to the last nonzero one
    kept = np.maximum(np.take(_WHOLE, e), np.take(_LAST4, groups + _GROUP_ROWS).max(axis=0))
    digits[1:17] *= _PLACES[:16] < kept

    text = np.empty((_WIDTH, n), np.uint8)
    np.multiply(np.signbit(x), ord("-"), out=text[_SIGN], casting="unsafe")
    np.take(_AFFIX[:5], e, axis=1, out=text[_PREFIX])
    text[_HEAD] = digits[0]
    # the mantissa's place p holds digit p before the point's place, digit
    # p - 1 after it, and at it the point where digits follow, else NUL
    point = np.take(_POINT, e)
    mantissa = text[_MANTISSA]
    np.subtract(digits[1:], digits[:17], out=mantissa)
    mantissa *= _PLACES < point
    mantissa += digits[:17]
    mantissa[point - 1, np.arange(n)] = (kept > point) * np.uint8(ord("."))
    np.take(_AFFIX[5:], e, axis=1, out=text[_EXPONENT])
    text[_SEP] = ord(",")
    text[_SEP, width - 1::width] = ord("\r")
    text[_SEP + 1] = 0
    text[_SEP + 1, width - 1::width] = ord("\n")
    return text
