"""The CSV writer against its oracle: TrajectoryRecord.to_csv and the block
formatter under it, output._csv_block, must write the bytes of the
CSV_FLOAT_FMT row template (one %.17g per value, ',' between values, CRLF
after each row) on seeded tables, including the values whose 17 digits sit
on or next to a rounding tie, where the formatter falls back to the
template itself."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from swarmsync import output
from swarmsync.output import CSV_FLOAT_FMT, TrajectoryRecord, _csv_block

RNG = np.random.default_rng(2026)


def reference(table: np.ndarray) -> bytes:
    row = ",".join([CSV_FLOAT_FMT] * table.shape[1]) + "\r\n"
    return "".join(row % tuple(values.tolist()) for values in table).encode()


def assert_same(values, width: int = 7):
    """values, padded with 0.5 to whole rows of width, format as the template does."""
    values = np.asarray(values, dtype=np.float64).ravel()
    table = np.append(values, np.full(-values.size % width, 0.5)).reshape(-1, width)
    assert _csv_block(table) == reference(table)


def nearest(f: Fraction) -> float:
    """The double nearest f (int / int division rounds correctly)."""
    return f.numerator / f.denominator


def with_neighbours(values) -> list[float]:
    return [v for x in values
            for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


def test_random_bit_patterns():
    """Every exponent, the subnormals, nan payloads and both infinities."""
    bits = RNG.integers(0, 2**64, size=200_000, dtype=np.uint64)
    assert_same(bits.view(np.float64), width=30)


def test_spread_magnitudes():
    assert_same(RNG.standard_normal(20_000) * 10.0 ** RNG.integers(-12, 20, 20_000), width=13)


def test_near_ties():
    """The doubles nearest (D + 1/2) 10^k for 17-digit D, whose digits are
    decided by the last bits, and their neighbours one ulp away."""
    values = []
    for _ in range(1500):
        d = int(RNG.integers(10**16, 10**17))
        k = int(RNG.integers(-339, 292))
        values.append(nearest((Fraction(d) + Fraction(1, 2)) * Fraction(10) ** k))
    assert_same(with_neighbours(values))


def test_exact_ties():
    """Doubles that are exactly (D + 1/2) 10^-m: j / 2^(m+1) for odd j below
    2^53, with j 5^m / 2 in [1e16, 1e17). %g rounds them half to even."""
    values = []
    for m in range(1, 25):
        lo, hi = -(-2 * 10**16 // 5**m), min(2 * 10**17 // 5**m, 2**53)
        for j in RNG.integers(lo, hi, 20):
            x = int(j | 1) / 2 ** (m + 1)
            assert Fraction(x) * 10**m % 1 == Fraction(1, 2)
            values.append(x)
    assert_same(with_neighbours(values + [-v for v in values]))


def test_powers_of_ten():
    """The double nearest 10^k and one ulp either side, for every k a double
    reaches: y lies at 1e16, just above it, or just below 1e17, where the
    17 digits round up to 10^17 and carry into the exponent."""
    values = with_neighbours([nearest(Fraction(10) ** k) for k in range(-323, 309)])
    assert_same(values + [-v for v in values])


def test_integers_zeros_and_non_finite():
    ints = [0, 1, 7, 10, 100, 12345, 2**53 - 1, 2**53, 2**53 + 2, 10**16, 10**16 + 2,
            10**17, 99_999_999_999_999_999, 123_456_789_012_345_678, 2**63, 10**22, 10**23]
    values = [float(i) for i in ints] + [-float(i) for i in ints]
    values += [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 9.9999999999999991e-5,
               1e-5, 0.1, 0.5, 1.5, 123.0, 1e16 - 2]
    assert_same(values)
    assert_same(values, width=1)


def test_one_value_and_one_row():
    assert _csv_block(np.array([[0.1]])) == b"0.10000000000000001\r\n"
    row = RNG.standard_normal((1, 40))
    assert _csv_block(row) == reference(row)


def test_powers_are_correctly_rounded():
    """Each 64e^s in the long double table is the one nearest its exact value."""
    if not output._LONG_DIGITS:
        pytest.skip("long double cannot bound the product here; every value takes the fallback")
    inf = np.longdouble(np.inf)
    for s, power in zip(range(output._S_MIN, output._S_MAX + 1), output._POW64):
        exact = 64 * Fraction(10) ** s
        errors = [abs(Fraction(*p.as_integer_ratio()) - exact)
                  for p in (power, np.nextafter(power, inf), np.nextafter(power, -inf))]
        assert errors[0] <= min(errors[1:]), s


def test_without_long_double_every_value_falls_back(monkeypatch):
    """Where long double cannot bound the product, no digits are computed and
    every value takes the template: the bytes do not change."""
    def unused(a):
        raise AssertionError("the digits were computed")

    monkeypatch.setattr(output, "_LONG_DIGITS", False)
    monkeypatch.setattr(output, "_digits", unused)
    bits = RNG.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
    assert_same(np.concatenate((bits, [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 0.1])))


def record(samples: int, n: int) -> TrajectoryRecord:
    """A record of random bit patterns in its time, position and control
    columns, and headings that give finite derived columns."""
    def bits(*shape):
        return RNG.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)

    return TrajectoryRecord(
        times=bits(samples), theta=RNG.uniform(-10.0, 10.0, (samples, n)),
        positions=bits(samples, n, 2), controls=bits(samples, n),
        saturated=np.zeros((samples, n), dtype=bool), gains=-RNG.uniform(0.5, 2.0, n), omega0=0.0)


def record_reference(traj: TrajectoryRecord) -> bytes:
    agents = range(1, traj.n + 1)
    header = ["t"] + [f"{col}_{k}" for col in ("theta", "x", "y", "u") for k in agents]
    header += ["p_mag", "p_psi", "U", "WL", "conserved"]
    table = np.column_stack((
        traj.times, traj.theta, traj.positions[:, :, 0], traj.positions[:, :, 1], traj.controls,
        traj.p_mag, traj.p_psi, traj.potential, traj.graph_potential, traj.conserved))
    return (",".join(header) + "\r\n").encode() + reference(table)


@pytest.mark.parametrize("samples, n, block", [
    (1, 3, None),  # one row
    (1001, 6, None),  # 136 rows a block, and 49 in the last
    (40, 2, 9),  # one row a block, the block smaller than a row
    (53, 2, 100),  # 7 rows of 14 values a block, 4 in the last
    (17, 40, 50),  # rows wider than the block: one row a block
])
def test_to_csv_in_blocks(tmp_path, monkeypatch, samples, n, block):
    if block is not None:
        monkeypatch.setattr(output, "_CSV_BLOCK", block)
    traj = record(samples, n)
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    assert path.read_bytes() == record_reference(traj)


def test_to_csv_memory_is_bounded(tmp_path):
    """A record the size of sim1's set1-ring run (2,001 samples of 30 values)
    is written in blocks: the writer's own allocations peak below 1 MiB."""
    traj = record(2001, 6)
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    tracemalloc.start()
    try:
        traj.to_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
