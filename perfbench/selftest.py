"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a small size, untraced and traced, and checks that
every metric BENCHMARK.json names is printed with its unit, as are the
report-only figures (op_s_tail, the plain times, the host probe, failed_frac).
Then it plants a wrong expected direction and checks that the affected
operations are counted as failed, and that run.py refuses to run where the
program is missing.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy is imported

run._import_program()

import measure  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "ensemble-mf": {"ns": (2, 3)},
    "cli-record": {"simulate_calls": 2, "t_max": 20.0},
    "ring-large-n": {"n": 50, "t_max": 0.5},
    "closed-form-large-n": {"n": 200},
}


def printed(result) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        measure.report(result)
    lines = buf.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_output(spec: list[dict], result, problems: list[str]) -> None:
    lines, last = printed(result)
    where = f"{result.workload} trace={int(result.trace)}"
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(last)}")
    if set(last["metrics"]) != {m["name"] for m in spec}:
        problems.append(f"{where}: metrics {sorted(last['metrics'])}")
    for m in spec:
        got = last["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{where}: {m['name']} printed as {got}")
        if not any(line.startswith(f"metric {m['name']} = ") and f" {m['unit']}  [" in line
                   for line in lines):
            problems.append(f"{where}: no readable line for {m['name']} in {m['unit']}")
    reported = (("op_s_tail", "plain_wall_s", "plain_op_s_p50", "host_probe_s", "failed_frac")
                if not result.trace else ("failed_frac",))
    for name in reported:
        if not any(line.startswith(f"report {name} = ") for line in lines):
            problems.append(f"{where}: no report line for {name}")
    if not last["correct"] or last["failed"]:
        problems.append(f"{where}: {last['failed']} of {last['attempted']} failed: "
                        f"{result.failures[:3]}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", measure.END_TO_END), ("per_layer", measure.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != {name: unit for name, (unit, _) in table.items()}:
            problems.append(f"BENCHMARK.json {key} differs from measure.py")

    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure.run(name, seed=7, seconds=0.0, trace=trace, size=SMALL[name])
            check_output(bench[key], result, problems)
        print(f"selftest: {name} ok so far ({len(problems)} problems)")

    # a wrong expected direction must show up as failed operations
    print("selftest: planting a wrong expected direction; FAILED lines below are expected",
          file=sys.stderr)
    true_direction = workloads.closed_form_direction
    workloads.closed_form_direction = lambda theta0, gains: true_direction(theta0, gains) + 0.1
    try:
        for name, expect_failed in (("ensemble-mf", len(SMALL["ensemble-mf"]["ns"])),
                                    ("closed-form-large-n", 1)):
            result = measure.run(name, seed=7, seconds=0.0, trace=False, size=SMALL[name])
            _, last = printed(result)
            if last["correct"] or last["failed"] < expect_failed:
                problems.append(f"planted error in {name}: {last['failed']} failed, "
                                f"correct={last['correct']}")
    finally:
        workloads.closed_form_direction = true_direction

    # without the program, run.py exits non-zero and prints no result
    bare = measure.RUNS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *bench["command"][1:], "--workload", "ensemble-mf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"run.py without the program: exit {proc.returncode}, {proc.stdout!r}")

    for p in problems:
        print(f"selftest FAILED: {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
