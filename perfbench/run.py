"""swarmsync benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload ensemble-mf --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src, in this
process, with BLAS pinned to one thread before numpy loads: the dense
Laplacian path is oversubscribed by default BLAS threading on small
machines. The loop is closed and single-caller: each operation starts when
the previous one has returned and its output has been checked.

A workload is a fixed, seeded list of operations (a round, see
workloads.py). Whole rounds repeat until --seconds have passed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds, then times every layer the rounds did not reach with probe
calls at the workload's shape, prints the per-layer metrics and self time
per layer, and writes the spans to perfbench/_runs/. The last line of
stdout is the JSON result; the lines before it say the same for a reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _import_program():
    """Import numpy and swarmsync from ./src; exit non-zero when the program is absent."""
    if not (SRC / "swarmsync" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'swarmsync'}")
    sys.path.insert(0, str(SRC))
    import swarmsync

    if Path(swarmsync.__file__).resolve().parent != (SRC / "swarmsync").resolve():
        sys.exit(f"perfbench: imported swarmsync from {swarmsync.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import measure  # noqa: E402  (imports numpy and swarmsync, so after the pinning)

    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(measure.WORKLOADS)}")
    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    measure.report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
