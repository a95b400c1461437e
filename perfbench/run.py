#!/usr/bin/env python3
"""gfusion benchmark: per-command wall time on seeded workloads, and per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-docs --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` a closed
loop (one client; each command starts after the previous one has ended)
runs the nine-command mix for ``--seconds`` and reports end-to-end metrics:
the median wall time of each command, set-up time and peak RSS.  With
``--trace 1`` the same commands are replayed in-process (``gfusion.cli.main``
on CLI workloads) with spans around the library's public functions, and the
per-layer metrics are reported: self time per function, numpy call counts,
import and unattributed CLI time, document and report sizes, and the number
of commands whose output changes between 1 and 2 BLAS threads.  Every output
is checked (``mix.py``).

Earlier lines of standard output describe the environment and every metric
in words; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program comes from ``src/`` of the same
checkout; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMED_THREADS = 1  # BLAS threads for every timed run; recorded in the metadata


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name from workloads.py, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the cross-thread check of small-batch reruns one pass in a child at this thread count.
    parser.add_argument("--blas-threads", type=int, default=TIMED_THREADS, help=argparse.SUPPRESS)
    parser.add_argument("--digests", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "gfusion" / "cli.py").is_file():
        print(f"perfbench: no gfusion sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, so BLAS starts with this many threads
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    return measure.main(args)


if __name__ == "__main__":
    raise SystemExit(main())
