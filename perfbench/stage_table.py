#!/usr/bin/env python3
"""Per-replication stage times of null studies at one worker, as a table.

Run from the repository root:

    python3 perfbench/stage_table.py --reps 40 --seed 1

Every cell runs ``run_study`` under the null with the CLI's default
methods (``dt``, ``lrt``, ``sko1``, ``sko2``) at n = 100 (3 x 100 for c3
and c4), traced by ``tracer.py``.  The columns are ms per replication of
scenario generation, constrained fit, directional p-value and classical
statistics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import run  # noqa: F401  (sets the BLAS thread count before numpy loads)

CELLS = (("c1", 30), ("c1", 90), ("c3", 30), ("c3", 90), ("c4", 90), ("c5", 90), ("c6", 30))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))

    import tracer as tr
    import workloads as wl

    cells = [wl.make_cell(case, p, args.seed, ("dt", "lrt", "sko1", "sko2"), args.reps) for case, p in CELLS]
    wl.warm_studies(cells)
    t = tr.Tracer()
    with tr.traced(t):
        wl.run_cells(cells, 1, t)
    print("| case | p  | generate | fit  | directional | classical |")
    print("|------|----|----------|------|-------------|-----------|")
    for (case, p), row in zip(CELLS, tr.breakdown(t.spans, "simulation.study")):
        print(f"| {case:<4} | {p:<2} | {row['generate_ms']:8.2f} | {row['fit_ms']:4.2f} "
              f"| {row['directional_ms']:11.1f} | {row['classical_ms']:9.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
