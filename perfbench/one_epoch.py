"""Per-run cost of one-epoch runs with one and with two worker processes.

    python3 perfbench/one_epoch.py

Runs the desk-sweep make-up with the epoch cap set to 1 through
experiment.run_sweep in process, so the figure is per-run preparation plus
sweep scheduling with almost no training. Prints the median over repeats of
the sweep's wall time per run, for parallelism 1 and 2.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robustnn import cli, experiment  # noqa: E402

import workloads  # noqa: E402

REPEATS = 5


def main() -> int:
    doc = dict(workloads.DeskSweep().doc, optimizer={"stepmax": 1})
    cfgs = cli.expand_config(doc)
    runs = sum(cfg.replications for cfg in cfgs)
    for parallel in (1, 2):
        walls = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            experiment.run_sweep(cfgs, parallelism=parallel)
            walls.append(time.perf_counter() - t0)
        print(f"parallel {parallel}: {statistics.median(walls) / runs * 1e3:.3f} ms per "
              f"one-epoch run ({runs} runs, median of {REPEATS} sweeps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
