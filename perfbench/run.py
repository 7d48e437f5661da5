"""Benchmark of the robustnn CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from src/.
With --trace 0 the workload runs in rounds through the CLI until S seconds
have passed, its outputs are checked, and the end-to-end metrics are
printed. With --trace 1 one untraced round is followed by in-process
replays that give the per-module metrics (see layers.py). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import robustnn.cli as cli
for path in sys.argv[1:]:
    cli.parse_config(path)
print(time.perf_counter() - t0)
"""


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or 'unknown'."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def machine_record() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = " ".join(f"{k}={os.environ.get(k, 'unset')}"
                   for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"machine: nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} blas_threads={blas_threads()} ({env})")


def measure_setup(ctx, workload) -> float:
    """Median time, in fresh interpreters, to import robustnn.cli and expand
    the workload's configuration files."""
    paths = [str(p) for p in workload.config_paths(ctx)]
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, *paths], env=ctx.env,
                             cwd=ctx.work, capture_output=True, text=True, check=True,
                             timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def measure(ctx, workload, seconds: float, tally) -> dict[str, tuple[float, str]]:
    """Whole rounds until the time is up, then the output checks."""
    import numpy as np

    setup_s = measure_setup(ctx, workload)
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workload.round(ctx, len(rounds), tally))
    workload.check_outputs(ctx, tally, np.random.default_rng(abs(ctx.seed)))
    print(f"{len(rounds)} rounds, round wall times "
          + ", ".join(f"{r.wall_s:.3f}" for r in rounds) + " s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "runs_per_s": (statistics.median(r.runs / r.run_wall_s for r in rounds), "runs/s"),
        "epochs_per_s": (statistics.median(r.epochs / r.run_wall_s for r in rounds),
                         "epochs/s"),
        "peak_rss_mb": (max(r.peak_rss_mb for r in rounds), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "robustnn" / "cli.py").is_file():
        print(f"error: no robustnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from workloads import WORKLOADS, Context, Tally

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ctx = Context(ROOT, work, args.seed, env)
    tally = Tally()
    # on SIGTERM, unwind so the running CLI call is killed and awaited
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        print(machine_record())
        if args.trace:
            metrics = layers.traced_run(workload, ctx, tally)
        else:
            metrics = measure(ctx, workload, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations attempted, {len(tally.failed)} failed")
    for note in tally.notes[:20]:
        print(note)
    for problem in tally.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
