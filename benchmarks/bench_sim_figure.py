"""Simulator figure-run gate: wall time, rate-cache hits, exact results.

Runs one Figure-4 point in the simulator (Coadd, 1000 tasks,
``combined.2``, 10 sites x 1 worker, 600-file data servers) and records
its wall time, the flow network's rate computations and rate-cache hit
ratio, and the makespan and file transfers::

    python benchmarks/bench_sim_figure.py --quick --check
    python benchmarks/bench_sim_figure.py --write-baseline

``--check`` compares against the checked-in baseline
(``results/sim_figure_baseline.json``) and fails when the makespan or
the transfer count differs from it at all, when the rate-cache hit
ratio drops below 0.9, or when the wall time exceeds 1.5x the
baseline's.  The wall time is the fastest of a few runs of the same
job; the job is built once, outside the timing.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.exp import ExperimentConfig, run_experiment
from repro.exp.runner import build_job

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "sim_figure_baseline.json"

CONFIG = ExperimentConfig(scheduler="combined.2", workload="coadd",
                          num_tasks=1000, num_sites=10,
                          workers_per_site=1, capacity_files=600,
                          file_size_mb=25.0, seed=1)
WALL_CEILING = 1.5
MIN_HIT_RATIO = 0.9


def run(quick):
    """Fastest-of-N wall time plus the (repeat-identical) run figures."""
    job = build_job(CONFIG)
    walls = []
    outcomes = set()
    for _ in range(2 if quick else 5):
        started = time.perf_counter()
        result = run_experiment(CONFIG, job=job)
        walls.append(time.perf_counter() - started)
        outcomes.add((result.makespan, result.file_transfers,
                      result.rate_lookups, result.rate_cache_hits))
    if len(outcomes) != 1:
        raise RuntimeError(f"repeat runs disagree: {sorted(outcomes)}")
    return {
        "wall_s": round(min(walls), 3),
        "rate_lookups": result.rate_lookups,
        "rate_cache_hit_ratio": round(
            result.rate_cache_hits / result.rate_lookups, 4),
        "makespan": result.makespan,
        "file_transfers": result.file_transfers,
    }


def format_row(row):
    return (f"sim figure run ({CONFIG.num_tasks} tasks, "
            f"{CONFIG.scheduler}): {row['wall_s']:.3f} s wall, "
            f"{row['rate_lookups']} rate computations, "
            f"{row['rate_cache_hit_ratio']:.1%} from the rate cache, "
            f"makespan {row['makespan']!r} s, "
            f"{row['file_transfers']} transfers")


def check_against_baseline(row):
    """Exit-code style check: [] if healthy, else failure messages."""
    if not BASELINE_PATH.exists():
        return [f"no baseline at {BASELINE_PATH}; run --write-baseline"]
    baseline = json.loads(BASELINE_PATH.read_text())["run"]
    failures = []
    for key in ("makespan", "file_transfers"):
        if row[key] != baseline[key]:
            failures.append(f"{key} {row[key]!r} differs from the "
                            f"baseline {baseline[key]!r}")
    if row["rate_cache_hit_ratio"] < MIN_HIT_RATIO:
        failures.append(f"rate-cache hit ratio "
                        f"{row['rate_cache_hit_ratio']:.1%} is below "
                        f"{MIN_HIT_RATIO:.0%}")
    if row["wall_s"] > baseline["wall_s"] * WALL_CEILING:
        failures.append(f"wall time {row['wall_s']:.3f} s exceeds "
                        f"{WALL_CEILING}x the baseline "
                        f"{baseline['wall_s']:.3f} s")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="simulator figure-run wall-time gate")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized measurement (fewer repeats; the "
                             "run itself is unchanged)")
    parser.add_argument("--check", action="store_true",
                        help="fail on a changed result, a low cache hit "
                             "ratio or a wall-time regression")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"refresh {BASELINE_PATH.name} from this run")
    args = parser.parse_args(argv)

    row = run(quick=args.quick)
    print(format_row(row))

    status = 0
    if args.check:
        failures = check_against_baseline(row)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print("simulator figure-run check passed")
    if args.write_baseline:
        RESULTS_DIR.mkdir(exist_ok=True)
        payload = {"schema": 1, "mode": "quick" if args.quick else "full",
                   "config": {"scheduler": CONFIG.scheduler,
                              "workload": CONFIG.workload,
                              "num_tasks": CONFIG.num_tasks,
                              "num_sites": CONFIG.num_sites,
                              "workers_per_site": CONFIG.workers_per_site,
                              "capacity_files": CONFIG.capacity_files,
                              "file_size_mb": CONFIG.file_size_mb,
                              "seed": CONFIG.seed},
                   "run": row}
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
    return status


if __name__ == "__main__":
    sys.exit(main())
