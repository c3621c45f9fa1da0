"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sim-coadd --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload traced and reports the per-layer metrics.  Every correctness
check that fails is counted in ``failed`` and makes the exit code 1.
The last line of standard output is the result as one JSON object.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sim-coadd", "serve-deep-combined", "serve-durable")

#: End-to-end metrics (untraced runs), with units.
END_TO_END = (
    ("setup_s", "s"),
    ("sim_wall_s", "s"),
    ("makespan_min", "min"),
    ("file_transfers", "count"),
    ("assign_rate", "tasks/s"),
    ("pull_p50_ms", "ms"),
    ("pull_p99_ms", "ms"),
)

#: Per-layer metrics (traced runs), with units.
PER_LAYER = (
    ("net.self_s", "s"),
    ("net.transfers", "count"),
    ("net.self_per_transfer_us", "us"),
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("grid.self_s", "s"),
    ("grid.evictions", "count"),
    ("core.index.self_s", "s"),
    ("core.fractions_s", "s"),
    ("core.policy.self_s", "s"),
    ("core.policy.decisions", "count"),
    ("core.policy.tasks_scored", "count"),
    ("core.policy.scored_per_decision", "count"),
    ("policy.decide_busy_s", "s"),
    ("policy.decide_mean_us", "us"),
    ("codec.decode_s", "s"),
    ("codec.encode_s", "s"),
    ("codec.bytes_in", "bytes"),
    ("codec.bytes_out", "bytes"),
    ("codec.frames", "count"),
    ("service.request_s", "s"),
    ("service.file_delta_s", "s"),
    ("service.task_done_s", "s"),
    ("service.submit_s", "s"),
    ("service.request_calls", "count"),
    ("service.file_delta_calls", "count"),
    ("service.task_done_calls", "count"),
    ("service.submit_calls", "count"),
    ("wal.records", "count"),
    ("wal.bytes", "bytes"),
    ("wal.append_s", "s"),
    ("wal.flush_s", "s"),
    ("server.cpu_s", "s"),
    ("server.cpu_per_task_us", "us"),
    ("server.self_s", "s"),
    ("loadgen.cpu_s", "s"),
    ("loadgen.cpu_share", "share"),
    ("sites.overlap_hit_rate", "share"),
    ("trace.overhead", "ratio"),
)

#: Faults the self-tests inject to prove a failure is not a number.
FAULTS = ("duplicate-done", "tamper-makespan")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small jobs (self-tests)")
    parser.add_argument("--inject-fault", choices=FAULTS, default=None,
                        help="make one correctness check fail "
                             "(self-tests)")
    return parser.parse_args(argv)


def import_program():
    """Put the program's sources on the path; exit 2 if absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


def run(args, work: str) -> dict:
    if args.workload == "sim-coadd":
        import simload
        if args.trace:
            return simload.trace(args.seed, args.tiny, args.inject_fault)
        return simload.measure(args.seed, args.seconds, args.tiny,
                               args.inject_fault)
    import serveload
    if args.trace:
        return serveload.trace(ROOT, work, args.workload, args.seed,
                               args.tiny, args.inject_fault)
    return serveload.measure(ROOT, work, args.workload, args.seed,
                             args.seconds, args.tiny, args.inject_fault)


def report(args, outcome: dict) -> int:
    import lib
    checks = outcome["checks"]
    attempted = max(1, outcome["attempted"])
    names = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        # A layer the workload never enters reports 0.
        values = dict.fromkeys((name for name, _ in PER_LAYER), 0)
        values.update(outcome["layers"])
    else:
        values = outcome["metrics"]
    samples = outcome.get("samples", {})
    print(f"{args.workload}  seed={args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, unit in names:
        note = ""
        repeats = f"{samples.get('repeats')} {samples.get('repeat_kind')}"
        if name == "pull_p99_ms":
            positions = samples.get("tail_pulls", samples["pulls"])
            over = (f"{samples['passes']} passes" if "passes" in samples
                    else repeats)
            note = (f"  ({positions} pull positions, each its fastest of "
                    f"{over}; {lib.beyond(positions, 0.99)} beyond p99)")
        elif name == "pull_p50_ms":
            note = (f"  ({samples['pulls']} pull positions, each its "
                    f"fastest of {repeats})")
        elif name in ("sim_wall_s", "assign_rate"):
            note = (f"  ({samples['segments']} segments, each its "
                    f"fastest of {repeats})")
        elif name == "setup_s" and samples:
            note = f"  (median of {samples['setup_s']})"
        print(f"  {name:34s} {values[name]:>16.6g} {unit}{note}")
    print(f"  {'error_rate':34s} {checks.errors / attempted:>16.6g} share"
          f"  ({checks.errors} failed of {attempted} attempted)")
    if args.trace and "profile" in outcome:
        total = sum(outcome["profile"].values()) or 1.0
        shares = ", ".join(f"{layer} {seconds / total:.0%}"
                           for layer, seconds in sorted(
                               outcome["profile"].items(),
                               key=lambda item: -item[1]))
        print(f"  profile self-time shares: {shares}")
    for name, span in sorted(outcome.get("spans", {}).items()):
        print(f"  span {name:28s} {span['count']:>8d} calls "
              f"{span['self_s']:>10.4f} s self {span['total_s']:>10.4f} s "
              "total")
    for failure in checks.failed[:20]:
        print(f"  CHECK FAILED: {failure}")
    # The server runs on asyncio's own loop: it is started without
    # --uvloop.
    env = lib.environment(ROOT, args.seed, outcome.get("codec"),
                          "asyncio" if outcome.get("codec") else None)
    record = {"workload": args.workload, "trace": args.trace,
              "env": env, "samples": samples,
              "checks": {"passed": checks.passed,
                         "failed": checks.failed}}
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not checks.failed,
        "attempted": attempted,
        "failed": checks.errors,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if not checks.failed else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    # On SIGTERM, unwind through the finally blocks that stop the
    # server processes this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, HERE)
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        outcome = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    return report(args, outcome)


if __name__ == "__main__":
    sys.exit(main())
