"""sim-coadd: the paper's Figure-4 point, run in-process.

The seed generates the job (the Coadd workload in its shuffled
presentation order); the grid is the Figure-4 point's fixed topology:
10 sites x 1 worker, 600-file data servers, 25 MB files, scheduled by
``combined.2``.  Every run of one job must give bit-identical results.
"""

from __future__ import annotations

import cProfile
import math
import pstats
import time
from typing import Dict, List, Optional

import lib
from repro.analysis.bounds import compute_bounds
from repro.core.policy_engine import PolicyEngine
from repro.core.worker_centric import WorkerCentricScheduler
from repro.exp.config import ExperimentConfig
from repro.exp.runner import build_grid, build_job, run_experiment

#: Tasks of the job; each is pulled at least once, so a run times at
#: least lib.MIN_PULLS pull positions.
TASKS = 1000
TINY_TASKS = 60
#: Seed of the fixed grid (topology, worker speeds, scheduler stream).
#: Fixed so that the makespan moves with the job only: drawing a new
#: topology per seed moved it by 15% and more between seeds.
GRID_SEED = 0
#: build_job + build_grid repetitions per run; setup_s is their median.
SETUPS = 21
#: Nominal seconds per simulation of TASKS tasks on the 2-CPU box the
#: benchmark was tuned on; sizes a run from ``--seconds``.
RUN_SECONDS = 3.0
#: Fewest simulations per run: the timings take each segment's fastest
#: repeat, and the repeats check bit-identity.
MIN_REPEATS = 3


def config(seed: int, tasks: int) -> ExperimentConfig:
    return ExperimentConfig(scheduler="combined.2", workload="coadd",
                            num_tasks=tasks, num_sites=10,
                            workers_per_site=1, capacity_files=600,
                            file_size_mb=25.0, seed=seed)


class Probe:
    """Wraps the simulator scheduler's public calls for one block.

    Times each pull (``next_task``: the decision as the simulated worker
    asks for it) and notes when it started, counts completions per task
    id, and optionally sums the wall time of ``PolicyEngine.choose``.
    """

    def __init__(self, time_choose: bool = False):
        self.pulls: List[float] = []
        self.starts: List[float] = []
        self.completions: Dict[int, int] = {}
        self.decide_s = 0.0
        self.decisions = 0
        self._time_choose = time_choose
        self._saved = []

    def _patch(self, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def __enter__(self) -> "Probe":
        clock = time.perf_counter
        pulls, starts = self.pulls, self.starts
        completions = self.completions

        def timed_pull(next_task):
            def pull(scheduler, worker):
                start = clock()
                event = next_task(scheduler, worker)
                pulls.append(clock() - start)
                starts.append(start)
                return event
            return pull

        def counted(notify_complete):
            def complete(scheduler, worker, task):
                completions[task.task_id] = \
                    completions.get(task.task_id, 0) + 1
                return notify_complete(scheduler, worker, task)
            return complete

        def timed_choose(choose):
            def decide(engine, *args, **kwargs):
                start = clock()
                try:
                    return choose(engine, *args, **kwargs)
                finally:
                    self.decide_s += clock() - start
                    self.decisions += 1
            return decide

        self._patch(WorkerCentricScheduler, "next_task", timed_pull)
        self._patch(WorkerCentricScheduler, "notify_complete", counted)
        if self._time_choose:
            self._patch(PolicyEngine, "choose", timed_choose)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Sim:
    """One seed's job on the fixed grid, plus its correctness gate."""

    def __init__(self, seed: int, tasks: int, fault: Optional[str]):
        self.grid_config = config(GRID_SEED, tasks)
        self.job_config = config(seed, tasks)
        self.fault = fault
        self.checks = lib.Checks()
        self.setup_s: List[float] = []
        self.job = None
        self.reference = None
        self.floor_s = 0.0

    def setup(self) -> None:
        for _ in range(SETUPS):
            started = time.perf_counter()
            self.job = build_job(self.job_config)
            build_grid(self.grid_config, self.job)
            self.setup_s.append(time.perf_counter() - started)
        self.floor_s = compute_bounds(self.grid_config, self.job).best

    def run(self, probe: Optional[Probe] = None,
            profiler: Optional[cProfile.Profile] = None):
        """One ``run_experiment``; returns (result, wall seconds,
        timed segments of ``lib.SEGMENT_PULLS`` pulls when probed)."""
        started = time.perf_counter()
        if profiler is not None:
            result = profiler.runcall(run_experiment, self.grid_config,
                                      job=self.job)
        else:
            result = run_experiment(self.grid_config, job=self.job)
        ended = time.perf_counter()
        segments = []
        if probe is not None:
            segments = lib.segments([started] + probe.starts + [ended],
                                    lib.SEGMENT_PULLS)
        self.check(result, probe)
        return result, ended - started, segments

    def check(self, result, probe: Optional[Probe]) -> None:
        expect = self.checks.expect
        tasks = len(self.job)
        if probe is not None:
            done = probe.completions
            lost = tasks - len(done)
            twice = sum(1 for count in done.values() if count > 1)
            expect(lost == 0, f"{lost} of {tasks} tasks never completed",
                   weight=lost)
            expect(twice == 0, f"{twice} task(s) completed twice",
                   weight=twice)
            probe.completions.clear()
        expect(result.makespan >= self.floor_s,
               f"makespan {result.makespan:.3f}s below the analytic "
               f"floor {self.floor_s:.3f}s")
        if self.reference is None:
            self.reference = (result.makespan, result.file_transfers)
            if self.fault == "tamper-makespan":
                self.reference = (math.nextafter(result.makespan, 0.0),
                                  result.file_transfers)
            return
        expect((result.makespan, result.file_transfers) == self.reference,
               f"repeat run gave makespan {result.makespan!r} / "
               f"{result.file_transfers} transfers, expected "
               f"{self.reference[0]!r} / {self.reference[1]}")


def measure(seed: int, seconds: float, tiny: bool,
            fault: Optional[str]) -> Dict:
    """Untraced run: the seed's job simulated as often as takes about
    ``seconds`` (at least ``MIN_REPEATS`` times), timed segment by
    segment and pull by pull; each timing is its fastest repeat."""
    sim = Sim(seed, TINY_TASKS if tiny else TASKS, fault)
    sim.setup()
    repeats = max(MIN_REPEATS, round(seconds / RUN_SECONDS))
    segments, pulls = [], []
    result = None
    for _ in range(repeats):
        with Probe() as probe:
            result, _wall, timed = sim.run(probe)
        segments.append(timed)
        pulls.append(list(probe.pulls))
        sim.checks.expect(len(pulls[-1]) == len(pulls[0]),
                          f"repeat made {len(pulls[-1])} pulls, the first "
                          f"{len(pulls[0])}")
    wall, p50, p99, positions = lib.fastest_timings(segments, pulls)
    return {
        "checks": sim.checks,
        "attempted": len(sim.job) * repeats,
        "metrics": {
            "setup_s": lib.median(sim.setup_s),
            "sim_wall_s": wall,
            "makespan_min": result.makespan_minutes,
            "file_transfers": result.file_transfers,
            "assign_rate": len(sim.job) / wall,
            "pull_p50_ms": p50 * 1e3,
            "pull_p99_ms": p99 * 1e3,
        },
        "samples": {"setup_s": len(sim.setup_s), "repeats": repeats,
                    "repeat_kind": "simulations",
                    "segments": len(segments[0]), "pulls": positions},
    }


def trace(seed: int, tiny: bool, fault: Optional[str]) -> Dict:
    """Traced run: one untraced simulation, then one under cProfile,
    attributed to layers by module."""
    sim = Sim(seed, TINY_TASKS if tiny else TASKS, fault)
    sim.setup()
    with Probe(time_choose=True) as probe:
        result, plain_wall, _ = sim.run(probe)
    profiler = cProfile.Profile()
    _, traced_wall, _ = sim.run(profiler=profiler)
    stats = pstats.Stats(profiler)
    buckets = lib.profile_buckets(stats)
    events = lib.profile_calls(stats, "repro/sim/engine.py", "step")
    transfers = lib.profile_calls(stats, "repro/net/flow.py", "transfer")
    decisions = max(result.decisions, 1)
    return {
        "checks": sim.checks,
        "attempted": 2 * len(sim.job),
        "layers": {
            "net.self_s": buckets["net"],
            "net.transfers": transfers,
            "net.self_per_transfer_us": (buckets["net"] / transfers * 1e6
                                         if transfers else 0.0),
            "sim.events": events,
            "sim.self_s": buckets["sim"],
            "grid.self_s": buckets["grid"],
            "grid.evictions": result.evictions,
            "core.index.self_s": buckets["core.index"],
            "core.fractions_s": buckets["fractions"],
            "core.policy.self_s": buckets["core.policy"],
            "core.policy.decisions": result.decisions,
            "core.policy.tasks_scored": result.tasks_scored,
            "core.policy.scored_per_decision":
                result.tasks_scored / decisions,
            "policy.decide_busy_s": probe.decide_s,
            "policy.decide_mean_us": (probe.decide_s / probe.decisions
                                      * 1e6 if probe.decisions else 0.0),
            "trace.overhead": traced_wall / plain_wall,
        },
        "profile": buckets,
        "profile_total_s": sum(buckets.values()),
    }
