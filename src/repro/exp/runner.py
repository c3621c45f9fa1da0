"""Build-and-run glue: config -> grid -> scheduler -> result.

:func:`run_experiment` executes one config; :func:`run_averaged`
repeats it over several topologies (the paper's protocol: "each
experiment is performed with 5 different topologies and the results
are averaged over the 5 runs").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..analysis.trace import TraceBus
from ..core.registry import create_scheduler
from ..core.replication import DataReplicator
from ..grid.cluster import Grid, GridRunResult
from ..grid.data_server import DataServerStats
from ..grid.failures import WorkerFailureInjector
from ..grid.load import BackgroundLoad
from ..net.crosstraffic import CrossTraffic
from ..grid.job import Job
from ..net.tiers import generate as generate_tiers
from ..sim.engine import Environment
from ..sim.rng import RngRegistry, derive_seed
from ..workload import coadd, ordering, synthetic, top500
from .config import ExperimentConfig


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one simulated run, with the paper's reporting units."""

    config: ExperimentConfig
    makespan: float            #: seconds of simulated time
    file_transfers: int        #: Figure 5's metric
    bytes_transferred: float
    tasks_cancelled: int
    evictions: int
    data_replications: int
    worker_failures: int
    #: One entry per site (Table 3's inputs).
    site_stats: Tuple[DataServerStats, ...]
    #: Scheduling decisions / tasks scored (complexity instrumentation;
    #: zero for policies that don't report them).
    decisions: int
    tasks_scored: int
    #: Flow-rate computations, and how many the network's rate cache
    #: answered without water-filling.
    rate_lookups: int
    rate_cache_hits: int
    #: The trace bus (records kept only when config.keep_trace).
    trace: TraceBus

    @property
    def makespan_minutes(self) -> float:
        return self.makespan / 60.0


@dataclass(frozen=True)
class AveragedResult:
    """Mean over several topology seeds of the same config."""

    config: ExperimentConfig
    topology_seeds: Tuple[int, ...]
    makespan: float
    makespan_minutes: float
    file_transfers: float
    tasks_cancelled: float
    evictions: float
    runs: Tuple[ExperimentResult, ...]


def build_job(config: ExperimentConfig) -> Job:
    """Construct the workload a config describes (deterministic)."""
    seed = derive_seed(config.seed, "workload")
    job = _build_raw_job(config, seed)
    return ordering.reorder_job(job, config.task_order,
                                seed=derive_seed(config.seed, "order"))


def _build_raw_job(config: ExperimentConfig, seed: int) -> Job:
    if config.workload == "coadd":
        return coadd.generate(config.coadd_params(), seed=seed)
    if config.workload == "uniform":
        return synthetic.uniform_random(
            config.num_tasks, num_files=max(10, config.num_tasks * 9),
            files_per_task=78, seed=seed,
            file_size=config.file_size_bytes,
            flops_per_file=config.flops_per_file)
    if config.workload == "zipf":
        return synthetic.zipf_popularity(
            config.num_tasks, num_files=max(10, config.num_tasks * 9),
            files_per_task=78, seed=seed,
            file_size=config.file_size_bytes,
            flops_per_file=config.flops_per_file)
    if config.workload == "window":
        return synthetic.sliding_window(
            config.num_tasks, span=78, step=9, seed=seed,
            file_size=config.file_size_bytes,
            flops_per_file=config.flops_per_file)
    raise ValueError(f"unknown workload {config.workload!r}")


def build_grid(config: ExperimentConfig, job: Job,
               env: Optional[Environment] = None) -> Grid:
    """Construct the grid (topology, sites, workers) for a config."""
    env = env or Environment()
    rngs = RngRegistry(derive_seed(config.seed,
                                   f"topology:{config.topology_seed}"))
    grid_topology = generate_tiers(config.tiers_params(),
                                   seed=rngs.stream("tiers").randrange(2**31))
    speeds_rng = rngs.stream("speeds")
    worker_speeds = [
        top500.sample_speeds(speeds_rng, config.workers_per_site)
        for _ in range(config.num_sites)
    ]
    trace = TraceBus(keep=config.keep_trace)
    return Grid(env, grid_topology, job, config.capacity_files,
                worker_speeds, trace=trace,
                data_server_parallelism=config.data_server_parallelism)


def run_experiment(config: ExperimentConfig,
                   job: Optional[Job] = None) -> ExperimentResult:
    """Run one config to completion and collect its metrics.

    ``job`` short-circuits workload generation when the caller sweeps a
    parameter that does not affect the workload (topology seed, site
    count, ...).
    """
    if job is None:
        job = build_job(config)
    grid = build_grid(config, job)
    rng = RngRegistry(derive_seed(config.seed,
                                  f"sched:{config.topology_seed}"))
    scheduler = create_scheduler(config.scheduler, job,
                                 rng.stream("scheduler"))
    replicator = None
    if config.replicate_data:
        replicator = DataReplicator(
            grid, popularity_threshold=config.replication_threshold,
            max_replicas=config.replication_max_replicas)
    grid.attach_scheduler(scheduler)
    if config.cross_traffic:
        CrossTraffic(
            grid.env, grid.network,
            endpoints=[site.gateway for site in grid.sites],
            mean_interarrival=config.cross_traffic_interarrival,
            mean_size=config.cross_traffic_mean_mb * 1024 * 1024,
            rng=rng.stream("cross-traffic"),
            until=lambda: scheduler.tasks_remaining == 0)
    if config.background_load:
        BackgroundLoad(grid, slowdown=config.load_slowdown,
                       loaded_fraction=config.load_fraction,
                       mean_dwell=config.load_dwell,
                       rng=rng.stream("load"))
    injector = None
    if config.worker_mtbf is not None:
        injector = WorkerFailureInjector(
            grid, mtbf=config.worker_mtbf,
            repair_time=config.worker_repair_time,
            rng=rng.stream("failures"))
    outcome: GridRunResult = grid.run()
    return ExperimentResult(
        config=config,
        makespan=outcome.makespan,
        file_transfers=outcome.file_transfers,
        bytes_transferred=outcome.bytes_transferred,
        tasks_cancelled=outcome.tasks_cancelled,
        evictions=outcome.evictions,
        data_replications=replicator.replications if replicator else 0,
        worker_failures=injector.failures if injector else 0,
        site_stats=tuple(site.data_server.stats for site in grid.sites),
        decisions=getattr(scheduler, "decisions", 0),
        tasks_scored=getattr(scheduler, "tasks_scored", 0),
        rate_lookups=grid.network.rate_lookups,
        rate_cache_hits=grid.network.rate_cache_hits,
        trace=grid.trace,
    )


def run_averaged(config: ExperimentConfig,
                 topology_seeds: Sequence[int] = (0, 1, 2, 3, 4),
                 job: Optional[Job] = None) -> AveragedResult:
    """The paper's protocol: same workload, averaged over topologies."""
    if not topology_seeds:
        raise ValueError("need at least one topology seed")
    if job is None:
        job = build_job(config)
    runs: List[ExperimentResult] = []
    for topo_seed in topology_seeds:
        runs.append(run_experiment(
            config.with_changes(topology_seed=topo_seed), job=job))

    def mean(values: Iterable[float]) -> float:
        values = list(values)
        return sum(values) / len(values)

    return AveragedResult(
        config=config,
        topology_seeds=tuple(topology_seeds),
        makespan=mean(r.makespan for r in runs),
        makespan_minutes=mean(r.makespan_minutes for r in runs),
        file_transfers=mean(r.file_transfers for r in runs),
        tasks_cancelled=mean(r.tasks_cancelled for r in runs),
        evictions=mean(r.evictions for r in runs),
        runs=tuple(runs),
    )
