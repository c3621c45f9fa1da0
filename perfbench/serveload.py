"""serve-* workloads: ``repro serve`` as its own process, one closed loop.

The load generator is this process.  It speaks the wire protocol over
blocking loopback sockets with the program's own codecs: one worker
connection pulls, reports cache deltas and completes tasks; one control
connection submits jobs, checks their status, reads ``STATS`` and
drains the server.  A run submits whole jobs one after another (the
next job only once the previous one is complete), so every job starts
from the same queue depth.  A run's work is fixed by ``--seconds``: the
number of jobs that take about that long on the 2-CPU box the benchmark
was tuned on, split over a few passes, each on a fresh server with the
same seed driven through the same jobs after one untimed warm-up job
that fills the cache.  Every timing is taken segment by segment and
pull by pull at its fastest repeat (see ``measure``).
"""

from __future__ import annotations

import itertools
import json
import os
import pstats
import random
import resource
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

import lib
from repro.cluster.shard import wal_files
from repro.serve import messages, protocol
from repro.serve.client import SUBMIT_CHUNK, SiteCacheMirror
from repro.serve.codec import JsonLinesCodec, make_codec

#: Files per task and the pool they are drawn from.  The worker's cache
#: holds the whole pool, so once warm every pending task overlaps it.
FILES_PER_TASK = 3
FILE_POOL = 300
#: Tasks of an untimed warm-up job: about three touches of every pooled
#: file, which warms the cache without a full deep job's cost.
WARMUP_TASKS = FILE_POOL
CAPACITY_FILES = 600
SITE = 0
#: Spawns per run; setup_s is their median.
SETUPS = 7
EXPECTED_CODEC = protocol.CODEC_BINARY


@dataclass(frozen=True)
class Spec:
    metric: str
    n: int
    batch: int
    durable: bool
    job_tasks: int
    tiny_job_tasks: int
    #: Nominal seconds per job, which sizes a run from ``--seconds``.
    job_seconds: float
    #: Passes (fresh servers, same jobs) per untimed run.
    passes: int
    #: Pulls per timed segment (about a tenth of a second of work).
    segment_pulls: int
    #: Jobs per traced pass (a fixed amount of work).
    trace_jobs: int


WORKLOADS = {
    "serve-deep-combined": Spec(metric="combined", n=2, batch=8,
                                durable=False, job_tasks=500,
                                tiny_job_tasks=240, job_seconds=0.3,
                                passes=4, segment_pulls=25,
                                trace_jobs=4),
    "serve-durable": Spec(metric="rest", n=1, batch=1, durable=True,
                          job_tasks=200, tiny_job_tasks=40,
                          job_seconds=0.15, passes=5,
                          segment_pulls=lib.SEGMENT_PULLS, trace_jobs=10),
}


def make_jobs(seed: int, tasks: int):
    """Endless seeded stream of jobs of ``tasks`` light tasks."""
    rng = random.Random(seed)
    while True:
        yield [{"files": sorted(rng.sample(range(FILE_POOL),
                                           FILES_PER_TASK)),
                "flops": 0.0}
               for _ in range(tasks)]


class Wire:
    """One blocking protocol connection (JSON lines until HELLO)."""

    def __init__(self, port: int, name: str):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.codec = JsonLinesCodec(decodes="server")
        self.inbox = deque()
        try:
            welcome = self.call(messages.Hello(
                worker=name, site=SITE,
                protocol=protocol.PROTOCOL_VERSION,
                codecs=protocol.codec_offers("auto")))
        except BaseException:
            self.sock.close()
            raise
        if not isinstance(welcome, messages.Welcome):
            self.sock.close()
            raise RuntimeError(f"expected WELCOME, got {welcome}")
        self.welcome = welcome
        if welcome.codec and welcome.codec != self.codec.name:
            residue = self.codec.residue()
            self.codec = make_codec(welcome.codec, decodes="server")
            if residue:
                self.inbox.extend(self.codec.feed(residue))

    def send(self, *outgoing: messages.ClientMessage) -> None:
        self.sock.sendall(b"".join(self.codec.encode(message)
                                   for message in outgoing))

    def recv(self) -> messages.ServerMessage:
        while not self.inbox:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            self.inbox.extend(self.codec.feed(data))
        return self.inbox.popleft()

    def call(self, message: messages.ClientMessage):
        self.send(message)
        return self.recv()

    def close(self) -> None:
        self.sock.close()


class Server:
    """One ``repro serve`` child process, optionally instrumented."""

    def __init__(self, root: str, work: str, spec: Spec, seed: int,
                 tag: str, trace: Optional[str] = None):
        self.work = os.path.join(work, tag)
        os.makedirs(self.work)
        self.state_dir = (os.path.join(self.work, "state")
                          if spec.durable else None)
        self.port_file = os.path.join(self.work, "port.json")
        self.trace_file = None
        serve_argv = ["serve", "--host", "127.0.0.1", "--port", "0",
                      "--port-file", self.port_file,
                      "--metric", spec.metric, "--n", str(spec.n),
                      "--seed", str(seed), "--codec", "auto", "-q"]
        if self.state_dir:
            serve_argv += ["--state-dir", self.state_dir]
        if trace is None:
            argv = [sys.executable, "-m", "repro"] + serve_argv
        else:
            self.trace_file = os.path.join(self.work, "trace.out")
            argv = [sys.executable,
                    os.path.join(os.path.dirname(__file__),
                                 "launcher.py"),
                    trace, self.trace_file] + serve_argv
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(os.path.join(self.work, "server.log"), "wb")
        self.proc = subprocess.Popen(argv, cwd=self.work, env=env,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.exit_code: Optional[int] = None
        self.cpu_s = 0.0

    def wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not self._reap(False):
            if os.path.exists(self.port_file):
                with open(self.port_file, encoding="utf-8") as handle:
                    return json.load(handle)["port"]
            time.sleep(0.002)
        raise RuntimeError(f"server did not report a port; log: "
                           f"{self.log_tail()}")

    def _reap(self, block: bool) -> bool:
        """Collect the child's exit code and CPU seconds once it has
        exited; False while it still runs (non-blocking)."""
        if self.exit_code is not None:
            return True
        done, status, usage = os.wait4(self.proc.pid,
                                       0 if block else os.WNOHANG)
        if not done:
            return False
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.exit_code
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self._log.close()
        return True

    def wait_exit(self, timeout: float = 60.0) -> int:
        """Wait for the child to exit, killing it past ``timeout``."""
        deadline = time.monotonic() + timeout
        while not self._reap(False):
            if time.monotonic() > deadline:
                self.kill()
                break
            time.sleep(0.005)
        return self.exit_code

    def kill(self) -> None:
        """Stop the child if it is still running and reap it."""
        if not self._reap(False):
            os.kill(self.proc.pid, signal.SIGKILL)
            self._reap(True)

    def log_tail(self) -> str:
        if not self._log.closed:
            self._log.flush()
        with open(os.path.join(self.work, "server.log"), "rb") as handle:
            return handle.read()[-2000:].decode(errors="replace")

    def spans(self) -> Dict:
        """The span recorder's output (a ``--spans`` server)."""
        with open(self.trace_file, encoding="utf-8") as handle:
            return json.load(handle)

    def wal_bytes(self) -> int:
        if not self.state_dir:
            return 0
        return sum(os.path.getsize(path)
                   for path in wal_files(self.state_dir))


class Pass:
    """One server lifetime driven by the closed loop."""

    def __init__(self, spec: Spec, job_tasks: int, fault: Optional[str],
                 jobs: int, warmup: int, min_pulls: int):
        self.spec = spec
        self.job_tasks = job_tasks
        self.fault = fault
        self.jobs = jobs
        self.warmup = warmup
        self.min_pulls = min_pulls
        self.checks = lib.Checks()
        #: Pull round trips of the timed jobs, in order.
        self.pulls: List[float] = []
        self.job_walls: List[float] = []
        #: Per timed job: its pulls, and its segments of
        #: ``spec.segment_pulls`` pulls.
        self.job_pulls: List[List[float]] = []
        self.job_segments: List[List[float]] = []
        self._marks: List[float] = []
        self.measured_tasks = 0
        self.tasks_done = 0
        self.tasks_submitted = 0
        self.rejected = 0
        self.delta_rejects = 0
        self.double_assigned = 0
        self.files_fetched = 0
        self.stats: Dict = {}
        self.loadgen_cpu_s = 0.0
        self.window_s = 0.0
        self.codecs: List[str] = []
        self._seen: set = set()
        self._mirror = SiteCacheMirror(CAPACITY_FILES)

    # -- one job ---------------------------------------------------------
    def _take(self, assignment: messages.TaskAssign) -> None:
        if assignment.task_id in self._seen:
            self.double_assigned += 1
        self._seen.add(assignment.task_id)

    def _delta_ack(self, reply) -> None:
        if not (isinstance(reply, messages.Ack) and reply.accepted):
            self.delta_rejects += 1

    def _complete(self, reply) -> None:
        if isinstance(reply, messages.Ack) and reply.accepted:
            self.tasks_done += 1
        else:
            self.rejected += 1

    def _admit(self, files: List[int]) -> Dict[str, List[int]]:
        delta = self._mirror.admit(files)
        self.files_fetched += len(delta["added"])
        return delta

    def _settle(self, wire: Wire, owed: list) -> None:
        """Read the replies of pipelined TASK_DONEs / FILE_DELTAs."""
        for kind in owed:
            if kind is messages.TaskDone:
                self._complete(wire.recv())
            else:
                self._delta_ack(wire.recv())
        owed.clear()

    def run_job_single(self, wire: Wire, total: int) -> None:
        """k = 1: REQUEST_TASK, FILE_DELTA, TASK_DONE, each a round
        trip."""
        clock = time.perf_counter
        for index in range(total):
            start = clock()
            self._marks.append(start)
            wire.send(messages.RequestTask())
            task = wire.recv()
            self.pulls.append(clock() - start)
            if not isinstance(task, messages.TaskAssign):
                raise RuntimeError(f"expected TASK, got {task}")
            self._take(task)
            delta = self._admit(task.files)
            self._delta_ack(wire.call(messages.FileDelta(
                site=SITE, added=delta["added"],
                removed=delta["removed"], referenced=list(task.files))))
            done = messages.TaskDone(task_id=task.task_id,
                                     lease_id=task.lease_id)
            self._complete(wire.call(done))
            if index == 0 and self.fault == "duplicate-done":
                self._complete(wire.call(done))

    def run_job_batched(self, wire: Wire, total: int) -> None:
        """k > 1: TASK_BATCH pulls.  A batch's completions and its
        merged cache delta go out on the same write as the next
        REQUEST_TASK, as a prefetching worker sends them."""
        clock = time.perf_counter
        request = messages.RequestTask(max_tasks=self.spec.batch)
        received = 0
        owed: list = []
        start = clock()
        self._marks.append(start)
        wire.send(request)
        while True:
            self._settle(wire, owed)
            batch = wire.recv()
            self.pulls.append(clock() - start)
            if not isinstance(batch, messages.TaskBatch):
                raise RuntimeError(f"expected TASK_BATCH, got {batch}")
            net: Dict[int, bool] = {}  # file -> added (True) / removed
            referenced: List[int] = []
            burst: List[messages.ClientMessage] = []
            for task in batch.assignments():
                self._take(task)
                delta = self._admit(task.files)
                for fid in delta["removed"]:
                    if net.pop(fid, None) is not True:
                        net[fid] = False
                for fid in delta["added"]:
                    if net.pop(fid, None) is not False:
                        net[fid] = True
                referenced.extend(task.files)
                burst.append(messages.TaskDone(task_id=task.task_id,
                                               lease_id=task.lease_id))
            if self.fault == "duplicate-done" and received == 0:
                burst.append(burst[0])
            received += len(batch.tasks)
            burst.append(messages.FileDelta(
                site=SITE, added=sorted(f for f, op in net.items() if op),
                removed=sorted(f for f, op in net.items() if not op),
                referenced=referenced))
            owed.extend(type(message) for message in burst)
            if received >= total:
                wire.send(*burst)
                self._settle(wire, owed)
                return
            start = clock()
            self._marks.append(start)
            wire.send(*burst, request)

    # -- the run ---------------------------------------------------------
    def drive(self, port: int, seed: int) -> None:
        """Run ``warmup`` untimed jobs, then timed jobs until ``jobs``
        of them and ``min_pulls`` timed pulls are done; then read STATS
        and DRAIN."""
        jobs = make_jobs(seed, self.job_tasks)
        control = Wire(port, "loadgen")
        worker = Wire(port, "w0")
        self.codecs = [control.welcome.codec, worker.welcome.codec]
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu0 = usage.ru_utime + usage.ru_stime
        began = time.perf_counter()
        try:
            for index in itertools.count():
                if index == self.warmup:
                    self.pulls.clear()
                job = next(jobs)
                if index < self.warmup:
                    job = job[:WARMUP_TASKS]
                accepted = self._submit(control, job)
                self._marks = []
                first_pull = len(self.pulls)
                if self.spec.batch > 1:
                    self.run_job_batched(worker, len(job))
                else:
                    self.run_job_single(worker, len(job))
                self._marks.append(time.perf_counter())
                if index >= self.warmup:
                    self.job_walls.append(self._marks[-1]
                                          - self._marks[0])
                    self.job_pulls.append(self.pulls[first_pull:])
                    self.job_segments.append(lib.segments(
                        self._marks, self.spec.segment_pulls))
                    self.measured_tasks += len(job)
                status = control.call(
                    messages.JobStatusRequest(job_id=accepted.job_id))
                self.checks.expect(
                    isinstance(status, messages.JobStatusReply)
                    and status.done and status.completed == len(job)
                    and status.pending == 0 and status.outstanding == 0,
                    f"job {accepted.job_id} status {status}")
                if (len(self.job_walls) >= self.jobs
                        and len(self.pulls) >= self.min_pulls):
                    break
            self.window_s = time.perf_counter() - began
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.loadgen_cpu_s = usage.ru_utime + usage.ru_stime - cpu0
            reply = control.call(messages.StatsRequest())
            self.stats = reply.stats if isinstance(
                reply, messages.StatsReply) else {}
            drained = control.call(messages.Drain())
            self.checks.expect(isinstance(drained, messages.Ack),
                               f"DRAIN answered {drained}")
        finally:
            worker.close()
            control.close()

    def _submit(self, control: Wire, job: list) -> messages.JobAccepted:
        job_id = None
        for begin in range(0, len(job), SUBMIT_CHUNK):
            reply = control.call(messages.JobSubmit(
                tasks=job[begin:begin + SUBMIT_CHUNK], job_id=job_id))
            if not isinstance(reply, messages.JobAccepted):
                raise RuntimeError(f"JOB_SUBMIT answered {reply}")
            job_id = reply.job_id
        self.tasks_submitted += len(job)
        return reply

    def audit(self, server: Server) -> None:
        """The serve correctness gate (the server has exited)."""
        expect = self.checks.expect
        stats = self.stats
        lost = self.tasks_submitted - self.tasks_done
        expect(lost == 0, f"{lost} of {self.tasks_submitted} tasks "
               "never completed", weight=lost)
        expect(self.double_assigned == 0,
               f"{self.double_assigned} task(s) assigned twice",
               weight=self.double_assigned)
        expect(self.rejected == 0,
               f"{self.rejected} completion(s) rejected",
               weight=self.rejected)
        expect(self.delta_rejects == 0,
               f"{self.delta_rejects} FILE_DELTA(s) not accepted")
        expect(stats.get("completions") == self.tasks_submitted,
               f"STATS completions {stats.get('completions')} != "
               f"{self.tasks_submitted} submitted")
        expect(stats.get("duplicate_completions") == 0,
               f"STATS duplicate_completions "
               f"{stats.get('duplicate_completions')}")
        expect(sorted(stats.get("scheduler_decision", {}))
               == [self.spec.metric],
               f"STATS scheduler_decision keys "
               f"{sorted(stats.get('scheduler_decision', {}))} != "
               f"[{self.spec.metric!r}]")
        expect(self.codecs == [EXPECTED_CODEC, EXPECTED_CODEC],
               f"negotiated codecs {self.codecs} != {EXPECTED_CODEC}")
        expect(server.exit_code == 0,
               f"server exited {server.exit_code} after DRAIN: "
               f"{server.log_tail()}")


def _spawn(root, work, spec, seed, tag, trace=None):
    started = time.perf_counter()
    server = Server(root, work, spec, seed, tag, trace=trace)
    try:
        port = server.wait_port()
    except BaseException:
        server.kill()
        raise
    return server, port, time.perf_counter() - started


def run_pass(root: str, work: str, spec: Spec, seed: int,
             job_tasks: int, jobs: int, tag: str,
             trace: Optional[str] = None, fault: Optional[str] = None,
             warmup: int = 1,
             min_pulls: int = lib.MIN_PULLS) -> "tuple[Pass, Server]":
    """Spawn a server, drive it through the jobs, drain and audit."""
    load = Pass(spec, job_tasks, fault, jobs, warmup, min_pulls)
    server, port, _ = _spawn(root, work, spec, seed, tag, trace)
    try:
        load.drive(port, seed)
        server.wait_exit()
    finally:
        server.kill()
    load.audit(server)
    return load, server


def idle_server(root: str, work: str, spec: Spec, seed: int, tag: str,
                trace: Optional[str] = None) -> "tuple[Server, float]":
    """Spawn a server and DRAIN it at once.  Returns the reaped server
    (exit code, lifetime CPU: start-up plus shutdown) and the seconds
    until its port file appeared."""
    server, port, spawn_s = _spawn(root, work, spec, seed, tag, trace)
    try:
        control = Wire(port, "setup")
        try:
            control.call(messages.Drain())
        finally:
            control.close()
        server.wait_exit()
    finally:
        server.kill()
    return server, spawn_s


def measure_setup(root: str, work: str, spec: Spec, seed: int,
                  job_tasks: int) -> "tuple[List[float], lib.Checks]":
    """Seconds to generate the first job and spawn a server until its
    port file appears, ``SETUPS`` times; each server must exit 0 after
    DRAIN."""
    samples, checks = [], lib.Checks()
    for index in range(SETUPS):
        started = time.perf_counter()
        next(make_jobs(seed, job_tasks))
        generated = time.perf_counter() - started
        server, spawn_s = idle_server(root, work, spec, seed,
                                      f"setup-{index}")
        samples.append(generated + spawn_s)
        checks.expect(server.exit_code == 0,
                      f"setup server exited {server.exit_code}")
    return samples, checks


def measure(root: str, work: str, name: str, seed: int,
            seconds: float, tiny: bool, fault: Optional[str]) -> Dict:
    """Untraced run: setup samples, then ``spec.passes`` passes through
    the same warm-up job and the jobs that take about ``seconds`` in
    all.

    The timed jobs are alike (same size, same file pool, each started
    on an empty queue and a warm cache), so every one of them, in every
    pass, is a repeat of the same job: the job's wall time and pull
    p50 take each segment and each pull position of the job at its
    fastest job.  p99 needs ``lib.MIN_PULLS`` positions, so it takes
    each pull position of a pass at its fastest pass.
    """
    spec = WORKLOADS[name]
    job_tasks = spec.tiny_job_tasks if tiny else spec.job_tasks
    jobs = max(1, round(seconds / (spec.job_seconds * spec.passes)))
    setup, checks = measure_setup(root, work, spec, seed, job_tasks)
    loads = []
    for index in range(spec.passes):
        load, _server = run_pass(root, work, spec, seed, job_tasks, jobs,
                                 f"run-{index}", fault=fault)
        checks.merge(load.checks)
        loads.append(load)
        checks.expect(len(load.pulls) == len(loads[0].pulls),
                      f"pass {index} made {len(load.pulls)} pulls, the "
                      f"first {len(loads[0].pulls)}")
    timed = [(pulls, segments) for load in loads
             for pulls, segments in zip(load.job_pulls, load.job_segments)]
    job_wall = sum(lib.fastest([segments for _, segments in timed]))
    profile = sorted(lib.fastest([pulls for pulls, _ in timed]))
    tail = sorted(lib.fastest([load.pulls for load in loads]))
    return {
        "checks": checks,
        "attempted": sum(load.tasks_submitted for load in loads),
        "codec": loads[0].codecs[-1],
        "metrics": {
            "setup_s": lib.median(setup),
            "sim_wall_s": job_wall,
            "makespan_min": job_wall / 60.0,
            "file_transfers": loads[0].files_fetched,
            "assign_rate": job_tasks / job_wall,
            "pull_p50_ms": lib.percentile(profile, 0.50) * 1e3,
            "pull_p99_ms": lib.percentile(tail, 0.99) * 1e3,
        },
        "samples": {"setup_s": len(setup), "repeats": len(timed),
                    "repeat_kind": "jobs",
                    "segments": len(timed[0][1]),
                    "pulls": len(profile), "passes": len(loads),
                    "tail_pulls": len(tail)},
    }


def _self_s(totals: Dict, *names: str) -> float:
    return sum(totals[name]["self_s"] for name in names if name in totals)


def _calls(totals: Dict, *names: str) -> int:
    return sum(totals[name]["count"] for name in names if name in totals)


def trace(root: str, work: str, name: str, seed: int, tiny: bool,
          fault: Optional[str]) -> Dict:
    """Traced run: the same ``trace_jobs`` jobs three times: untraced,
    under span recorders, and under cProfile."""
    spec = WORKLOADS[name]
    job_tasks = spec.tiny_job_tasks if tiny else spec.job_tasks
    checks = lib.Checks()
    passes = {}
    for tag, mode in (("plain", None), ("spans", "--spans"),
                      ("profile", "--profile")):
        load, server = run_pass(root, work, spec, seed, job_tasks,
                                  spec.trace_jobs, tag, trace=mode,
                                  fault=fault, warmup=0, min_pulls=0)
        checks.merge(load.checks)
        passes[tag] = (load, server)
    # Start-up and shutdown CPU of an idle server, subtracted from the
    # passes' lifetime CPU so server CPU counts serving only.
    idle_plain, _ = idle_server(root, work, spec, seed, "idle-plain")
    idle_spans, _ = idle_server(root, work, spec, seed, "idle-spans",
                                trace="--spans")
    for idle in (idle_plain, idle_spans):
        checks.expect(idle.exit_code == 0,
                      f"idle server exited {idle.exit_code}")
    plain, plain_server = passes["plain"]
    spanned, spanned_server = passes["spans"]
    record = spanned_server.spans()
    spans = [tuple(span) for span in record["spans"]]
    totals = lib.span_totals(spans)
    stats = pstats.Stats(passes["profile"][1].trace_file)
    buckets = lib.profile_buckets(stats)
    events = lib.profile_calls(stats, "repro/sim/engine.py", "step")
    transfers = lib.profile_calls(stats, "repro/net/flow.py", "transfer")
    latency = plain.stats["decision_latency"]
    engine = record["engine"]
    codec = record["codec"]
    tasks = plain.measured_tasks
    plain_rate = tasks / sum(plain.job_walls)
    spanned_rate = spanned.measured_tasks / sum(spanned.job_walls)
    serving_cpu = plain_server.cpu_s - idle_plain.cpu_s
    site = plain.stats["sites"].get(str(SITE), {})
    layers = {
        "net.self_s": buckets["net"],
        "net.transfers": transfers,
        "sim.events": events,
        "sim.self_s": buckets["sim"],
        "grid.self_s": buckets["grid"],
        "core.index.self_s": buckets["core.index"],
        "core.fractions_s": buckets["fractions"],
        "core.policy.self_s": _self_s(totals, "policy.choose",
                                      "policy.choose_many"),
        "core.policy.decisions": latency["count"],
        "core.policy.tasks_scored": engine["tasks_scored"],
        "core.policy.scored_per_decision": (
            engine["tasks_scored"] / engine["decisions"]
            if engine["decisions"] else 0.0),
        "policy.decide_busy_s": latency["count"] * latency["mean_us"]
        / 1e6,
        "policy.decide_mean_us": latency["mean_us"],
        "codec.decode_s": _self_s(totals, "codec.feed"),
        "codec.encode_s": _self_s(totals, "codec.encode"),
        "codec.bytes_in": codec["bytes_in"],
        "codec.bytes_out": codec["bytes_out"],
        "codec.frames": codec["frames_in"] + codec["frames_out"],
        "service.request_s": _self_s(totals, "service.request_task",
                                     "service.request_tasks"),
        "service.file_delta_s": _self_s(totals, "service.file_delta"),
        "service.task_done_s": _self_s(totals, "service.task_done"),
        "service.submit_s": _self_s(totals, "service.submit_job"),
        "service.request_calls": _calls(totals, "service.request_task",
                                        "service.request_tasks"),
        "service.file_delta_calls": _calls(totals, "service.file_delta"),
        "service.task_done_calls": _calls(totals, "service.task_done"),
        "service.submit_calls": _calls(totals, "service.submit_job"),
        "wal.records": _calls(totals, "wal.emit"),
        "wal.bytes": plain_server.wal_bytes(),
        "wal.append_s": _self_s(totals, "wal.emit"),
        "wal.flush_s": _self_s(totals, "wal.flush", "wal.sync"),
        "server.cpu_s": serving_cpu,
        "server.cpu_per_task_us": serving_cpu / tasks * 1e6,
        "server.self_s": (spanned_server.cpu_s - idle_spans.cpu_s
                          - record["root_cpu_s"]),
        "loadgen.cpu_s": plain.loadgen_cpu_s,
        "loadgen.cpu_share": plain.loadgen_cpu_s / plain.window_s,
        "sites.overlap_hit_rate": site.get("overlap_hit_rate", 0.0),
        "trace.overhead": plain_rate / spanned_rate,
    }
    return {"checks": checks, "attempted": 3 * tasks, "layers": layers,
            "codec": plain.codecs[-1], "profile": buckets,
            "spans": totals}
