"""WAL replay re-runs the live service's own state transitions.

Two groups:

* **replica leases across a crash** — a tail-replicated task whose
  primary holder lapses or disconnects must still be completable by
  the replica holder after recovery, from the full log and from a
  snapshot plus tail, exactly once;
* **replay equivalence** — one scripted victim + thief life emits
  every state-bearing WAL record kind; for both services a full-log
  replay and a snapshot-at-midpoint + tail replay rebuild the live
  functional state, and every kind is folded by a transition method.
"""

import json

import pytest

from repro.cluster.shard import recover_service, wal_path
from repro.cluster.snapshot import write_snapshot
from repro.obs.events import EVENT_SCHEMAS, EventLog, iter_events
from repro.serve.service import SchedulerService


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def pull(service, worker, site=0, job_id=None):
    box = []
    service.request_task(worker, site, box.append, job_id=job_id)
    return box[0] if box else "parked"


def submit(service, file_lists):
    return service.submit_job([{"files": files, "flops": 1.0}
                               for files in file_lists])


def functional_state(service):
    """Export minus the decision-stream fields (replay folds recorded
    outcomes without re-running ``choose``)."""
    state = json.loads(json.dumps(service.export_state()))
    for key in ("rng", "decisions", "tasks_scored"):
        state.pop(key)
    return state


# -- replica leases across a crash -------------------------------------------

def replica_service(clock, events=None):
    return SchedulerService(metric="rest", n=1, seed=0, clock=clock,
                            lease_ttl=5.0, events=events,
                            wal_events=True, replicate_tail=True)


@pytest.mark.parametrize("from_snapshot", [False, True],
                         ids=["full-log", "snapshot+tail"])
@pytest.mark.parametrize("loss", ["expiry", "disconnect"])
def test_replica_lease_survives_recovery(tmp_path, loss, from_snapshot):
    state_dir = str(tmp_path)
    clock = FakeClock()
    events = EventLog(path=wal_path(state_dir), auto_flush=True)
    service = replica_service(clock, events)
    job_id = submit(service, [[1, 2]])["job_id"]
    primary = pull(service, "w1", site=0)
    replica = pull(service, "w2", site=1)  # tail: replicate, not park
    task_id = primary.task.task_id
    assert replica.task.task_id == task_id
    assert replica.lease_id != primary.lease_id
    if from_snapshot:
        write_snapshot(state_dir, service.export_state(),
                       events.next_seq)
    if loss == "expiry":
        clock.advance(4.0)
        service.heartbeat("w2")  # only the replica stays alive
        clock.advance(2.0)
        assert service.expire_leases() == 1
    else:
        service.disconnect("w1")
    events.close()

    recovered = replica_service(FakeClock())
    report = recover_service(recovered, state_dir)
    assert (report["snapshot_seq"] is not None) == from_snapshot
    recovered_state = functional_state(recovered)
    done = recovered.task_done("w2", task_id, replica.lease_id)
    assert done.accepted, done.reason
    zombie = recovered.task_done("w1", task_id, primary.lease_id)
    assert (zombie.accepted, zombie.reason) == (False,
                                                "already-complete")
    assert recovered.job_status(job_id)["done"]
    assert recovered.stats.completions == 1
    assert recovered_state == functional_state(service)


# -- replay equivalence over every state-bearing record kind ----------------

#: Every method ``replay_record`` may fold a record through.
TRANSITIONS = ("_admit", "_grant_lease", "_complete", "_drop_lease",
               "_apply_delta", "_detach_export", "_ack_export",
               "_drop_export", "_hold_import", "_commit_import",
               "_drop_import", "_trim_outbox")

STATE_KINDS = set(EVENT_SCHEMAS) - {"decision"}


def shard_service(index, clock, events=None):
    return SchedulerService(metric="combined", n=2, seed=3, clock=clock,
                            lease_ttl=5.0, events=events,
                            wal_events=True, id_start=index,
                            id_stride=2, replicate_tail=True,
                            steal_watermark=1)


def scripted_life(victim_dir, thief_dir):
    """Drive a victim (shard 0) and a thief (shard 1) through every
    state-bearing record kind; returns the live services and, per
    service, a midpoint ``(wal_seq, exported state)``."""
    clock = FakeClock()
    victim_log = EventLog(path=wal_path(victim_dir), auto_flush=True)
    thief_log = EventLog(path=wal_path(thief_dir), auto_flush=True)
    victim = shard_service(0, clock, victim_log)
    thief = shard_service(1, clock, thief_log)
    job_id = submit(victim, [[1, 2, 3], [3, 4], [5], [1, 5, 6], [2, 7],
                             [7, 8], [8, 9], [4, 9]])["job_id"]
    victim.file_delta(0, added=[1, 2], removed=[], referenced=[3])
    # complete / lease-expire + requeue / disconnect requeue
    first = pull(victim, "w0", site=0)
    victim.task_done("w0", first.task.task_id, first.lease_id)
    pull(victim, "w1", site=1)
    clock.advance(6.0)
    assert victim.expire_leases() == 1
    pull(victim, "w2", site=0)
    assert victim.disconnect("w2") == 1
    # An acked export the thief commits and runs.
    grant = victim.export_steal_batch("steal/1", 2, [])
    thief.steal_import_tentative(0, grant["export_id"], grant["tasks"])
    assert victim.steal_export_acked(grant["export_id"])
    assert thief.steal_commit_import(0, grant["export_id"]) == 2
    midpoints = {"victim": (victim_log.next_seq,
                            victim.export_state()),
                 "thief": (thief_log.next_seq, thief.export_state())}
    # An export the victim aborts when its thief vanishes un-acked.
    doomed = victim.export_steal_batch("steal/1", 1, [])
    thief.steal_import_tentative(0, doomed["export_id"], doomed["tasks"])
    victim.disconnect("steal/1")
    assert not victim.steal_export_acked(doomed["export_id"])
    thief.steal_abort_import(0, doomed["export_id"])
    # The thief runs one stolen task and forwards its completion home.
    stolen = pull(thief, "t0", site=0)
    thief.task_done("t0", stolen.task.task_id, stolen.lease_id)
    pull(thief, "t1", site=0)  # the other one stays in flight
    for origin, task_ids in thief.take_steal_completions().items():
        assert victim.steal_done(task_ids, "steal/1")["completed"] == 1
        thief.steal_forwarded(origin, task_ids)
    # Tail replication on the victim: take the rest of the job, then
    # idle pulls get replica leases on the outstanding tasks.
    def take_rest(worker):
        taken = 0
        while victim.job_status(job_id)["pending"]:
            pull(victim, worker, site=1, job_id=job_id)
            taken += 1
        return taken

    def replicate(worker):
        copy = pull(victim, worker, site=0, job_id=job_id)
        assert copy != "parked"
        return copy.task.task_id

    held = take_rest("w3")
    replicated = [replicate("w4"), replicate("w5")]
    clock.advance(4.0)
    victim.heartbeat("w4")
    victim.heartbeat("w5")
    clock.advance(2.0)
    # w3's primaries lapse; w4's and w5's replicas take over theirs.
    assert victim.expire_leases() == held
    assert victim.queue_depth == held - len(replicated)
    take_rest("w6")
    assert replicate("w7") == replicated[0]
    assert replicate("w8") == replicated[1]
    victim.disconnect("w4")  # primary lost: w7's replica takes over
    victim.disconnect("w8")  # a replica-only holder leaves
    assert victim.queue_depth == 0
    assert replicate("w9") == replicated[1]  # stays live to the end
    victim.file_delta(1, added=[7], removed=[], referenced=[7, 8])
    victim_log.close()
    thief_log.close()
    return {"victim": victim, "thief": thief}, midpoints


def spy_transitions(service):
    calls = []
    for name in TRANSITIONS:
        method = getattr(service, name)

        def spy(*args, _name=name, _method=method, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        setattr(service, name, spy)
    return calls


def test_replay_equivalence_over_every_record_kind(tmp_path):
    dirs = {}
    for role in ("victim", "thief"):
        (tmp_path / role).mkdir()
        dirs[role] = str(tmp_path / role)
    live, midpoints = scripted_life(dirs["victim"], dirs["thief"])

    emitted = set()
    reached = set()
    changed = set()
    for role, index in (("victim", 0), ("thief", 1)):
        records = list(iter_events(wal_path(dirs[role])))
        emitted.update(record["event"] for record in records)
        expected = functional_state(live[role])

        # Full-log replay, one record at a time, watching transitions.
        replayed = shard_service(index, FakeClock())
        calls = spy_transitions(replayed)
        for record in records:
            calls.clear()
            if replayed.replay_record(record):
                changed.add(record["event"])
            if calls:
                reached.add(record["event"])
        assert functional_state(replayed) == expected, role

        # Snapshot at the midpoint, then the tail, via shard recovery.
        wal_seq, state = midpoints[role]
        write_snapshot(dirs[role], json.loads(json.dumps(state)),
                       wal_seq)
        recovered = shard_service(index, FakeClock())
        report = recover_service(recovered, dirs[role])
        assert report["snapshot_seq"] == wal_seq
        assert report["skipped"] > 0 and report["replayed"] > 0
        assert functional_state(recovered) == expected, role

    assert emitted >= STATE_KINDS, sorted(STATE_KINDS - emitted)
    assert reached >= STATE_KINDS, sorted(STATE_KINDS - reached)
    assert changed >= STATE_KINDS, sorted(STATE_KINDS - changed)
    # Replication really ran: the victim ends with a replica lease
    # still riding along, so the compared exports carried it.
    victim = live["victim"]
    assert victim.stats.task_replications >= 2
    assert "replicas" in victim.export_state()
