"""Reference implementation: the paper's Figure 2, taken literally.

On every request it loops over *every* pending task, recomputing
``|F_t|``, ``ref_t``, ``totalRef`` and ``totalRest`` directly against
the requesting site's storage — the O(T·I) walk of Section 4.4, with
no index and no caching.  ChooseTask(n) then samples the top-n.

This exists for verification, not speed: the production
:class:`~repro.core.worker_centric.WorkerCentricScheduler` must make
*identical* decisions (property-tested in the suite), and the
index-vs-rescan benchmark quantifies the cost difference.
"""

from __future__ import annotations

import random
import typing
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..grid.job import Job, Task
from ..sim.events import Event
from .base import BaseScheduler
from .metrics import METRICS, TaskView, rest_weight_exact

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..grid.worker import Worker


class NaiveWorkerCentricScheduler(BaseScheduler):
    """Figure 2 verbatim: full rescan per request."""

    supports_dynamic_release = True

    def __init__(self, job: Job, metric: str = "rest", n: int = 1,
                 rng: Optional[random.Random] = None,
                 initial_task_ids=None):
        super().__init__(job)
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.metric_name = metric
        self.n = n
        self._weight = METRICS[metric]
        self._rng = rng or random.Random(0)
        wanted = None if initial_task_ids is None else set(initial_task_ids)
        self._pending: Dict[int, Task] = {
            task.task_id: task for task in job
            if wanted is None or task.task_id in wanted}
        self._parked: List[Tuple["Worker", Event]] = []
        self.decisions = 0
        self.tasks_scored = 0

    # -- GridScheduler -----------------------------------------------------
    def next_task(self, worker: "Worker") -> Event:
        event = Event(self.grid.env)
        if not self._pending:
            if self.tasks_remaining == 0:
                event.succeed(None)
            else:
                self._parked.append((worker, event))
                self.job_done.add_callback(lambda _e: self._drain())
            return event
        task = self._choose(worker)
        del self._pending[task.task_id]
        self._trace_assignment(worker, task)
        event.succeed(task)
        return event

    def notify_cancelled(self, worker: "Worker", task: Task) -> None:
        if not self.is_completed(task.task_id):
            self.release_tasks([task])

    def release_tasks(self, tasks) -> None:
        for task in tasks:
            if task.task_id in self._pending:
                raise ValueError(f"task {task.task_id} already pending")
            self._pending[task.task_id] = task
        while self._parked and self._pending:
            worker, event = self._parked.pop(0)
            if event.triggered:
                continue
            task = self._choose(worker)
            del self._pending[task.task_id]
            self._trace_assignment(worker, task)
            event.succeed(task)

    def _drain(self) -> None:
        parked, self._parked = self._parked, []
        for _worker, event in parked:
            if not event.triggered:
                event.succeed(None)

    # -- the verbatim algorithm -------------------------------------------
    def _choose(self, worker: "Worker") -> Task:
        """for each task t in taskQueue: CalculateWeight(t); ChooseTask."""
        self.decisions += 1
        storage = worker.site.storage

        # One full pass for the aggregate normalizers.
        overlaps: Dict[int, int] = {}
        refsums: Dict[int, float] = {}
        total_ref = 0.0
        # exact, like the indexed scheduler's integer sum (tie stability)
        total_rest_exact = Fraction(0)
        for task in self._pending.values():
            overlap = 0
            refsum = 0.0
            for fid in task.files:
                if fid in storage:
                    overlap += 1
                    refsum += storage.reference_count(fid)
            overlaps[task.task_id] = overlap
            refsums[task.task_id] = refsum
            total_ref += refsum
            total_rest_exact += rest_weight_exact(task.num_files - overlap)
            self.tasks_scored += 1
        total_rest = float(total_rest_exact)

        # Second pass: weights, keeping the best n.
        best: List[Tuple[float, int]] = []
        for task in self._pending.values():
            view = TaskView(task_id=task.task_id,
                            num_files=task.num_files,
                            overlap=overlaps[task.task_id],
                            refsum=refsums[task.task_id],
                            total_refsum=total_ref,
                            total_rest=total_rest)
            weight = self._weight(view)
            entry = (weight, task.task_id)
            best.append(entry)
        best.sort(key=lambda pair: (-pair[0], pair[1]))
        best = best[:self.n]

        if len(best) == 1 or self.n == 1:
            return self._pending[best[0][1]]
        total = sum(weight for weight, _tid in best)
        if total <= 0:
            return self._pending[self._rng.choice(best)[1]]
        point = self._rng.random() * total
        acc = 0.0
        for weight, task_id in best:
            acc += weight
            if point <= acc:
                return self._pending[task_id]
        return self._pending[best[-1][1]]
