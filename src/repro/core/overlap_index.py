"""Incremental overlap/reference bookkeeping per (site, pending task).

The basic algorithm scores every pending task on every worker request —
O(T·I) as the paper notes.  A naive rescan is quadratic over the whole
run and dominates simulation time, so the scheduler instead maintains,
per site:

* ``overlap[t] = |F_t|`` for every pending task with nonzero overlap,
* ``refsum[t] = ref_t = Σ_{i ∈ F_t} r_i`` for the same tasks,
* the aggregates ``totalRef`` and ``totalRest`` over *all* pending
  tasks,

updated from storage insert/evict/touch notifications through an
inverted file → pending-tasks index.  Each storage change costs
O(tasks referencing that file) — about 9 for Coadd — instead of O(T·I)
per request.

:meth:`OverlapIndex.view` then assembles the O(1)
:class:`~repro.core.metrics.TaskView` a metric needs, and the naive
recomputation (:meth:`naive_overlap`, :meth:`naive_refsum`) is kept for
cross-checking in tests and the index-vs-rescan ablation benchmark.

On top of the per-task counters each site keeps two
:class:`~repro.core.candidates.CandidateBuckets` — overlap-count →
task ids and missing-count → task ids — maintained in step with
``overlap[t]``.  They give the policy engine's fast path ranked
candidate retrieval without scanning (``overlap``/``rest`` weights are
monotone in those integer keys); see ``docs/performance.md``.

``totalRest = Σ_{t pending} rest(|t| - ov_t)`` depends on a task only
through its missing count, so it is kept as a histogram of missing
counts, split in two:

* a site-independent base, the number of pending tasks of each size
  ``|t|``, which changes only when the pending set changes, and
* per site, a correction that moves each overlapped task from ``|t|``
  to ``|t| - ov_t``: one overlap change is two int dict updates.

:meth:`OverlapIndex.total_rest` sums ``Σ count[m]·rest(m)`` exactly,
as one integer fraction over the distinct ``m`` present, and rounds it
once, so the value never depends on update order; it is cached per
site until the pending set or that site's overlaps change.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Set

from ..grid.job import Job, Task
from ..grid.storage import SiteStorage

from .candidates import CandidateBuckets
from .metrics import TaskView, rest_weight


def _bump(histogram: Dict[int, int], key: int, delta: int) -> None:
    """Add ``delta`` to ``histogram[key]``, keeping no zero entries."""
    count = histogram.get(key, 0) + delta
    if count:
        histogram[key] = count
    else:
        del histogram[key]


def _exact_rest_sum(multiple: int, *histograms: Dict[int, int]) -> float:
    """``Σ count·rest(m)`` over missing-count histograms, rounded once.

    The exact sum is ``N / L`` with ``L`` the lcm of ``multiple`` and
    every nonzero ``m`` present (``rest(0) = 2``); int/int true division
    is correctly rounded, so this equals ``float`` of the same sum of
    :func:`~repro.core.metrics.rest_weight_exact` terms.  ``multiple``
    is a common multiple of keys the caller already knows, so only the
    other keys pay for an lcm step.
    """
    denominator = multiple
    for histogram in histograms:
        for m in histogram:
            if m and denominator % m:
                denominator = math.lcm(denominator, m)
    numerator = 0
    for histogram in histograms:
        for m, count in histogram.items():
            numerator += count * (denominator // m if m else 2 * denominator)
    return numerator / denominator


class _SiteState:
    """Per-site incremental counters."""

    __slots__ = ("storage", "overlap", "refsum", "total_refsum",
                 "missing_correction", "cached_total_rest", "by_overlap",
                 "by_missing")

    def __init__(self, storage: SiteStorage):
        self.storage = storage
        self.overlap: Dict[int, int] = {}
        self.refsum: Dict[int, float] = {}
        self.total_refsum = 0.0
        #: missing count -> net number of overlapped tasks moved there
        #: from their size |t| (negative at sizes); no zero entries.
        self.missing_correction: Dict[int, int] = {}
        #: totalRest for the current histograms, or None once stale.
        self.cached_total_rest: Optional[float] = None
        #: Candidate buckets over the *nonzero-overlap* tasks (exactly
        #: the key set of ``overlap``), keyed two ways for the two
        #: bucketable metrics: overlap count (``overlap`` metric walks
        #: them descending) and missing count (``rest`` walks them
        #: ascending).  Zero-overlap tasks stay on the engine's shared
        #: zero-candidate heap, as before.
        self.by_overlap = CandidateBuckets()
        self.by_missing = CandidateBuckets()

    def bucket_add(self, tid: int, size: int, ov: int) -> None:
        self.by_overlap.add(tid, ov)
        self.by_missing.add(tid, size - ov)

    def bucket_move(self, tid: int, size: int, ov: int) -> None:
        self.by_overlap.move(tid, ov)
        self.by_missing.move(tid, size - ov)

    def bucket_remove(self, tid: int) -> None:
        self.by_overlap.remove(tid)
        self.by_missing.remove(tid)

    def move_missing(self, source: int, target: int) -> None:
        """Move one task from missing count ``source`` to ``target``."""
        _bump(self.missing_correction, source, -1)
        _bump(self.missing_correction, target, 1)
        self.cached_total_rest = None


class OverlapIndex:
    """Maintains overlap cardinalities and reference sums incrementally."""

    def __init__(self, job: Job, tasks: Optional[Iterable[Task]] = None):
        """Track ``tasks`` (default: every task of ``job``) as pending."""
        self.job = job
        self._file_to_tasks: Dict[int, Set[int]] = {}
        self._pending: Set[int] = set()
        self._sites: Dict[int, _SiteState] = {}
        #: |t| -> number of pending tasks of that size (no zero entries).
        self._size_counts: Dict[int, int] = {}
        #: lcm of the sizes in ``_size_counts``; None once that set changes.
        self._sizes_lcm: Optional[int] = None
        for task in (job if tasks is None else tasks):
            self.add_task(task)

    # -- wiring ------------------------------------------------------------
    def watch_site(self, site_id: int, storage: SiteStorage) -> None:
        """Track ``storage`` as site ``site_id`` (subscribes listeners).

        Any files already resident are folded in immediately.
        """
        if site_id in self._sites:
            raise ValueError(f"site {site_id} already watched")
        state = _SiteState(storage)
        self._sites[site_id] = state
        storage.on_insert(lambda fid, s=state: self._on_insert(s, fid))
        storage.on_evict(lambda fid, s=state: self._on_evict(s, fid))
        storage.on_touch(lambda fid, s=state: self._on_touch(s, fid))
        for fid in storage.resident_files:
            self._on_insert(state, fid)

    # -- pending-set management --------------------------------------------
    @property
    def pending_tasks(self) -> Set[int]:
        """Ids of tasks currently tracked (read-only view by convention)."""
        return self._pending

    def add_task(self, task: Task) -> None:
        """Track a pending task (initial load, or a requeue)."""
        tid = task.task_id
        if tid in self._pending:
            raise ValueError(f"task {tid} already pending")
        self._pending.add(tid)
        if task.num_files not in self._size_counts:
            self._sizes_lcm = None
        _bump(self._size_counts, task.num_files, 1)
        for fid in task.files:
            self._file_to_tasks.setdefault(fid, set()).add(tid)
        # Fold in any storage that already holds some of its files.
        for state in self._sites.values():
            state.cached_total_rest = None
            ov = state.storage.overlap(task.files)
            if ov:
                state.overlap[tid] = ov
                state.bucket_add(tid, task.num_files, ov)
                ref = sum(state.storage.reference_count(fid)
                          for fid in task.files if fid in state.storage)
                state.refsum[tid] = ref
                state.total_refsum += ref
                state.move_missing(task.num_files, task.num_files - ov)

    def remove_task(self, task: Task) -> None:
        """Stop tracking a task (it was assigned or completed)."""
        tid = task.task_id
        if tid not in self._pending:
            raise KeyError(f"task {tid} is not pending")
        self._pending.remove(tid)
        _bump(self._size_counts, task.num_files, -1)
        if task.num_files not in self._size_counts:
            self._sizes_lcm = None
        for fid in task.files:
            referers = self._file_to_tasks.get(fid)
            if referers is not None:
                referers.discard(tid)
                if not referers:
                    del self._file_to_tasks[fid]
        for state in self._sites.values():
            state.cached_total_rest = None
            ov = state.overlap.pop(tid, 0)
            if ov:
                state.bucket_remove(tid)
                state.total_refsum -= state.refsum.pop(tid, 0.0)
                state.move_missing(task.num_files - ov, task.num_files)

    # -- storage listeners ---------------------------------------------
    def _on_insert(self, state: _SiteState, fid: int) -> None:
        tasks = self._file_to_tasks.get(fid)
        if not tasks:
            return
        ref = state.storage.reference_count(fid)
        for tid in tasks:
            size = self.job[tid].num_files
            old = state.overlap.get(tid, 0)
            state.overlap[tid] = old + 1
            if old:
                state.bucket_move(tid, size, old + 1)
            else:
                state.bucket_add(tid, size, 1)
            state.move_missing(size - old, size - old - 1)
            if ref:
                state.refsum[tid] = state.refsum.get(tid, 0.0) + ref
                state.total_refsum += ref
            elif tid not in state.refsum:
                state.refsum[tid] = 0.0

    def _on_evict(self, state: _SiteState, fid: int) -> None:
        tasks = self._file_to_tasks.get(fid)
        if not tasks:
            return
        ref = state.storage.reference_count(fid)
        for tid in tasks:
            size = self.job[tid].num_files
            old = state.overlap[tid]
            state.move_missing(size - old, size - old + 1)
            if old == 1:
                del state.overlap[tid]
                state.bucket_remove(tid)
                state.total_refsum -= state.refsum.pop(tid, 0.0)
            else:
                state.overlap[tid] = old - 1
                state.bucket_move(tid, size, old - 1)
                if ref:
                    state.refsum[tid] -= ref
                    state.total_refsum -= ref

    def _on_touch(self, state: _SiteState, fid: int) -> None:
        if fid not in state.storage:
            return
        tasks = self._file_to_tasks.get(fid)
        if not tasks:
            return
        for tid in tasks:
            # The file is resident, so every pending referer overlaps it.
            state.refsum[tid] = state.refsum.get(tid, 0.0) + 1
            state.total_refsum += 1

    # -- queries -----------------------------------------------------------
    def nonzero_overlaps(self, site_id: int) -> Dict[int, int]:
        """task id -> |F_t| for pending tasks with overlap > 0."""
        return self._sites[site_id].overlap

    def candidates_by_overlap(self, site_id: int) -> CandidateBuckets:
        """Nonzero-overlap candidates bucketed by overlap count |F_t|.

        ``top(n, reverse=True)`` is the site's top-n under the
        ``overlap`` metric among nonzero-overlap tasks, in O(n +
        buckets touched) instead of a full candidate scan.
        """
        return self._sites[site_id].by_overlap

    def candidates_by_missing(self, site_id: int) -> CandidateBuckets:
        """Nonzero-overlap candidates bucketed by missing count
        ``|t| - |F_t|``; ``top(n)`` is the ``rest`` metric's top-n
        among nonzero-overlap tasks."""
        return self._sites[site_id].by_missing

    def refsums(self, site_id: int) -> Dict[int, float]:
        """task id -> ref_t for pending tasks with overlap > 0.

        Tasks absent from the map have ``ref_t = 0`` (callers use
        ``.get(task_id, 0.0)``); both views are read-only by convention.
        """
        return self._sites[site_id].refsum

    def total_rest(self, site_id: int) -> float:
        """totalRest over the pending set for this site.

        Summed exactly from the missing-count histogram and rounded
        once, so the value never depends on update order.
        """
        state = self._sites[site_id]
        if state.cached_total_rest is None:
            if self._sizes_lcm is None:
                self._sizes_lcm = math.lcm(*self._size_counts)
            state.cached_total_rest = _exact_rest_sum(
                self._sizes_lcm, self._size_counts, state.missing_correction)
        return state.cached_total_rest

    def total_refsum(self, site_id: int) -> float:
        """totalRef over the pending set for this site."""
        return self._sites[site_id].total_refsum

    def view(self, site_id: int, task: Task) -> TaskView:
        """O(1) :class:`TaskView` for one (site, pending task) pair."""
        state = self._sites[site_id]
        return TaskView(
            task_id=task.task_id,
            num_files=task.num_files,
            overlap=state.overlap.get(task.task_id, 0),
            refsum=state.refsum.get(task.task_id, 0.0),
            total_refsum=state.total_refsum,
            total_rest=self.total_rest(site_id),
        )

    # -- reference (naive) implementations, for verification ----------------
    def naive_overlap(self, site_id: int, task: Task) -> int:
        """|F_t| by direct storage scan (cross-check / ablation)."""
        return self._sites[site_id].storage.overlap(task.files)

    def naive_refsum(self, site_id: int, task: Task) -> float:
        """ref_t by direct storage scan (cross-check / ablation)."""
        storage = self._sites[site_id].storage
        return float(sum(storage.reference_count(fid)
                         for fid in task.files if fid in storage))

    def naive_total_rest(self, site_id: int) -> float:
        """totalRest by rescanning every pending task."""
        storage = self._sites[site_id].storage
        return sum(
            rest_weight(self.job[tid].num_files
                        - storage.overlap(self.job[tid].files))
            for tid in self._pending)
