"""OverlapIndex.total_rest is exact: equal to the rounded rational sum.

The index keeps ``totalRest`` as integer histograms of missing counts
and sums them once per query.  Over random streams of storage inserts,
evictions and touches, and of tasks leaving and rejoining the pending
set, the result must equal ``float`` of the exact ``Fraction`` sum of
``rest`` weights, bit for bit — including with tasks of 10^4+ files,
whose missing counts must not turn per-event updates into big-int
arithmetic.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import rest_weight_exact
from repro.core.overlap_index import OverlapIndex
from repro.grid.storage import SiteStorage

from conftest import make_job

POOL = 40          # small files 0..39, shared by every task
BIG_START = POOL   # big tasks add their own files from here on
SITES = 2


@st.composite
def job_and_stream(draw):
    small = draw(st.lists(st.sets(st.integers(0, POOL - 1), min_size=1,
                                  max_size=9),
                          min_size=1, max_size=12))
    big_sizes = draw(st.lists(st.integers(10_000, 13_000), min_size=1,
                              max_size=2))
    task_files = list(small)
    start = BIG_START
    for size in big_sizes:
        shared = draw(st.sets(st.integers(0, POOL - 1), max_size=5))
        task_files.append(shared | set(range(start, start + size)))
        start += size
    # Files a storage event may name: the pool plus the first few of
    # every big task's own files.
    fids = list(range(POOL)) + [
        fid for files in task_files[len(small):]
        for fid in sorted(files)[:12]]
    tasks = len(task_files)
    op = st.one_of(
        st.tuples(st.just("insert"), st.integers(0, SITES - 1),
                  st.sampled_from(fids)),
        st.tuples(st.just("touch"), st.integers(0, SITES - 1),
                  st.sampled_from(fids)),
        st.tuples(st.just("toggle"), st.integers(0, tasks - 1)))
    initial = draw(st.sets(st.integers(0, tasks - 1)))
    capacity = draw(st.integers(4, 16))
    return task_files, initial, capacity, draw(st.lists(op, max_size=60))


def exact_total_rest(job, pending, storage):
    resident = storage.resident_files
    total = Fraction(0)
    for tid in pending:
        files = job[tid].files
        overlap = sum(1 for fid in resident if fid in files)
        total += rest_weight_exact(len(files) - overlap)
    return float(total)


def small_ints(histogram):
    return all(abs(key).bit_length() <= 32
               and abs(count).bit_length() <= 32
               for key, count in histogram.items())


@given(job_and_stream())
@settings(max_examples=40, deadline=None)
def test_total_rest_equals_rounded_exact_sum(data):
    task_files, initial, capacity, stream = data
    job = make_job(task_files)
    index = OverlapIndex(job, [job[tid] for tid in sorted(initial)])
    storages = [SiteStorage(capacity) for _ in range(SITES)]
    for site, storage in enumerate(storages):
        index.watch_site(site, storage)

    for step in stream:
        if step[0] == "insert":
            storages[step[1]].insert(step[2])
        elif step[0] == "touch":
            storages[step[1]].touch(step[2])
        elif step[1] in index.pending_tasks:
            index.remove_task(job[step[1]])
        else:
            index.add_task(job[step[1]])
        for site, storage in enumerate(storages):
            assert index.total_rest(site) \
                == exact_total_rest(job, index.pending_tasks, storage)
            assert small_ints(index._sites[site].missing_correction)
        assert small_ints(index._size_counts)


def test_total_rest_is_cached_until_the_site_changes():
    job = make_job([{0, 1}, {1, 2, 3}, set(range(4, 10_004))])
    index = OverlapIndex(job)
    storages = [SiteStorage(8), SiteStorage(8)]
    for site, storage in enumerate(storages):
        index.watch_site(site, storage)
    first = index.total_rest(0)
    assert index._sites[0].cached_total_rest == first
    storages[1].insert(1)          # another site: site 0 stays cached
    assert index._sites[0].cached_total_rest == first
    storages[0].insert(1)          # this site: recomputed on demand
    assert index._sites[0].cached_total_rest is None
    assert index.total_rest(0) == exact_total_rest(
        job, index.pending_tasks, storages[0])
    index.remove_task(job[2])      # the pending set: every site
    assert index._sites[0].cached_total_rest is None
    assert index._sites[1].cached_total_rest is None
