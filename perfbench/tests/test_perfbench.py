"""Self-tests of the benchmark: helpers against oracles, tiny smoke runs
of every workload, and injected faults that must fail the run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import lib  # noqa: E402
import run as bench  # noqa: E402


# -- percentiles ---------------------------------------------------------------
def oracle(values, q):
    """Smallest sample with at least a q share of samples <= it."""
    ordered = sorted(values)
    for value in ordered:
        if sum(1 for v in ordered if v <= value) >= q * len(ordered):
            return value
    return ordered[-1]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 99, 100, 101, 999, 1000,
                               1009, 1010, 1011, 2500])
@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_percentile_matches_sorted_list_oracle(n, q):
    values = [(i * 7919) % (n + 13) + i / 1e6 for i in range(n)]
    assert lib.percentile(sorted(values), q) == oracle(values, q)


def test_samples_beyond_count_the_tail():
    for n in (1, 10, 100, 999, 1000, 1009, 1010, 1011, 5000):
        values = list(range(n))
        p99 = lib.percentile(values, 0.99)
        assert lib.beyond(n, 0.99) == sum(1 for v in values if v > p99)


def test_pull_window_is_the_smallest_with_ten_beyond_p99():
    assert lib.beyond(lib.MIN_PULLS, 0.99) == lib.MIN_BEYOND
    assert lib.beyond(lib.MIN_PULLS - 1, 0.99) < lib.MIN_BEYOND


def test_segments_split_marks_every_size_pulls():
    marks = [0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0]
    assert lib.segments(marks, 2) == [3.0, 7.0, 11.0]
    assert lib.segments(marks, 4) == [10.0, 11.0]
    assert lib.segments(marks, 100) == [21.0]
    assert sum(lib.segments(marks, 5)) == marks[-1] - marks[0]


def test_fastest_takes_each_positions_quickest_repeat():
    # The same work three times; a slow spell of the host hits a
    # different stretch of each repeat.
    clean = [1.0 + (i % 10) / 100 for i in range(1000)]
    repeats = [clean[:], clean[:], clean[:]]
    for index, (start, end) in enumerate([(0, 300), (200, 700),
                                          (650, 1000)]):
        for i in range(start, end):
            repeats[index][i] *= 1.5
    assert lib.fastest(repeats) == clean
    assert lib.fastest([clean, clean[:10]]) == clean[:10]


def test_fastest_timings_drop_a_slow_spell():
    clean = [1.0 + (i % 100) / 1000 for i in range(1000)]
    slow = [value * 2.0 for value in clean]
    segments = [[5.0, 5.0, 5.0], [5.0, 9.0, 5.0], [9.0, 5.0, 9.0]]
    wall, p50, p99, positions = lib.fastest_timings(
        segments, [slow[:500] + clean[500:], clean[:500] + slow[500:]])
    assert wall == 15.0
    assert positions == 1000
    assert p50 == oracle(clean, 0.5)
    assert p99 == oracle(clean, 0.99)


def test_median_of_even_and_odd_samples():
    assert lib.median([3, 1, 2]) == 2
    assert lib.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        lib.median([])


# -- span self time --------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [("root", 0.0, 10.0, -1),
             ("child", 1.0, 3.0, 0),
             ("grandchild", 1.5, 2.0, 1),
             ("child", 5.0, 6.0, 0)]
    assert lib.self_times(spans) == pytest.approx([7.0, 1.5, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("b", 3.0, 6.0, 0),      # overlaps a on [3, 4]
             ("c", 5.0, 5.5, 0),      # inside b
             ("d", 9.0, 12.0, 0)]     # runs past the parent's end
    own = lib.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1:] == pytest.approx([3.0, 3.0, 0.5, 3.0])


def test_span_totals():
    spans = [("service", 0.0, 4.0, -1),
             ("policy", 1.0, 3.0, 0),
             ("service", 5.0, 6.0, -1),
             ("codec", 6.0, 6.5, -1)]
    totals = lib.span_totals(spans)
    assert totals["service"] == {"count": 2, "total_s": 5.0,
                                 "self_s": 3.0}
    assert totals["policy"]["self_s"] == pytest.approx(2.0)


def test_profile_buckets_by_module():
    assert lib.bucket_of("/x/src/repro/net/flow.py") == "net"
    assert lib.bucket_of("/x/src/repro/core/overlap_index.py") \
        == "core.index"
    assert lib.bucket_of("/x/src/repro/core/candidates.py") \
        == "core.index"
    assert lib.bucket_of("/x/src/repro/core/metrics.py") == "core.policy"
    assert lib.bucket_of("/usr/lib/python3/fractions.py") == "fractions"
    assert lib.bucket_of("/usr/lib/python3/heapq.py") is None
    assert lib.bucket_of("~") is None


# -- whole runs ------------------------------------------------------------------
def bench_run(workload, *extra, trace=0):
    argv = [sys.executable, os.path.join(BENCH, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_untraced(workload):
    code, result, done = bench_run(workload)
    assert code == 0, done.stdout + done.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in bench.END_TO_END}
    for name, unit in bench.END_TO_END:
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(value) and value > 0, (name, value)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_traced(workload):
    code, result, done = bench_run(workload, trace=1)
    assert code == 0, done.stdout + done.stderr
    assert set(result["metrics"]) == {name for name, _ in bench.PER_LAYER}
    assert result["metrics"]["trace.overhead"]["value"] > 0
    if workload == "sim-coadd":
        assert result["metrics"]["net.self_s"]["value"] > 0
        assert result["metrics"]["sim.events"]["value"] > 0
    else:
        assert result["metrics"]["core.policy.decisions"]["value"] > 0
        assert result["metrics"]["codec.frames"]["value"] > 0
        assert result["metrics"]["service.task_done_calls"]["value"] > 0
    if workload == "serve-durable":
        assert result["metrics"]["wal.records"]["value"] > 0
        assert result["metrics"]["wal.bytes"]["value"] > 0


@pytest.mark.parametrize("workload,fault", [
    ("serve-durable", "duplicate-done"),
    ("serve-deep-combined", "duplicate-done"),
    ("sim-coadd", "tamper-makespan"),
])
def test_injected_fault_fails_the_run(workload, fault):
    code, result, done = bench_run(workload, "--inject-fault", fault)
    assert code == 1, done.stdout + done.stderr
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "CHECK FAILED" in done.stdout


def test_without_program_sources_fails_without_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (copy / name).write_bytes(
                open(os.path.join(BENCH, name), "rb").read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-coadd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
