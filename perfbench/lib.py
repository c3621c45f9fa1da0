"""Shared helpers: percentiles, span self time, profile buckets, env.

Everything here is pure computation over measurements the workloads
collect, so the self-tests can check it against small oracles.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import pstats
import subprocess
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10
#: Pull positions every untraced run times: p99 of 1000 samples has
#: MIN_BEYOND beyond it.
MIN_PULLS = 1000
#: Pulls per timed segment of a repeat (a few tenths of a second of
#: work): short enough that a slow spell of the host covers only some
#: of a repeat's segments, long enough that the program's own periodic
#: costs (garbage collection, WAL flushes) fall inside every segment.
SEGMENT_PULLS = 100


class Checks:
    """Named pass/fail checks.  A failure is counted as ``weight``
    errors (e.g. the number of lost tasks), never as a number."""

    def __init__(self) -> None:
        self.failed: List[str] = []
        self.passed = 0
        self.errors = 0

    def expect(self, ok: bool, what: str, weight: int = 1) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failed.append(what)
            self.errors += max(1, weight)
        return ok

    def merge(self, other: "Checks") -> None:
        self.failed.extend(other.failed)
        self.passed += other.passed
        self.errors += other.errors


# -- percentiles -------------------------------------------------------------
def rank(n: int, q: float) -> int:
    """Nearest-rank index (0-based) of quantile ``q`` in ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return max(0, math.ceil(q * n) - 1)


def beyond(n: int, q: float) -> int:
    """Samples strictly after the quantile-``q`` rank."""
    return n - 1 - rank(n, q)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    return sorted_values[rank(len(sorted_values), q)]


def segments(marks: Sequence[float], size: int) -> List[float]:
    """Durations between every ``size``-th of the timestamps ``marks``
    (the last segment ends at the last mark, so they sum to
    ``marks[-1] - marks[0]``)."""
    bounds = list(range(0, len(marks) - 1, size)) + [len(marks) - 1]
    return [marks[b] - marks[a] for a, b in zip(bounds, bounds[1:])]


def fastest(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Position by position, the smallest value over repeats of the
    same work (truncated to the shortest repeat).

    The shared host's speed drifts over seconds: the same work runs up
    to half as fast again for a few seconds at a time.  A slow spell
    slows every repeat it falls on, but seldom the same position in
    all of them, so each position's fastest repeat is the program's
    own time and the host's stalls drop out.
    """
    return [min(values) for values in zip(*repeats)]


def fastest_timings(segments_per_repeat: Sequence[Sequence[float]],
                    pulls_per_repeat: Sequence[Sequence[float]]
                    ) -> Tuple[float, float, float, int]:
    """Wall time (the sum of each segment's fastest repeat), pull p50
    and p99 (over each pull position's fastest repeat), and the number
    of pull positions."""
    wall = sum(fastest(segments_per_repeat))
    pulls = sorted(fastest(pulls_per_repeat))
    return (wall, percentile(pulls, 0.50), percentile(pulls, 0.99),
            len(pulls))


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- spans -------------------------------------------------------------------
#: One span: (name, start, end, parent index or -1).
Span = Tuple[str, float, float, int]


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        elif b > run_end:
            run_end = b
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [end - start - covered(start, end, children.get(index, ()))
            for index, (_name, start, end, _parent) in enumerate(spans)]


def span_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration, total self time."""
    totals: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return totals


# -- cProfile buckets ----------------------------------------------------------
#: Profile self time is attributed to these layers by source path.
BUCKETS = ("sim", "net", "grid", "core.index", "core.policy",
           "fractions", "serve", "other")

_CORE_INDEX = ("overlap_index.py", "candidates.py")


def bucket_of(filename: str) -> Optional[str]:
    """The layer owning a source file, or None for a stdlib/builtin."""
    path = filename.replace(os.sep, "/")
    if path.endswith("/fractions.py"):
        return "fractions"
    marker = "/repro/"
    if marker not in path:
        return None
    rest = path.split(marker, 1)[1]
    package = rest.split("/", 1)[0]
    if package == "core":
        return ("core.index" if rest.endswith(_CORE_INDEX)
                else "core.policy")
    if package in ("sim", "net", "grid", "serve"):
        return package
    return "other"


def profile_buckets(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per layer.

    A builtin or stdlib function (other than ``fractions``) has no
    layer of its own: its self time goes to the layers of its callers,
    split by the time each call edge spent in it.
    """
    totals = {name: 0.0 for name in BUCKETS}
    for (filename, _line, _func), entry in stats.stats.items():
        _cc, _nc, self_s, _ct, callers = entry
        owner = bucket_of(filename)
        if owner is not None:
            totals[owner] += self_s
            continue
        if not callers:
            totals["other"] += self_s
            continue
        for (caller_file, _l, _f), edge in callers.items():
            totals[bucket_of(caller_file) or "other"] += edge[2]
    return totals


def profile_calls(stats: pstats.Stats, filename_suffix: str,
                  func: str) -> int:
    """Call count of one profiled function."""
    return sum(entry[1]
               for (filename, _line, name), entry in stats.stats.items()
               if name == func and filename.replace(os.sep, "/").endswith(
                   filename_suffix))


# -- environment ----------------------------------------------------------------
def source_digest(root: str) -> str:
    """sha256 over the program's sources (names and bytes)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> Optional[str]:
    """HEAD of ``root`` if it is a git checkout, else None."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(root: str, seed: int, codec: Optional[str],
                event_loop: Optional[str]) -> Dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "event_loop": event_loop,
        "codec": codec,
        "transport": "loopback TCP" if codec else None,
        "seed": seed,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
