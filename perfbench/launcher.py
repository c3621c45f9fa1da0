"""Start ``repro serve`` with its public entry points instrumented.

Usage::

    python3 perfbench/launcher.py --spans OUT.json serve [serve args...]
    python3 perfbench/launcher.py --profile OUT.prof serve [serve args...]

``--spans`` wraps the service, decision, codec and WAL entry points in
span recorders (name, start, end, parent), keeps the spans in memory
and writes them to ``OUT.json`` once the server has drained, together
with codec byte/frame counts and the decision engine's counters.
``--profile`` runs the server under ``cProfile`` instead and dumps the
stats to ``OUT.prof``.  Either way the server itself is the unchanged
``repro.cli.main(["serve", ...])``.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import cli  # noqa: E402
from repro.core.policy_engine import PolicyEngine  # noqa: E402
from repro.obs.events import EventLog, RotatingJsonlSink  # noqa: E402
from repro.serve.codec import CODECS, Codec  # noqa: E402
from repro.serve.service import SchedulerService  # noqa: E402

#: (owner class, method, span name).
ENTRY_POINTS = (
    (SchedulerService, "submit_job", "service.submit_job"),
    (SchedulerService, "request_task", "service.request_task"),
    (SchedulerService, "request_tasks", "service.request_tasks"),
    (SchedulerService, "file_delta", "service.file_delta"),
    (SchedulerService, "task_done", "service.task_done"),
    (PolicyEngine, "choose", "policy.choose"),
    (PolicyEngine, "choose_many", "policy.choose_many"),
    (EventLog, "emit", "wal.emit"),
    (EventLog, "flush", "wal.flush"),
    (EventLog, "sync", "wal.sync"),
    # EventLog.emit flushes through its sink on every WAL record.
    (RotatingJsonlSink, "flush", "wal.flush"),
    (RotatingJsonlSink, "sync", "wal.sync"),
)


class SpanRecorder:
    """In-memory spans of synchronous calls on one thread."""

    def __init__(self) -> None:
        self.spans = []
        self._open = []
        #: CPU seconds inside top-level spans (comparable with the
        #: process's rusage, unlike span wall time).
        self.root_cpu_s = 0.0
        self.codec = {"bytes_in": 0, "bytes_out": 0, "frames_in": 0,
                      "frames_out": 0}
        self.service = None

    def wrap(self, fn, name, on_result=None):
        spans, stack = self.spans, self._open
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            cpu_start = cpu_clock() if parent < 0 else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
                if parent < 0:
                    self.root_cpu_s += cpu_clock() - cpu_start
            if on_result is not None:
                on_result(args, result)
            return result
        return recorded

    def install(self) -> None:
        for owner, attr, name in ENTRY_POINTS:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))
        original_init = SchedulerService.__init__

        @functools.wraps(original_init)
        def remember(service, *args, **kwargs):
            original_init(service, *args, **kwargs)
            self.service = service
        SchedulerService.__init__ = remember

        codec = self.codec

        def fed(args, messages):
            codec["bytes_in"] += len(args[1])
            codec["frames_in"] += len(messages)

        def encoded(_args, data):
            codec["bytes_out"] += len(data)
            codec["frames_out"] += 1

        Codec.feed = self.wrap(Codec.feed, "codec.feed", fed)
        for cls in set(CODECS.values()):
            if "encode" in vars(cls):
                cls.encode = self.wrap(cls.encode, "codec.encode",
                                       encoded)

    def dump(self, path: str) -> None:
        engine = self.service.engine if self.service else None
        record = {
            "spans": self.spans,
            "codec": self.codec,
            "root_cpu_s": self.root_cpu_s,
            "engine": ({"decisions": engine.decisions,
                        "tasks_scored": engine.tasks_scored}
                       if engine is not None else None),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))


def main(argv) -> int:
    if len(argv) < 3 or argv[0] not in ("--spans", "--profile"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, out, serve_argv = argv[0], argv[1], list(argv[2:])
    if mode == "--profile":
        profiler = cProfile.Profile()
        try:
            return profiler.runcall(cli.main, serve_argv)
        finally:
            profiler.dump_stats(out)
    recorder = SpanRecorder()
    recorder.install()
    try:
        return cli.main(serve_argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
