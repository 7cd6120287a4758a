"""In-memory spans for the traced benchmark run.

A span has a name, start, end, parent and the id of the query it belongs
to. A span opened with ``spark=True`` runs under its own Spark job group;
the jobs and tasks of that group are read from the status tracker once,
after the timed passes, so that reading them costs no traced time. Spans
are kept in a list and written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    query: str
    parent: int | None
    start: float
    end: float = 0.0
    group: str | None = None
    jobs: int = 0
    tasks: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


class NoTracer:
    """Tracing off: spans cost one call and record nothing."""

    on = False
    sc = None

    def span(self, name: str, query: str = "", spark: bool = False):
        return nullcontext()

    def resolve_jobs(self) -> None:
        pass


class Tracer:
    """Collects spans; ``sc`` (a SparkContext, set once a session runs)
    attributes Spark jobs to spans."""

    on = True

    def __init__(self) -> None:
        self.sc = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, query: str = "", spark: bool = False):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, query or (parent.query if parent else ""),
                 parent.id if parent else None, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        if spark and self.sc is not None:
            s.group = f"perfbench-{s.id}"
            self.sc.setJobGroup(s.group, name)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if s.group:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    def resolve_jobs(self) -> None:
        """Fill in each Spark span's job and task counts."""
        tracker = self.sc.statusTracker() if self.sc is not None else None
        for s in self.spans:
            if not s.group:
                continue
            job_ids = tracker.getJobIdsForGroup(s.group)
            s.jobs = len(job_ids)
            for j in job_ids:
                info = tracker.getJobInfo(j)
                for st in info.stageIds if info else ():
                    stage = tracker.getStageInfo(st)
                    s.tasks += stage.numTasks if stage else 0

    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Span duration minus the part covered by its direct children
        (children of one span never overlap: the tracer is single-threaded)."""
        out = {s.id: s.dur for s in spans}
        for s in spans:
            if s.parent is not None and s.parent in out:
                out[s.parent] -= s.dur
        return out

    def dump(self, path, record: dict) -> None:
        path.write_text(json.dumps(
            {"record": record, "spans": [asdict(s) for s in self.spans]}))
