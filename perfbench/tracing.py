"""Per-layer measurements, taken from the benchmark's own files.

Spans are recorded around calls into ``repro`` by replacing methods on
the sampler objects the benchmark created, and the reservoir module's
references to ``repro.distributed.common`` helpers, for the traced run
only. A span's self time is its duration minus that of the spans it
encloses. Spark work per round is read from outside the program: job
groups set around each timed call and read back from
``statusTracker()``, and executor run time and shuffle bytes parsed
from the local event log after the session stops.
"""
from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable

JOB_GROUP = "perfbench"


class Tracer:
    """In-memory spans: name -> list of (duration, enclosed child time)."""

    def __init__(self) -> None:
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.label = ""  # sampler the current call belongs to
        self._open: list[float] = []
        self._undo: list[tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording a span; ``{label}`` in ``name`` is filled in
        at call time."""

        def timed(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = self._open.pop()
                self.spans[name.format(label=self.label)].append((dur, child))
                if self._open:
                    self._open[-1] += dur

        return timed

    def patch(self, owner: object, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------
    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ()))

    def total(self, name: str) -> float:
        return sum(d for d, _ in self.spans.get(name, ()))

    def mean(self, name: str) -> float:
        spans = self.spans.get(name, ())
        return sum(d for d, _ in spans) / len(spans) if spans else 0.0

    def self_total(self, name: str) -> float:
        return sum(d - c for d, c in self.spans.get(name, ()))


RESERVOIR_OPS = ("replace_random", "insert_all", "keep_random", "extract_one", "insert_rows", "to_pandas")
COMMON_FNS = ("partition_sizes", "central_positions", "distributed_counts")


def trace_drtbs(tracer: Tracer, sampler, label: str) -> None:
    """Spans around a D-R-TBS sampler's advance/read and its reservoir."""
    tracer.patch(sampler, "advance", f"drtbs.advance.{label}")
    tracer.patch(sampler, "sample_pandas", f"drtbs.sample_pandas.{label}")
    for op in RESERVOIR_OPS:
        tracer.patch(sampler.reservoir, op, f"reservoir.{op}.{label}")


def trace_common(tracer: Tracer) -> None:
    """Spans around the ``repro.distributed.common`` helpers the
    reservoirs call, attributed to the sampler named by ``tracer.label``."""
    from repro.distributed import reservoir

    for fn in COMMON_FNS:
        tracer.patch(reservoir, fn, f"common.{fn}.{{label}}")


class SparkCounters:
    """Jobs, stages and tasks per tagged call, from ``statusTracker()``."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.groups: dict[str, list[str]] = defaultdict(list)  # label -> group ids

    def begin(self, label: str) -> None:
        group = f"{JOB_GROUP}:{label}:{len(self.groups[label])}"
        self.groups[label].append(group)
        self.sc.setJobGroup(group, group)

    def end(self) -> None:
        self.sc.setLocalProperty("spark.jobGroup.id", None)
        self.sc.setLocalProperty("spark.job.description", None)

    def per_round(self, label: str, rounds: int) -> tuple[float, float, float]:
        """Mean (jobs, stages run, tasks run) per round over the calls
        tagged ``label``. Call after the listener has caught up."""
        tracker = self.sc.statusTracker()
        groups = self.groups.get(label, [])
        jobs = stages = tasks = 0
        for group in groups:
            stage_ids: set[int] = set()
            for jid in tracker.getJobIdsForGroup(group):
                jobs += 1
                info = tracker.getJobInfo(jid)
                if info is not None:
                    stage_ids.update(info.stageIds)
            for sid in stage_ids:
                st = tracker.getStageInfo(sid)
                if st is not None and st.numCompletedTasks > 0:
                    stages += 1
                    tasks += st.numCompletedTasks
        n = max(1, rounds)
        return jobs / n, stages / n, tasks / n


def event_log_totals(event_dir: str) -> dict[str, dict[str, float]]:
    """Executor run seconds and shuffle bytes written, summed per job
    group label, from the event log files in ``event_dir``."""
    stage_label: dict[int, str] = {}
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"run_s": 0.0, "shuffle_bytes": 0.0})
    for fname in sorted(os.listdir(event_dir)):
        with open(os.path.join(event_dir, fname)) as fh:
            for line in fh:
                ev = json.loads(line)
                kind = ev.get("Event")
                if kind == "SparkListenerJobStart":
                    group = (ev.get("Properties") or {}).get("spark.jobGroup.id") or ""
                    if group.startswith(JOB_GROUP + ":"):
                        label = group.split(":")[1]
                        for sid in ev.get("Stage IDs", []):
                            stage_label.setdefault(sid, label)
                elif kind == "SparkListenerTaskEnd":
                    label = stage_label.get(ev.get("Stage ID"))
                    metrics = ev.get("Task Metrics") or {}
                    if label is None or not metrics:
                        continue
                    out[label]["run_s"] += metrics.get("Executor Run Time", 0) / 1000.0
                    write = metrics.get("Shuffle Write Metrics") or {}
                    out[label]["shuffle_bytes"] += write.get("Shuffle Bytes Written", 0)
    return dict(out)
