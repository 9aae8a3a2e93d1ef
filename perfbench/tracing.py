"""Spans and counts recorded around the calls into each ``repro`` layer.

The tracer wraps public functions of the program from outside (by swapping
module and class attributes while a traced operation runs), so the program
itself carries no tracing code. Each span records ``{name, start, end,
parent, op_id}``, the work counts of its call, and a Spark job group: every
span tags the jobs it launches with ``setJobGroup``, and the jobs, stages,
tasks and failed tasks of each group are read from the status tracker once
the run is over (the listener bus is asynchronous, so counts read right after
an action can lag).
"""
from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

import repro.core.config as config_mod
import repro.core.erosion as erosion_mod
import repro.core.storage as storage_mod
import repro.profiler.consumption as pcons_mod
import repro.query.cascade as cascade_mod
import repro.store.segment_store as store_mod

SEGMENT_SECONDS = 10


def dir_bytes(path: str) -> int:
    """Bytes on disk of the parquet data files under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        total += sum(
            os.path.getsize(os.path.join(root, f))
            for f in files
            if f.endswith(".parquet")
        )
    return total


def parquet_rows(path: str) -> int:
    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(os.path.join(root, f)).metadata.num_rows
        for root, _, files in os.walk(path)
        for f in files
        if f.endswith(".parquet")
    )


class Tracer:
    """In-memory span log for one traced run."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[dict] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str, op_id: int | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": self._next_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op_id": op_id if op_id is not None else (parent["op_id"] if parent else None),
            "group": f"perfbench-{os.getpid()}-{self._next_id}",
            "counts": {},
        }
        self._next_id += 1
        self._stack.append(rec)
        self.sc.setJobGroup(rec["group"], name)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.sc.setLocalProperty(
                "spark.jobGroup.id", parent["group"] if parent else None
            )
            self.spans.append(rec)

    def resolve_spark(self) -> None:
        """Attach job/stage/task counts to every span (its own group only)."""
        tr = self.sc.statusTracker()
        for rec in self.spans:
            jobs = tr.getJobIdsForGroup(rec["group"])
            stages = tasks = failed = 0
            for j in jobs:
                info = tr.getJobInfo(j)
                if info is None:
                    continue
                for sid in info.stageIds:
                    st = tr.getStageInfo(sid)
                    if st is None:
                        continue
                    stages += 1
                    tasks += st.numCompletedTasks + st.numFailedTasks
                    failed += st.numFailedTasks
            rec["spark"] = {
                "jobs": len(jobs),
                "stages": stages,
                "tasks": tasks,
                "failed_tasks": failed,
            }

    # -- instrumentation ----------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        """Span around ``fn``; ``after(rec, result, args, kwargs)`` adds counts
        once the span has closed, so counting is not charged to the layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if after is not None:
                after(rec, out, args, kwargs)
            return out

        return wrapper

    def _patches(self) -> list[tuple[object, str, object]]:
        def profiler_counts(fn):
            @functools.wraps(fn)
            def wrapper(prof, op, fs):
                runs0, hits0 = prof.runs, prof.hits
                with self.span("profiler.consumption") as rec:
                    out = fn(prof, op, fs)
                rec["counts"] = {"runs": prof.runs - runs0, "hits": prof.hits - hits0}
                return out

            return wrapper

        def storage_counts(rec, plan, args, kwargs):
            rec["counts"] = {
                "pairs_examined": plan.pairs_examined,
                "rounds": plan.rounds,
                "budget_moves": len(plan.budget_moves),
                "profiler_runs": plan.profiling_runs,
                "profiler_hits": plan.profiling_hits,
            }

        def query_counts(rec, result, args, kwargs):
            rec["counts"] = {"segments": int(result.video_seconds // SEGMENT_SECONDS)}

        def ingest_counts(rec, df, args, kwargs):
            path = args[0]._path(args[2].name)
            rec["counts"] = {
                "rows_written": parquet_rows(path),
                "bytes_written": dir_bytes(path),
            }

        def erosion_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(store, spark, dataset, fracs):
                before = dir_bytes(store._path(dataset))
                with self.span("store.segment_store.erosion") as rec:
                    out = fn(store, spark, dataset, fracs)
                after = dir_bytes(store._path(dataset))
                rec["counts"] = {"bytes_rewritten": after, "bytes_deleted": before - after}
                return out

            return wrapper

        def counting(fn, key):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        P = pcons_mod.ConsumptionProfiler
        S = store_mod.SegmentStore
        seg_df = self._wrap("video.frames.segments_df", cascade_mod.segments_df)
        derive_sp = self._wrap(
            "core.storage", storage_mod.derive_storage_plan, storage_counts
        )
        return [
            (P, "profile_many", profiler_counts(P.profile_many)),
            (config_mod, "derive_consumption_format",
             self._wrap("core.consumption", config_mod.derive_consumption_format)),
            (config_mod, "derive_storage_plan", derive_sp),
            (storage_mod, "derive_storage_plan", derive_sp),
            (erosion_mod, "plan_erosion", self._wrap("core.erosion", erosion_mod.plan_erosion)),
            (erosion_mod, "overall_speed",
             counting(erosion_mod.overall_speed, "core.erosion.overall_speed_calls")),
            (cascade_mod, "run_query",
             self._wrap("query.cascade", cascade_mod.run_query, query_counts)),
            (cascade_mod, "segments_df", seg_df),
            (store_mod, "segments_df", seg_df),
            (S, "ingest", self._wrap("store.segment_store.ingest", S.ingest, ingest_counts)),
            (S, "apply_erosion", erosion_wrapper(S.apply_erosion)),
        ]

    @contextlib.contextmanager
    def instrumented(self, extra: list[tuple[object, str, str]] = ()):
        """Swap in the wrappers for the duration of one traced operation.

        ``extra`` names benchmark-side functions to span as
        ``(owner, attribute, span name)``.
        """
        patches = self._patches() + [
            (owner, attr, self._wrap(name, getattr(owner, attr)))
            for owner, attr, name in extra
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


# -- per-layer metrics -------------------------------------------------------


def _children(spans: list[dict]) -> dict[int, list[dict]]:
    kids: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def _inclusive_spark(span: dict, kids: dict[int, list[dict]], key: str) -> int:
    return span["spark"][key] + sum(
        _inclusive_spark(k, kids, key) for k in kids.get(span["id"], ())
    )


def layer_metrics(
    tracer: Tracer, rounds: int, overhead_frac: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from a resolved span log.

    Counts and times are per round of the workload, so that they do not grow
    with the number of rounds a faster program fits in the run; ratios are
    taken over the whole run."""
    spans = tracer.spans
    kids = _children(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_time(name):
        return sum(
            (s["end"] - s["start"])
            - sum(k["end"] - k["start"] for k in kids.get(s["id"], ()))
            for s in by_name[name]
        )

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name[name])

    def spark(name, key):
        return sum(_inclusive_spark(s, kids, key) for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def per_round(value, unit):
        return (value / rounds, f"{unit}/round")

    m: dict[str, tuple[float, str]] = {}
    pc = "profiler.consumption"
    runs, hits = count(pc, "runs"), count(pc, "hits")
    m[f"{pc}.calls"] = per_round(len(by_name[pc]), "count")
    m[f"{pc}.busy_s"] = per_round(busy(pc), "s")
    m[f"{pc}.runs"] = per_round(runs, "count")
    m[f"{pc}.hits"] = per_round(hits, "count")
    m[f"{pc}.hit_ratio"] = (ratio(hits, runs + hits), "ratio")
    m[f"{pc}.spark_jobs"] = per_round(spark(pc, "jobs"), "count")
    m[f"{pc}.s_per_run"] = (ratio(busy(pc), runs), "s/run")

    cs = "core.storage"
    sruns, shits = count(cs, "profiler_runs"), count(cs, "profiler_hits")
    m["profiler.storage.runs"] = per_round(sruns, "count")
    m["profiler.storage.hits"] = per_round(shits, "count")
    m["profiler.storage.hit_ratio"] = (ratio(shits, sruns + shits), "ratio")

    cc = "core.consumption"
    m[f"{cc}.calls"] = per_round(len(by_name[cc]), "count")
    m[f"{cc}.busy_s"] = per_round(busy(cc), "s")
    m[f"{cc}.self_s"] = per_round(self_time(cc), "s")

    m[f"{cs}.calls"] = per_round(len(by_name[cs]), "count")
    m[f"{cs}.busy_s"] = per_round(busy(cs), "s")
    for key in ("pairs_examined", "rounds", "budget_moves"):
        m[f"{cs}.{key}"] = per_round(count(cs, key), "count")

    ce = "core.erosion"
    m[f"{ce}.calls"] = per_round(len(by_name[ce]), "count")
    m[f"{ce}.busy_s"] = per_round(busy(ce), "s")
    m[f"{ce}.overall_speed_calls"] = per_round(
        tracer.counts[f"{ce}.overall_speed_calls"], "count"
    )

    qc = "query.cascade"
    segs = count(qc, "segments")
    m[f"{qc}.calls"] = per_round(len(by_name[qc]), "count")
    m[f"{qc}.busy_s"] = per_round(busy(qc), "s")
    m[f"{qc}.spark_jobs"] = per_round(spark(qc, "jobs"), "count")
    m[f"{qc}.spark_tasks"] = per_round(spark(qc, "tasks"), "count")
    m[f"{qc}.segments"] = per_round(segs, "count")
    m[f"{qc}.s_per_segment"] = (ratio(busy(qc), segs), "s/segment")

    vf = "video.frames.segments_df"
    m[f"{vf}.calls"] = per_round(len(by_name[vf]), "count")
    m[f"{vf}.busy_s"] = per_round(busy(vf), "s")

    si = "store.segment_store.ingest"
    m[f"{si}.busy_s"] = per_round(busy(si), "s")
    m[f"{si}.rows_written"] = per_round(count(si, "rows_written"), "count")
    m[f"{si}.bytes_written"] = per_round(count(si, "bytes_written"), "B")
    m[f"{si}.spark_jobs"] = per_round(spark(si, "jobs"), "count")

    sa = "store.segment_store.accounting"
    m[f"{sa}.busy_s"] = per_round(busy(sa), "s")
    m[f"{sa}.spark_jobs"] = per_round(spark(sa, "jobs"), "count")

    se = "store.segment_store.erosion"
    rewritten = count(se, "bytes_rewritten")
    m[f"{se}.busy_s"] = per_round(busy(se), "s")
    m[f"{se}.bytes_rewritten"] = per_round(rewritten, "B")
    m[f"{se}.rewrite_amplification"] = (ratio(rewritten, count(se, "bytes_deleted")), "ratio")

    roots = [s for s in spans if s["parent"] is None]
    for key in ("jobs", "stages", "tasks", "failed_tasks"):
        m[f"spark.{key}"] = per_round(
            sum(_inclusive_spark(s, kids, key) for s in roots), "count"
        )
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
