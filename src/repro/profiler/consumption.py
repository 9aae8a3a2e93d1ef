"""Operator profiling: fidelity -> (measured F1, consumption speed).

The paper (§4.2) profiles each (operator, fidelity) pair by preparing a
10-second sample clip at that fidelity, running the operator, and measuring
accuracy and consumption speed. Here a profiling run

1. generates the sample clip's frames (deterministic latents),
2. keeps the frames the fidelity's sampling rate admits,
3. runs the operator's detector on them (shared-latent construction),
4. scores F1 against the operator's full-fidelity output (the paper's ground
   truth), and reads consumption speed off the calibrated cost model.

Three execution modes:

- ``spark`` (the default; the Table 2 job and perfbench's configure workload
  run it): profiling requests are rows of a DataFrame, evaluated by a
  per-partition ``mapInPandas`` UDF that generates the clip and runs the
  operator inside the executor — the data plane the repro brief asks for.
- ``local``: identical arithmetic on the driver (same frames, same results);
  used by the other jobs and by fast unit tests.
- ``analytic``: F1 is the operator's analytic surface (noise-free); used by
  algorithm-equivalence tests (staircase vs exhaustive).

Results are memoized per (operator, fidelity); ``runs`` counts cache misses
(actual profiling work) and ``hits`` counts memoized reuse — the quantities
Fig 13 reports. :func:`profile_batch` serves requests of several profilers
and operators at once; the §4.2 staircase sends each lockstep wave through
it, so a wave costs one Spark job.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import pandas as pd
from pyspark.sql import SparkSession

from repro.formats import Fidelity
from repro.ops.base import Operator, f1_score
from repro.video.datasets import Dataset
from repro.video.frames import segment_frames


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of one profiling run."""

    f1: float
    speed_x: float  # consumption speed, x-realtime

    @property
    def cost(self) -> float:
        """Consumption cost — reciprocal of speed (paper §2.2)."""
        return 1.0 / self.speed_x


#: the 10-second sample clip every profiling run evaluates
SAMPLE_SEGMENT = 0


def evaluate_profile(op: Operator, f: Fidelity, ds: Dataset) -> ProfileResult:
    """Pure profiling arithmetic shared by the local and Spark paths.

    F1 is scored over *all* clip frames: the operator physically processes
    only the sampled subset (that is what the cost model charges for), and
    its labels propagate to the skipped frames; the propagation loss is part
    of the detection-retention model (``Operator.accuracy`` includes the
    sampling loss term). Evaluating on a fixed frame set is also what keeps
    measured F1 exactly monotone across sampling rates — comparing F1 on
    different frame subsets would not be apples-to-apples.
    """
    frames = segment_frames(ds, SAMPLE_SEGMENT)
    f1 = f1_score(
        op.ground_truth(frames, ds.motion, ds.event_rate),
        op.detect(frames, f, ds.motion, ds.event_rate),
    )
    return ProfileResult(f1=f1, speed_x=op.consumption_speed_x(f))


class ConsumptionProfiler:
    """Memoizing operator profiler over one dataset's sample clips."""

    def __init__(
        self,
        ds: Dataset,
        spark: SparkSession | None = None,
        *,
        mode: str = "spark",
    ) -> None:
        if mode not in ("spark", "local", "analytic"):
            raise ValueError(f"unknown profiler mode {mode!r}")
        if mode == "spark" and spark is None:
            raise ValueError("spark mode needs a SparkSession")
        self.ds = ds
        self.spark = spark
        self.mode = mode
        self.memo: dict[tuple[Operator, Fidelity], ProfileResult] = {}
        self.runs = 0
        self.hits = 0

    # -- public API -----------------------------------------------------------

    def profile(self, op: Operator, f: Fidelity) -> ProfileResult:
        """Profile one (operator, fidelity); memoized."""
        return self.profile_many(op, [f])[0]

    def profile_many(self, op: Operator, fs: list[Fidelity]) -> list[ProfileResult]:
        """Profile a batch of fidelities for one operator (one Spark job)."""
        return profile_batch([(self, op, f) for f in fs])

    def _evaluate(self, op: Operator, f: Fidelity) -> ProfileResult:
        """One profiling run on the driver (``local`` and ``analytic``)."""
        if self.mode == "analytic":
            return ProfileResult(
                f1=op.accuracy(f, self.ds.motion), speed_x=op.consumption_speed_x(f)
            )
        return evaluate_profile(op, f, self.ds)


#: one profiling request: the profiler whose memo and sample clip serve it,
#: the operator and the fidelity
Probe = tuple[ConsumptionProfiler, Operator, Fidelity]


def profile_batch(probes: list[Probe]) -> list[ProfileResult]:
    """Profile a batch of requests that may span profilers and operators.

    A request already in its profiler's memo counts as a hit; each distinct
    miss counts as a run of its profiler. The misses are evaluated together:
    on the driver, or, for ``spark``-mode profilers, in one Spark job.
    """
    missing = []
    for p, op, f in probes:
        if (op, f) in p.memo:
            p.hits += 1
        else:
            missing.append((p, op, f))
    missing = list(dict.fromkeys(missing))
    on_driver = [m for m in missing if m[0].mode != "spark"]
    on_spark = [m for m in missing if m[0].mode == "spark"]
    results = [p._evaluate(op, f) for p, op, f in on_driver] + _profile_spark(on_spark)
    for (p, op, f), r in zip(on_driver + on_spark, results):
        p.runs += 1
        p.memo[(op, f)] = r
    return [p.memo[(op, f)] for p, op, f in probes]


# -- Spark data plane ---------------------------------------------------------


def _profile_spark(probes: list[Probe]) -> list[ProfileResult]:
    """Evaluate ``probes`` in one ``mapInPandas`` job, results in order."""
    if not probes:
        return []
    # Operators, fidelities and datasets reach the executor through the
    # closure; only each request's index travels as a column. ``range``
    # partitions the indices itself, so the job has no shuffle stage. One
    # partition per core: on 4 cores the full spark-mode derivation took 26 s
    # this way and 49 s with 16 partitions (medians of 3).
    work = [(op, f, p.ds) for p, op, f in probes]

    def run(batches: Iterable[pd.DataFrame]):
        for pdf in batches:
            rows = []
            for i in pdf["id"]:
                pr = evaluate_profile(*work[i])
                rows.append((int(i), pr.f1, pr.speed_x))
            yield pd.DataFrame(rows, columns=["id", "f1", "speed_x"])

    n = len(work)
    spark = probes[0][0].spark
    out = (
        spark.range(0, n, 1, min(n, spark.sparkContext.defaultParallelism))
        .mapInPandas(run, schema="id long, f1 double, speed_x double")
        .toPandas()
        .set_index("id")
        .sort_index()
    )
    return [
        ProfileResult(f1=float(out.loc[i, "f1"]), speed_x=float(out.loc[i, "speed_x"]))
        for i in range(n)
    ]
