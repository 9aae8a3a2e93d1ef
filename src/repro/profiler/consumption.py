"""Operator profiling: fidelity -> (measured F1, consumption speed).

The paper (§4.2) profiles each (operator, fidelity) pair by preparing a
10-second sample clip at that fidelity, running the operator, and measuring
accuracy and consumption speed. Here a profiling run

1. takes the sample clip's frames (deterministic latents, generated once
   per dataset and process),
2. runs the operator's detector at that fidelity on them (shared latents),
3. scores F1 against the same detector's ground truth (the operator's
   full-fidelity output, which is the same at every fidelity), and reads
   consumption speed off the calibrated cost model.

:func:`mapper` checks a profiling mode and says how it evaluates a list of
items, with identical arithmetic (same frames, same results):

- ``local``: in the calling process. The §4.2 derivation
  (``repro.core.config.derive_config``) runs each operator's searches on a
  fresh ``local`` profiler, on the driver or inside one executor task per
  operator; the other jobs and fast unit tests use it too;
- ``spark`` (the default): in one Spark job (:func:`map_in_one_job`) whose
  tasks generate the clips and run the operator inside the executors: each
  spark-mode :meth:`ConsumptionProfiler.profile_many` batch of misses, and
  the spark-mode derivation.

Results are memoized per (operator, fidelity); ``runs`` counts cache misses
(actual profiling work, which Fig 13 reports) and ``hits`` counts memoized
reuse.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable

import numpy as np
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


@cache
def _sample_clip(ds: Dataset) -> np.ndarray:
    """The sample clip's frames, generated once per dataset and process, and
    read-only because every profiling run shares them."""
    frames = segment_frames(ds, SAMPLE_SEGMENT)
    frames.flags.writeable = False
    return frames


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
    frames = _sample_clip(ds)
    det = op.detector(f, ds.motion, ds.event_rate)
    f1 = f1_score(det.truth(frames), det(frames))
    return ProfileResult(f1=f1, speed_x=op.consumption_speed_x(f))


def map_in_one_job(spark: SparkSession, fn: Callable, items: list) -> list:
    """``[fn(x) for x in items]``, evaluated in one shuffle-free Spark job.

    ``fn`` and the items reach the executors through the closure; only each
    item's index travels as a column, and each result comes back pickled.
    ``range`` partitions the indices itself, so the job has no shuffle stage.
    At most one partition per core: more only add per-task cost (on 4 cores,
    64 jobs of 16 profiling runs each took 9.0 s with 4 partitions each and
    21.1 s with 16).
    """
    if not items:
        return []

    def run(batches: Iterable[pd.DataFrame]):
        for pdf in batches:
            yield pd.DataFrame(
                {"id": pdf["id"], "out": [pickle.dumps(fn(items[i])) for i in pdf["id"]]}
            )

    n = len(items)
    rows = (
        spark.range(0, n, 1, min(n, spark.sparkContext.defaultParallelism))
        .mapInPandas(run, schema="id long, out binary")
        .collect()
    )
    out = {r["id"]: r["out"] for r in rows}
    return [pickle.loads(out[i]) for i in range(n)]


def mapper(spark: SparkSession | None, mode: str) -> Callable[[Callable, list], list]:
    """How profiling mode ``mode`` evaluates ``[fn(x) for x in items]``: in
    the calling process (``local``) or in one Spark job (``spark``). Raises
    ``ValueError`` for an unknown mode, or for spark mode without a session."""
    if mode == "local":
        return lambda fn, items: [fn(x) for x in items]
    if mode != "spark":
        raise ValueError(f"unknown profiler mode {mode!r}")
    if spark is None:
        raise ValueError("spark mode needs a SparkSession")
    return partial(map_in_one_job, spark)


class ConsumptionProfiler:
    """Memoizing operator profiler over one dataset's sample clips."""

    #: one profiling run, ``(op, f, ds) -> ProfileResult``, in either mode
    evaluate = staticmethod(evaluate_profile)

    def __init__(self, ds: Dataset, spark: SparkSession | None = None, *, mode: str = "spark") -> None:
        self.ds = ds
        self.map = mapper(spark, mode)
        self.memo: dict[tuple[Operator, Fidelity], ProfileResult] = {}
        self.runs = 0
        self.hits = 0

    def profile(self, op: Operator, f: Fidelity) -> ProfileResult:
        """Profile one (operator, fidelity); memoized."""
        return self.profile_many(op, [f])[0]

    def profile_many(self, op: Operator, fs: list[Fidelity]) -> list[ProfileResult]:
        """Profile a batch of fidelities for one operator.

        A fidelity already in the memo counts as a hit; each distinct miss
        counts as a run. The misses are evaluated together: in the calling
        process, or, in ``spark`` mode, in one Spark job.
        """
        self.hits += sum((op, f) in self.memo for f in fs)
        missing = list(dict.fromkeys(f for f in fs if (op, f) not in self.memo))
        results = self.map(partial(self.evaluate, op, ds=self.ds), missing)
        self.runs += len(missing)
        self.memo.update(((op, f), r) for f, r in zip(missing, results))
        return [self.memo[(op, f)] for f in fs]

