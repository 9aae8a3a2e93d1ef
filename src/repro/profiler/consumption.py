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

- ``spark`` (default for jobs/benchmarks): profiling requests are rows of a
  DataFrame, evaluated by a per-partition ``mapInPandas`` UDF that generates
  the clip and runs the operator inside the executor — the data plane the
  repro brief asks for.
- ``local``: identical arithmetic on the driver (same frames, same results);
  used by fast unit tests.
- ``analytic``: F1 is the operator's analytic surface (noise-free); used by
  algorithm-equivalence tests (staircase vs exhaustive).

Results are memoized per (operator, fidelity); ``runs`` counts cache misses
(actual profiling work) and ``hits`` counts memoized reuse — the quantities
Fig 13 reports.
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
        assert mode in ("spark", "local", "analytic")
        if mode == "spark":
            assert spark is not None, "spark mode needs a SparkSession"
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
        missing = [f for f in fs if (op, f) not in self.memo]
        self.hits += len(fs) - len(missing)
        missing = list(dict.fromkeys(missing))
        if missing:
            self.runs += len(missing)
            if self.mode == "analytic":
                results = [
                    ProfileResult(
                        f1=op.accuracy(f, self.ds.motion),
                        speed_x=op.consumption_speed_x(f),
                    )
                    for f in missing
                ]
            elif self.mode == "local":
                results = [evaluate_profile(op, f, self.ds) for f in missing]
            else:
                results = self._profile_spark(op, missing)
            for f, r in zip(missing, results):
                self.memo[(op, f)] = r
        return [self.memo[(op, f)] for f in fs]

    # -- Spark data plane -----------------------------------------------------

    def _profile_spark(self, op: Operator, fs: list[Fidelity]) -> list[ProfileResult]:
        # The operator, fidelities and dataset reach the executor through the
        # closure; only each request's index travels as a column.
        ds = self.ds

        def run(batches: Iterable[pd.DataFrame]):
            for pdf in batches:
                rows = []
                for i in pdf["id"]:
                    pr = evaluate_profile(op, fs[i], ds)
                    rows.append((int(i), pr.f1, pr.speed_x))
                yield pd.DataFrame(rows, columns=["id", "f1", "speed_x"])

        out = (
            self.spark.range(len(fs))
            .repartition(min(len(fs), 16))
            .mapInPandas(run, schema="id long, f1 double, speed_x double")
            .toPandas()
            .set_index("id")
            .sort_index()
        )
        return [
            ProfileResult(f1=float(out.loc[i, "f1"]), speed_x=float(out.loc[i, "speed_x"]))
            for i in range(len(fs))
        ]
