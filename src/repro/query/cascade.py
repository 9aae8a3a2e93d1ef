"""Cascade query execution over the stored video (paper §6.2, Fig 11a).

A query is an operator cascade (Fig 2) at one target accuracy, run in two steps.
*Execute* is the data plane, one Spark job with no shuffle: a per-partition
``mapInPandas`` numpy kernel generates each 10-second segment's frames, applies
each stage's consumption-format (CF) sampling and runs the stage's detector on
the frames still *active* (flagged by the previous stage); its per-(segment,
stage) rows are aggregated on the driver into, per stage, the active
video-seconds Σ(fraction_in * seconds) and the number of active segments. Which
frames reach a stage depends only on the stream and the CFs, so one execution
serves every configuration that consumes the same CFs. *Price* is the cost
model, on the driver: per stage

    t = active_s * max(1/retrieval_speed, 1/consumption_speed)
        + fixed per-stage scheduling/IO overhead * active_segments,

i.e. retrieval and consumption are pipelined and the slower side binds (the
paper's R2 motivation). Query speed = executed video duration (whole segments)
/ total simulated time, reported as x-realtime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.formats import SEGMENT_SECONDS, Fidelity
from repro.ops.library import CASCADES, OPERATORS
from repro.query.alternatives import FormatProvider, StagePlanEntry
from repro.video.datasets import Dataset
from repro.video.frames import (
    SEGMENT_FRAMES,
    sampled_frame_mask,
    segment_count,
    segment_frames,
    segments_df,
)

#: fixed scheduler/decoder-setup/IO cost per (segment, active stage), seconds.
#: Calibrated so absolute query speeds land in the paper's x-realtime range
#: (VStore tops out at a few hundred x; see DESIGN.md §6).
OVERHEAD_S = 0.01

STAGE_SCHEMA = (
    "segment_id long, stage long, frac_in double, flagged long, processed long, seconds long"
)
STAGE_COLUMNS = [c.split()[0] for c in STAGE_SCHEMA.split(", ")]


def _propagate(active: "np.ndarray", mask: "np.ndarray", pred: "np.ndarray", n: int):
    """Label propagation: each active frame inherits the verdict of the
    nearest *processed* (sampled) frame at or before it. An early operator
    that flags a sampled frame as interesting sends the whole inter-sample
    window to the next stage — it cannot rule out what it never examined —
    so late-stage input fractions track the operator's selectivity, not the
    sampling rate (the cascade semantics of Fig 2)."""
    idx = np.flatnonzero(mask)
    nxt = np.zeros(n, dtype=bool)
    if len(idx):
        # position of the nearest processed frame at-or-before each frame
        pos = np.searchsorted(idx, np.arange(n), side="right") - 1
        valid = pos >= 0
        nxt[valid] = pred[pos[valid]]
        nxt[~valid] = pred[0] if len(pred) else False
    return nxt & active


@dataclass(frozen=True)
class StageRun:
    """What executing one cascade stage yields for pricing."""

    active_s: float  # video-seconds reaching the stage, Σ frac_in * seconds
    active_segments: int  # segments with at least one frame reaching the stage


@dataclass(frozen=True)
class StageExec:
    """Priced execution record of one cascade stage."""

    op_name: str
    sf_id: str
    retrieval_x: float
    frac_in: float  # share of the query's video-seconds reaching the stage
    sim_time_s: float


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one query run."""

    dataset: str
    accuracy: float
    video_seconds: float
    sim_time_s: float
    stages: tuple[StageExec, ...]

    @property
    def speed_x(self) -> float:
        return self.video_seconds / self.sim_time_s


def stage_plan(provider: FormatProvider, ds: Dataset, accuracy: float) -> list[StagePlanEntry]:
    """The provider's plan for each stage of the dataset's cascade."""
    return [provider.entry(name, accuracy) for name in CASCADES[ds.query]]


def _cascade(spark: SparkSession, ds: Dataset, cfs: Sequence[Fidelity], hours: float) -> DataFrame:
    """The cascade kernel: one row per (segment, stage) of ``hours`` of video
    run through the dataset's cascade, stage ``i`` consuming ``cfs[i]``."""
    # per stage: the detector at its CF and the frames its sampling admits
    stages = [
        (OPERATORS[name].detector(cf, ds.motion, ds.event_rate),
         sampled_frame_mask(SEGMENT_FRAMES, cf.sampling))
        for name, cf in zip(CASCADES[ds.query], cfs)
    ]

    def run(batches: Iterable[pd.DataFrame]):
        for pdf in batches:
            out = []
            for sid, seconds in zip(pdf["segment_id"].tolist(), pdf["seconds"].tolist()):
                frames = segment_frames(ds, sid)
                active = np.ones(SEGMENT_FRAMES, dtype=bool)
                for stage, (detect, sampled) in enumerate(stages):
                    frac_in = float(active.mean())
                    mask = active & sampled
                    pred = detect(frames[mask])
                    out.append((sid, stage, frac_in, int(pred.sum()), len(pred), seconds))
                    active = _propagate(active, mask, pred, SEGMENT_FRAMES)
            yield pd.DataFrame(out, columns=STAGE_COLUMNS)

    return segments_df(spark, ds, hours=hours).mapInPandas(run, schema=STAGE_SCHEMA)


def execute(spark: SparkSession, ds: Dataset, cfs: Sequence[Fidelity], hours: float) -> list[StageRun]:
    """Run the cascade once over ``hours`` of video; one record per stage.

    One Spark job with no shuffle: the kernel's per-(segment, stage) rows come
    back to the driver, which sums them per stage."""
    rows = _cascade(spark, ds, cfs, hours).toPandas()
    return [
        StageRun(math.fsum(g["frac_in"] * g["seconds"]), int((g["frac_in"] > 0).sum()))
        for _, g in rows.groupby("stage")
    ]


def price(
    runs: Sequence[StageRun], plan: Sequence[StagePlanEntry], ds: Dataset, accuracy: float, hours: float
) -> QueryResult:
    """Simulated time of an executed cascade when each stage retrieves and
    consumes as its ``plan`` entry says."""
    video_seconds = float(segment_count(hours) * SEGMENT_SECONDS)
    stages = tuple(
        StageExec(
            op_name=name,
            sf_id=e.sf_id,
            retrieval_x=e.retrieval_x,
            frac_in=s.active_s / video_seconds,
            sim_time_s=s.active_s * max(1.0 / e.retrieval_x, 1.0 / e.consumption_speed_x)
            + OVERHEAD_S * s.active_segments,
        )
        for name, s, e in zip(CASCADES[ds.query], runs, plan)
    )
    return QueryResult(
        dataset=ds.name,
        accuracy=accuracy,
        video_seconds=video_seconds,
        sim_time_s=sum(s.sim_time_s for s in stages),
        stages=stages,
    )


def run_query(
    spark: SparkSession,
    provider: FormatProvider,
    ds: Dataset,
    accuracy: float,
    *,
    hours: float = 1.0,
) -> QueryResult:
    """Execute the dataset's cascade at one accuracy over ``hours`` of video,
    then price it for ``provider``."""
    plan = stage_plan(provider, ds, accuracy)
    return price(execute(spark, ds, [e.cf for e in plan], hours), plan, ds, accuracy, hours)
