"""Cascade query execution over the stored video (paper §6.2, Fig 11a).

A query is an operator cascade (Fig 2) at one target accuracy. Execution
streams each 10-second segment from the store through (simulated) retrieval
into the operators: a per-partition ``mapInPandas`` pass generates each
segment's frames, applies each stage's consumption-format sampling, runs the
stage's detector on the frames still *active* (flagged by the previous
stage), and accounts simulated time per stage as

    t = fraction_in * seconds * max(1/retrieval_speed, 1/consumption_speed)
        + fixed per-stage scheduling/IO overhead,

i.e. retrieval and consumption are pipelined and the slower side binds (the
paper's R2 motivation). Query speed = video duration / total simulated time,
reported as x-realtime.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.ops.library import CASCADES, OPERATORS
from repro.query.alternatives import FormatProvider, StagePlanEntry
from repro.video.datasets import Dataset
from repro.video.frames import sampled_frame_mask, segment_frames, segments_df

#: fixed scheduler/decoder-setup/IO cost per (segment, active stage), seconds.
#: Calibrated so absolute query speeds land in the paper's x-realtime range
#: (VStore tops out at a few hundred x; see DESIGN.md §6).
OVERHEAD_S = 0.01

STAGE_SCHEMA = (
    "segment_id long, stage long, op string, frac_in double, flagged long, "
    "processed long, sim_time_s double, seconds long"
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
class StageExec:
    """Aggregated execution record of one cascade stage."""

    op_name: str
    cf_label: str
    sf_id: str
    retrieval_x: float
    consumption_x: float
    frac_in: float
    sim_time_s: float


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one query run."""

    provider: str
    dataset: str
    accuracy: float
    video_seconds: float
    sim_time_s: float
    stages: tuple[StageExec, ...]

    @property
    def speed_x(self) -> float:
        return self.video_seconds / self.sim_time_s


def _cascade(
    spark: SparkSession, provider: FormatProvider, ds: Dataset, accuracy: float, hours: float
) -> tuple[list[StagePlanEntry], DataFrame]:
    """The cascade kernel: the per-stage plan and one row per (segment, stage)
    of ``hours`` of video run through the dataset's cascade at ``accuracy``."""
    ops = [OPERATORS[name] for name in CASCADES[ds.query]]
    plan = [provider.entry(op.name, accuracy) for op in ops]
    stages = list(enumerate(zip(ops, plan)))

    def run(batches: Iterable[pd.DataFrame]):
        for pdf in batches:
            out = []
            for r in pdf.itertuples(index=False):
                frames = segment_frames(ds, int(r.segment_id))
                n = len(frames)
                active = np.ones(n, dtype=bool)
                for stage, (op, e) in stages:
                    frac_in = float(active.mean())
                    mask = active & sampled_frame_mask(n, e.cf.sampling)
                    processed = frames[mask]
                    if len(processed):
                        pred = op.detect(processed, e.cf, ds.motion, ds.event_rate)
                    else:
                        pred = np.zeros(0, dtype=bool)
                    t = (
                        frac_in
                        * int(r.seconds)
                        * max(1.0 / e.retrieval_x, 1.0 / e.consumption_speed_x)
                        + (OVERHEAD_S if frac_in > 0 else 0.0)
                    )
                    out.append(
                        (
                            int(r.segment_id),
                            stage,
                            op.name,
                            frac_in,
                            int(pred.sum()),
                            int(len(processed)),
                            t,
                            int(r.seconds),
                        )
                    )
                    active = _propagate(active, mask, pred, n)
            yield pd.DataFrame(out, columns=STAGE_COLUMNS)

    return plan, segments_df(spark, ds, hours=hours).mapInPandas(run, schema=STAGE_SCHEMA)


def run_query(
    spark: SparkSession,
    provider: FormatProvider,
    ds: Dataset,
    accuracy: float,
    *,
    hours: float = 1.0,
) -> QueryResult:
    """Execute the dataset's cascade at one accuracy over ``hours`` of video."""
    plan, rows = _cascade(spark, provider, ds, accuracy, hours)
    agg = (
        rows.groupBy("stage", "op")
        .agg(
            F.avg("frac_in").alias("frac_in"),
            F.sum("sim_time_s").alias("sim_time_s"),
        )
        .orderBy("stage")
        .collect()
    )
    stages = tuple(
        StageExec(
            op_name=a["op"],
            cf_label=e.cf.label(),
            sf_id=e.sf_id,
            retrieval_x=e.retrieval_x,
            consumption_x=e.consumption_speed_x,
            frac_in=float(a["frac_in"]),
            sim_time_s=float(a["sim_time_s"]),
        )
        for a, e in zip(agg, plan)  # every segment emits every stage
    )
    return QueryResult(
        provider=provider.name,
        dataset=ds.name,
        accuracy=accuracy,
        video_seconds=hours * 3600.0,
        sim_time_s=sum(s.sim_time_s for s in stages),
        stages=stages,
    )
