"""Per-partition transcoding job: segments x storage-formats -> stored rows.

This is VStore's ingestion data plane (paper §2.2/§5: one FFmpeg instance per
ingested stream transcoding into every storage format), realized as a Spark
``mapInPandas`` pass: each partition of the segment DataFrame is transcoded by
a per-partition UDF that, for every (segment, storage format) pair, evaluates
the codec model on the segment's content (motion) and emits one stored-version
row with its encoded size and encode CPU cost.
"""
from __future__ import annotations

from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame

from repro.codec.model import encode_cost_cores, size_kb_per_s
from repro.formats import StorageFormat

TRANSCODE_SCHEMA = (
    "dataset string, segment_id long, start_s long, seconds long, motion double, "
    "sf_id string, quality string, resolution long, sampling double, crop double, "
    "speed_step string, keyframe_interval long, raw boolean, "
    "size_kb double, ingest_core_s double"
)


def transcode_segments(
    segments: DataFrame, sfs: dict[str, StorageFormat]
) -> DataFrame:
    """Transcode every segment into every storage format.

    ``segments`` is the output of :func:`repro.video.frames.segments_df`;
    ``sfs`` maps a stable id (e.g. "SFg", "SF1") to the format. Returns one
    row per (segment, storage format) with on-disk size and ingest CPU cost.
    """
    items = sorted(sfs.items())

    def run(batches: Iterable[pd.DataFrame]):
        for pdf in batches:
            out = []
            for sf_id, sf in items:
                f, c = sf.fidelity, sf.coding
                seg = pdf.copy()
                seg["sf_id"] = sf_id
                seg["quality"] = f.quality
                seg["resolution"] = f.resolution
                seg["sampling"] = float(f.sampling)
                seg["crop"] = f.crop
                seg["speed_step"] = "" if c.raw else c.speed_step
                seg["keyframe_interval"] = 0 if c.raw else c.keyframe_interval
                seg["raw"] = c.raw
                seg["size_kb"] = [
                    size_kb_per_s(f, c, m) * s
                    for m, s in zip(seg["motion"], seg["seconds"])
                ]
                seg["ingest_core_s"] = [
                    encode_cost_cores(f, c, m) * s
                    for m, s in zip(seg["motion"], seg["seconds"])
                ]
                out.append(seg)
            yield pd.concat(out, ignore_index=True)[
                [c.strip().split(" ")[0] for c in TRANSCODE_SCHEMA.split(",")]
            ]

    return segments.mapInPandas(run, schema=TRANSCODE_SCHEMA)


def ingest_cores_per_stream(sfs: dict[str, StorageFormat], motion: float) -> float:
    """Steady-state CPU cores to transcode one realtime stream into ``sfs``."""
    return sum(encode_cost_cores(sf.fidelity, sf.coding, motion) for sf in sfs.values())


def storage_kb_per_s(sfs: dict[str, StorageFormat], motion: float) -> float:
    """Steady-state storage growth (KB per video-second) across ``sfs``."""
    return sum(size_kb_per_s(sf.fidelity, sf.coding, motion) for sf in sfs.values())
