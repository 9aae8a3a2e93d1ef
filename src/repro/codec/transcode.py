"""Transcoding job: segments x storage-formats -> stored rows.

This is VStore's ingestion data plane (paper §2.2/§5: one FFmpeg instance per
ingested stream transcoding into every storage format), realized as a Spark
``mapInPandas`` pass run as one task per stream (the store coalesces a
stream's segments to one partition): for every storage format, the task
evaluates the codec model over the stream's segment motion as one numpy
expression and emits one row per segment. A stored row holds its key
(segment, SF id; the stream is the store directory) and its cost: the encoded
size and the encode CPU spent. The SF knobs stay in the provider's ``sfs``.
"""
from __future__ import annotations

from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame

from repro.codec.model import encode_cost_cores, size_kb_per_s
from repro.formats import StorageFormat

TRANSCODE_SCHEMA = (
    "segment_id long, seconds long, sf_id string, size_kb double, ingest_core_s double"
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
            motion, seconds = pdf["motion"].to_numpy(), pdf["seconds"].to_numpy()
            yield pd.concat(
                [
                    pd.DataFrame(
                        {
                            "segment_id": pdf["segment_id"],
                            "seconds": pdf["seconds"],
                            "sf_id": sf_id,
                            "size_kb": size_kb_per_s(sf.fidelity, sf.coding, motion) * seconds,
                            "ingest_core_s": encode_cost_cores(sf.fidelity, sf.coding, motion)
                            * seconds,
                        }
                    )
                    for sf_id, sf in items
                ],
                ignore_index=True,
            )

    return segments.mapInPandas(run, schema=TRANSCODE_SCHEMA)


def ingest_cores_per_stream(sfs: dict[str, StorageFormat], motion: float) -> float:
    """Steady-state CPU cores to transcode one realtime stream into ``sfs``."""
    return sum(encode_cost_cores(sf.fidelity, sf.coding, motion) for sf in sfs.values())


def storage_kb_per_s(sfs: dict[str, StorageFormat], motion: float) -> float:
    """Steady-state storage growth (KB per video-second) across ``sfs``."""
    return sum(size_kb_per_s(sf.fidelity, sf.coding, motion) for sf in sfs.values())
