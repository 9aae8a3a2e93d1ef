"""Parquet-backed segment store — the LMDB substitute (paper §5).

The paper stores 8–10 s video segments as MB-sized values in LMDB keyed by
(stream, segment, storage format) and retrieves/deletes each independently.
Here each stream is one directory holding one parquet file, written by one
Spark task, and each stored version is a row of its key (segment id,
seconds, SF id) and its cost: the simulated on-disk size and the ingest CPU
spent. The format knobs live in the configuration, not in the rows. A stream
is read with the transcode job's declared ``TRANSCODE_SCHEMA`` as one
partition, so opening one runs no Spark job, no aggregation needs an
exchange, and no write reads back what it wrote. Storage/ingestion
accounting are Spark SQL aggregations, cross-checked against DuckDB with the
repo oracle. Ingestion itself is the ``mapInPandas`` transcode job from
:mod:`repro.codec.transcode`, run as one task over the whole stream.

Erosion is one pass over the stream: one task reads it, drops the deleted
rows and writes the rest, and it never removes the stream's only copy: the
live directory is renamed aside, the new copy renamed in, and only then is
the aside copy deleted. A store that opens with a stream's live directory
missing and its aside copy present (a crash between the two renames)
restores the aside copy.
"""
from __future__ import annotations

import os
import shutil
from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.codec.transcode import TRANSCODE_SCHEMA, transcode_segments
from repro.formats import StorageFormat
from repro.video.datasets import Dataset
from repro.video.frames import segments_df


#: suffix of a stream directory renamed aside while erosion swaps in its new copy
ASIDE = ".aside"


class SegmentStore:
    """Segment-granularity KV store over the local filesystem."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        for name in os.listdir(root):
            live = os.path.join(root, name.removesuffix(ASIDE))
            if name.endswith(ASIDE) and not os.path.exists(live):
                os.replace(os.path.join(root, name), live)

    def _path(self, dataset: str) -> str:
        return os.path.join(self.root, f"stream={dataset}")

    # -- ingestion ------------------------------------------------------------

    def ingest(
        self,
        spark: SparkSession,
        ds: Dataset,
        sfs: dict[str, StorageFormat],
        *,
        hours: float = 1.0,
    ) -> None:
        """Transcode ``hours`` of one stream into every storage format and
        persist the stored versions: one Spark job of one task, which writes
        one parquet file (the narrow coalesce adds no shuffle, so the codec
        model runs once over the whole stream)."""
        segs = segments_df(spark, ds, hours=hours).coalesce(1)
        transcode_segments(segs, sfs).write.mode("overwrite").parquet(self._path(ds.name))

    # -- access ---------------------------------------------------------------

    def load(self, spark: SparkSession, dataset: str) -> DataFrame:
        """The stored rows of one stream as one partition, so that aggregating
        them needs no exchange (a day is 8,640 segments × #SFs rows, < 1 MB);
        no Spark job until an action."""
        return spark.read.schema(TRANSCODE_SCHEMA).parquet(self._path(dataset)).coalesce(1)

    def storage_by_sf(self, spark: SparkSession, dataset: str) -> DataFrame:
        """Total stored KB per storage format (oracle-checkable)."""
        return (
            self.load(spark, dataset)
            .groupBy("sf_id")
            .agg(
                F.sum("size_kb").alias("total_kb"),
                F.count("*").alias("segments"),
                F.sum("ingest_core_s").alias("ingest_core_s"),
            )
        )

    def storage_kb_per_s(self, spark: SparkSession, dataset: str) -> float:
        """Storage growth rate: stored KB per ingested video-second, in one
        action (per-segment sums, then their totals)."""
        kb, secs = (
            self.load(spark, dataset)
            .groupBy("segment_id", "seconds")
            .agg(F.sum("size_kb").alias("kb"))
            .agg(F.sum("kb"), F.sum("seconds"))
            .collect()[0]
        )
        return float(kb) / float(secs)

    # -- erosion --------------------------------------------------------------

    def apply_erosion(
        self,
        spark: SparkSession,
        dataset: str,
        deleted_fracs: dict[str, float],
    ) -> None:
        """Delete the given fraction of each SF's segments (lowest segment ids
        first, deterministically) and rewrite the stream in one Spark job. A
        plan that deletes no fraction runs no job and leaves the files as
        they are."""
        fracs = {sf_id: frac for sf_id, frac in deleted_fracs.items() if frac > 0}
        if not fracs:
            return

        def erode(batches: Iterable[pd.DataFrame]):
            # One call sees every row of the stream only because load() reads
            # it as one partition (its coalesce(1)); the segment count is
            # stored nowhere but in the rows.
            parts = list(batches)
            if parts:  # an emptied stream's partition has no batch
                pdf = pd.concat(parts, ignore_index=True)
                n_seg = pdf["segment_id"].nunique()
                cutoffs = {sf_id: int(round(frac * n_seg)) for sf_id, frac in fracs.items()}
                # an SF without a cutoff maps to NaN, and no id is below NaN
                yield pdf[~(pdf["segment_id"] < pdf["sf_id"].map(cutoffs))]

        kept = self.load(spark, dataset).mapInPandas(erode, schema=TRANSCODE_SCHEMA)
        live = self._path(dataset)
        tmp, aside = live + ".tmp", live + ASIDE
        kept.write.mode("overwrite").parquet(tmp)
        shutil.rmtree(aside, ignore_errors=True)  # stale: the live copy exists
        os.replace(live, aside)
        os.replace(tmp, live)
        shutil.rmtree(aside)
