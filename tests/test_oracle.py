"""The DuckDB oracle agrees with Spark on the two query shapes the system
runs over video data: a grouped aggregate, and a join followed by a group."""
from fractions import Fraction

import pyspark.sql.functions as F

from repro.codec.transcode import transcode_segments
from repro.formats import GOLDEN_CODING, RAW, Fidelity, StorageFormat
from repro.oracle import assert_equivalent
from repro.video.datasets import DATASETS
from repro.video.frames import segments_df

SFS = {
    "SFg": StorageFormat(Fidelity("best", 720, Fraction(1), 1.0), GOLDEN_CODING),
    "SF1": StorageFormat(Fidelity("good", 180, Fraction(1, 6), 0.75), RAW),
}


def test_grouped_aggregate_oracle(spark):
    segs = None
    for ds in DATASETS.values():
        df = segments_df(spark, ds, hours=0.5)
        segs = df if segs is None else segs.unionByName(df)
    segs = segs.cache()
    got = segs.groupBy("dataset").agg(
        F.count("*").alias("n"),
        F.sum("motion").alias("motion"),
        F.max("start_s").alias("last_s"),
    )
    assert_equivalent(
        got,
        "SELECT dataset, count(*) AS n, sum(motion) AS motion, max(start_s) AS last_s "
        "FROM segs GROUP BY dataset",
        segs=segs,
    )


def test_join_oracle(spark):
    # jackson's 360 stored segments meet jackson's 360 and dashcam's 180
    # segment rows: segment ids repeat across streams, so the join multiplies
    segs = (
        segments_df(spark, DATASETS["jackson"], hours=1.0)
        .unionByName(segments_df(spark, DATASETS["dashcam"], hours=0.5))
        .cache()
    )
    stored = (
        transcode_segments(segments_df(spark, DATASETS["jackson"], hours=1.0), SFS)
        .select("segment_id", "sf_id", "size_kb")
        .cache()
    )
    got = (
        segs.join(stored, "segment_id")
        .groupBy("dataset", "sf_id")
        .agg(
            F.count("*").alias("n"),
            F.sum("size_kb").alias("size_kb"),
            F.sum("motion").alias("motion"),
        )
    )
    assert_equivalent(
        got,
        "SELECT dataset, sf_id, count(*) AS n, sum(size_kb) AS size_kb, "
        "sum(motion) AS motion FROM segs JOIN stored USING (segment_id) "
        "GROUP BY dataset, sf_id",
        segs=segs,
        stored=stored,
    )
