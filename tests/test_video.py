"""Synthetic video substrate: dataset profiles and frame generation."""
from fractions import Fraction

import numpy as np
import pytest

from repro.formats import FPS, SEGMENT_SECONDS
from repro.video.datasets import DATASETS, PROFILING_DATASET, Dataset
from repro.video.frames import sampled_frame_mask, segment_frames, segments_df


class TestDatasets:
    def test_six_datasets(self):
        assert len(DATASETS) == 6

    def test_names_match_paper(self):
        assert set(DATASETS) == {"jackson", "miami", "tucson", "dashcam", "park", "airport"}

    def test_query_split(self):
        # §6.1: query A on jackson/miami/tucson, B on dashcam/park/airport
        a = {n for n, d in DATASETS.items() if d.query == "A"}
        assert a == {"jackson", "miami", "tucson"}
        with pytest.raises(ValueError):
            Dataset("x", motion=0.3, event_rate=0.3, query="C")

    def test_dashcam_has_highest_motion(self):
        # dash cameras contain high motion (§6.1); drives Fig 11b/c worst case
        assert DATASETS["dashcam"].motion == max(d.motion for d in DATASETS.values())

    def test_profiling_datasets(self):
        # §6.1: A-ops profiled on jackson, B-ops on dashcam
        assert PROFILING_DATASET == {"A": "jackson", "B": "dashcam"}

    def test_lookup(self):
        assert all(d.name == name for name, d in DATASETS.items())

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_profile_ranges(self, name):
        d = DATASETS[name]
        assert 0 < d.motion < 1 and 0 < d.event_rate < 1


class TestSegmentFrames:
    def test_frame_count(self):
        pdf = segment_frames(DATASETS["jackson"], 0)
        assert len(pdf) == SEGMENT_SECONDS * FPS

    def test_deterministic(self):
        a = segment_frames(DATASETS["park"], 7)
        b = segment_frames(DATASETS["park"], 7)
        np.testing.assert_array_equal(a, b)

    def test_segments_differ(self):
        a = segment_frames(DATASETS["park"], 1)
        b = segment_frames(DATASETS["park"], 2)
        assert not np.allclose(a["u"], b["u"])

    def test_datasets_differ(self):
        a = segment_frames(DATASETS["park"], 1)
        b = segment_frames(DATASETS["miami"], 1)
        assert not np.allclose(a["u"], b["u"])

    @pytest.mark.parametrize("col", ["u", "v", "w"])
    def test_latents_in_unit_interval(self, col):
        pdf = segment_frames(DATASETS["dashcam"], 3)
        assert ((pdf[col] >= 0) & (pdf[col] <= 1)).all()


class TestSampledMask:
    @pytest.mark.parametrize("s,expected", [
        (Fraction(1, 30), 10),
        (Fraction(1, 6), 50),
        (Fraction(1, 2), 150),
        (Fraction(1), 300),
    ])
    def test_counts(self, s, expected):
        assert sampled_frame_mask(300, s).sum() == expected

    def test_two_thirds(self):
        # frames 0, 2, 3, 5, 6, 8, ...: the 200 of 300 the cost model charges
        mask = sampled_frame_mask(300, Fraction(2, 3))
        assert mask.sum() == 200
        assert list(mask[:9].nonzero()[0]) == [0, 2, 3, 5, 6, 8]

    def test_first_frame_always_sampled(self):
        for s in (Fraction(1, 30), Fraction(1)):
            assert sampled_frame_mask(10, s)[0]


class TestSparkGenerators:
    def test_segments_df_count(self, spark):
        df = segments_df(spark, DATASETS["tucson"], hours=0.1)
        assert df.count() == 36  # 360 s / 10 s segments

    def test_segments_df_schema(self, spark):
        cols = set(segments_df(spark, DATASETS["tucson"], hours=0.01).columns)
        assert {"dataset", "segment_id", "start_s", "seconds", "motion"} <= cols

    def test_segment_store_oracle_on_counts(self, spark):
        # segment metadata aggregates agree between Spark SQL and DuckDB
        from repro.oracle import assert_equivalent

        df = segments_df(spark, DATASETS["jackson"], hours=0.1)
        got = df.groupBy("dataset").count().withColumnRenamed("count", "n")
        assert_equivalent(
            got, "SELECT dataset, count(*) AS n FROM segs GROUP BY dataset", segs=df
        )
