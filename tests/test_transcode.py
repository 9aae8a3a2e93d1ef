"""Per-partition transcode job and segment store (ingestion data plane)."""
import os
from fractions import Fraction

import duckdb
import pytest

from repro.codec.model import encode_cost_cores, size_kb_per_s
from repro.codec.transcode import (
    ingest_cores_per_stream,
    storage_kb_per_s,
    transcode_segments,
)
from repro.core.config import ConfigOptions, derive_config
from repro.formats import GOLDEN_CODING, RAW, Coding, Fidelity, StorageFormat
from repro.oracle import assert_equivalent
from repro.query.alternatives import make_provider
from repro.store.segment_store import SegmentStore
from repro.video.datasets import DATASETS
from repro.video.frames import segments_df

S = Fraction

SFS = {
    "SFg": StorageFormat(Fidelity("best", 720, S(1), 1.0), GOLDEN_CODING),
    "SF1": StorageFormat(Fidelity("good", 540, S(1, 6), 1.0), Coding("fast", 10)),
    "SF2": StorageFormat(Fidelity("best", 200, S(1), 1.0), RAW),
}


@pytest.fixture(scope="module")
def segments(spark):
    return segments_df(spark, DATASETS["tucson"], hours=0.05).cache()


@pytest.fixture(scope="module")
def stored(segments):
    return transcode_segments(segments, SFS).cache()


class TestTranscode:
    def test_row_count(self, stored, spark):
        # one stored version per (segment, storage format)
        assert stored.count() == 18 * len(SFS)

    def test_schema(self, stored):
        # a stored row is its key and its cost; the SF knobs live in SFS
        assert stored.columns == ["segment_id", "seconds", "sf_id", "size_kb", "ingest_core_s"]

    def test_sizes_match_model(self, stored, segments):
        # each segment is charged at its own motion, bit for bit
        motion = {r["segment_id"]: r["motion"] for r in segments.collect()}
        for r in stored.collect():
            sf, m = SFS[r["sf_id"]], motion[r["segment_id"]]
            assert r["size_kb"] == size_kb_per_s(sf.fidelity, sf.coding, m) * r["seconds"]
            assert r["ingest_core_s"] == encode_cost_cores(sf.fidelity, sf.coding, m) * r["seconds"]

    def test_raw_has_zero_encode_cost_rows(self, stored):
        raw_cost = (
            stored.filter("sf_id = 'SF2'").agg({"ingest_core_s": "sum"}).collect()[0][0]
        )
        enc_cost = (
            stored.filter("sf_id = 'SFg'").agg({"ingest_core_s": "sum"}).collect()[0][0]
        )
        assert raw_cost < 0.05 * enc_cost

    def test_totals_against_duckdb_oracle(self, stored, spark):
        got = (
            stored.groupBy("sf_id")
            .agg({"size_kb": "sum", "ingest_core_s": "sum"})
            .withColumnRenamed("sum(size_kb)", "kb")
            .withColumnRenamed("sum(ingest_core_s)", "cores")
        )
        assert_equivalent(
            got,
            "SELECT sf_id, sum(size_kb) AS kb, sum(ingest_core_s) AS cores "
            "FROM t GROUP BY sf_id",
            t=stored,
        )

    def test_helper_totals(self):
        m = DATASETS["tucson"].motion
        assert ingest_cores_per_stream(SFS, m) > 0
        per_s = storage_kb_per_s(SFS, m)
        assert per_s == pytest.approx(
            sum(size_kb_per_s(sf.fidelity, sf.coding, m) for sf in SFS.values())
        )


class TestSegmentStore:
    def test_ingest_and_load(self, spark, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        assert store.load(spark, "park").count() == 18 * len(SFS)

    def test_storage_by_sf_oracle(self, spark, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        got = store.storage_by_sf(spark, "park")
        assert_equivalent(
            got,
            "SELECT sf_id, sum(size_kb) AS total_kb, count(*) AS segments, "
            "sum(ingest_core_s) AS ingest_core_s FROM t GROUP BY sf_id",
            t=store.load(spark, "park"),
        )

    def test_storage_rate(self, spark, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        rate = store.storage_kb_per_s(spark, "park")
        # within 20% of the dataset-mean-motion model prediction (per-segment
        # motion jitters around the mean)
        want = storage_kb_per_s(SFS, DATASETS["park"].motion)
        assert rate == pytest.approx(want, rel=0.2)

        # Fig 11b/c as the store measures them on dashcam: storage N->N >
        # 1.5x VStore > 1->1, ingest cores N->N > VStore > 1->1
        cfg = derive_config(options=ConfigOptions(profiler_mode="local"))
        ds = DATASETS["dashcam"]
        kb_s, cores = {}, {}
        for kind in ("vstore", "1->1", "N->N"):
            store.ingest(spark, ds, make_provider(kind, cfg, ds.motion).sfs, hours=0.05)
            df = store.load(spark, ds.name)
            kb_s[kind] = store.storage_kb_per_s(spark, ds.name)
            cores[kind] = df.agg({"ingest_core_s": "sum"}).collect()[0][0] / (0.05 * 3600)
        assert kb_s["N->N"] > 1.5 * kb_s["vstore"] and kb_s["vstore"] > kb_s["1->1"]
        assert cores["N->N"] > cores["vstore"] > cores["1->1"]

    def test_storage_rate_duckdb_twin(self, spark, tmp_path):
        # the exact rate: stored KB over the seconds of the distinct segments,
        # before and after an erosion (which keeps every segment in SFg)
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        for _ in range(2):
            glob = os.path.join(store._path("park"), "*.parquet")
            with duckdb.connect() as con:
                kb, secs = con.execute(
                    "select (select sum(size_kb) from read_parquet($1)), "
                    "(select sum(seconds) from (select distinct segment_id, seconds "
                    "from read_parquet($1)))",
                    [glob],
                ).fetchone()
            assert store.storage_kb_per_s(spark, "park") == pytest.approx(kb / secs, rel=1e-9)
            store.apply_erosion(spark, "park", {"SF1": 0.5})

    def test_stream_operations_are_shuffle_free(self, spark, tmp_path):
        # a stream is read as one partition: each accounting aggregation is
        # one job of one stage, and erosion one job to count the segments and
        # one to rewrite them
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        sc = spark.sparkContext
        calls = [
            ("storage_by_sf", lambda: store.storage_by_sf(spark, "park").collect(), 1),
            ("storage_kb_per_s", lambda: store.storage_kb_per_s(spark, "park"), 1),
            ("apply_erosion", lambda: store.apply_erosion(spark, "park", {"SF1": 0.5}), 2),
        ]
        for name, call, n_jobs in calls:
            group = f"test-store-jobs {name}"
            sc.setJobGroup(group, name)
            try:
                call()
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            # the status tracker is fed by the asynchronous listener bus
            sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
            tracker = sc.statusTracker()
            jobs = tracker.getJobIdsForGroup(group)
            assert len(jobs) == n_jobs, name
            assert all(len(tracker.getJobInfo(j).stageIds) == 1 for j in jobs), name

    def test_apply_erosion_deletes_fraction(self, spark, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        store.apply_erosion(spark, "park", {"SF1": 0.5})
        df = store.load(spark, "park")
        counts = {r["sf_id"]: r["n"] for r in df.groupBy("sf_id").count().withColumnRenamed("count", "n").collect()}
        assert counts["SF1"] == 9 and counts["SFg"] == 18 and counts["SF2"] == 18

    def test_apply_erosion_keeps_golden(self, spark, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        store.apply_erosion(spark, "park", {"SF1": 1.0, "SF2": 1.0})
        df = store.load(spark, "park")
        assert df.filter("sf_id = 'SFg'").count() == 18
        assert df.filter("sf_id != 'SFg'").count() == 0

    def test_apply_erosion_crash_keeps_a_copy(self, spark, tmp_path, monkeypatch):
        # a crash between renaming the live copy aside and renaming the new
        # copy in: a store opened afterwards restores the aside copy
        root = str(tmp_path / "store")
        SegmentStore(root).ingest(spark, DATASETS["park"], SFS, hours=0.05)
        replace, calls = os.replace, []

        def crash_on_second_rename(src, dst):
            calls.append(src)
            if len(calls) == 2:
                raise OSError("crash between the renames")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_second_rename)
        with pytest.raises(OSError, match="between the renames"):
            SegmentStore(root).apply_erosion(spark, "park", {"SF1": 0.5})
        monkeypatch.undo()
        assert not os.path.exists(os.path.join(root, "stream=park"))
        store = SegmentStore(root)
        assert store.load(spark, "park").count() == 18 * len(SFS)
        store.apply_erosion(spark, "park", {"SF1": 0.5})
        df = store.load(spark, "park")
        assert df.filter("sf_id = 'SF1'").count() == 9 and df.count() == 18 * len(SFS) - 9
