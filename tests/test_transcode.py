"""Per-partition transcode job and segment store (ingestion data plane)."""
from fractions import Fraction

import pytest

from repro.codec.model import size_kb_per_s
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
def stored(spark):
    segs = segments_df(spark, DATASETS["tucson"], hours=0.05)
    return transcode_segments(segs, SFS).cache()


class TestTranscode:
    def test_row_count(self, stored, spark):
        # one stored version per (segment, storage format)
        assert stored.count() == 18 * len(SFS)

    def test_schema(self, stored):
        assert {"sf_id", "size_kb", "ingest_core_s", "raw"} <= set(stored.columns)

    def test_sizes_match_model(self, stored):
        rows = stored.collect()
        for r in rows:
            sf = SFS[r["sf_id"]]
            want = size_kb_per_s(sf.fidelity, sf.coding, r["motion"]) * r["seconds"]
            assert r["size_kb"] == pytest.approx(want, rel=1e-9)

    def test_raw_flag_per_sf(self, stored):
        flags = {r["sf_id"]: r["raw"] for r in stored.select("sf_id", "raw").distinct().collect()}
        assert flags == {"SFg": False, "SF1": False, "SF2": True}

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
        df = store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        assert df.count() == 18 * len(SFS)

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
            df = store.ingest(spark, ds, make_provider(kind, cfg, ds.motion).sfs, hours=0.05)
            kb_s[kind] = store.storage_kb_per_s(spark, ds.name)
            cores[kind] = df.agg({"ingest_core_s": "sum"}).collect()[0][0] / (0.05 * 3600)
        assert kb_s["N->N"] > 1.5 * kb_s["vstore"] and kb_s["vstore"] > kb_s["1->1"]
        assert cores["N->N"] > cores["vstore"] > cores["1->1"]

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
