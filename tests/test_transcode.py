"""Transcode job and segment store (ingestion data plane)."""
import os
import shutil
from fractions import Fraction

import duckdb
import pytest
from hypothesis import given, settings, strategies as st
from pyspark.sql import functions as F

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


def _jobs_run_by(spark, name, call):
    """Run ``call`` under its own job group; per Spark job it ran, the task
    count of each of its stages."""
    sc = spark.sparkContext
    group = f"test-store-jobs {name}"
    sc.setJobGroup(group, name)
    try:
        call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # the status tracker is fed by the asynchronous listener bus
    sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
    tracker = sc.statusTracker()
    return [
        [tracker.getStageInfo(s).numTasks for s in tracker.getJobInfo(j).stageIds]
        for j in sorted(tracker.getJobIdsForGroup(group))
    ]


def _parquet_files(store, dataset):
    return [f for f in os.listdir(store._path(dataset)) if f.endswith(".parquet")]


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

    def test_ingest_is_one_task_writing_one_file(self, spark, tmp_path):
        # a 6-h stream (2,160 segments) is transcoded by one task into one file
        store = SegmentStore(str(tmp_path / "store"))
        jobs = _jobs_run_by(
            spark, "ingest", lambda: store.ingest(spark, DATASETS["park"], SFS, hours=6.0)
        )
        assert jobs == [[1]]
        assert len(_parquet_files(store, "park")) == 1
        assert store.load(spark, "park").count() == 2160 * len(SFS)

    def test_stream_operations_are_shuffle_free(self, spark, tmp_path):
        # a stream is read as one partition: each accounting aggregation is
        # one job of one stage, and erosion one job that reads, filters and
        # rewrites the stream
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        calls = [
            ("storage_by_sf", lambda: store.storage_by_sf(spark, "park").collect(), 1),
            ("storage_kb_per_s", lambda: store.storage_kb_per_s(spark, "park"), 1),
            ("apply_erosion", lambda: store.apply_erosion(spark, "park", {"SF1": 0.5}), 1),
        ]
        for name, call, n_jobs in calls:
            jobs = _jobs_run_by(spark, name, call)
            assert len(jobs) == n_jobs, name
            assert all(len(stages) == 1 for stages in jobs), name

    @pytest.mark.parametrize("fracs", [{}, {"SF1": 0.0, "SF2": 0}])
    def test_noop_erosion_runs_nothing(self, spark, tmp_path, fracs):
        # the young ages of every erosion plan delete nothing: no job runs
        # and the stream's files stay as they are
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)

        def files():
            path = store._path("park")
            return {f: os.stat(os.path.join(path, f)).st_mtime_ns for f in os.listdir(path)}

        before = files()
        jobs = _jobs_run_by(
            spark, "noop erosion", lambda: store.apply_erosion(spark, "park", fracs)
        )
        assert jobs == []
        assert files() == before

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

    def test_apply_erosion_of_an_emptied_stream(self, spark, tmp_path):
        # a stream with every version deleted is still a stream: its one
        # partition holds no rows, and eroding it again keeps it empty
        store = SegmentStore(str(tmp_path / "store"))
        store.ingest(spark, DATASETS["park"], SFS, hours=0.05)
        store.apply_erosion(spark, "park", dict.fromkeys(SFS, 1.0))
        store.apply_erosion(spark, "park", {"SF1": 0.5})
        assert store.load(spark, "park").count() == 0

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


# -- erosion as one pass: equivalence with the filter it replaced -------------


def _reference_kept(df, deleted_fracs):
    """The rows erosion kept when it counted the segments in one job and
    filtered the stream as a DataFrame in another (the reference)."""
    n_seg = df.select("segment_id").distinct().count()
    conds = None
    for sf_id, frac in deleted_fracs.items():
        cutoff = int(round(frac * n_seg))
        c = (F.col("sf_id") == sf_id) & (F.col("segment_id") < cutoff)
        conds = c if conds is None else (conds | c)
    return df if conds is None else df.filter(~conds)


#: 18, 23 and 36 segments: none a multiple of the 20 erosion quanta
EROSION_HOURS = (0.05, 0.065, 0.1)


@pytest.fixture(scope="module")
def pristine_streams(spark, tmp_path_factory):
    """Per (hours, file count), a store holding park stored in that many
    parquet files: one as ``ingest`` writes it, four as a store ingested by
    four tasks holds it."""
    streams = {}
    for hours in EROSION_HOURS:
        for n_files in (1, 4):
            store = SegmentStore(str(tmp_path_factory.mktemp(f"pristine-{hours}-{n_files}")))
            if n_files == 1:
                store.ingest(spark, DATASETS["park"], SFS, hours=hours)
            else:
                stored = transcode_segments(segments_df(spark, DATASETS["park"], hours=hours), SFS)
                stored.repartition(n_files).write.parquet(store._path("park"))
            assert len(_parquet_files(store, "park")) == n_files
            streams[hours, n_files] = store
    return streams


@given(
    hours=st.sampled_from(EROSION_HOURS),
    n_files=st.sampled_from((1, 4)),
    # SF7 and SF9 are not in the store
    fracs=st.dictionaries(
        st.sampled_from(("SFg", "SF1", "SF2", "SF7", "SF9")),
        st.sampled_from([k / 20 for k in range(21)]),
        max_size=5,
    ),
)
@settings(max_examples=20, deadline=None)
def test_erosion_keeps_what_the_filter_kept(
    spark, tmp_path_factory, pristine_streams, hours, n_files, fracs
):
    pristine = pristine_streams[hours, n_files]
    # the segment count is global only because a stream is read as one
    # partition, however many files hold it
    assert pristine.load(spark, "park").rdd.getNumPartitions() == 1
    store = SegmentStore(str(tmp_path_factory.mktemp("eroded")))
    shutil.copytree(pristine._path("park"), store._path("park"))
    store.apply_erosion(spark, "park", fracs)

    def rows(df):
        return sorted(map(tuple, df.collect()))

    assert rows(store.load(spark, "park")) == rows(
        _reference_kept(pristine.load(spark, "park"), fracs)
    )
    # a pass that deletes something writes one file; one that deletes
    # nothing leaves the stream's files as they are
    n_after = 1 if any(f > 0 for f in fracs.values()) else n_files
    assert len(_parquet_files(store, "park")) == n_after
