"""§6.2 end-to-end query execution: VStore vs 1->1, 1->N, N->N (Fig 11)."""
import pytest

from repro.codec.model import decode_speed_x
from repro.codec.transcode import ingest_cores_per_stream, storage_kb_per_s
from repro.core.config import ConfigOptions, derive_config
from repro.oracle import assert_equivalent
from repro.query.alternatives import make_provider
from repro.query.cascade import _cascade, execute, run_query, stage_plan
from repro.video.datasets import DATASETS

KINDS = ("vstore", "1->1", "1->N", "N->N")
#: one stream of query A and one of query B
QUERY_STREAMS = ("jackson", "park")


@pytest.fixture(scope="module")
def cfg():
    return derive_config(options=ConfigOptions(profiler_mode="local"))


@pytest.fixture(scope="module")
def providers(cfg):
    ds = DATASETS["jackson"]
    return {k: make_provider(k, cfg, ds.motion) for k in KINDS}


class TestProviders:
    def test_vstore_has_few_sfs(self, providers, cfg):
        assert len(providers["vstore"].sfs) < cfg.unique_cf_count()

    def test_single_format_providers(self, providers):
        assert set(providers["1->1"].sfs) == {"SFg"}
        assert set(providers["1->N"].sfs) == {"SFg"}

    def test_n_to_n_one_sf_per_cf(self, providers, cfg):
        assert len(providers["N->N"].sfs) == cfg.unique_cf_count()

    def test_one_to_one_consumes_golden_fidelity(self, providers, cfg):
        g = cfg.storage.golden.fidelity
        for e in providers["1->1"].entries.values():
            assert e.cf == g

    def test_one_to_n_uses_vstore_cfs(self, providers, cfg):
        for c in cfg.consumers:
            assert providers["1->N"].entry(c.op_name, c.target_acc).cf == c.cf

    def test_one_to_n_retrieval_capped_by_golden_decode(self, providers, cfg):
        # §6.2: 1->N caps every consumer at the golden format's decode speed
        g = cfg.storage.golden.fidelity
        sfs = providers["1->N"].sfs
        for e in providers["1->N"].entries.values():
            cap = decode_speed_x(g, sfs[e.sf_id].coding, 1, DATASETS["jackson"].motion)
            assert e.retrieval_x <= cap * 7  # sparse samplers gain from skips


class TestQuerySpeed:
    @pytest.fixture(scope="class")
    def speeds(self, spark, cfg):
        """speeds[stream][(kind, accuracy)] for each of ``QUERY_STREAMS``."""
        out = {}
        for name in QUERY_STREAMS:
            ds = DATASETS[name]
            out[name] = {
                (kind, acc): run_query(
                    spark, make_provider(kind, cfg, ds.motion), ds, acc, hours=0.05
                ).speed_x
                for kind in KINDS
                for acc in (0.95, 0.7)
            }
        return out

    def test_vstore_beats_one_to_n(self, speeds):
        # Fig 11a: VStore outperforms 1->N by 3x-16x
        for s in speeds.values():
            for acc in (0.95, 0.7):
                assert s[("vstore", acc)] > 2 * s[("1->N", acc)]

    def test_vstore_beats_one_to_one_at_low_accuracy(self, speeds):
        for s in speeds.values():
            assert s[("vstore", 0.7)] > 5 * s[("1->1", 0.7)]

    def test_one_to_one_fixed_operating_point(self, speeds):
        # 1->1 cannot exploit accuracy/cost tradeoffs
        for s in speeds.values():
            assert s[("1->1", 0.95)] == pytest.approx(s[("1->1", 0.7)])

    def test_vstore_elastic_with_accuracy(self, speeds):
        # lowering the target accuracy accelerates the query
        for s in speeds.values():
            assert s[("vstore", 0.7)] > 1.5 * s[("vstore", 0.95)]

    def test_n_to_n_matches_vstore_speed(self, speeds):
        # N->N reads the same CFs from dedicated SFs: same query speed,
        # it only pays more storage/ingest (Fig 11b/c)
        for s in speeds.values():
            for acc in (0.95, 0.7):
                assert s[("N->N", acc)] == pytest.approx(s[("vstore", acc)], rel=0.25)


class TestQueryExecution:
    def test_cascade_fractions_decrease(self, spark, providers):
        r = run_query(spark, providers["vstore"], DATASETS["jackson"], 0.9, hours=0.05)
        fracs = [s.frac_in for s in r.stages]
        assert fracs[0] == pytest.approx(1.0)
        assert fracs == sorted(fracs, reverse=True)

    def test_stage_ops_match_cascade(self, spark, providers):
        r = run_query(spark, providers["vstore"], DATASETS["jackson"], 0.9, hours=0.05)
        assert [s.op_name for s in r.stages] == ["diff", "snn", "nn"]

    def test_query_b_cascade(self, spark, cfg):
        ds = DATASETS["park"]
        prov = make_provider("vstore", cfg, ds.motion)
        r = run_query(spark, prov, ds, 0.8, hours=0.05)
        assert [s.op_name for s in r.stages] == ["motion", "license", "ocr"]
        assert r.speed_x > 10

    def test_speed_accounting_consistent(self, spark, providers):
        r = run_query(spark, providers["vstore"], DATASETS["jackson"], 0.8, hours=0.05)
        assert r.sim_time_s == pytest.approx(sum(s.sim_time_s for s in r.stages))
        assert r.speed_x == pytest.approx(r.video_seconds / r.sim_time_s)

    def test_partial_hours_priced_over_executed_segments(self, spark, providers):
        # 0.02 h is 72 s, but only 7 whole 10-s segments (70 s) execute
        r = run_query(spark, providers["vstore"], DATASETS["jackson"], 0.9, hours=0.02)
        assert r.video_seconds == 70
        assert r.stages[0].frac_in == 1.0

    def test_execute_is_one_shuffle_free_job(self, spark, providers):
        # the kernel's rows are aggregated on the driver: one job, one stage
        sc = spark.sparkContext
        ds = DATASETS["jackson"]
        cfs = [e.cf for e in stage_plan(providers["vstore"], ds, 0.9)]
        sc.setJobGroup("test-execute-one-job", "execute")
        try:
            execute(spark, ds, cfs, 0.05)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        tracker = sc.statusTracker()
        jobs = tracker.getJobIdsForGroup("test-execute-one-job")
        assert len(jobs) == 1
        assert len(tracker.getJobInfo(jobs[0]).stageIds) == 1

    @pytest.mark.parametrize("name,acc,want", [
        # per stage (Σ flagged, Σ processed, active segments) over 0.05 h
        ("jackson", 0.9, [(78, 180, 18), (187, 390, 18), (305, 561, 18)]),
        ("park", 0.8, [(38, 180, 18), (22, 38, 17), (3, 22, 14)]),
    ])
    def test_kernel_integer_outputs_pinned(self, spark, cfg, name, acc, want):
        ds = DATASETS[name]
        cfs = [e.cf for e in stage_plan(make_provider("vstore", cfg, ds.motion), ds, acc)]
        sums = _cascade(spark, ds, cfs, 0.05).toPandas().groupby("stage").sum()
        got = [
            (int(sums["flagged"][i]), int(sums["processed"][i]), r.active_segments)
            for i, r in enumerate(execute(spark, ds, cfs, 0.05))
        ]
        assert got == want

    def test_deterministic(self, spark, providers):
        a = run_query(spark, providers["vstore"], DATASETS["miami"], 0.9, hours=0.02)
        b = run_query(spark, providers["vstore"], DATASETS["miami"], 0.9, hours=0.02)
        assert a.speed_x == pytest.approx(b.speed_x)

    def test_detections_oracle(self, spark, providers):
        # per-stage flagged totals, and the pricing inputs that execute()
        # aggregates, agree between Spark SQL and DuckDB over the kernel rows;
        # on park some segments have no frame left at the later stages
        for name, acc, hours in (("jackson", 0.9, 0.02), ("park", 0.8, 0.05)):
            ds = DATASETS[name]
            cfs = [e.cf for e in stage_plan(providers["vstore"], ds, acc)]
            det = _cascade(spark, ds, cfs, hours).cache()
            got = (
                det.groupBy("stage").sum("flagged").withColumnRenamed("sum(flagged)", "n")
            )
            assert_equivalent(
                got, "SELECT stage, sum(flagged) AS n FROM det GROUP BY stage", det=det
            )
            runs = enumerate(execute(spark, ds, cfs, hours))
            got = spark.createDataFrame(
                [(i, r.active_s, r.active_segments) for i, r in runs],
                "stage long, active_s double, active_segments long",
            )
            assert_equivalent(
                got,
                "SELECT stage, sum(frac_in * seconds) AS active_s, count(*) FILTER "
                "(WHERE frac_in > 0) AS active_segments FROM det GROUP BY stage",
                det=det,
            )

    def test_detections_bounded_by_processed(self, spark, providers):
        # each stage flags a subset of the frames it actually processed;
        # (raw counts are not monotone across stages because each stage
        # samples the propagated active set at its own CF rate)
        ds = DATASETS["jackson"]
        cfs = [e.cf for e in stage_plan(providers["vstore"], ds, 0.9)]
        det = _cascade(spark, ds, cfs, 0.02)
        assert det.filter("flagged < 0").count() == 0
        last = det.filter("stage = 2").agg({"flagged": "sum"}).collect()[0][0]
        first = det.filter("stage = 0").agg({"flagged": "sum"}).collect()[0][0]
        assert 0 <= last and first > 0


class TestStorageAndIngestCosts:
    def test_storage_ordering(self, cfg, providers):
        # Fig 11b: N->N >> VStore > 1->1 == 1->N
        m = DATASETS["dashcam"].motion
        nn = storage_kb_per_s(providers["N->N"].sfs, m)
        vs = storage_kb_per_s(providers["vstore"].sfs, m)
        one = storage_kb_per_s(providers["1->1"].sfs, m)
        assert nn > 1.5 * vs
        assert vs > one

    def test_ingest_ordering(self, providers):
        # Fig 11c: N->N > VStore >> 1->1
        m = DATASETS["jackson"].motion
        nn = ingest_cores_per_stream(providers["N->N"].sfs, m)
        vs = ingest_cores_per_stream(providers["vstore"].sfs, m)
        one = ingest_cores_per_stream(providers["1->1"].sfs, m)
        assert nn > vs > one

    def test_vstore_ingest_cores_plausible(self, providers):
        # Fig 11c: around 10 cores per stream
        m = DATASETS["dashcam"].motion
        assert 3 < ingest_cores_per_stream(providers["vstore"].sfs, m) < 25

    def test_dashcam_costs_most(self, providers):
        kinds = providers["vstore"].sfs
        costs = {
            name: storage_kb_per_s(kinds, d.motion) for name, d in DATASETS.items()
        }
        assert max(costs, key=costs.get) == "dashcam"
