"""§6.2 end-to-end query execution: VStore vs 1->1, 1->N, N->N (Fig 11)."""
import pytest

from repro.codec.model import decode_speed_x
from repro.codec.transcode import ingest_cores_per_stream, storage_kb_per_s
from repro.core.config import ConfigOptions, derive_config
from repro.oracle import assert_equivalent
from repro.query.alternatives import make_provider
from repro.query.cascade import _cascade, run_query
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
        for e in providers["1->N"].entries.values():
            cap = decode_speed_x(g, e.sf.coding, 1, DATASETS["jackson"].motion)
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

    def test_deterministic(self, spark, providers):
        a = run_query(spark, providers["vstore"], DATASETS["miami"], 0.9, hours=0.02)
        b = run_query(spark, providers["vstore"], DATASETS["miami"], 0.9, hours=0.02)
        assert a.speed_x == pytest.approx(b.speed_x)

    def test_detections_oracle(self, spark, providers):
        # per-stage flagged totals agree between Spark SQL and DuckDB
        _, det = _cascade(spark, providers["vstore"], DATASETS["jackson"], 0.9, 0.02)
        det = det.cache()
        got = (
            det.groupBy("op").sum("flagged").withColumnRenamed("sum(flagged)", "n")
        )
        assert_equivalent(
            got, "SELECT op, sum(flagged) AS n FROM det GROUP BY op", det=det
        )

    def test_detections_bounded_by_processed(self, spark, providers):
        # each stage flags a subset of the frames it actually processed;
        # (raw counts are not monotone across stages because each stage
        # samples the propagated active set at its own CF rate)
        _, det = _cascade(spark, providers["vstore"], DATASETS["jackson"], 0.9, 0.02)
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
