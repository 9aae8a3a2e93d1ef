"""Fig 11b/c benchmark: per-stream storage and ingestion costs via the
mapInPandas transcode job over the segment store."""
from benchmarks.conftest import one_shot
from repro.query.alternatives import make_provider
from repro.store.segment_store import SegmentStore
from repro.video.datasets import DATASETS

KINDS = ("vstore", "1->1", "N->N")


def test_bench_fig11bc_storage_ingest(benchmark, spark, cfg, tmp_path):
    ds = DATASETS["dashcam"]
    providers = {k: make_provider(k, cfg, ds.motion) for k in KINDS}
    store = SegmentStore(str(tmp_path / "store"))

    def ingest_all():
        out = {}
        for k in KINDS:
            store.ingest(spark, ds, providers[k].sfs, hours=0.25)
            rate = store.storage_kb_per_s(spark, ds.name)
            cores = (
                store.load(spark, ds.name)
                .groupBy()
                .sum("ingest_core_s")
                .collect()[0][0]
                / (0.25 * 3600)
            )
            out[k] = (rate, cores)
        return out

    costs = one_shot(benchmark, ingest_all)
    # Fig 11b: N->N >> VStore > 1->1 on storage
    assert costs["N->N"][0] > 1.5 * costs["vstore"][0] > costs["1->1"][0]
    # Fig 11c: N->N > VStore >> 1->1 on ingest cores
    assert costs["N->N"][1] > costs["vstore"][1] > costs["1->1"][1]
