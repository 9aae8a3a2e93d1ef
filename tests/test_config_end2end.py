"""Full backward derivation (paper Fig 7 / Table 2) end-to-end."""
import pytest

from repro.core.config import ConfigOptions, derive_config
from repro.formats import knobwise_max
from repro.ops.library import ACCURACY_LEVELS, OPERATORS
from repro.video.datasets import DATASETS


@pytest.fixture(scope="module")
def cfg():
    return derive_config(options=ConfigOptions(profiler_mode="local"))


class TestConsumerSet:
    def test_24_consumers(self, cfg):
        assert len(cfg.consumers) == 24

    def test_many_unique_cfs(self, cfg):
        # paper: 21 unique CFs out of 24 consumers
        assert 12 <= cfg.unique_cf_count() <= 24

    def test_lookup(self, cfg):
        c = cfg.cf_of("nn", 0.95)
        assert c.op_name == "nn" and c.target_acc == 0.95

    def test_derived_accuracy_adequate(self, cfg):
        for (name, acc), d in cfg.derived.items():
            assert d.f1 >= acc, (name, acc, d.f1)

    def test_demand_never_exceeds_consumption_speed(self, cfg):
        for c in cfg.consumers:
            d = cfg.derived[(c.op_name, c.target_acc)]
            assert c.speed_x <= d.speed_x + 1e-9


class TestStorageSide:
    def test_few_sfs(self, cfg):
        # paper derives 4 SFs from 21 CFs; we assert strong consolidation
        assert 3 <= len(cfg.storage.nodes) <= 8

    def test_golden_is_knobwise_max(self, cfg):
        g = cfg.storage.golden
        assert g.fidelity == knobwise_max(*(c.cf for c in cfg.consumers))

    def test_assignment_covers_all(self, cfg):
        assert len(cfg.storage.assignment()) == 24

    def test_sf_index_of(self, cfg):
        # each consumer's SF index points at the node that serves it
        idx = cfg.storage.assignment()
        for c in cfg.consumers:
            assert c in cfg.storage.nodes[idx[c]].consumers


class TestOverheadAccounting:
    def test_profiling_reduction(self, cfg):
        # Fig 13: far fewer runs than exhaustive (600 per operator)
        assert cfg.profiling_runs_consumption < 0.3 * 600 * len(OPERATORS)

    def test_configuration_is_deterministic(self):
        a = derive_config(options=ConfigOptions(profiler_mode="local"))
        b = derive_config(options=ConfigOptions(profiler_mode="local"))
        assert [c.cf for c in a.consumers] == [c.cf for c in b.consumers]
        assert a.storage.storage_kb_per_s() == pytest.approx(
            b.storage.storage_kb_per_s()
        )


class TestSparkDerivation:
    def test_spark_mode_matches_local_subset(self, spark):
        # the Spark profiling data plane must produce the identical
        # configuration (same frames, same arithmetic, different executor)
        opts = dict(op_names=("motion", "license"), accuracies=(0.9, 0.7))
        a = derive_config(spark, ConfigOptions(profiler_mode="spark", **opts))
        b = derive_config(options=ConfigOptions(profiler_mode="local", **opts))
        assert [c.cf for c in a.consumers] == [c.cf for c in b.consumers]
        assert [n.storage_format() for n in a.storage.nodes] == [
            n.storage_format() for n in b.storage.nodes
        ]

    def test_one_spark_job_per_wave(self, spark):
        # nn@0.95 and ocr@0.95 derive in 10 lockstep waves (the longer
        # search, ocr's: 9 probes on its full-crop plane, then one quality
        # probe); every wave's memo misses, across both profiling streams,
        # share one shuffle-free Spark job (60 jobs one probe at a time)
        sc = spark.sparkContext
        group = "test-one-spark-job-per-wave"
        sc.setJobGroup(group, "nn+ocr@0.95 derivation")
        try:
            derive_config(
                spark,
                ConfigOptions(profiler_mode="spark", op_names=("nn", "ocr"), accuracies=(0.95,)),
            )
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        # the status tracker is fed by the asynchronous listener bus
        sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 10


class TestComplexity:
    def test_configuration_knob_count(self, cfg):
        # paper: the derived configuration has >100 knobs; ours: 4 knobs per
        # CF + 4 fidelity + 2 coding knobs per SF
        n_knobs = 4 * cfg.unique_cf_count() + sum(
            4 + (0 if n.coding.raw else 2) for n in cfg.storage.nodes
        )
        assert n_knobs > 80

    def test_accuracy_levels_match_paper(self):
        assert ACCURACY_LEVELS == (0.95, 0.9, 0.8, 0.7)

    def test_profiling_datasets_exist(self):
        assert {"jackson", "dashcam"} <= set(DATASETS)
