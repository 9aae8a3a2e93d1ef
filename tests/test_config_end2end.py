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
    def test_spark_mode_matches_local_subset(self, spark, cfg):
        # the Spark profiling data plane must produce the identical
        # configuration for all 24 consumers (same frames, same arithmetic,
        # one executor task per operator)
        a = derive_config(spark, ConfigOptions(profiler_mode="spark"))
        assert [(c.cf, c.speed_x) for c in a.consumers] == [
            (c.cf, c.speed_x) for c in cfg.consumers
        ]
        assert a.derived == cfg.derived
        assert [n.storage_format() for n in a.storage.nodes] == [
            n.storage_format() for n in cfg.storage.nodes
        ]
        assert a.profiling_runs_consumption == cfg.profiling_runs_consumption == 523

    def test_bad_mode_raises(self):
        # one derivation path: only the mapper differs, and it needs a session
        with pytest.raises(ValueError, match="SparkSession"):
            derive_config(None, ConfigOptions(profiler_mode="spark"))
        with pytest.raises(ValueError, match="unknown profiler mode"):
            derive_config(None, ConfigOptions(profiler_mode="gpu"))

    def test_one_spark_job_per_derivation(self, spark):
        # every operator's searches run whole inside one task of one
        # shuffle-free job, whatever the number of consumers
        sc = spark.sparkContext
        subsets = {
            "nn+ocr@0.95": dict(op_names=("nn", "ocr"), accuracies=(0.95,)),
            "all 24 consumers": {},
        }
        for name, opts in subsets.items():
            group = f"test-one-spark-job {name}"
            sc.setJobGroup(group, f"{name} derivation")
            try:
                derive_config(spark, ConfigOptions(profiler_mode="spark", **opts))
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            # the status tracker is fed by the asynchronous listener bus
            sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
            assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1, name


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
