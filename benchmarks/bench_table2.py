"""Table 2 benchmark: full backward derivation of the configuration.

Times the complete pipeline (24 consumers -> CFs via staircase search ->
SF coalescing) and prints the derived Table-2 analog. The Spark variant
exercises the mapInPandas profiling data plane; the local variant measures
the pure algorithm.
"""
from benchmarks.conftest import one_shot
from jobs.table2_configuration import main as table2_main
from repro.core.config import ConfigOptions, derive_config


def test_bench_table2_derivation_local(benchmark):
    cfg = one_shot(
        benchmark, derive_config, options=ConfigOptions(profiler_mode="local")
    )
    assert len(cfg.consumers) == 24
    assert 3 <= len(cfg.storage.nodes) <= 8


def test_bench_table2_derivation_spark(benchmark, spark):
    cfg = one_shot(
        benchmark, derive_config, spark, ConfigOptions(profiler_mode="spark")
    )
    assert len(cfg.consumers) == 24


def test_bench_table2_report(benchmark, spark, capsys):
    # prints the full Table-2 analog (saved to bench output for EXPERIMENTS.md)
    cfg = one_shot(benchmark, table2_main, spark, print, "local")
    assert cfg.unique_cf_count() >= 12
