"""Table 3 benchmark: ingestion-budget adaptation sweep."""
from benchmarks.conftest import one_shot
from repro.core.storage import derive_storage_plan
from repro.profiler.storage import StorageProfiler
from repro.video.datasets import DATASETS

BUDGETS = (12.0, 8.0, 4.0, 3.0, 2.0, 1.0)


def sweep(consumers, motion):
    plans = []
    for budget in BUDGETS:
        sp = StorageProfiler(DATASETS["dashcam"])
        plans.append(
            derive_storage_plan(sp, consumers, ingest_budget_cores=budget, motion=motion)
        )
    return plans


def test_bench_table3_budget_sweep(benchmark, cfg):
    motion = DATASETS["dashcam"].motion
    plans = one_shot(benchmark, sweep, cfg.consumers, motion)
    costs = [p.storage_kb_per_s() for p in plans]
    # Table 3 shape: storage cost grows as the budget shrinks
    assert costs == sorted(costs)
    # achieved cores respect each budget (an unreachable one raises)
    for budget, p in zip(BUDGETS, plans):
        assert p.ingest_cores(motion) <= budget
