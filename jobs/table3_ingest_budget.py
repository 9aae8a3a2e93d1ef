"""Reproduce Table 3: adapting storage formats to an ingestion budget.

Sweeps the per-stream transcoding budget (CPU cores) and prints, per budget:
the achieved ingest cores, storage rate (MB/s and GB/day), and each storage
format's coding choice — the paper's Table 3 rows. Coding should get cheaper
step by step (small storage growth), then formats coalesce or fall back to
RAW when coding alone cannot meet the budget (the paper's 2x storage jump).
"""
from __future__ import annotations

import os as _os
import sys as _sys

# allow `python jobs/<name>.py` and spark-submit: put the repo root on the path
_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

from jobs.common import Tee
from repro.core.config import ConfigOptions, derive_config, storage_profiler
from repro.core.storage import derive_storage_plan

BUDGETS = (12.0, 8.0, 4.0, 3.0, 2.0, 1.0)


def main(spark, out=print):
    cfg = derive_config(spark, ConfigOptions(profiler_mode="local"))
    ds = storage_profiler().ds
    out(f"== Table 3: ingestion-budget adaptation (profiled on {ds.name}) ==")
    out(f"{'budget':>7s} {'cores':>6s} {'MB/s':>6s} {'GB/day':>8s} {'#SF':>4s}  codings")
    rows = []
    for budget in BUDGETS:
        plan = derive_storage_plan(
            storage_profiler(), cfg.consumers, ingest_budget_cores=budget, motion=ds.motion
        )
        mbs = plan.storage_kb_per_s() / 1024
        codings = ", ".join(
            f"{sf_id}={n.coding.label()}" for sf_id, n in zip(plan.sf_ids(), plan.nodes)
        )
        out(
            f"{budget:7.0f} {plan.ingest_cores(ds.motion):6.2f} {mbs:6.2f} "
            f"{mbs * 86400 / 1024:8.1f} {len(plan.nodes):4d}  {codings}"
        )
        rows.append((budget, plan))
    return rows


if __name__ == "__main__":
    out = Tee("table3_ingest_budget")
    main(None, out)  # local-mode profiling: no Spark session needed
    out.close()
