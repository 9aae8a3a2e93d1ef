"""Reproduce Fig 12: age-based erosion under storage budgets.

Lifespan 10 days. Per budget, prints the chosen decay factor k and the per-age
overall operator speed (Fig 12a), and, for one budget, each storage format's
surviving fraction per age plus the per-age storage cost (Fig 12b). The
golden format is never eroded.
"""
from __future__ import annotations

import os as _os
import sys as _sys

# allow `python jobs/<name>.py` and spark-submit: put the repo root on the path
_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

from jobs.common import Tee
from repro.core.config import ConfigOptions, derive_config
from repro.core.erosion import plan_erosion

LIFESPAN_DAYS = 10


def main(spark, out=print):
    cfg = derive_config(spark, ConfigOptions(profiler_mode="local"))
    plan = cfg.storage
    day_tb = plan.storage_kb_per_s() * 86400 * 1024 / 1024**4
    no_erosion_tb = day_tb * LIFESPAN_DAYS
    out(f"storage rate: {day_tb * 1024:.1f} GB/day; 10-day no-erosion cost: {no_erosion_tb:.2f} TB")
    out("")
    out("== Fig 12(a): overall speed decay per age, by storage budget ==")
    budgets_tb = [round(no_erosion_tb * m, 2) for m in (1.1, 0.85, 0.68, 0.51)]
    plans = {}
    for tb in budgets_tb:
        ep = plan_erosion(
            plan, lifespan_days=LIFESPAN_DAYS, storage_budget_bytes=tb * 1024**4
        )
        plans[tb] = ep
        got_tb = ep.total_storage_kb_s * 86400 * 1024 / 1024**4
        out(
            f"budget {tb:5.2f} TB: k={ep.k:5.2f} total={got_tb:5.2f} TB  "
            "overall speed by age: "
            + " ".join(f"{v:.2f}" for v in ep.overall_by_age)
        )
    out("")
    tb = budgets_tb[2]
    ep = plans[tb]
    out(f"== Fig 12(b): per-SF surviving fraction per age (budget {tb} TB, k={ep.k:.2f}) ==")
    out(f"{'age':>4s} " + " ".join(f"{l:>6s}" for l in plan.sf_ids()) + f" {'GB':>8s}")
    for age, (deleted, kb_s) in enumerate(
        zip(ep.deleted_by_age, ep.storage_kb_s_by_age), start=1
    ):
        surv = [1.0 - deleted.get(i, 0.0) for i in range(len(plan.nodes))]
        out(
            f"{age:4d} "
            + " ".join(f"{v:6.2f}" for v in surv)
            + f" {kb_s * 86400 / 1024 / 1024:8.1f}"
        )
    return plans


if __name__ == "__main__":
    out = Tee("fig12_erosion")
    main(None, out)  # local-mode profiling: no Spark session needed
    out.close()
