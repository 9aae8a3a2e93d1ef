"""Reproduce Table 2: the full configuration VStore derives automatically.

Prints (a) every consumption format — fidelity, subscribed SF, uncoalesced
per-second video size, consumption speed — and (b) every storage format —
fidelity, coding, coalesced per-second size, retrieval speed — exactly the
columns of the paper's Table 2, derived via the Spark profiling data plane.
In spark mode a one-item Spark job runs first, so that the start of the
Python workers is timed on its own and the derivation's wall time is the
derivation's.
"""
from __future__ import annotations

import time

import os as _os
import sys as _sys

# allow `python jobs/<name>.py` and spark-submit: put the repo root on the path
_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

from jobs.common import Tee, spark_session
from repro.core.config import ConfigOptions, derive_config, storage_profiler
from repro.core.storage import choose_coding
from repro.ops.library import ACCURACY_LEVELS, OPERATORS
from repro.profiler.consumption import map_in_one_job


def main(spark, out=print, profiler_mode: str = "spark"):
    t0 = time.time()
    if profiler_mode == "spark":
        map_in_one_job(spark, abs, [0])
    t1 = time.time()
    cfg = derive_config(spark, ConfigOptions(profiler_mode=profiler_mode))
    elapsed = time.time() - t1
    ids = cfg.storage.sf_ids()
    out("== Table 2(b): storage formats (SFs) ==")
    out(f"{'SF':5s} {'fidelity':24s} {'coding':12s} {'KB/s':>9s} {'retrieval x':>22s}")
    for sf_id, n in zip(ids, cfg.storage.nodes):
        if n.consumers:
            speeds = sorted(n.retrieval_speed_for(c) for c in n.consumers)
            ret = f"{speeds[0]:.0f}-{speeds[-1]:.0f}x" if len(speeds) > 1 else f"{speeds[0]:.0f}x"
        else:
            ret = "-"
        out(
            f"{sf_id:5s} {n.fidelity.label():24s} {n.coding.label():12s} "
            f"{n.size_kb_per_s:9.1f} {ret:>22s}"
        )
    out("")
    out("== Table 2(a): consumption formats (CFs) ==")
    out("   (cell: fidelity, subscribed SF, uncoalesced per-sec size, consumption speed)")
    assignment = cfg.storage.assignment()
    header = f"{'F1':>5s} " + " | ".join(f"{n:^40s}" for n in OPERATORS)
    out(header)
    # uncoalesced size: what a dedicated SF for this CF alone would store
    sprof = storage_profiler()
    for acc in ACCURACY_LEVELS:
        cells = []
        for name, op in OPERATORS.items():
            c = cfg.cf_of(name, acc)
            d = cfg.derived[(name, acc)]
            solo = choose_coding(sprof, c.cf, [c])
            sz = solo.size_kb_per_s if solo else float("nan")
            cells.append(
                f"{c.cf.label():>19s} {ids[assignment[c]]:>4s} {sz:7.1f}KB {d.speed_x:7.0f}x"
            )
        out(f"{acc:5.2f} " + " | ".join(cells))
    out("")
    out(f"consumers: {len(cfg.consumers)}  unique CFs: {cfg.unique_cf_count()}  SFs: {len(cfg.storage.nodes)}")
    out(
        f"profiling: {cfg.profiling_runs_consumption} consumption runs, "
        f"{cfg.storage.profiling_runs} storage runs "
        f"({cfg.storage.profiling_hits} memo hits, {cfg.storage.rounds} coalescing rounds)"
    )
    if profiler_mode == "spark":
        out(f"Python-worker start wall time: {t1 - t0:.1f} s (one one-item Spark job)")
    out(f"derivation wall time: {elapsed:.1f} s (mode={profiler_mode})")
    return cfg


if __name__ == "__main__":
    out = Tee("table2_configuration")
    main(spark_session(), out)
    out.close()
