"""Reproduce Fig 13 / §6.4: configuration overhead.

(1) Consumption-format derivation: per operator, profiling runs and profiled
    video seconds for the staircase search vs exhaustive profiling of all 600
    fidelity options (the paper reports 9-15x fewer runs, 5x less delay).
(2) Storage-format derivation: greedy coalescing vs exhaustive set-partition
    enumeration on the query-B CF subset (the paper validates on 12 CFs) —
    both must land on the same storage cost, with coalescing orders of
    magnitude cheaper, on the wall clock and on counts (pairs examined and
    rounds against partitions tried); plus memoization statistics for the
    full 24-consumer coalescing run (paper: 475 profiled of 15K, 92%
    memoized).
"""
from __future__ import annotations

import time

import os as _os
import sys as _sys

# allow `python jobs/<name>.py` and spark-submit: put the repo root on the path
_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

from jobs.common import Tee
from repro.core.config import ConfigOptions, derive_config, storage_profiler
from repro.core.consumption import (
    derive_consumption_format,
    exhaustive_consumption_format,
)
from repro.core.storage import derive_storage_plan, enumerate_storage_plan
from repro.ops.library import ACCURACY_LEVELS, OPERATORS, QUERY_B
from repro.profiler.consumption import ConsumptionProfiler
from repro.video.datasets import DATASETS, PROFILING_DATASET


def set_partitions(n: int) -> int:
    """The Bell number B(n): how many partitions of n CFs the enumeration
    tries (Bell triangle: each row starts with the previous row's last)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def main(spark, out=print):
    out("== Fig 13: deriving consumption formats (all 4 accuracies per op) ==")
    out(f"{'op':>8s} {'staircase':>10s} {'exhaustive':>11s} {'reduction':>10s} "
        f"{'profiled-sec (st/ex)':>22s}")
    tot_s = tot_e = 0
    for name, op in OPERATORS.items():
        ds = DATASETS[PROFILING_DATASET[op.query]]
        p = ConsumptionProfiler(ds, mode="local")
        e = ConsumptionProfiler(ds, mode="local")
        for acc in sorted(ACCURACY_LEVELS, reverse=True):
            derive_consumption_format(p, op, acc)
            exhaustive_consumption_format(e, op, acc)
        tot_s += p.runs
        tot_e += e.runs
        out(
            f"{name:>8s} {p.runs:10d} {e.runs:11d} {e.runs / p.runs:9.1f}x "
            f"{10 * p.runs:10d}/{10 * e.runs:<10d}"
        )
    out(f"{'total':>8s} {tot_s:10d} {tot_e:11d} {tot_e / tot_s:9.1f}x")
    out("")

    out("== §6.4: storage-format derivation, coalescing vs enumeration ==")
    cfg = derive_config(spark, ConfigOptions(profiler_mode="local"))
    b_consumers = [c for c in cfg.consumers if c.op_name in QUERY_B]
    t0 = time.time()
    sp1 = storage_profiler()
    greedy = derive_storage_plan(sp1, b_consumers)
    t_greedy = time.time() - t0
    t0 = time.time()
    sp2 = storage_profiler()
    exact = enumerate_storage_plan(sp2, b_consumers)
    t_exact = time.time() - t0
    n_cfs = len({c.cf for c in b_consumers})
    out(
        f"query-B subset ({n_cfs} CFs): greedy={greedy.storage_kb_per_s():.1f} KB/s, "
        f"{greedy.pairs_examined} pairs in {greedy.rounds} rounds ({t_greedy * 1000:.0f} ms) "
        f"vs enumeration={exact.storage_kb_per_s():.1f} KB/s, "
        f"{set_partitions(n_cfs)} partitions ({t_exact * 1000:.0f} ms) "
        f"-> identical={abs(greedy.storage_kb_per_s() - exact.storage_kb_per_s()) < 1e-6}, "
        f"speedup={t_exact / max(t_greedy, 1e-9):.0f}x"
    )
    sp = cfg.storage
    examined = sp.profiling_runs + sp.profiling_hits
    out(
        f"full 24-consumer coalescing: {sp.rounds} rounds, "
        f"{sp.profiling_runs} formats profiled ({sp.profiling_runs / 15000:.1%} of 15K), "
        f"{examined} examined, {sp.profiling_hits / examined:.0%} memoized"
    )
    return dict(staircase=tot_s, exhaustive=tot_e, greedy_ms=t_greedy, exact_ms=t_exact)


if __name__ == "__main__":
    out = Tee("fig13_overhead")
    main(None, out)  # local-mode profiling: no Spark session needed
    out.close()
