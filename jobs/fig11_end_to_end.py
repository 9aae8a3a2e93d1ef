"""Reproduce Fig 11: end-to-end query speed / storage cost / ingestion cost.

Runs queries A and B over one hour of each of the six streams at the four
accuracy levels under the four configurations (VStore, 1->1, 1->N, N->N).
Each distinct (stream, CF chain) cascade executes once over Spark (per-segment
mapInPandas) and every cell that consumes those CFs is priced from it: 30
executions for the 96 cells. Prints:

  (a) query speed (x-realtime) per (dataset, accuracy, configuration);
  (b) storage cost per stream (GB/day) per configuration;
  (c) ingestion cost per stream (CPU cores) per configuration.
"""
from __future__ import annotations

import functools
import os as _os
import sys as _sys

# allow `python jobs/<name>.py` and spark-submit: put the repo root on the path
_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

from jobs.common import Tee, spark_session
from repro.codec.transcode import ingest_cores_per_stream, storage_kb_per_s
from repro.core.config import ConfigOptions, derive_config
from repro.ops.library import ACCURACY_LEVELS
from repro.query.alternatives import make_provider
from repro.query.cascade import execute, price, stage_plan
from repro.video.datasets import DATASETS

KINDS = ("vstore", "1->1", "1->N", "N->N")
#: hours of video each query runs over
HOURS = 1.0


def main(spark, out=print):
    cfg = derive_config(spark, ConfigOptions(profiler_mode="local"))
    providers = {
        name: {k: make_provider(k, cfg, ds.motion) for k in KINDS}
        for name, ds in DATASETS.items()
    }
    results = {}
    # one cascade execution per distinct (stream, CF chain), priced per cell
    execute_once = functools.cache(lambda ds, cfs: execute(spark, ds, cfs, HOURS))
    out(f"== Fig 11(a): query speed (x-realtime), {HOURS} h of video ==")
    out(f"{'dataset':>8s} {'F1':>5s} " + " ".join(f"{k:>9s}" for k in KINDS))
    for name, ds in DATASETS.items():
        for acc in ACCURACY_LEVELS:
            row = []
            for k in KINDS:
                plan = stage_plan(providers[name][k], ds, acc)
                r = price(execute_once(ds, tuple(e.cf for e in plan)), plan, ds, acc, HOURS)
                results[(name, acc, k)] = r
                row.append(r.speed_x)
            out(
                f"{name:>8s} {acc:5.2f} "
                + " ".join(f"{v:9.1f}" for v in row)
            )
    out("")
    out("== Fig 11(b): storage cost per stream (GB/day) ==")
    out(f"{'dataset':>8s} " + " ".join(f"{k:>9s}" for k in KINDS))
    for name, ds in DATASETS.items():
        row = [
            storage_kb_per_s(providers[name][k].sfs, ds.motion) * 86400 / 1024 / 1024
            for k in KINDS
        ]
        out(f"{name:>8s} " + " ".join(f"{v:9.1f}" for v in row))
    out("")
    out("== Fig 11(c): ingestion cost per stream (CPU cores) ==")
    out(f"{'dataset':>8s} " + " ".join(f"{k:>9s}" for k in KINDS))
    for name, ds in DATASETS.items():
        row = [ingest_cores_per_stream(providers[name][k].sfs, ds.motion) for k in KINDS]
        out(f"{name:>8s} " + " ".join(f"{v:9.2f}" for v in row))
    out("")
    best = max(r.speed_x for r in results.values())
    v95 = {n: results[(n, 0.95, "vstore")].speed_x for n in DATASETS}
    v70 = {n: results[(n, 0.70, "vstore")].speed_x for n in DATASETS}
    out(f"max VStore query speed: {best:.0f}x realtime")
    out(
        "VStore accuracy elasticity (0.95 -> 0.70 speedup): "
        + ", ".join(f"{n}={v70[n] / v95[n]:.1f}x" for n in DATASETS)
    )
    ratio = [
        results[(n, a, "vstore")].speed_x / results[(n, a, "1->N")].speed_x
        for n in DATASETS
        for a in ACCURACY_LEVELS
    ]
    out(f"VStore vs 1->N speedup: {min(ratio):.1f}x .. {max(ratio):.1f}x")
    return results


if __name__ == "__main__":
    out = Tee("fig11_end_to_end")
    main(spark_session(), out)
    out.close()
