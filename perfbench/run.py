"""VStore benchmark: one closed-loop client driving ``repro`` on local Spark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload configure --seed 1 --seconds 15 --trace 0

The seed only permutes the order of each round's operations. Spark start and
the first Python-worker start happen once and are recorded on their own. Then
the workload sets up three times (worker warm-up, the local-mode 24-consumer
configuration, the providers and pre-built inputs), and the median of these
three identical set-ups is ``setup_s``. After that, each kind of operation
runs once at a tiny size to warm the JVM (recorded as ``warm_s``). Whole
rounds of operations then run one operation at a time until ``--seconds`` of
operation time has passed. Each operation's output is checked outside the
timed region; a mismatch or an exception counts as a failed operation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
operation twice back to back, once plain and once traced (alternating which
goes first), and reports the per-layer metrics from the traced copies, per
round, and ``trace.overhead_frac`` = traced / plain operation time - 1.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a run record (commit, seed,
cores, Spark version, every sample) and, when traced, the span file are
written under ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3


def log(*args) -> None:
    print(*args, file=sys.stderr, flush=True)


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def execute(op, tracer=None, op_id=None, helpers=()) -> tuple[float, bool]:
    """Run one operation (timed), then check its output (untimed)."""
    if op.prepare is not None:
        op.prepare()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.instrumented(helpers), tracer.span(f"op.{op.kind}", op_id):
                out = op.run()
    except Exception:
        dt = time.perf_counter() - t0
        log(f"[perfbench] {op.label} raised:\n{traceback.format_exc()}")
        return dt, False
    dt = time.perf_counter() - t0
    try:
        op.check(out)
    except Exception:
        log(f"[perfbench] check of {op.label} failed:\n{traceback.format_exc()}")
        return dt, False
    return dt, True


def measure(workload, seconds: float, rng: random.Random, tracer=None) -> dict:
    """The closed loop: one operation at a time, whole rounds until at least
    ``seconds`` of operation time has passed."""
    samples: dict[str, list[float]] = defaultdict(list)
    traced_total = plain_total = 0.0
    attempted = failed = 0
    spent, rounds, op_id = 0.0, 0, 0
    while spent < seconds:
        for op in workload.round_ops(rng, rounds):
            if tracer is None:
                copies = (False,)
            else:  # plain and traced back to back, alternating which goes first
                copies = (True, False) if op_id % 2 else (False, True)
            for traced in copies:
                dt, ok = execute(
                    op, tracer if traced else None, op_id, workload.traced_helpers
                )
                attempted += 1
                failed += not ok
                spent += dt
                if traced:
                    traced_total += dt
                else:
                    plain_total += dt
                    samples[op.kind].append(dt)
            op_id += 1
        rounds += 1
    return {
        "samples": dict(samples),
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "overhead_frac": traced_total / plain_total - 1.0 if tracer else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [os.path.join(SRC, "repro", "__init__.py"), os.path.join(ROOT, "results")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        log(f"[perfbench] not a repro checkout (missing {missing}); run from its root")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import session
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"[perfbench] unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    cores = min(4, os.cpu_count() or 1)
    scratch = os.path.join(OUT, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    rng = random.Random(args.seed)

    t0 = time.perf_counter()
    spark = session.start(SRC, scratch, cores)
    spark_start_s = time.perf_counter() - t0
    try:
        workload = WORKLOADS[args.workload](spark, ROOT, scratch)
        t0 = time.perf_counter()
        session.warm_workers(spark, cores)  # starts the Python workers
        worker_start_s = time.perf_counter() - t0
        setup_s = []
        # a traced run reports no setup_s, so it sets up once
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            session.warm_workers(spark, cores)
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        workload.warm()
        warm_s = time.perf_counter() - t0

        tracer = tracing.Tracer(spark.sparkContext) if args.trace else None
        t_run = time.perf_counter()
        res = measure(workload, args.seconds, rng, tracer)
        run_wall_s = time.perf_counter() - t_run
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = res["samples"]
        named = workload.summary(samples)
        round_s = sum(n * statistics.median(samples[k]) for k, n in workload.kinds.items())
        e2e = {
            "setup_s": (statistics.median(setup_s), "s"),
            "round_s": (round_s, "s"),
            "driver_peak_rss_mb": (rss_mb, "MB"),
        }
        span_file = None
        if tracer is not None:
            time.sleep(1.0)  # let the listener bus drain before reading counts
            tracer.resolve_spark()
            metrics = tracing.layer_metrics(tracer, res["rounds"], res["overhead_frac"])
            span_file = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
            with open(span_file, "w") as fh:
                json.dump(
                    [{k: s[k] for k in ("id", "name", "start", "end", "parent", "op_id",
                                        "counts", "spark")} for s in tracer.spans],
                    fh,
                )
        else:
            metrics = e2e
        sc = spark.sparkContext
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": commit(),
            "nproc": os.cpu_count(),
            "spark_master": sc.master,
            "spark_version": spark.version,
            "driver_memory": session.driver_memory(),
            "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
            "python": sys.version.split()[0],
            "spark_start_s": spark_start_s,
            "worker_start_s": worker_start_s,
            "setup_samples_s": setup_s,
            "warm_s": warm_s,
            "run_wall_s": run_wall_s,
            "rounds": res["rounds"],
            "samples_s": samples,
            "sample_counts": {k: len(v) for k, v in samples.items()},
            "attempted": res["attempted"],
            "failed": res["failed"],
            "failed_op_frac": res["failed"] / res["attempted"],
            "named_metrics": {name: {"value": v, "unit": u} for name, v, u in named},
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "span_file": span_file,
        }
        record_file = os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(record_file, "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        session.stop(spark)
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} master={record['spark_master']} "
          f"spark={record['spark_version']} rounds={res['rounds']} "
          f"samples={record['sample_counts']}")
    for name, v, u in named:
        print(f"  {name:52s} {v:14.6g} {u}")
    print(f"  {'failed_op_frac':52s} {record['failed_op_frac']:14.6g} ratio "
          f"({res['failed']}/{res['attempted']})")
    for name, (v, u) in sorted(metrics.items()):
        print(f"  {name:52s} {v:14.6g} {u}")
    print(f"  record: {os.path.relpath(record_file, ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
