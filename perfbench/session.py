"""The benchmark's own local-mode SparkSession.

Everything Spark needs is set here, before the JVM starts: executors find
``repro`` through ``PYTHONPATH``, driver memory is sized the way the test
suite's ``conftest.py`` sizes it, and scratch space stays inside the
checkout. ``stop`` ends the session and waits for the JVM to exit.
"""
from __future__ import annotations

import os
import subprocess


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else 75% of the cgroup memory limit (as
    ``conftest.py``), else half of physical memory clamped to 2-8 GiB (the
    tier-1 command's rule; the benchmark's inputs are small)."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            with open(p) as fh:
                raw = fh.read().strip()
            gib = int(raw) / (1 << 30)
        except (OSError, ValueError):
            continue
        if 1 <= gib <= 1024:
            return f"{max(1, int(gib * 0.75))}g"
    try:
        with open("/proc/meminfo") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
        return f"{min(8, max(2, kb // (2 << 20)))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def start(src_dir: str, scratch_dir: str, cores: int):
    """Build the SparkSession (``local[cores]``) and return it."""
    local_dir = os.path.join(scratch_dir, "spark-local")
    tmp_dir = os.path.join(scratch_dir, "tmp")
    os.makedirs(local_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src_dir + (os.pathsep + path if path else "")
    os.environ["TMPDIR"] = tmp_dir
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {driver_memory()} "
        f"--driver-java-options -Djava.io.tmpdir={tmp_dir} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={local_dir} "
        f"--conf spark.sql.warehouse.dir={os.path.join(scratch_dir, 'warehouse')} "
        "--conf spark.ui.retainedJobs=100000 --conf spark.ui.retainedStages=100000 "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def warm_workers(spark, cores: int) -> None:
    """One task per core that imports the data-plane modules, so each Python
    worker is started and warm before anything is timed."""

    def _warm(batches):  # nested, so it is pickled by value, not by module
        import repro.codec.transcode  # noqa: F401
        import repro.profiler.consumption  # noqa: F401
        import repro.query.cascade  # noqa: F401

        yield from batches

    spark.range(0, cores, numPartitions=cores).mapInPandas(_warm, "id long").collect()


def stop(spark) -> None:
    """Stop Spark and wait for the gateway JVM to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
