"""Shared helpers for spark-submit entrypoints, and the SparkSession that the
jobs and the test suite's ``spark`` fixture share.

Each job is a thin wrapper over a function that takes a SparkSession; run as
``spark-submit jobs/<name>.py`` or ``python jobs/<name>.py``. Results print
to stdout and are also appended to ``results/<name>.txt`` so EXPERIMENTS.md
can be assembled from saved runs.
"""
from __future__ import annotations

import os
import sys

from pyspark.sql import SparkSession

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")

CGROUP_LIMIT_FILES = (
    "/sys/fs/cgroup/memory.max",  # cgroup v2; "max" when unlimited
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",  # v1; ~9.2e18 when unlimited
)


def _cgroup_limit_bytes() -> int | None:
    for p in CGROUP_LIMIT_FILES:
        try:
            with open(p) as fh:
                return int(fh.read())
        except (OSError, ValueError):
            continue
    return None


def _mem_total_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            return next(int(ln.split()[1]) << 10 for ln in fh if ln.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return None


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else 75% of the cgroup memory limit when
    it is below physical memory, else half of physical memory clamped to
    2-8 GiB (the inputs are small; an unlimited cgroup is not a limit)."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    limit, total = _cgroup_limit_bytes(), _mem_total_bytes()
    if total is None:
        return "2g"
    if limit is not None and limit < total:
        return f"{limit * 3 // 4 >> 20}m"
    return f"{min(8, max(2, total >> 31))}g"


def spark_session() -> SparkSession:
    """The one SparkSession of the tests and the jobs.

    Master and driver memory are read when the JVM starts, which is at
    ``getOrCreate`` (gateway launch), so they go into ``PYSPARK_SUBMIT_ARGS``
    just before it. Under ``spark-submit`` the JVM already runs and its own
    arguments apply. Broadcast joins are off so joins take the shuffle path.
    """
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )
    s = (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


class Tee:
    """Print to stdout and to results/<name>.txt."""

    def __init__(self, name: str) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        self.path = os.path.join(RESULTS_DIR, f"{name}.txt")
        self.fh = open(self.path, "w")

    def __call__(self, *args) -> None:
        line = " ".join(str(a) for a in args)
        print(line)
        self.fh.write(line + "\n")
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()
        print(f"[saved {self.path}]", file=sys.stderr)
