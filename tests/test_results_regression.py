"""The simulated numbers in ``results/*.txt`` regenerate exactly from the
jobs that print them (local-mode profiling; only Fig 11's queries run on
Spark)."""
import os
import re

import pytest

from jobs import (
    fig11_end_to_end,
    fig12_erosion,
    fig13_overhead,
    table2_configuration,
    table3_ingest_budget,
)
from jobs.common import RESULTS_DIR
from repro.core.storage import _partitions

#: wall-clock fields of a job's output: Fig 13's timings of the two §6.4
#: storage derivations and their ratio
WALL_TIME = re.compile(r"\(\d+ ms\)|speedup=\d+x")


def recorded(name):
    with open(os.path.join(RESULTS_DIR, f"{name}.txt")) as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize(
    "job, name",
    [
        (table3_ingest_budget, "table3_ingest_budget"),
        (fig12_erosion, "fig12_erosion"),
        (fig13_overhead, "fig13_overhead"),
    ],
    ids=["table3", "fig12", "fig13"],
)
def test_job_output_matches_results(job, name):
    lines = []
    job.main(None, lines.append)

    def simulated(ls):
        return [WALL_TIME.sub("…", line) for line in ls]

    assert simulated(lines) == simulated(recorded(name))


def test_fig13_partition_count_is_what_the_enumeration_tries():
    # the §6.4 line's count of partitions, against the enumeration's own
    # generator (Fig 13's 10 query-B CFs give 115,975)
    for n in range(9):
        assert fig13_overhead.set_partitions(n) == sum(1 for _ in _partitions(list(range(n))))
    assert fig13_overhead.set_partitions(10) == 115_975


def test_table2_matches_results():
    # the spark-mode run is recorded; local mode runs identical arithmetic.
    # Only the wall-time lines differ between runs: the derivation's, and the
    # Python-worker start that a spark-mode run times before it.
    lines = []
    table2_configuration.main(None, lines.append, profiler_mode="local")

    def simulated(ls):
        wall = ("derivation wall time", "Python-worker start wall time")
        return [line for line in ls if not line.startswith(wall)]

    assert simulated(lines) == simulated(recorded("table2_configuration"))


def test_fig11_matches_results(spark):
    # every query cell of Fig 11(a) executes its cascade on Spark; the
    # recorded file has no wall-time field
    lines = []
    fig11_end_to_end.main(spark, lines.append)
    assert lines == recorded("fig11_end_to_end")
