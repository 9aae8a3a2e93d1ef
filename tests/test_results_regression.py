"""The simulated numbers in ``results/*.txt`` regenerate exactly from the
jobs that print them (local-mode profiling, no Spark session)."""
import os

import pytest

from jobs import fig12_erosion, table2_configuration, table3_ingest_budget
from jobs.common import RESULTS_DIR


def recorded(name):
    with open(os.path.join(RESULTS_DIR, f"{name}.txt")) as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize(
    "job, name",
    [(table3_ingest_budget, "table3_ingest_budget"), (fig12_erosion, "fig12_erosion")],
    ids=["table3", "fig12"],
)
def test_job_output_matches_results(job, name):
    lines = []
    job.main(None, lines.append)
    assert lines == recorded(name)


def test_table2_matches_results():
    # the spark-mode run is recorded; local mode runs identical arithmetic.
    # Only the wall-time line differs between runs.
    lines = []
    table2_configuration.main(None, lines.append, profiler_mode="local")

    def simulated(ls):
        return [line for line in ls if not line.startswith("derivation wall time")]

    assert simulated(lines) == simulated(recorded("table2_configuration"))
