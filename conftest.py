import pytest

from jobs.common import spark_session


@pytest.fixture(scope="session")
def spark():
    """One SparkSession for the whole test session (``jobs.common``)."""
    s = spark_session()
    yield s
    s.stop()
