"""Driver-memory rule of ``jobs.common.spark_session`` (no JVM is started)."""
import pytest
from hypothesis import given, strategies as st

from jobs import common

GIB = 1 << 30
V1_UNLIMITED = 9223372036854771712  # cgroup v1 memory.limit_in_bytes with no limit
HOST_16GB = 16456384 << 10  # MemTotal of a 16 GB host, in bytes


def driver_memory(limit, total, env=None) -> str:
    """The rule's answer for a cgroup limit, a MemTotal and SPARK_DRIVER_MEM."""
    with pytest.MonkeyPatch.context() as mp:
        if env is None:
            mp.delenv("SPARK_DRIVER_MEM", raising=False)
        else:
            mp.setenv("SPARK_DRIVER_MEM", env)
        mp.setattr(common, "_cgroup_limit_bytes", lambda: limit)
        mp.setattr(common, "_mem_total_bytes", lambda: total)
        return common.driver_memory()


def _bytes(size: str) -> int:
    return int(size[:-1]) << {"m": 20, "g": 30}[size[-1]]


def test_env_wins():
    assert driver_memory(4 * GIB, HOST_16GB, env="3g") == "3g"


@pytest.mark.parametrize("limit", [V1_UNLIMITED, None], ids=["v1-unlimited", "missing"])
def test_no_real_limit_takes_half_of_memory(limit):
    assert driver_memory(limit, HOST_16GB) == "7g"


@pytest.mark.parametrize("total, want", [(3 * GIB, "2g"), (64 * GIB, "8g"), (None, "2g")])
def test_half_of_memory_is_clamped(total, want):
    assert driver_memory(None, total) == want


def test_real_limit_takes_three_quarters():
    assert driver_memory(8 * GIB, HOST_16GB) == "6144m"


@given(
    total=st.integers(2 * GIB, 1 << 40),
    limit=st.one_of(st.none(), st.just(V1_UNLIMITED), st.integers(GIB, 1 << 41)),
)
def test_never_exceeds_physical_memory(total, limit):
    assert _bytes(driver_memory(limit, total)) <= min(total, limit or total)
