"""Property-based validation of §4.4 erosion planning (hypothesis): random
storage budgets over the Table 2 plan, not only the fixed budgets of
``test_erosion.py``. Each example plans two budgets (about 1 s each), so the
example count is kept small."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ConfigOptions, derive_config
from repro.core.erosion import _K_MAX, _plan_for_k, plan_erosion

LIFESPAN_DAYS = 10
DAY_S = 86_400


@pytest.fixture(scope="module")
def plan():
    return derive_config(options=ConfigOptions(profiler_mode="local")).storage


@pytest.fixture(scope="module")
def floor_kb_s(plan):
    """Lifespan cost of the steepest decay the planner may choose."""
    return _plan_for_k(plan, LIFESPAN_DAYS, _K_MAX).total_storage_kb_s


def plan_or_none(plan, floor_kb_s, budget_bytes):
    """The erosion plan for a budget, or None when the budget is below the
    steepest decay's cost — which must raise instead of returning a plan."""
    budget_kb_s = budget_bytes / 1024 / DAY_S
    if budget_kb_s < floor_kb_s:
        with pytest.raises(ValueError, match="unreachable"):
            plan_erosion(plan, lifespan_days=LIFESPAN_DAYS, storage_budget_bytes=budget_bytes)
        return None
    ep = plan_erosion(plan, lifespan_days=LIFESPAN_DAYS, storage_budget_bytes=budget_bytes)
    assert ep.total_storage_kb_s <= budget_kb_s
    assert all(0 not in deleted for deleted in ep.deleted_by_age)  # golden kept
    for i in range(1, len(plan.nodes)):
        fracs = [deleted[i] for deleted in ep.deleted_by_age]
        assert fracs == sorted(fracs)  # erosion never restores segments
    return ep


# budgets in days of the undecayed plan's storage: 10 days fit without
# erosion, and below about 3.5 days even the steepest decay does not fit
@given(days=st.lists(st.floats(3.0, 10.5), min_size=2, max_size=2))
@settings(max_examples=8, deadline=None)
def test_random_budgets(plan, floor_kb_s, days):
    day_bytes = plan.storage_kb_per_s() * DAY_S * 1024
    tight, loose = (plan_or_none(plan, floor_kb_s, d * day_bytes) for d in sorted(days))
    if tight is not None:
        assert loose is not None and loose.k <= tight.k
