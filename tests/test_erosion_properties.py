"""Property-based validation of §4.4 erosion planning (hypothesis): random
storage budgets over the Table 2 plan, not only the fixed budgets of
``test_erosion.py``, and the one-trajectory planner against a reference copy
of the per-age greedy loop it replaces. Each budget example plans two budgets
(about 40 ms each)."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ConfigOptions, derive_config
from repro.core.erosion import (
    QUANTUM,
    _K_MAX,
    ErosionPlan,
    _p_target,
    _trajectory,
    _plan_along,
    build_richer_tree,
    overall_speed,
    plan_erosion,
)
from repro.core.storage import StoragePlan

LIFESPAN_DAYS = 10
DAY_S = 86_400


@pytest.fixture(scope="module")
def plan():
    return derive_config(options=ConfigOptions(profiler_mode="local")).storage


@pytest.fixture(scope="module")
def floor_kb_s(plan):
    """Lifespan cost of the steepest decay the planner may choose."""
    return _plan_along(_trajectory(plan), LIFESPAN_DAYS, _K_MAX).total_storage_kb_s


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
@settings(max_examples=40, deadline=None)
def test_random_budgets(plan, floor_kb_s, days):
    day_bytes = plan.storage_kb_per_s() * DAY_S * 1024
    tight, loose = (plan_or_none(plan, floor_kb_s, d * day_bytes) for d in sorted(days))
    if tight is not None:
        assert loose is not None and loose.k <= tight.k


def reference_plan_for_k(
    plan: StoragePlan, lifespan_days: int, k: float
) -> ErosionPlan:
    """The greedy planner as it was before the trajectory: each age re-runs
    the greedy step from the previous age's state until its target is met."""
    nodes = plan.nodes
    assignment = plan.assignment()
    parent = build_richer_tree(nodes)
    erodible = [i for i in range(len(nodes)) if i != 0]
    # Pmin: overall speed when everything but golden is gone.
    all_gone = {i: 1.0 for i in erodible}
    p_min = overall_speed(nodes, assignment, parent, all_gone)

    deleted: dict[int, float] = {i: 0.0 for i in erodible}
    by_age, ov_age, tgt_age, sto_age = [], [], [], []
    for age in range(1, lifespan_days + 1):
        target = _p_target(age, k, p_min)
        while overall_speed(nodes, assignment, parent, deleted) > target + 1e-9:
            best = None
            for i in erodible:
                if deleted[i] >= 1.0 - 1e-9:
                    continue
                trial = dict(deleted)
                trial[i] = min(1.0, trial[i] + QUANTUM)
                ov = overall_speed(nodes, assignment, parent, trial)
                if best is None or ov > best[0]:
                    best = (ov, i, trial)
            if best is None:
                break  # everything erodible is gone
            deleted = best[2]
        by_age.append(dict(deleted))
        ov_age.append(overall_speed(nodes, assignment, parent, deleted))
        tgt_age.append(target)
        sto_age.append(
            sum(n.size_kb_per_s * (1.0 - deleted.get(i, 0.0)) for i, n in enumerate(nodes))
        )
    return ErosionPlan(
        k=k,
        p_min=p_min,
        deleted_by_age=by_age,
        overall_by_age=ov_age,
        target_by_age=tgt_age,
        storage_kb_s_by_age=sto_age,
        total_storage_kb_s=sum(sto_age),
    )


@given(k=st.floats(0.0, _K_MAX), lifespan_days=st.integers(1, 15))
@settings(max_examples=40, deadline=None)
def test_trajectory_matches_greedy_loop(plan, k, lifespan_days):
    got = _plan_along(_trajectory(plan), lifespan_days, k)
    assert got == reference_plan_for_k(plan, lifespan_days, k)
