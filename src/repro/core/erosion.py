"""§4.4 — Age-based data erosion.

As video ages, VStore deletes fractions of segments per storage format,
trading consumer speed for storage, under three rules: speed (not space)
decays gracefully following a power law P(x) = (1 - Pmin) * x^-k + Pmin; no
transcoding for aging (only deletion); fidelity satisfiability never breaks —
consumers fall back along the *richer-than tree* to the closest richer
ancestor (ultimately the never-eroded golden root).

A consumer that must read a fraction p of segments from a fallback on which
its effective speed is a fraction alpha of the original runs at relative
speed alpha / ((1-p) * alpha + p) (generalized here to multi-level fallback
chains). The *overall* speed of an age is the max-min-fair minimum of all
consumers' relative speeds. The planner repeatedly deletes a small quantum
from whichever erodible format keeps that minimum highest (the fair-scheduler
analogue of the paper). That step depends only on what is already deleted —
not on the age or on k — so the deletion states form one *trajectory*, from
nothing deleted to every erodible format gone, built once per plan. A trial
deletion from one format re-scores only the consumers whose fallback chain
passes through it; every other consumer keeps its relative speed. Ages
carry their state forward: for a given k, each age advances along the
trajectory until its power-law target is met. The decay factor k is the
smallest (binary search) for which the lifespan storage cost fits the budget.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.storage import Consumer, SFNode, StoragePlan

#: deletion granularity (fraction of an age's segments per planner step)
QUANTUM = 0.05
_K_MAX = 12.0


def build_richer_tree(nodes: list[SFNode]) -> dict[int, int | None]:
    """parent[i] = index of the closest (smallest) strictly-richer SF; the
    golden root (index 0) has parent None. Richer-than is partial, but the
    golden fidelity dominates all, so every node has an ancestor chain."""
    parent: dict[int, int | None] = {0: None}
    for i, n in enumerate(nodes):
        if i == 0:
            continue
        richer = [
            (m.size_kb_per_s, j)
            for j, m in enumerate(nodes)
            if m.fidelity.strictly_richer(n.fidelity)
        ]
        if not richer:
            raise ValueError(f"node {i} has no richer fallback (golden must dominate)")
        parent[i] = min(richer)[1]
    return parent


def _effective_speed(node: SFNode, consumer: Consumer) -> float:
    """Speed on one storage format = min(retrieval, consumption) (§2.2)."""
    return min(node.retrieval_speed_for(consumer), consumer.speed_x)


def relative_speed(
    consumer: Consumer,
    own: int,
    nodes: list[SFNode],
    parent: dict[int, int | None],
    deleted: dict[int, float],
) -> float:
    """Decayed / original speed for one consumer given per-SF deletion
    fractions, assuming independent per-segment deletion along the chain."""
    s_own = _effective_speed(nodes[own], consumer)
    t, present = 0.0, 1.0
    i: int | None = own
    while i is not None:
        avail = 1.0 - deleted.get(i, 0.0)
        t += present * avail / _effective_speed(nodes[i], consumer)
        present *= 1.0 - avail
        i = parent[i]
        if present <= 1e-12:
            break
    t += present / _effective_speed(nodes[0], consumer)  # golden never eroded
    return (1.0 / s_own) / t


def overall_speed(
    plan_nodes: list[SFNode],
    assignment: dict[Consumer, int],
    parent: dict[int, int | None],
    deleted: dict[int, float],
) -> float:
    """Max-min fairness: the overall speed is the minimum relative speed."""
    return min(
        relative_speed(c, i, plan_nodes, parent, deleted)
        for c, i in assignment.items()
    )


@dataclass
class ErosionPlan:
    """Per-age deletion fractions and the derived decay factor."""

    k: float
    p_min: float
    #: deleted[age][sf_index] -> cumulative deleted fraction at that age
    deleted_by_age: list[dict[int, float]]
    overall_by_age: list[float]
    storage_kb_s_by_age: list[float]
    total_storage_kb_s: float  # summed across ages (one age = one day of video)


def _p_target(x: int, k: float, p_min: float) -> float:
    return (1.0 - p_min) * float(x) ** (-k) + p_min


@dataclass
class _Trajectory:
    """The greedy deletion sequence of one storage plan: state ``j`` is the
    per-SF deleted fractions after ``j`` quanta, with its overall speed and
    storage rate. It starts with nothing deleted and ends with every
    erodible SF gone."""

    p_min: float
    deleted: list[dict[int, float]]
    overall: list[float]
    storage_kb_s: list[float]


def _trajectory(plan: StoragePlan) -> _Trajectory:
    nodes = plan.nodes
    assignment = plan.assignment()
    parent = build_richer_tree(nodes)
    erodible = [i for i in range(len(nodes)) if i != 0]
    # Pmin: overall speed when everything but golden is gone.
    all_gone = {i: 1.0 for i in erodible}
    p_min = overall_speed(nodes, assignment, parent, all_gone)

    def storage(deleted: dict[int, float]) -> float:
        return sum(n.size_kb_per_s * (1.0 - deleted.get(i, 0.0)) for i, n in enumerate(nodes))

    pairs = list(assignment.items())
    # through[i]: the consumers (indices into pairs) whose fallback chain passes i
    through: dict[int, list[int]] = {i: [] for i in erodible}
    for k, (_, own) in enumerate(pairs):
        i = own
        while i:  # golden (0) is never eroded
            through[i].append(k)
            i = parent[i]

    deleted: dict[int, float] = {i: 0.0 for i in erodible}
    speeds = [relative_speed(c, own, nodes, parent, deleted) for c, own in pairs]
    t = _Trajectory(p_min, [deleted], [min(speeds)], [storage(deleted)])
    while True:
        best = None
        for i in erodible:
            if deleted[i] >= 1.0 - 1e-9:
                continue
            trial = dict(deleted)
            trial[i] = min(1.0, trial[i] + QUANTUM)
            trial_speeds = speeds.copy()
            for k in through[i]:
                trial_speeds[k] = relative_speed(*pairs[k], nodes, parent, trial)
            ov = min(trial_speeds)
            if best is None or ov > best[0]:
                best = (ov, trial, trial_speeds)
        if best is None:
            return t  # everything erodible is gone
        ov, deleted, speeds = best
        t.deleted.append(deleted)
        t.overall.append(ov)
        t.storage_kb_s.append(storage(deleted))


def _plan_along(t: _Trajectory, lifespan_days: int, k: float) -> ErosionPlan:
    """Each age advances along the trajectory to the first state at or below
    its power-law target (or the last state). Overall speed need not fall
    monotonically along the trajectory, so this is a scan, not a search."""
    j, last = 0, len(t.deleted) - 1
    by_age, ov_age, sto_age = [], [], []
    for age in range(1, lifespan_days + 1):
        target = _p_target(age, k, t.p_min)
        while j < last and t.overall[j] > target + 1e-9:
            j += 1
        by_age.append(dict(t.deleted[j]))
        ov_age.append(t.overall[j])
        sto_age.append(t.storage_kb_s[j])
    return ErosionPlan(
        k=k,
        p_min=t.p_min,
        deleted_by_age=by_age,
        overall_by_age=ov_age,
        storage_kb_s_by_age=sto_age,
        total_storage_kb_s=sum(sto_age),
    )


def plan_erosion(
    plan: StoragePlan,
    *,
    lifespan_days: int,
    storage_budget_bytes: float,
) -> ErosionPlan:
    """Find the gentlest decay factor k whose lifespan storage cost fits the
    budget (binary search — higher k always costs less), then return its plan.
    Raises ``ValueError`` if even the steepest decay does not fit.

    Ages are in days; each stored age holds 86400 s of video per stream.
    """
    day_s = 86_400.0
    budget_kb_s = storage_budget_bytes / 1024.0 / day_s  # summed KB/s across ages

    t = _trajectory(plan)
    no_decay = _plan_along(t, lifespan_days, 0.0)
    if no_decay.total_storage_kb_s <= budget_kb_s:
        return no_decay
    lo, hi = 0.0, _K_MAX
    floor = _plan_along(t, lifespan_days, _K_MAX)
    if floor.total_storage_kb_s > budget_kb_s:
        need_tb = floor.total_storage_kb_s * day_s * 1024.0 / 1024.0**4
        raise ValueError(
            f"storage budget {storage_budget_bytes / 1024.0**4:.2f} TB is unreachable: "
            f"even the steepest decay (k={_K_MAX:g}) needs {need_tb:.2f} TB"
        )
    for _ in range(24):
        mid = (lo + hi) / 2.0
        if _plan_along(t, lifespan_days, mid).total_storage_kb_s <= budget_kb_s:
            hi = mid
        else:
            lo = mid
    return _plan_along(t, lifespan_days, hi)
