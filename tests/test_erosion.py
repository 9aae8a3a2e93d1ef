"""§4.4 age-based data erosion: fallback trees, fairness, power-law decay."""
from fractions import Fraction

import pytest

from repro.core.erosion import (
    _p_target,
    build_richer_tree,
    overall_speed,
    plan_erosion,
    relative_speed,
)
from repro.core.storage import Consumer, SFNode, StoragePlan
from repro.formats import Fidelity, GOLDEN_CODING, Coding
from repro.profiler.storage import StorageProfiler
from repro.video.datasets import DATASETS

S = Fraction
DASH = DATASETS["dashcam"]


def node(f, coding, consumers=(), golden=False):
    return SFNode(StorageProfiler(DASH).profile(f, coding), list(consumers), golden=golden)


@pytest.fixture(scope="module")
def plan():
    from repro.core.config import ConfigOptions, derive_config

    cfg = derive_config(options=ConfigOptions(profiler_mode="local"))
    return cfg.storage


def two_level_plan():
    """Golden + one child with a single mid-speed consumer."""
    f_child = Fidelity("best", 540, S(1, 30), 1.0)
    c = Consumer(op_name="license", target_acc=0.9, cf=f_child, speed_x=200.0)
    child = node(f_child, Coding("fast", 10), [c])
    golden = node(Fidelity("best", 720, S(1), 1.0), GOLDEN_CODING, [], golden=True)
    return StoragePlan(nodes=[golden, child]), c


class TestRicherTree:
    def test_golden_must_dominate(self):
        low = node(Fidelity("good", 360, S(1, 2), 0.75), GOLDEN_CODING, golden=True)
        high = node(Fidelity("best", 720, S(1), 1.0), Coding("fast", 10))
        with pytest.raises(ValueError, match="no richer fallback"):
            build_richer_tree([low, high])

    def test_parent_strictly_richer(self, plan):
        parent = build_richer_tree(plan.nodes)
        for i, p in parent.items():
            if p is None:
                continue
            assert plan.nodes[p].fidelity.richer_eq(plan.nodes[i].fidelity)
            assert not plan.nodes[i].fidelity.richer_eq(plan.nodes[p].fidelity)

    def test_golden_is_root(self, plan):
        parent = build_richer_tree(plan.nodes)
        assert parent[0] is None
        assert all(p is not None for i, p in parent.items() if i != 0)

    def test_chains_reach_golden(self, plan):
        parent = build_richer_tree(plan.nodes)
        for i in range(len(plan.nodes)):
            seen = set()
            while i is not None:
                assert i not in seen, "cycle in richer-than tree"
                seen.add(i)
                i = parent[i]
            assert 0 in seen


class TestRelativeSpeed:
    def test_no_deletion_is_one(self):
        p, c = two_level_plan()
        parent = build_richer_tree(p.nodes)
        assert relative_speed(c, 1, p.nodes, parent, {1: 0.0}) == pytest.approx(1.0)

    def test_matches_paper_formula_single_level(self):
        # paper: relative speed = alpha / ((1-p)*alpha + p)
        p, c = two_level_plan()
        parent = build_richer_tree(p.nodes)
        s_own = min(p.nodes[1].retrieval_speed_for(c), c.speed_x)
        s_par = min(p.nodes[0].retrieval_speed_for(c), c.speed_x)
        alpha = s_par / s_own
        for frac in (0.2, 0.5, 0.9):
            want = alpha / ((1 - frac) * alpha + frac)
            got = relative_speed(c, 1, p.nodes, parent, {1: frac})
            assert got == pytest.approx(want)

    def test_full_deletion_gives_alpha(self):
        p, c = two_level_plan()
        parent = build_richer_tree(p.nodes)
        s_own = min(p.nodes[1].retrieval_speed_for(c), c.speed_x)
        s_par = min(p.nodes[0].retrieval_speed_for(c), c.speed_x)
        got = relative_speed(c, 1, p.nodes, parent, {1: 1.0})
        assert got == pytest.approx(s_par / s_own)

    def test_monotone_in_deletion(self):
        p, c = two_level_plan()
        parent = build_richer_tree(p.nodes)
        vals = [relative_speed(c, 1, p.nodes, parent, {1: f}) for f in (0, 0.3, 0.6, 1.0)]
        assert vals == sorted(vals, reverse=True)

    def test_golden_consumer_never_decays(self, plan):
        parent = build_richer_tree(plan.nodes)
        g = plan.golden
        if not g.consumers:
            pytest.skip("no golden consumers in this plan")
        c = g.consumers[0]
        deleted = {i: 1.0 for i in range(1, len(plan.nodes))}
        assert relative_speed(c, 0, plan.nodes, parent, deleted) == pytest.approx(1.0)

    def test_overall_is_min(self, plan):
        parent = build_richer_tree(plan.nodes)
        assignment = plan.assignment()
        deleted = {i: 0.5 for i in range(1, len(plan.nodes))}
        ov = overall_speed(plan.nodes, assignment, parent, deleted)
        rels = [
            relative_speed(c, i, plan.nodes, parent, deleted)
            for c, i in assignment.items()
        ]
        assert ov == pytest.approx(min(rels))


class TestPowerLaw:
    def test_age_one_is_full_speed(self):
        assert _p_target(1, 2.0, 0.1) == pytest.approx(1.0)

    def test_k_zero_never_decays(self):
        for x in (1, 5, 10):
            assert _p_target(x, 0.0, 0.1) == pytest.approx(1.0)

    def test_approaches_pmin(self):
        assert _p_target(1000, 2.0, 0.1) == pytest.approx(0.1, abs=1e-3)

    def test_higher_k_decays_faster(self):
        assert _p_target(5, 2.0, 0.0) < _p_target(5, 1.0, 0.0)


class TestPlanErosion:
    def test_no_decay_when_budget_ample(self, plan):
        day_bytes = plan.storage_kb_per_s() * 86_400 * 1024
        ep = plan_erosion(plan, lifespan_days=10, storage_budget_bytes=20 * day_bytes)
        assert ep.k == 0.0
        assert all(v == pytest.approx(1.0) for v in ep.overall_by_age)

    def test_budget_respected(self, plan):
        day_bytes = plan.storage_kb_per_s() * 86_400 * 1024
        budget = 7 * day_bytes  # 10 days of video into 7 days of space
        ep = plan_erosion(plan, lifespan_days=10, storage_budget_bytes=budget)
        assert ep.k > 0
        assert ep.total_storage_kb_s * 86_400 * 1024 <= budget * 1.001

    def test_unreachable_budget_raises(self, plan):
        # golden is never eroded, so 10 days cannot fit into 3 days of space
        day_bytes = plan.storage_kb_per_s() * 86_400 * 1024
        with pytest.raises(ValueError, match="unreachable"):
            plan_erosion(plan, lifespan_days=10, storage_budget_bytes=3 * day_bytes)

    def test_tighter_budget_higher_k(self, plan):
        day_bytes = plan.storage_kb_per_s() * 86_400 * 1024
        k = [
            plan_erosion(plan, lifespan_days=10, storage_budget_bytes=m * day_bytes).k
            for m in (8, 6, 4)
        ]
        assert k[0] <= k[1] <= k[2]
        assert k[2] > k[0]

    def test_golden_never_eroded(self, plan):
        day_bytes = plan.storage_kb_per_s() * 86_400 * 1024
        ep = plan_erosion(plan, lifespan_days=10, storage_budget_bytes=5 * day_bytes)
        for deleted in ep.deleted_by_age:
            assert 0 not in deleted or deleted[0] == 0.0

    def test_deletions_accumulate_over_ages(self, plan):
        day_bytes = plan.storage_kb_per_s() * 86_400 * 1024
        ep = plan_erosion(plan, lifespan_days=10, storage_budget_bytes=5 * day_bytes)
        for i in range(1, len(plan.nodes)):
            fr = [d.get(i, 0.0) for d in ep.deleted_by_age]
            assert fr == sorted(fr)

    def test_overall_tracks_target(self, plan):
        day_bytes = plan.storage_kb_per_s() * 86_400 * 1024
        ep = plan_erosion(plan, lifespan_days=10, storage_budget_bytes=5 * day_bytes)
        for age, ov in enumerate(ep.overall_by_age, start=1):
            tgt = (1.0 - ep.p_min) * age ** (-ep.k) + ep.p_min
            assert ov <= tgt + 1e-6 or ov == pytest.approx(ep.p_min, abs=1e-6)

    def test_storage_decreases_with_age(self, plan):
        day_bytes = plan.storage_kb_per_s() * 86_400 * 1024
        ep = plan_erosion(plan, lifespan_days=10, storage_budget_bytes=5 * day_bytes)
        assert ep.storage_kb_s_by_age == sorted(ep.storage_kb_s_by_age, reverse=True)

    def test_age_one_intact(self, plan):
        day_bytes = plan.storage_kb_per_s() * 86_400 * 1024
        ep = plan_erosion(plan, lifespan_days=10, storage_budget_bytes=5 * day_bytes)
        assert all(v == 0.0 for v in ep.deleted_by_age[0].values())
