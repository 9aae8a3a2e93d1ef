"""§4.3 storage-format coalescing: R1-R4 invariants, enumeration equality."""
from fractions import Fraction

import pytest

from repro.core.storage import (
    Consumer,
    choose_coding,
    derive_storage_plan,
    enumerate_storage_plan,
    initial_nodes,
)
from repro.formats import Fidelity, GOLDEN_CODING, knobwise_max
from repro.profiler.storage import StorageProfiler
from repro.video.datasets import DATASETS

S = Fraction
DASH = DATASETS["dashcam"]


def consumer(op_name, acc, f, speed):
    return Consumer(op_name=op_name, target_acc=acc, cf=f, speed_x=speed)


@pytest.fixture(scope="module")
def full_consumers():
    """The real consumer set from a full (local-mode) derivation."""
    from repro.core.config import ConfigOptions, derive_config

    cfg = derive_config(options=ConfigOptions(profiler_mode="local"))
    return cfg.consumers


@pytest.fixture(scope="module")
def full_plan(full_consumers):
    sp = StorageProfiler(DASH)
    return derive_storage_plan(sp, full_consumers)


SMALL = [
    consumer("license", 0.9, Fidelity("best", 540, S(1, 30), 0.75), 300.0),
    consumer("license", 0.7, Fidelity("good", 200, S(1, 30), 0.5), 2000.0),
    consumer("ocr", 0.9, Fidelity("best", 600, S(1, 30), 1.0), 170.0),
    consumer("nn", 0.95, Fidelity("best", 600, S(2, 3), 1.0), 4.8),
    consumer("motion", 0.8, Fidelity("worst", 60, S(1, 30), 0.5), 30_000.0),
]


class TestChooseCoding:
    def test_slow_consumer_gets_min_size_coding(self):
        sp = StorageProfiler(DASH)
        f = Fidelity("best", 720, S(1), 1.0)
        prof = choose_coding(sp, f, [consumer("nn", 0.95, f, 3.0)])
        # the globally min-size encoded option is slowest/250 (golden coding)
        assert prof.coding == GOLDEN_CODING

    def test_fast_consumer_forces_raw(self):
        # §3.1 R2 case (b): consumers faster than even the cheapest-to-decode
        # coding get raw frames from disk
        sp = StorageProfiler(DASH)
        f = Fidelity("best", 100, S(1, 30), 0.5)
        prof = choose_coding(sp, f, [consumer("motion", 0.8, f, 50_000.0)])
        assert prof.coding.raw

    def test_unservable_consumer_returns_none(self):
        sp = StorageProfiler(DASH)
        f = Fidelity("best", 720, S(1), 1.0)
        assert choose_coding(sp, f, [consumer("x", 0.9, f, 10_000_000.0)]) is None

    def test_mid_consumer_gets_encoded(self):
        sp = StorageProfiler(DASH)
        f = Fidelity("best", 540, S(1, 30), 1.0)
        prof = choose_coding(sp, f, [consumer("license", 0.9, f, 100.0)])
        assert not prof.coding.raw
        assert prof.speed_by_sampling[float(f.sampling)] >= 100.0


class TestInitialNodes:
    def test_golden_first_and_dominates(self):
        sp = StorageProfiler(DASH)
        nodes = initial_nodes(sp, SMALL)
        assert nodes[0].golden
        assert nodes[0].fidelity == knobwise_max(*(c.cf for c in SMALL))
        assert nodes[0].coding == GOLDEN_CODING

    def test_one_node_per_unique_cf(self):
        sp = StorageProfiler(DASH)
        nodes = initial_nodes(sp, SMALL + SMALL)  # duplicates collapse
        assert len(nodes) == 1 + len({c.cf for c in SMALL})

    def test_unservable_cf_raises(self):
        f = Fidelity("best", 720, S(1), 1.0)
        with pytest.raises(ValueError, match="no feasible coding for CF"):
            initial_nodes(StorageProfiler(DASH), [consumer("x", 0.9, f, 10_000_000.0)])


class TestPlanInvariants:
    def test_r1_satisfiable_fidelity(self, full_plan):
        for n in full_plan.nodes:
            for c in n.consumers:
                assert n.fidelity.richer_eq(c.cf)

    def test_r2_adequate_retrieval(self, full_plan):
        for n in full_plan.nodes:
            for c in n.consumers:
                assert n.retrieval_speed_for(c) >= c.speed_x

    def test_r3_consolidation(self, full_plan, full_consumers):
        unique_cfs = len({c.cf for c in full_consumers})
        assert len(full_plan.nodes) < unique_cfs

    def test_every_consumer_assigned(self, full_plan, full_consumers):
        assigned = [c for n in full_plan.nodes for c in n.consumers]
        assert len(assigned) == len(full_consumers)

    def test_golden_intact(self, full_plan, full_consumers):
        g = full_plan.golden
        assert g.fidelity == knobwise_max(*(c.cf for c in full_consumers))
        assert not g.coding.raw

    def test_golden_serves_slow_high_accuracy_consumers(self, full_plan):
        # Table 2: SFg mostly caters to consumers demanding high accuracy
        # and low consumption speed
        g = full_plan.golden
        assert g.consumers, "golden should absorb the slow consumers"
        assert all(c.speed_x < 500 for c in g.consumers)

    def test_some_raw_format_for_fast_consumers(self, full_plan):
        # Table 2: SF3 is stored as low-fidelity raw frames for high-speed
        # consumers
        raws = [n for n in full_plan.nodes if n.coding.raw]
        assert raws
        assert any(c.speed_x > 5000 for n in raws for c in n.consumers)

    def test_memoization_dominates(self, full_plan):
        # §6.4: 92% of examined storage formats were memoized
        total = full_plan.profiling_runs + full_plan.profiling_hits
        assert full_plan.profiling_hits / total > 0.5

    def test_small_fraction_of_space_profiled(self, full_plan):
        # §6.4: only ~3% of the 15K possible formats are ever profiled
        assert full_plan.profiling_runs < 0.15 * 15_000


class TestEnumerationEquality:
    def test_greedy_matches_enumeration_small(self):
        # §6.4: coalescing finds the same storage cost as exhaustive
        # set-partition enumeration (validated on a small CF set)
        sp1, sp2 = StorageProfiler(DASH), StorageProfiler(DASH)
        greedy = derive_storage_plan(sp1, SMALL)
        exact = enumerate_storage_plan(sp2, SMALL)
        assert greedy.storage_kb_per_s() == pytest.approx(
            exact.storage_kb_per_s(), rel=1e-9
        )

    def test_greedy_never_worse_than_initial(self):
        sp = StorageProfiler(DASH)
        init = sum(n.size_kb_per_s for n in initial_nodes(StorageProfiler(DASH), SMALL))
        plan = derive_storage_plan(sp, SMALL)
        assert plan.storage_kb_per_s() <= init + 1e-9


class TestBudgetAdaptation:
    def test_budget_met_when_achievable(self, full_consumers):
        sp = StorageProfiler(DASH)
        plan = derive_storage_plan(
            sp, full_consumers, ingest_budget_cores=4.0, motion=DASH.motion
        )
        assert plan.ingest_cores(DASH.motion) <= 4.0

    def test_storage_grows_as_budget_shrinks(self, full_consumers):
        costs = []
        for budget in (100.0, 4.0, 1.0):
            sp = StorageProfiler(DASH)
            plan = derive_storage_plan(
                sp, full_consumers, ingest_budget_cores=budget, motion=DASH.motion
            )
            costs.append(plan.storage_kb_per_s())
        assert costs[0] <= costs[1] <= costs[2]
        assert costs[2] > costs[0]  # the Table 3 tradeoff is real

    def test_r2_survives_budget_moves(self, full_consumers):
        # cheaper coding decodes faster, so R2 must keep holding (§6.3:
        # "the increasingly cheaper coding overprovisions retrieval speed")
        sp = StorageProfiler(DASH)
        plan = derive_storage_plan(
            sp, full_consumers, ingest_budget_cores=1.0, motion=DASH.motion
        )
        for n in plan.nodes:
            for c in n.consumers:
                assert n.retrieval_speed_for(c) >= c.speed_x

    def test_unbudgeted_plan_records_no_moves(self, full_plan):
        assert full_plan.budget_moves == []

    def test_budget_without_motion_raises(self):
        with pytest.raises(ValueError, match="needs the stream's motion"):
            derive_storage_plan(StorageProfiler(DASH), SMALL, ingest_budget_cores=4.0)

    def test_unreachable_budget_raises(self, full_consumers):
        sp = StorageProfiler(DASH)
        with pytest.raises(ValueError, match="unreachable"):
            derive_storage_plan(
                sp, full_consumers, ingest_budget_cores=0.01, motion=DASH.motion
            )

    def test_budget_moves_prefer_coding_speedups_first(self, full_consumers):
        sp = StorageProfiler(DASH)
        plan = derive_storage_plan(
            sp, full_consumers, ingest_budget_cores=6.0, motion=DASH.motion
        )
        assert plan.budget_moves, "a 6-core budget requires adaptation"
        assert plan.budget_moves[0].startswith("speedup")


class TestDerivationCounters:
    """The §6.4 / Table 2 / Fig 13 bookkeeping of the 24-consumer plan and of
    every Table 3 budget: (profiling runs, profiling hits, pairs examined,
    rounds, budget moves). A faster coding choice or pair scan must leave
    each count exactly as it is."""

    @pytest.mark.parametrize(
        "budget, counts",
        [
            (None, (672, 24676, 1120, 13, 0)),
            (12.0, (672, 24676, 1120, 13, 0)),
            (8.0, (672, 24945, 1120, 14, 1)),
            (4.0, (672, 24945, 1120, 14, 1)),
            (3.0, (672, 25214, 1120, 15, 2)),
            (2.0, (672, 25214, 1120, 15, 2)),
            (1.0, (672, 25913, 1120, 18, 5)),
        ],
    )
    def test_counts_pinned(self, full_consumers, budget, counts):
        plan = derive_storage_plan(
            StorageProfiler(DASH), full_consumers, ingest_budget_cores=budget, motion=DASH.motion
        )
        assert (
            plan.profiling_runs,
            plan.profiling_hits,
            plan.pairs_examined,
            plan.rounds,
            len(plan.budget_moves),
        ) == counts
