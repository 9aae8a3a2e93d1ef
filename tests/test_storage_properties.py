"""Property-based validation of §4.3 coalescing and budget adaptation
(hypothesis): R1/R2, golden placement, assignment and cost on random
consumer sets, not only on the Table 2 configuration."""
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.codec.model import raw_retrieval_speed_x
from repro.core.storage import Consumer, derive_storage_plan, initial_nodes
from repro.formats import fidelity_space, knobwise_max
from repro.profiler.storage import StorageProfiler
from repro.video.datasets import DATASETS

consumer_draws = st.lists(
    st.tuples(st.sampled_from(fidelity_space()), st.floats(-1.0, 6.0)),
    min_size=2,
    max_size=8,
)


def make_consumers(draws):
    # R2 demand cap as in derive_config: no consumer outruns raw retrieval of
    # its own fidelity
    return [
        Consumer(f"c{i}", 0.9, cf, min(10.0**e, raw_retrieval_speed_x(cf, cf.sampling)))
        for i, (cf, e) in enumerate(draws)
    ]


def check_plan(plan, consumers):
    for n in plan.nodes:
        for c in n.consumers:
            assert n.fidelity.richer_eq(c.cf)  # R1
            assert n.retrieval_speed_for(c) >= c.speed_x  # R2
    assert plan.nodes[0].golden
    assert not any(n.golden for n in plan.nodes[1:])
    assert plan.golden.fidelity == knobwise_max(*(c.cf for c in consumers))
    assert Counter(c for n in plan.nodes for c in n.consumers) == Counter(consumers)


@given(
    draws=consumer_draws,
    ds_name=st.sampled_from(sorted(DATASETS)),
    budget_exp=st.floats(-2.0, 1.5),
)
@settings(max_examples=150, deadline=None)
def test_coalescing_properties(draws, ds_name, budget_exp):
    consumers = make_consumers(draws)
    ds = DATASETS[ds_name]

    plan = derive_storage_plan(StorageProfiler(ds), consumers)
    check_plan(plan, consumers)
    init = initial_nodes(StorageProfiler(ds), consumers)
    assert plan.storage_kb_per_s() <= sum(n.size_kb_per_s for n in init) + 1e-9

    budget = 10.0**budget_exp
    try:
        budgeted = derive_storage_plan(
            StorageProfiler(ds), consumers, ingest_budget_cores=budget, motion=ds.motion
        )
    except ValueError as e:
        assert "unreachable" in str(e)
        return
    assert budgeted.ingest_cores(ds.motion) <= budget
    check_plan(budgeted, consumers)

