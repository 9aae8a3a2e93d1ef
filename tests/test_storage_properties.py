"""Property-based validation of §4.3 coalescing and budget adaptation
(hypothesis): R1/R2, golden placement, assignment and cost on random
consumer sets, not only on the Table 2 configuration; and the vectorized
coding choice against the scalar rule it implements."""
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.model import raw_retrieval_speed_x
from repro.core.storage import Consumer, choose_coding, derive_storage_plan, initial_nodes
from repro.formats import RAW, SAMPLINGS, Fidelity, coding_space, fidelity_space, knobwise_max
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



def reference_choose_coding(sp, fidelity, consumers):
    """The scalar §4.3 rule: the first coding, in coding order, of minimal
    size among those whose retrieval outruns every consumer (R2); else RAW
    if it does; else None."""

    def feasible(prof):
        return all(prof.speed_by_sampling[float(c.cf.sampling)] >= c.speed_x for c in consumers)

    best = None
    for prof in sp.profiles(fidelity, coding_space()):
        if (best is None or prof.size_kb_per_s < best.size_kb_per_s) and feasible(prof):
            best = prof
    if best is not None:
        return best
    raw = sp.profile(fidelity, RAW)
    return raw if feasible(raw) else None


class CoarseProfiler(StorageProfiler):
    """Sizes rounded to 2 significant digits: the codec model never gives two
    codings of one fidelity the same size, so this is how ties get tested."""

    def _run(self, f, c):
        prof = super()._run(f, c)
        return replace(prof, size_kb_per_s=float(f"{prof.size_kb_per_s:.2g}"))


def check_choice(ds, fidelity, consumers, profiler=StorageProfiler):
    """``choose_coding`` equals the reference, and counts the same profiling
    runs and hits, on a fresh profiler and again once its row is built."""
    sp, ref = profiler(ds), profiler(ds)
    for _ in range(2):
        got = choose_coding(sp, fidelity, consumers)
        want = reference_choose_coding(ref, fidelity, consumers)
        assert got == want
        assert (sp.runs, sp.hits) == (ref.runs, ref.hits)
    return got


@given(
    fidelity=st.sampled_from(fidelity_space()),
    ds_name=st.sampled_from(sorted(DATASETS)),
    profiler=st.sampled_from([StorageProfiler, CoarseProfiler]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_choose_coding_matches_scalar_reference(fidelity, ds_name, profiler, data):
    ds = DATASETS[ds_name]
    speeds = profiler(ds)  # only to draw speeds on R2 boundaries
    consumers = []
    for i in range(data.draw(st.integers(0, 8), label="n_consumers")):
        s = data.draw(st.sampled_from(SAMPLINGS), label="sampling")
        at_rate = [p.speed_by_sampling[float(s)] for p in speeds.profiles(fidelity, coding_space() + (RAW,))]
        speed = data.draw(
            st.one_of(
                st.sampled_from(at_rate),  # exactly some coding's retrieval speed
                st.sampled_from(at_rate).map(lambda x: math.nextafter(x, math.inf)),
                st.floats(-1.0, 7.0).map(lambda e: 10.0**e),
            ),
            label="speed_x",
        )
        consumers.append(Consumer(f"c{i}", 0.9, replace(fidelity, sampling=s), speed))
    check_choice(ds, fidelity, consumers, profiler)


# the §3.1 R2 case (b) fidelity of tests/test_storage_plan.py: RAW retrieval
# outruns every encoded coding at 1/30 sampling
RAW_CASE = Fidelity("best", 100, Fraction(1, 30), 0.5)


@pytest.mark.parametrize("case", ["no-consumers", "raw-only", "infeasible"])
def test_choose_coding_edge_cases(case):
    ds = DATASETS["dashcam"]
    rate = float(RAW_CASE.sampling)
    sp = StorageProfiler(ds)
    fastest = max(p.speed_by_sampling[rate] for p in sp.profiles(RAW_CASE, coding_space()))
    raw = sp.profile(RAW_CASE, RAW).speed_by_sampling[rate]
    assert raw > fastest
    speeds = {"no-consumers": [], "raw-only": [math.nextafter(fastest, math.inf), raw],
              "infeasible": [1.0, math.nextafter(raw, math.inf)]}[case]
    consumers = [Consumer(f"c{i}", 0.9, RAW_CASE, x) for i, x in enumerate(speeds)]
    got = check_choice(ds, RAW_CASE, consumers)
    if case == "no-consumers":
        assert got.size_kb_per_s == min(p.size_kb_per_s for p in sp.profiles(RAW_CASE, coding_space()))
    elif case == "raw-only":
        assert got.coding == RAW
    else:
        assert got is None
