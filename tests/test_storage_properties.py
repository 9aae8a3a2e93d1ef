"""Property-based validation of §4.3 coalescing and budget adaptation
(hypothesis): R1/R2, golden placement, assignment and cost on random
consumer sets, not only on the Table 2 configuration; the vectorized coding
choice against the scalar rule it implements; the per-derivation merge memo
against merging every pair afresh; and the memoized §6.4 enumeration against
the loop that evaluates every group of every partition."""
import itertools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.storage as storage
from repro.codec.model import raw_retrieval_speed_x
from repro.core.config import ConfigOptions, derive_config, storage_profiler
from repro.core.storage import (
    Consumer,
    SFNode,
    StoragePlan,
    _by_cf,
    _feasible,
    _golden_node,
    _merged,
    _partitions,
    choose_coding,
    derive_storage_plan,
    enumerate_storage_plan,
    initial_nodes,
)
from repro.formats import RAW, SAMPLINGS, Fidelity, coding_space, fidelity_space, knobwise_max
from repro.ops.library import QUERY_B
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


@pytest.fixture(scope="module")
def table2_consumers():
    return derive_config(options=ConfigOptions(profiler_mode="local")).consumers


def plan_or_error(derive):
    """The derived plan, or the message of the ``ValueError`` it raised."""
    try:
        return derive()
    except ValueError as e:
        return str(e)


def unmemoized_coalesces(sp, nodes, memo):
    """The pair scan without the merge memo: every pair is merged afresh."""
    for i, j in itertools.combinations(range(len(nodes)), 2):
        m = _merged(sp, nodes[i], nodes[j])
        if m is not None:
            yield i, j, m, m.size_kb_per_s - nodes[i].size_kb_per_s - nodes[j].size_kb_per_s


# budgets in cores: the unbudgeted Table 2 plan ingests about 16, and below
# about 0.5 no subset of more than a few consumers fits
@given(
    order=st.permutations(range(24)),
    n=st.integers(1, 24),
    budget=st.one_of(st.none(), st.floats(0.3, 16.0)),
)
@settings(max_examples=60, deadline=None)
def test_merge_memo_matches_unmemoized(table2_consumers, order, n, budget):
    # same nodes, same five counters (runs, hits, pairs examined, rounds,
    # budget moves) or the same unreachable-budget error
    consumers = [table2_consumers[k] for k in order[:n]]
    motion = storage_profiler().ds.motion
    kw = {} if budget is None else dict(ingest_budget_cores=budget, motion=motion)
    got = plan_or_error(lambda: derive_storage_plan(storage_profiler(), consumers, **kw))
    with mock.patch.object(storage, "_coalesces", unmemoized_coalesces):
        want = plan_or_error(lambda: derive_storage_plan(storage_profiler(), consumers, **kw))
    assert got == want


def reference_enumeration(sp, consumers):
    """The §6.4 enumeration without the group memo: every group of every
    partition is evaluated again."""
    by_cf = _by_cf(consumers)
    best_nodes, best_cost = None, float("inf")
    for part in _partitions(list(by_cf)):
        nodes = [_golden_node(sp, by_cf)]
        ok = True
        for group in part:
            f = knobwise_max(*group)
            cons = [c for cf in group for c in by_cf[cf]]
            if f == nodes[0].fidelity and _feasible(nodes[0].profile, cons):
                nodes[0].consumers.extend(cons)
                continue
            prof = choose_coding(sp, f, cons)
            if prof is None:
                ok = False
                break
            nodes.append(SFNode(prof, cons))
        if not ok:
            continue
        total = sum(n.size_kb_per_s for n in nodes)
        if total < best_cost - 1e-12:
            best_cost, best_nodes = total, nodes
    return StoragePlan(nodes=best_nodes)


def check_enumeration(consumers):
    sp, ref = storage_profiler(), storage_profiler()
    got = enumerate_storage_plan(sp, consumers)
    assert got == reference_enumeration(ref, consumers)
    assert sp.runs == ref.runs  # the same formats are profiled


def test_enumeration_matches_reference_on_query_b(table2_consumers):
    # the Fig 13 / §6.4 case: 10 CFs, 115,975 partitions
    check_enumeration([c for c in table2_consumers if c.op_name in QUERY_B])


# one to six consumers (at most 203 partitions), drawn as in consumer_draws
@given(draws=st.lists(st.tuples(st.sampled_from(fidelity_space()), st.floats(-1.0, 6.0)),
                      min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_reference_on_random_cfs(draws):
    check_enumeration(make_consumers(draws))
