"""§4.3 — Configuring storage formats by greedy pairwise coalescing.

From the consumption formats (CFs) and their consumers, derive a small set of
storage formats (SFs) that jointly satisfy

- R1 (satisfiable fidelity): an SF's fidelity is richer-or-equal to every
  downstream CF;
- R2 (adequate retrieval speed): the SF's retrieval speed (decode, or disk
  read for RAW) exceeds every downstream consumer's consumption speed;
- R3 (consolidation): one SF serves many consumers;
- R4 (budgets): ingestion cost under the transcoding budget.

Algorithm (paper Fig 9): start from one SF per unique CF plus the *golden*
format (knob-wise max fidelity, slowest/cheapest-storage coding — the
never-eroded ultimate fallback). Repeatedly coalesce the pair whose merged
format (knob-wise max fidelity, min-size coding that keeps R2 for the union
of consumers, RAW if no encoded coding is fast enough) reduces storage cost.
Once no coalesce is storage-free, adapt to the ingestion budget: step coding
speed up (cheaper encode, larger size — never violates R2 since cheaper
coding decodes faster), and when coding is exhausted, coalesce further or
fall back to RAW (Table 3's trajectory). A budget no move sequence can meet
raises ``ValueError``.

``enumerate_storage_plan`` is the exhaustive set-partition baseline of §6.4,
used to validate that coalescing finds equally storage-efficient plans.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.codec.model import encode_cost_cores
from repro.formats import Coding, Fidelity, GOLDEN_CODING, RAW, StorageFormat, cheaper_coding, knobwise_max
from repro.profiler.storage import StorageProfile, StorageProfiler


@dataclass(frozen=True)
class Consumer:
    """<operator, target accuracy> with its derived CF and consumption speed."""

    op_name: str
    target_acc: float
    cf: Fidelity
    speed_x: float

    def label(self) -> str:
        return f"{self.op_name}@{self.target_acc}"


@dataclass
class SFNode:
    """One storage format under construction: its profile and subscribed consumers."""

    profile: StorageProfile
    consumers: list[Consumer]
    golden: bool = False

    @property
    def fidelity(self) -> Fidelity:
        return self.profile.fidelity

    @property
    def coding(self) -> Coding:
        return self.profile.coding

    @property
    def size_kb_per_s(self) -> float:
        return self.profile.size_kb_per_s

    def retrieval_speed_for(self, consumer: Consumer) -> float:
        return self.profile.speed_by_sampling[consumer.cf.rate]

    def storage_format(self) -> StorageFormat:
        return StorageFormat(self.fidelity, self.coding)


@dataclass
class StoragePlan:
    """Derived SF set plus derivation statistics (for §6.4 accounting)."""

    nodes: list[SFNode]  # index 0 is the golden format
    rounds: int = 0
    pairs_examined: int = 0
    profiling_runs: int = 0
    profiling_hits: int = 0
    budget_moves: list[str] = field(default_factory=list)

    @property
    def golden(self) -> SFNode:
        return self.nodes[0]

    def storage_kb_per_s(self) -> float:
        return sum(n.size_kb_per_s for n in self.nodes)

    def ingest_cores(self, motion: float) -> float:
        return sum(
            encode_cost_cores(n.fidelity, n.coding, motion) for n in self.nodes
        )

    def sf_ids(self) -> list[str]:
        """Display ids of the nodes: ``SFg`` for golden, ``SF<i>`` otherwise."""
        return ["SFg" if n.golden else f"SF{i}" for i, n in enumerate(self.nodes)]

    def assignment(self) -> dict[Consumer, int]:
        return {c: i for i, n in enumerate(self.nodes) for c in n.consumers}


# ---- coding selection -------------------------------------------------------

def _feasible(prof: StorageProfile, consumers: list[Consumer]) -> bool:
    """R2: retrieval from this profile outruns every consumer."""
    speeds = prof.speed_by_sampling
    return all(speeds[c.cf.rate] >= c.speed_x for c in consumers)


def choose_coding(
    sp: StorageProfiler, fidelity: Fidelity, consumers: list[Consumer]
) -> StorageProfile | None:
    """Min-storage coding for ``fidelity`` that keeps R2 for ``consumers``
    (the first in coding order among equal sizes); falls back to RAW; None
    if even RAW is too slow (coalesce infeasible).

    R2 is tested once per sampling rate, not once per coding and consumer:
    the consumers fold into the fastest speed each rate needs, and the
    fidelity's size-sorted coding row is filtered by one vector comparison
    per rate; the first survivor is the choice."""
    need: dict[float, float] = {}
    for c in consumers:
        need[c.cf.rate] = max(need.get(c.cf.rate, c.speed_x), c.speed_x)
    row = sp.coding_row(fidelity)
    ok = np.ones(len(row.by_size), dtype=bool)
    for rate, speed in need.items():
        ok &= row.speeds[rate] >= speed
    first = int(ok.argmax())  # 0 when nothing is feasible
    if ok[first]:
        return row.by_size[first]
    raw = sp.profile(fidelity, RAW)
    return raw if _feasible(raw, consumers) else None


# ---- coalescing -------------------------------------------------------------

def _merged(sp: StorageProfiler, a: SFNode, b: SFNode) -> SFNode | None:
    """The would-be coalesced node of a and b (None if infeasible)."""
    f2 = knobwise_max(a.fidelity, b.fidelity)
    consumers = a.consumers + b.consumers
    if a.golden or b.golden:
        # The golden format's coding is pinned: the slowest coding with the
        # lowest storage cost (§4.3) — or whatever cheaper coding the budget
        # phase has already tuned it to (Table 3). A CF merges into golden
        # only if that coding's retrieval speed suffices; re-coding golden
        # just to absorb a fast consumer would defeat its purpose as the
        # cheap-to-store ultimate fallback.
        golden_coding = a.coding if a.golden else b.coding
        prof = sp.profile(f2, golden_coding)
        if not _feasible(prof, consumers):
            return None
    else:
        prof = choose_coding(sp, f2, consumers)
    if prof is None:
        return None
    return SFNode(prof, consumers, golden=a.golden or b.golden)


def _by_cf(consumers: list[Consumer]) -> dict[Fidelity, list[Consumer]]:
    """Consumers grouped by their CF, CFs in label order."""
    by_cf: dict[Fidelity, list[Consumer]] = {}
    for c in consumers:
        by_cf.setdefault(c.cf, []).append(c)
    return dict(sorted(by_cf.items(), key=lambda kv: kv[0].label()))


def _golden_node(sp: StorageProfiler, cfs) -> SFNode:
    """The golden format: knob-wise max of all CFs at the golden coding."""
    f = knobwise_max(*cfs)
    return SFNode(sp.profile(f, GOLDEN_CODING), [], golden=True)


def initial_nodes(sp: StorageProfiler, consumers: list[Consumer]) -> list[SFNode]:
    """Full SF set: golden + one SF per unique CF (paper Fig 9, right side)."""
    by_cf = _by_cf(consumers)
    nodes = [_golden_node(sp, by_cf)]
    for cf, cons in by_cf.items():
        prof = choose_coding(sp, cf, cons)
        if prof is None:
            raise ValueError(f"no feasible coding for CF {cf.label()}")
        nodes.append(SFNode(prof, cons))
    return nodes


def _coalesces(sp: StorageProfiler, nodes: list[SFNode], memo: dict):
    """Every feasible pairwise coalesce of ``nodes`` as (i, j, merged, Δstorage).

    No node changes inside a derivation (a retune makes a new node), so
    ``memo`` maps an ordered pair's ids to (a, b, merge, profiler lookups),
    holding a and b to keep their ids unique: each pair is merged once, and a
    replay counts its first merge's lookups as hits (see StorageProfiler)."""
    for i, j in itertools.combinations(range(len(nodes)), 2):
        a, b = nodes[i], nodes[j]
        hit = memo.get((id(a), id(b)))
        if hit is None:
            lookups = sp.runs + sp.hits
            hit = memo[id(a), id(b)] = (a, b, _merged(sp, a, b), sp.runs + sp.hits - lookups)
        else:
            sp.hits += hit[3]
        m = hit[2]
        if m is not None:
            yield i, j, m, m.size_kb_per_s - a.size_kb_per_s - b.size_kb_per_s


def _coalesced(nodes: list[SFNode], i: int, j: int, m: SFNode) -> list[SFNode]:
    """``nodes`` with i and j replaced by their merge ``m``; golden stays at index 0."""
    rest = [n for k, n in enumerate(nodes) if k not in (i, j)]
    return [m] + rest if m.golden else rest[:1] + [m] + rest[1:]


def _retuned(nodes: list[SFNode], idx: int, prof: StorageProfile) -> list[SFNode]:
    """``nodes`` with node ``idx`` re-coded to ``prof``."""
    return nodes[:idx] + [replace(nodes[idx], profile=prof)] + nodes[idx + 1 :]


def derive_storage_plan(
    sp: StorageProfiler,
    consumers: list[Consumer],
    *,
    ingest_budget_cores: float | None = None,
    motion: float | None = None,
) -> StoragePlan:
    """Greedy coalescing (phase 1) + ingestion-budget adaptation (phase 2);
    raises ``ValueError`` if no sequence of moves fits the ingestion budget."""
    if ingest_budget_cores is not None and motion is None:
        raise ValueError("budget adaptation needs the stream's motion")
    runs0, hits0 = sp.runs, sp.hits
    plan = StoragePlan(nodes=initial_nodes(sp, consumers))
    merges: dict = {}  # the pair memo of _coalesces, for this derivation only

    # Phase 1: coalesce while storage cost does not increase; ties go to the
    # last pair examined.
    while True:
        plan.pairs_examined += math.comb(len(plan.nodes), 2)
        best_delta, best = 0.0, None
        for i, j, m, delta in _coalesces(sp, plan.nodes, merges):
            if delta <= best_delta + 1e-12:
                best_delta, best = delta, (i, j, m)
        if best is None:
            break
        plan.nodes = _coalesced(plan.nodes, *best)
        plan.rounds += 1

    # Phase 2: respect the ingestion budget (Table 3).
    if ingest_budget_cores is not None:
        _adapt_to_budget(sp, plan, ingest_budget_cores, motion, merges)

    plan.profiling_runs = sp.runs - runs0
    plan.profiling_hits = sp.hits - hits0
    return plan


def _adapt_to_budget(
    sp: StorageProfiler, plan: StoragePlan, budget: float, motion: float, merges: dict
) -> None:
    """Greedy: apply the ingest-reducing move with the least storage growth
    (first minimum of (Δstorage, Δingest)) until the cost fits; moves are
    coding speed-ups, RAW bypass and coalesces."""

    def cost(n: SFNode) -> float:
        return encode_cost_cores(n.fidelity, n.coding, motion)

    while (cores := plan.ingest_cores(motion)) > budget:
        # (Δstorage, Δingest, label, nodes after); the node list is built
        # only for the chosen move
        nodes, moves = plan.nodes, []
        for idx, n in enumerate(nodes):
            if n.coding.raw:
                continue
            retunes = []
            c2 = cheaper_coding(n.coding)
            if c2 is not None:
                retunes.append(("speedup", sp.profile(n.fidelity, c2)))
            if not n.golden:
                raw = sp.profile(n.fidelity, RAW)
                if _feasible(raw, n.consumers):
                    retunes.append(("raw", raw))
            for kind, prof in retunes:
                d_ing = encode_cost_cores(n.fidelity, prof.coding, motion) - cost(n)
                if d_ing < 0:
                    moves.append((prof.size_kb_per_s - n.size_kb_per_s, d_ing, f"{kind}:{idx}",
                                  partial(_retuned, nodes, idx, prof)))
        for i, j, m, d_sto in _coalesces(sp, nodes, merges):
            d_ing = cost(m) - cost(nodes[i]) - cost(nodes[j])
            if d_ing < 0:
                moves.append((d_sto, d_ing, f"coalesce:{i},{j}", partial(_coalesced, nodes, i, j, m)))
        if not moves:
            raise ValueError(
                f"ingest budget {budget:g} cores is unreachable: the cheapest plan needs {cores:.2f} cores"
            )
        _, _, label, nodes_after = min(moves, key=lambda t: (t[0], t[1]))
        plan.budget_moves.append(label)
        plan.nodes = nodes_after()
        plan.rounds += 1


# ---- exhaustive enumeration baseline (§6.4) ---------------------------------

def _partitions(items: list):
    """All set partitions (Bell-number many — only viable for small inputs)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_storage_plan(
    sp: StorageProfiler, consumers: list[Consumer]
) -> StoragePlan:
    """Try every partition of the CF set into SF groups; keep the cheapest
    feasible plan (golden always included). Exponential — validation only.

    Each distinct group is evaluated once: a node, a merge into golden (a
    golden node of the group's consumers) or None if infeasible."""
    by_cf = _by_cf(consumers)
    cfs = list(by_cf)
    golden = _golden_node(sp, by_cf)
    outcomes: dict[tuple[int, ...], SFNode | None] = {}

    def outcome(group: tuple[int, ...]) -> SFNode | None:
        f = knobwise_max(*(cfs[k] for k in group))
        cons = [c for k in group for c in by_cf[cfs[k]]]
        # merge into the golden node if its coding stays feasible
        if f == golden.fidelity and _feasible(golden.profile, cons):
            return SFNode(golden.profile, cons, golden=True)
        prof = choose_coding(sp, f, cons)
        return None if prof is None else SFNode(prof, cons)

    best, best_cost = None, float("inf")
    for part in _partitions(list(range(len(cfs)))):
        groups = []
        for group in map(tuple, part):
            if group not in outcomes:
                outcomes[group] = outcome(group)
            if outcomes[group] is None:
                break
            groups.append(outcomes[group])
        else:
            total = sum(n.size_kb_per_s for n in [golden] + [g for g in groups if not g.golden])
            if total < best_cost - 1e-12:
                best_cost, best = total, groups
    assert best is not None
    golden.consumers = [c for g in best if g.golden for c in g.consumers]
    return StoragePlan(nodes=[golden] + [g for g in best if not g.golden])
