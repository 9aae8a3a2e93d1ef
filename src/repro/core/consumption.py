"""§4.2 — Configuring consumption formats via monotone boundary search.

For a consumer <operator, target accuracy>, find the fidelity with adequate
accuracy (>= target) and the lowest consumption cost, profiling only a small
subset of the 600-option fidelity space:

1. fix image quality at its richest value (O2: quality does not affect
   consumption cost);
2. partition the remaining 3-D space along the shortest dimension (crop, 3
   values) into 2-D resolution x sampling planes;
3. in each plane, trace the *accuracy boundary* with a staircase walk that
   exploits monotonicity (O1): start at the richest corner, move toward
   cheaper options while adequate, fall back toward richer ones when not —
   O(N_res + N_sampling) probes instead of N_res * N_sampling;
4. take the min-cost boundary point across planes, then lower image quality
   while accuracy stays adequate (reducing storage cost opportunistically).

Each plane walk and the post-pass is a resumable step (a generator that
yields its next probe and is sent the result), so the planes of one search,
and the searches of many consumers, advance in lockstep *waves*: memo hits
resolve at once, and every wave's misses go to the profiler as one batch —
one Spark job in ``spark`` mode. Within a plane the walk is sequential, as
above; the planes and consumers of one wave share no memo entry, so batching
changes no probe, run or hit.

``exhaustive_consumption_format`` profiles the full space — the baseline the
paper compares against in Fig 13 (9-15x more profiling runs) and the oracle
our tests check the staircase against.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Generator

from repro.formats import (
    CROPS,
    QUALITIES,
    RESOLUTIONS,
    SAMPLINGS,
    Fidelity,
    fidelity_space,
)
from repro.ops.base import Operator
from repro.profiler.consumption import (
    ConsumptionProfiler,
    Probe,
    ProfileResult,
    profile_batch,
)


@dataclass(frozen=True)
class DerivedCF:
    """A derived consumption format: its fidelity and profiled result."""

    fidelity: Fidelity
    f1: float
    speed_x: float


def _adequate(r: ProfileResult, target: float) -> bool:
    return r.f1 >= target


#: a resumable search step: yields the probes it needs next, is sent their
#: results in the same order, and returns its outcome when done
Walk = Generator[list[Probe], list[ProfileResult], object]

_BEST_Q = QUALITIES[-1]
_RES_DESC = sorted(RESOLUTIONS, reverse=True)
_SAMP_ASC = sorted(SAMPLINGS)


def _advance(
    walk: Walk, results: list[ProfileResult] | None = None
) -> tuple[list[Probe] | None, object]:
    """Resume ``walk`` up to its next memo miss: memo hits resolve at once
    (no wave, no Spark job). Returns ``(next probes, None)`` or
    ``(None, outcome)``."""
    try:
        probes = walk.send(results)
        while all((op, f) in p.memo for p, op, f in probes):
            probes = walk.send(profile_batch(probes))
        return probes, None
    except StopIteration as stop:
        return None, stop.value


def _lockstep(walks: list[Walk]) -> Walk:
    """Run independent walks together: each wave yields every unfinished
    walk's next probes as one list; returns the walks' outcomes in order."""
    pending = [_advance(w) for w in walks]
    while any(probes is not None for probes, _ in pending):
        results = iter((yield [p for probes, _ in pending if probes for p in probes]))
        pending = [
            (None, out) if probes is None else _advance(w, [next(results) for _ in probes])
            for w, (probes, out) in zip(walks, pending)
        ]
    return [out for _, out in pending]


def _plane(
    profiler: ConsumptionProfiler, op: Operator, crop: float, target: float
) -> Walk:
    """Staircase walk of one resolution x sampling plane; returns its
    accuracy-boundary points as ``(fidelity, result)``."""
    # rows = resolution (rich -> poor), cols = sampling (poor -> rich);
    # accuracy is monotone up and to the right
    j = len(_SAMP_ASC) - 1
    top = Fidelity(_BEST_Q, _RES_DESC[0], _SAMP_ASC[j], crop)
    (r,) = yield [(profiler, op, top)]
    if not _adequate(r, target):
        return []  # richest corner inadequate => whole plane inadequate
    boundary = []
    for res in _RES_DESC:
        f = Fidelity(_BEST_Q, res, _SAMP_ASC[j], crop)
        (r,) = yield [(profiler, op, f)]
        if _adequate(r, target):
            # walk left: cheaper sampling while still adequate
            while j > 0:
                f2 = Fidelity(_BEST_Q, res, _SAMP_ASC[j - 1], crop)
                (r2,) = yield [(profiler, op, f2)]
                if not _adequate(r2, target):
                    break
                j, f, r = j - 1, f2, r2
        else:
            # walk right: this row's boundary sits at a richer sampling
            found = False
            while j < len(_SAMP_ASC) - 1:
                j += 1
                f = Fidelity(_BEST_Q, res, _SAMP_ASC[j], crop)
                (r,) = yield [(profiler, op, f)]
                if _adequate(r, target):
                    found = True
                    break
            if not found:
                break  # rows below are poorer still — plane exhausted
        boundary.append((f, r))
    return boundary


def _search(profiler: ConsumptionProfiler, op: Operator, target: float) -> Walk:
    """One consumer's search: its crop planes in lockstep, then the quality
    post-pass; returns the chosen ``(fidelity, result)``."""
    planes = yield from _lockstep([_plane(profiler, op, crop, target) for crop in CROPS])
    boundary = [point for plane in planes for point in plane]
    assert boundary, (
        f"no adequate fidelity for <{op.name}, {target}> — ground truth is the "
        "full-fidelity output, so the richest option must be adequate"
    )
    f_best, r_best = min(
        boundary,
        key=lambda t: (t[1].cost, t[0].resolution, float(t[0].sampling), t[0].crop),
    )

    # Quality post-pass: lowering quality keeps cost unchanged (O2) but cuts
    # storage cost; go as low as accuracy stays adequate.
    for q in reversed(QUALITIES[:-1]):  # good, bad, worst — richest first
        f_try = replace(f_best, quality=q)
        (r_try,) = yield [(profiler, op, f_try)]
        if not _adequate(r_try, target):
            break
        f_best, r_best = f_try, r_try
    return f_best, r_best


def derive_consumption_formats(
    searches: list[tuple[ConsumptionProfiler, Operator]], target: float
) -> list[DerivedCF]:
    """Staircase searches of several consumers at one accuracy, in lockstep.

    Every unfinished (operator, crop) plane advances to its next memo miss
    per wave, and each wave is one :func:`profile_batch` call — one Spark
    job across profilers. The searches must be of distinct (profiler,
    operator) pairs: they then share no memo entry, so each sees exactly the
    probes, hits and runs it would see alone.
    """
    if len(set(searches)) != len(searches):
        raise ValueError("each (profiler, operator) may be searched once per wave")
    wave = _lockstep([_search(p, op, target) for p, op in searches])
    probes, found = _advance(wave)
    while probes is not None:
        probes, found = _advance(wave, profile_batch(probes))
    return [DerivedCF(fidelity=f, f1=r.f1, speed_x=r.speed_x) for f, r in found]


def derive_consumption_format(
    profiler: ConsumptionProfiler, op: Operator, target: float
) -> DerivedCF:
    """Staircase boundary search for one consumer's cheapest adequate fidelity."""
    return derive_consumption_formats([(profiler, op)], target)[0]


def exhaustive_consumption_format(
    profiler: ConsumptionProfiler, op: Operator, target: float
) -> DerivedCF:
    """Profile all 600 fidelity options; the Fig 13 baseline."""
    results = profiler.profile_many(op, list(fidelity_space()))
    adequate = [
        (r.cost, f, r)
        for f, r in zip(fidelity_space(), results)
        if _adequate(r, target)
    ]
    assert adequate
    # min cost; among equal-cost options prefer the poorest quality (storage),
    # then the deterministic knob order
    cost, f, r = min(
        adequate,
        key=lambda t: (
            t[0],
            t[1].quality_idx,
            t[1].resolution,
            float(t[1].sampling),
            t[1].crop,
        ),
    )
    return DerivedCF(fidelity=f, f1=r.f1, speed_x=r.speed_x)
