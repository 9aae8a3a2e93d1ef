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

Each operator has one profiler and its memo keys include the operator, so an
operator's searches over all accuracies, run richest first, meet the same memo
history wherever they run: on the driver, or whole inside one Spark task
(``repro.core.config`` runs the spark-mode derivation that way).

``exhaustive_consumption_format`` profiles the full space — the baseline the
paper compares against in Fig 13 (9-15x more profiling runs) and the oracle
our tests check the staircase against.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from repro.formats import (
    CROPS,
    QUALITIES,
    RESOLUTIONS,
    SAMPLINGS,
    Fidelity,
    fidelity_space,
)
from repro.ops.base import Operator
from repro.profiler.consumption import ConsumptionProfiler, ProfileResult


@dataclass(frozen=True)
class DerivedCF:
    """A derived consumption format: its fidelity and profiled result."""

    fidelity: Fidelity
    f1: float
    speed_x: float


def _adequate(r: ProfileResult, target: float) -> bool:
    return r.f1 >= target


_BEST_Q = QUALITIES[-1]
_RES_DESC = sorted(RESOLUTIONS, reverse=True)
_SAMP_ASC = sorted(SAMPLINGS)


def _plane(
    profiler: ConsumptionProfiler, op: Operator, crop: float, target: float
) -> list[tuple[Fidelity, ProfileResult]]:
    """Staircase walk of one resolution x sampling plane; returns its
    accuracy-boundary points as ``(fidelity, result)``."""
    # rows = resolution (rich -> poor), cols = sampling (poor -> rich);
    # accuracy is monotone up and to the right
    def probe(res: int, j: int) -> tuple[Fidelity, ProfileResult]:
        f = Fidelity(_BEST_Q, res, _SAMP_ASC[j], crop)
        return f, profiler.profile(op, f)

    j = len(_SAMP_ASC) - 1
    if not _adequate(probe(_RES_DESC[0], j)[1], target):
        return []  # richest corner inadequate => whole plane inadequate
    boundary = []
    for res in _RES_DESC:
        f, r = probe(res, j)
        if _adequate(r, target):
            # walk left: cheaper sampling while still adequate
            while j > 0:
                f2, r2 = probe(res, j - 1)
                if not _adequate(r2, target):
                    break
                j, f, r = j - 1, f2, r2
        else:
            # walk right: this row's boundary sits at a richer sampling
            while j < len(_SAMP_ASC) - 1 and not _adequate(r, target):
                j += 1
                f, r = probe(res, j)
            if not _adequate(r, target):
                break  # rows below are poorer still — plane exhausted
        boundary.append((f, r))
    return boundary


def derive_consumption_format(
    profiler: ConsumptionProfiler, op: Operator, target: float
) -> DerivedCF:
    """Staircase boundary search for one consumer's cheapest adequate
    fidelity: the crop planes, then the quality post-pass."""
    boundary = [point for crop in CROPS for point in _plane(profiler, op, crop, target)]
    assert boundary, (
        f"no adequate fidelity for <{op.name}, {target}> — ground truth is the "
        "full-fidelity output, so the richest option must be adequate"
    )
    f_best, r_best = min(
        boundary,
        key=lambda t: (t[1].cost, t[0].resolution, t[0].rate, t[0].crop),
    )

    # Quality post-pass: lowering quality keeps cost unchanged (O2) but cuts
    # storage cost; go as low as accuracy stays adequate.
    for q in reversed(QUALITIES[:-1]):  # good, bad, worst — richest first
        f_try = replace(f_best, quality=q)
        r_try = profiler.profile(op, f_try)
        if not _adequate(r_try, target):
            break
        f_best, r_best = f_try, r_try
    return DerivedCF(fidelity=f_best, f1=r_best.f1, speed_x=r_best.speed_x)


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
            t[1].idx[0],
            t[1].resolution,
            t[1].rate,
            t[1].crop,
        ),
    )
    return DerivedCF(fidelity=f, f1=r.f1, speed_x=r.speed_x)
