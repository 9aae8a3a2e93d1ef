"""Storage-format profiling: (fidelity, coding) -> (size, retrieval speed).

Paper §4.3: "for each pair, VStore profiles a video sample in the would-be
coalesced SF, testing decoding speed and the video sample size". Here one
profiling run evaluates the codec model (:mod:`repro.codec.model`) on the
profiling dataset's content — its size and its retrieval speed for each of
the five legal consumer sampling rates — and the profiler is a memo over those
results, keyed by fidelity and then by coding, so one fidelity lookup serves a
whole row of codings (the §4.3 coding choice tries all 25). The run/hit
counters count per (fidelity, coding) and feed the §6.4 overhead accounting
(the paper reports 475 profiled of 15K possible, 92% of examined formats
memoized).
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from repro.codec.model import retrieval_speed_x, size_kb_per_s
from repro.formats import SAMPLINGS, Coding, Fidelity, StorageFormat
from repro.video.datasets import Dataset


@dataclass(frozen=True)
class StorageProfile:
    """Measured properties of one storage format on the sample video."""

    fidelity: Fidelity
    coding: Coding
    size_kb_per_s: float
    #: retrieval speed (x-realtime) per legal consumer sampling rate, keyed
    #: by ``float(rate)`` (hashing a float is far cheaper than a Fraction)
    speed_by_sampling: dict[float, float] = field(compare=False, repr=False)

    def retrieval_speed_x(self, consumer_sampling: Fraction | float) -> float:
        """Retrieval speed (x-realtime) for a consumer sampling at the given
        rate — decode-bound for encoded formats, disk-bound for RAW."""
        return self.speed_by_sampling[float(consumer_sampling)]


class StorageProfiler:
    """Memoizing storage-format profiler over one dataset's sample segment."""

    def __init__(self, ds: Dataset) -> None:
        self.ds = ds
        #: memo[fidelity][coding]
        self.memo: dict[Fidelity, dict[Coding, StorageProfile]] = {}
        self.runs = 0  # actual profiling work (cache misses)
        self.hits = 0  # memoized reuse

    def profile(self, f: Fidelity, c: Coding) -> StorageProfile:
        return self.profiles(f, (c,))[0]

    def profiles(self, f: Fidelity, codings: Iterable[Coding]) -> list[StorageProfile]:
        """The profiles of ``f`` under each of ``codings``, in order; each
        (fidelity, coding) counts one run or one hit."""
        row = self.memo.setdefault(f, {})
        out = []
        for c in codings:
            prof = row.get(c)
            if prof is None:
                self.runs += 1
                prof = row[c] = self._run(f, c)
            else:
                self.hits += 1
            out.append(prof)
        return out

    def _run(self, f: Fidelity, c: Coding) -> StorageProfile:
        sf, motion = StorageFormat(f, c), self.ds.motion
        return StorageProfile(
            fidelity=f,
            coding=c,
            size_kb_per_s=size_kb_per_s(f, c, motion),
            speed_by_sampling={
                float(s): retrieval_speed_x(sf, s, motion) for s in SAMPLINGS
            },
        )
