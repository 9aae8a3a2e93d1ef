"""Storage-format profiling: (fidelity, coding) -> (size, retrieval speed).

Paper §4.3: "for each pair, VStore profiles a video sample in the would-be
coalesced SF, testing decoding speed and the video sample size". Here one
profiling run evaluates the codec model (:mod:`repro.codec.model`) on the
profiling dataset's content — its size and its retrieval speed for each of
the five legal consumer sampling rates — and ``StorageProfiler.profile`` is
the one lookup into a memo of those results. The §4.3 coding choice reads a
fidelity's 25 encoded codings as a :class:`CodingRow`, built once per
fidelity from ``profile``: the profiles sorted by size, and per sampling rate
a numpy vector of their retrieval speeds, so R2 is one vector comparison per
rate. The run/hit counters count per (fidelity, coding), a row lookup
included, and feed the §6.4 overhead accounting (the paper reports 475
profiled of 15K possible, 92% of examined formats memoized). A §4.3
derivation merges each pair once and adds a replayed merge's lookups to the
hits, as every lookup of a repeated merge would hit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codec.model import retrieval_speed_x, size_kb_per_s
from repro.formats import SAMPLINGS, Coding, Fidelity, StorageFormat, coding_space
from repro.video.datasets import Dataset

#: ``float(s)`` for each legal consumer sampling rate ``s``
_RATES = tuple(float(s) for s in SAMPLINGS)


@dataclass(frozen=True)
class StorageProfile:
    """Measured properties of one storage format on the sample video."""

    fidelity: Fidelity
    coding: Coding
    size_kb_per_s: float
    #: retrieval speed (x-realtime) per legal consumer sampling rate, keyed
    #: by ``float(rate)`` (hashing a float is far cheaper than a Fraction)
    speed_by_sampling: dict[float, float] = field(compare=False, repr=False)


@dataclass(frozen=True)
class CodingRow:
    """A fidelity's 25 encoded profiles, sorted stably by size (so coding
    order breaks ties), and per rate the vector of their retrieval speeds."""

    by_size: tuple[StorageProfile, ...]
    #: ``speeds[rate][i]`` is ``by_size[i].speed_by_sampling[rate]``
    speeds: dict[float, np.ndarray]


class StorageProfiler:
    """Memoizing storage-format profiler over one dataset's sample segment."""

    def __init__(self, ds: Dataset) -> None:
        self.ds = ds
        self.memo: dict[tuple[Fidelity, Coding], StorageProfile] = {}
        self.rows: dict[Fidelity, CodingRow] = {}
        self.runs = 0  # actual profiling work (cache misses)
        self.hits = 0  # memoized reuse

    def profile(self, f: Fidelity, c: Coding) -> StorageProfile:
        """The profile of ``f`` under ``c``; counts one run or one hit."""
        prof = self.memo.get((f, c))
        if prof is None:
            self.runs += 1
            prof = self.memo[f, c] = self._run(f, c)
        else:
            self.hits += 1
        return prof

    def coding_row(self, f: Fidelity) -> CodingRow:
        """``f``'s encoded codings as a :class:`CodingRow`; the first lookup
        runs or hits each coding through :meth:`profile`, every later one
        counts 25 hits."""
        row = self.rows.get(f)
        if row is not None:
            self.hits += len(row.by_size)
            return row
        by_size = tuple(sorted((self.profile(f, c) for c in coding_space()),
                               key=lambda p: p.size_kb_per_s))
        speeds = {r: np.array([p.speed_by_sampling[r] for p in by_size]) for r in _RATES}
        row = self.rows[f] = CodingRow(by_size, speeds)
        return row

    def _run(self, f: Fidelity, c: Coding) -> StorageProfile:
        sf, motion = StorageFormat(f, c), self.ds.motion
        return StorageProfile(
            fidelity=f,
            coding=c,
            size_kb_per_s=size_kb_per_s(f, c, motion),
            speed_by_sampling={r: retrieval_speed_x(sf, r, motion) for r in _RATES},
        )
