"""Video format knobs and the richer-than partial order (paper §2.3, Table 1).

A *fidelity option* is a point in the 4-D space quality x crop x resolution x
frame-sampling (|F| = 4*3*10*5 = 600). A *coding option* is a point in the 2-D
space speed-step x keyframe-interval (|C| = 25), or the RAW bypass. A *storage
format* is <fidelity, coding>; |F x C| = 15_000, matching the paper's "15K".

Sampling values follow Table 2 of the evaluation (1/6 rather than Table 1's
1/5 — the paper is internally inconsistent; the derived formats use 1/6).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

FPS = 30
SEGMENT_SECONDS = 10

QUALITIES: tuple[str, ...] = ("worst", "bad", "good", "best")  # CRF 50/40/23/0
CROPS: tuple[float, ...] = (0.5, 0.75, 1.0)
RESOLUTIONS: tuple[int, ...] = (60, 100, 144, 180, 200, 360, 400, 540, 600, 720)
SAMPLINGS: tuple[Fraction, ...] = (
    Fraction(1, 30),
    Fraction(1, 6),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1, 1),
)

SPEED_STEPS: tuple[str, ...] = ("slowest", "slow", "med", "fast", "fastest")
KEYFRAME_INTERVALS: tuple[int, ...] = (5, 10, 50, 100, 250)

_QIDX = {q: i for i, q in enumerate(QUALITIES)}
_SIDX = {s: i for i, s in enumerate(SPEED_STEPS)}


@dataclass(frozen=True)
class Fidelity:
    """One fidelity option f = <quality, resolution, sampling, crop>."""

    quality: str
    resolution: int
    sampling: Fraction
    crop: float

    def __post_init__(self) -> None:
        if not (
            self.quality in _QIDX
            and self.resolution in RESOLUTIONS
            and self.sampling in SAMPLINGS
            and self.crop in CROPS
        ):
            raise ValueError(f"illegal knob value in {self!r}")

    @property
    def quality_idx(self) -> int:
        return _QIDX[self.quality]

    def richer_eq(self, other: "Fidelity") -> bool:
        """True iff self is richer-than-or-equal on *every* knob (partial order)."""
        return (
            self.quality_idx >= other.quality_idx
            and self.resolution >= other.resolution
            and self.sampling >= other.sampling
            and self.crop >= other.crop
        )

    def strictly_richer(self, other: "Fidelity") -> bool:
        return self.richer_eq(other) and self != other

    def label(self) -> str:
        s = self.sampling
        samp = "1" if s == 1 else f"{s.numerator}/{s.denominator}"
        return f"{self.quality}-{self.resolution}p-{samp}-{int(self.crop * 100)}%"


def knobwise_max(*fs: Fidelity) -> Fidelity:
    """Least fidelity richer-or-equal to all inputs (join in the knob lattice)."""
    assert fs
    return Fidelity(
        quality=QUALITIES[max(f.quality_idx for f in fs)],
        resolution=max(f.resolution for f in fs),
        sampling=max(f.sampling for f in fs),
        crop=max(f.crop for f in fs),
    )


@dataclass(frozen=True)
class Coding:
    """One coding option c = <speed_step, keyframe_interval> or RAW bypass."""

    speed_step: str = "med"
    keyframe_interval: int = 50
    raw: bool = False

    def __post_init__(self) -> None:
        if not self.raw and not (
            self.speed_step in _SIDX and self.keyframe_interval in KEYFRAME_INTERVALS
        ):
            raise ValueError(f"illegal knob value in {self!r}")

    @property
    def speed_idx(self) -> int:
        return _SIDX[self.speed_step]

    def label(self) -> str:
        return "RAW" if self.raw else f"{self.keyframe_interval}-{self.speed_step}"


RAW = Coding(raw=True)
#: The "slowest coding option incurring the lowest storage cost" (§4.3),
#: used for the golden storage format.
GOLDEN_CODING = Coding("slowest", 250)


@dataclass(frozen=True)
class StorageFormat:
    """On-disk video version SF = <fidelity, coding> (paper §3.1)."""

    fidelity: Fidelity
    coding: Coding

    def label(self) -> str:
        return f"{self.fidelity.label()} [{self.coding.label()}]"


@lru_cache(maxsize=1)
def fidelity_space() -> tuple[Fidelity, ...]:
    """All 600 fidelity options, in a deterministic order."""
    return tuple(
        Fidelity(q, r, s, c)
        for q, r, s, c in itertools.product(QUALITIES, RESOLUTIONS, SAMPLINGS, CROPS)
    )


@lru_cache(maxsize=1)
def coding_space() -> tuple[Coding, ...]:
    """All 25 encoded coding options (RAW is the separate bypass)."""
    return tuple(
        Coding(step, kfi)
        for step, kfi in itertools.product(SPEED_STEPS, KEYFRAME_INTERVALS)
    )


def cheaper_coding(c: Coding) -> Coding | None:
    """Next coding option with cheaper encoding (one speed step faster), or
    None if already fastest / RAW. Keyframe interval is kept — Table 3 shows
    VStore tuning only the speed step under ingestion pressure."""
    if c.raw or c.speed_idx == len(SPEED_STEPS) - 1:
        return None
    return replace(c, speed_step=SPEED_STEPS[c.speed_idx + 1])


def pixels(f: Fidelity) -> float:
    """Pixel count per frame at 16:9 aspect, scaled by the crop factor."""
    return f.resolution * (f.resolution * 16.0 / 9.0) * f.crop


PIXELS_720P = pixels(Fidelity("best", 720, Fraction(1), 1.0))


def pixel_ratio(f: Fidelity) -> float:
    """Pixels of f relative to full 720p/100% frames (in (0, 1])."""
    return pixels(f) / PIXELS_720P
