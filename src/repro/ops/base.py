"""Synthetic analytics operators (the NoScope / OpenALPR substitute).

Each operator has
- an **accuracy surface**: F1 as a product of monotone per-knob retention
  terms, with a quality x resolution interaction (lower image quality makes
  accuracy more sensitive to resolution — the paper's §2.4 License example);
- a **cost model**: seconds of compute per processed frame,
  ``a * pixel_ratio^gamma + b``; image quality deliberately absent (paper O2);
- a **detector** that labels frames using *shared latent variables*: the
  true-positive set at a richer fidelity is a superset of the set at a poorer
  one and the false-positive set a subset, so the F1 *measured on frames* is
  exactly monotone in every knob (paper O1) — the property the staircase
  search of §4.2 relies on.

Ground truth is the operator's own output at the ingestion fidelity
(best-720p-1-100%), where the retention is 1 and the false-positive rate 0,
mirroring the paper's ground-truth definition (§6.1).
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.formats import FPS, Fidelity, pixel_ratio

#: image-quality base loss (CRF 0/23/40/50); scaled per-op by ``mq``
QUALITY_LOSS = {"best": 0.0, "good": 0.05, "bad": 0.16, "worst": 0.30}

_GOLDEN_RATIO = 0.6180339887498949


@dataclass(frozen=True)
class Operator:
    """One cascade operator with its accuracy/cost/selectivity models."""

    name: str
    query: str  # "A" or "B"
    stage: int  # position in its cascade (0 = scans everything)
    # accuracy surface parameters
    mq: float  # quality-loss multiplier
    ar: float  # resolution loss amplitude
    pr: float  # resolution loss exponent
    asamp: float  # sampling loss amplitude
    psamp: float  # sampling loss exponent
    ac: float  # crop loss amplitude
    iota: float  # quality->resolution interaction strength
    # cost parameters: cost/frame = a * pixel_ratio^gamma + b  (seconds)
    a: float
    gamma: float
    b: float
    # selectivity: fraction of ground-truth-positive frames,
    # pos = pos_base + pos_motion * motion + pos_event * event_rate
    pos_base: float
    pos_motion: float
    pos_event: float

    # -- accuracy -------------------------------------------------------------

    def accuracy(self, f: Fidelity, motion: float) -> float:
        """Analytic F1 of this operator at fidelity ``f`` on content with the
        given motion level. Monotone non-decreasing in every knob."""
        ql = QUALITY_LOSS[f.quality]
        loss_q = self.mq * ql
        loss_r = (
            self.ar * (1.0 - f.resolution / 720.0) ** self.pr * (1.0 + self.iota * ql)
        )
        loss_s = self.asamp * (1.0 - float(f.sampling)) ** self.psamp * (0.5 + motion)
        loss_c = self.ac * (1.0 - f.crop)
        acc = (1 - loss_q) * (1 - min(loss_r, 0.99)) * (1 - min(loss_s, 0.99)) * (1 - loss_c)
        return float(np.clip(acc, 0.01, 1.0))

    # -- cost -----------------------------------------------------------------

    def cost_per_frame_s(self, f: Fidelity) -> float:
        """Compute seconds per processed frame (image quality never appears:
        paper O2 — quality affects size/accuracy but not operator work)."""
        return self.a * pixel_ratio(f) ** self.gamma + self.b

    def consumption_speed_x(self, f: Fidelity) -> float:
        """Consumption speed in x-realtime: the operator processes FPS*s
        frames per video-second."""
        frames = max(FPS * float(f.sampling), 1.0)
        return 1.0 / (frames * self.cost_per_frame_s(f))

    # -- selectivity ----------------------------------------------------------

    def positive_rate(self, motion: float, event_rate: float) -> float:
        p = self.pos_base + self.pos_motion * motion + self.pos_event * event_rate
        return float(np.clip(p, 0.01, 0.95))

    # -- execution ------------------------------------------------------------

    def _streams(self, frames: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decorrelated per-operator latent streams from the shared frame
        latents (stable across fidelities — that is the whole point)."""
        off = (hashable_index(self.name) + 1) * _GOLDEN_RATIO
        u = (frames["u"].to_numpy() * 7919.0 + off) % 1.0
        v = (frames["v"].to_numpy() * 104729.0 + off) % 1.0
        w = (frames["w"].to_numpy() * 1299709.0 + off) % 1.0
        return u, v, w

    def ground_truth(self, frames: pd.DataFrame, motion: float, event_rate: float) -> np.ndarray:
        u, _, _ = self._streams(frames)
        return u < self.positive_rate(motion, event_rate)

    def detect(
        self, frames: pd.DataFrame, f: Fidelity, motion: float, event_rate: float
    ) -> np.ndarray:
        """Predicted labels for every frame at fidelity ``f``.

        Retention R = analytic accuracy; the false-positive rate is chosen so
        precision == recall == R in expectation, hence measured F1 ~= R.
        Shared latents make detection sets nested across fidelities.
        """
        u, v, w = self._streams(frames)
        pos = self.positive_rate(motion, event_rate)
        r = self.accuracy(f, motion)
        fp = float(np.clip(pos * (1.0 - r) / max(1.0 - pos, 1e-9), 0.0, 1.0))
        gt = u < pos
        return (gt & (v < r)) | (~gt & (w < fp))


def hashable_index(name: str) -> int:
    """Stable small integer per operator name (process-independent)."""
    return zlib.crc32(name.encode()) % 97


def f1_score(gt: np.ndarray, pred: np.ndarray) -> float:
    """F1 = harmonic mean of precision and recall (the paper's metric)."""
    tp = int(np.sum(gt & pred))
    fp = int(np.sum(~gt & pred))
    fn = int(np.sum(gt & ~pred))
    if tp == 0:
        return 0.0
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    return 2 * prec * rec / (prec + rec)
