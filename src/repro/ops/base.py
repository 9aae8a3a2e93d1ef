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
mirroring the paper's ground-truth definition (§6.1). It depends only on the
operator's offset and positive rate, so :meth:`Detector.truth` gives it from
the detector at any fidelity: one detector per profiling run suffices.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.formats import FPS, Fidelity, pixel_ratio

#: image-quality base loss (CRF 0/23/40/50); scaled per-op by ``mq``
QUALITY_LOSS = {"best": 0.0, "good": 0.05, "bad": 0.16, "worst": 0.30}

_GOLDEN_RATIO = 0.6180339887498949


@dataclass(frozen=True)
class Operator:
    """One cascade operator with its accuracy/cost/selectivity models."""

    name: str
    query: str  # "A" or "B"
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
        loss_s = self.asamp * (1.0 - f.rate) ** self.psamp * (0.5 + motion)
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
        frames = max(FPS * f.rate, 1.0)
        return 1.0 / (frames * self.cost_per_frame_s(f))

    # -- selectivity ----------------------------------------------------------

    def positive_rate(self, motion: float, event_rate: float) -> float:
        p = self.pos_base + self.pos_motion * motion + self.pos_event * event_rate
        return float(np.clip(p, 0.01, 0.95))

    # -- execution ------------------------------------------------------------

    def detector(self, f: Fidelity, motion: float, event_rate: float) -> "Detector":
        """This operator's detector at fidelity ``f`` on content with the given
        motion and event rate.

        Retention R = analytic accuracy; the false-positive rate is chosen so
        precision == recall == R in expectation, hence measured F1 ~= R.
        """
        pos = self.positive_rate(motion, event_rate)
        r = self.accuracy(f, motion)
        return Detector(
            off=(hashable_index(self.name) + 1) * _GOLDEN_RATIO,
            pos=pos,
            r=r,
            fp=float(np.clip(pos * (1.0 - r) / max(1.0 - pos, 1e-9), 0.0, 1.0)),
        )


@dataclass(frozen=True)
class Detector:
    """One operator's detector at one fidelity: constants computed once,
    applied to any number of frames (latent records with fields ``u, v, w``;
    see :func:`repro.video.frames.segment_frames`).

    Each operator decorrelates the shared frame latents with its own offset
    (stable across fidelities — that is the whole point): shared latents make
    detection sets nested across fidelities.
    """

    off: float  # per-operator latent offset
    pos: float  # positive rate: ground truth is the operator's ``u`` stream below it
    r: float  # true-positive retention (the analytic accuracy)
    fp: float  # false-positive rate

    def truth(self, frames: np.ndarray) -> np.ndarray:
        """Ground-truth labels of ``frames``."""
        return (frames["u"] * 7919.0 + self.off) % 1.0 < self.pos

    def __call__(self, frames: np.ndarray) -> np.ndarray:
        """Predicted labels of ``frames``."""
        gt = self.truth(frames)
        return (gt & ((frames["v"] * 104729.0 + self.off) % 1.0 < self.r)) | (
            ~gt & ((frames["w"] * 1299709.0 + self.off) % 1.0 < self.fp)
        )


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
