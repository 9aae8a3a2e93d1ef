"""Deterministic synthetic frame / segment generation.

VStore splits streams into 10-second segments (paper §4.1) and retrieves /
deletes each independently. A *frame* here is a record of latent variables,
not pixels: the operator substrate turns latents into detections with the
shared-latent construction that makes measured F1 exactly monotone in fidelity
(DESIGN.md §2). Latents are seeded by (dataset, segment, latent) so every
profiling run, test, and the DuckDB oracle see identical content.

A segment's frames are one numpy structured array, a float field per latent:
- ``u``    — event latent; frame is ground-truth positive for op *i* iff
             ``u_i < positive_rate`` (one independent stream per operator,
             derived from ``u`` via a per-op hash offset).
- ``v``    — detection latent (true-positive survival under fidelity loss).
- ``w``    — false-positive latent.
"""
from __future__ import annotations

import zlib
from fractions import Fraction

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.formats import FPS, SEGMENT_SECONDS
from repro.video.datasets import Dataset

#: frames in one 10-second segment
SEGMENT_FRAMES = SEGMENT_SECONDS * FPS

_LATENTS = np.dtype([("u", np.float64), ("v", np.float64), ("w", np.float64)])


def _seed(dataset_name: str, segment_id: int, salt: int = 0) -> int:
    # crc32 is stable across processes (unlike built-in hash(), which is
    # randomized per interpreter and would differ between Spark workers).
    return zlib.crc32(f"{dataset_name}/{int(segment_id)}/{salt}".encode())


def segment_frames(ds: Dataset, segment_id: int) -> np.ndarray:
    """The latents of one segment's frames: a structured array of
    ``SEGMENT_FRAMES`` frames with fields ``u, v, w`` (deterministic; each
    latent has its own salted generator)."""
    frames = np.empty(SEGMENT_FRAMES, dtype=_LATENTS)
    for i, c in enumerate(_LATENTS.names):
        frames[c] = np.random.default_rng(_seed(ds.name, segment_id, salt=i + 1)).random(
            SEGMENT_FRAMES
        )
    return frames


def sampled_frame_mask(n_frames: int, sampling) -> np.ndarray:
    """Boolean mask of frames an operator actually processes at a given
    frame-sampling rate ``s = p/q``: frame ``i`` is sampled iff
    ``floor(i*s) > floor((i-1)*s)``, in exact integers, so frame 0 is always
    sampled and, whenever ``n_frames * s`` is whole, that many frames are
    (every k-th frame at ``s = 1/k``; 200 of 300 at 2/3, as the cost model
    charges)."""
    s = Fraction(sampling)
    i = np.arange(n_frames, dtype=np.int64)
    return i * s.numerator // s.denominator > (i - 1) * s.numerator // s.denominator


def segment_count(hours: float) -> int:
    """Whole 10-second segments in ``hours`` of video (at least one): what
    :func:`segments_df` generates and a query over ``hours`` executes."""
    return max(1, int(hours * 3600 / SEGMENT_SECONDS))


def segments_df(spark: SparkSession, ds: Dataset, *, hours: float = 1.0) -> DataFrame:
    """Segment metadata for ``hours`` of one stream as a Spark DataFrame."""
    n = segment_count(hours)
    seg = np.arange(n, dtype=np.int64)
    g = np.random.default_rng(_seed(ds.name, -1))
    pdf = pd.DataFrame(
        {
            "dataset": ds.name,
            "segment_id": seg,
            "start_s": seg * SEGMENT_SECONDS,
            "seconds": np.int64(SEGMENT_SECONDS),
            "motion": np.clip(ds.motion + 0.05 * g.standard_normal(n), 0.02, 0.98),
        }
    )
    return spark.createDataFrame(pdf)
