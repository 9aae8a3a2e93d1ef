"""Analytic codec model — the FFmpeg/x264 + NVDEC substitute.

All constants are calibrated to the paper's measurements (see DESIGN.md §2):

- Speed step (x264 preset): up to 40x encode-speed spread, up to 2.5x size
  spread (Fig 3a); faster presets also decode moderately faster.
- Keyframe interval M vs consumer frame-sampling rate s: the decoder only
  touches chunks containing sampled frames, so decode work per video-second is
  ``min(FPS, FPS * s * M)`` frames — up to ~6x decode speedup for sparse
  samplers with small M (Fig 3b), at a storage premium (more keyframes).
- Image quality (CRF 0/23/40/50) scales size ~8x between best and worst and
  slightly affects encode/decode work.
- RAW bypass: ~0.9 B/pixel (packed YUV420-ish), frame-addressable on disk, so
  retrieval is disk-bound and proportional to the *sampled* fraction of
  frames (Table 2b: RAW retrieval 1137x..34132x for sampling 1..1/30).
- Golden-format anchor: best-720p-1-100% at 250-slowest decodes at ~23x
  realtime (the paper's 1->N cap) and sizes ~1.4 MB/s on a ~0.3-motion video.

Costs are returned in deterministic simulated units: KB per video-second,
CPU-cores per stream (encode), and x-realtime retrieval speed.
"""
from __future__ import annotations

from fractions import Fraction

from repro.formats import Coding, Fidelity, StorageFormat, FPS, pixel_ratio, pixels

# ---- calibration tables -----------------------------------------------------

#: encode CPU-cost multiplier per x264 speed step (40x spread, Fig 3a)
SPEED_ENC_COST = {"slowest": 40.0, "slow": 12.0, "med": 4.0, "fast": 1.8, "fastest": 1.0}
#: encoded-size multiplier per speed step (2.5x spread, Fig 3a)
SPEED_SIZE = {"slowest": 1.0, "slow": 1.15, "med": 1.4, "fast": 1.8, "fastest": 2.5}
#: decode per-frame-cost multiplier per speed step (faster presets decode faster)
SPEED_DEC_COST = {"slowest": 1.0, "slow": 0.85, "med": 0.7, "fast": 0.5, "fastest": 0.35}

#: size multiplier per image quality (CRF 0 "best" is near-lossless and huge)
QUALITY_SIZE = {"worst": 0.12, "bad": 0.22, "good": 0.45, "best": 1.0}
#: encode-cost multiplier per quality
QUALITY_ENC = {"worst": 0.7, "bad": 0.8, "good": 1.0, "best": 1.3}
#: decode-cost multiplier per quality
QUALITY_DEC = {"worst": 0.85, "bad": 0.9, "good": 1.0, "best": 1.2}

#: base encoded bitrate (KB per video-second) at best-720p-1-100%, slowest
#: preset, keyframe interval 250, on a motion=0.3 stream
BITRATE_720_BEST_KBPS = 1360.0
#: raw bytes per pixel (packed planar YUV)
RAW_BYTES_PER_PIXEL = 0.9
#: effective sequential/related read bandwidth of the disk array (KB/s);
#: paper platform: 4x10K SAS RAID5 (~"1 GB/s" text, ~2 GB/s implied by the
#: RAW retrieval speeds in Table 2b — we calibrate to the table)
DISK_KB_PER_S = 2_000_000.0

#: CPU-cores needed to encode one video-second per second at 720p/100%,
#: fastest preset, motion=0.3; calibrated so the 4-SF VStore configuration
#: ingests one stream with ~10 cores (Fig 11c)
ENC_CORES_720_FASTEST = 0.16
#: NVDEC per-frame decode cost (s) at 720p/100%, slowest preset, best quality;
#: anchors golden decode at ~23x realtime for a full-rate consumer
DEC_COST_720_FRAME_S = 1.0 / (23.0 * FPS * 1.2)

#: keyframe-interval size premium: more keyframes -> larger stream
def _kfi_size(m: int) -> float:
    return 1.0 + 8.0 / m


def _motion_factor(motion: float) -> float:
    """Coding effectiveness vs content motion; ~0.93 at motion 0.3, ~1.9 at
    dashcam-like 0.85 (dashcam stores/ingests ~2x dearer, Fig 11b/c)."""
    return 0.5 + 1.7 * motion


def _sampling_size_factor(s: float) -> float:
    """Temporal subsampling shrinks streams sublinearly (less inter-frame
    redundancy left to exploit): s^0.45."""
    return s ** 0.45


# ---- sizes ------------------------------------------------------------------

def raw_size_kb_per_s(f: Fidelity) -> float:
    """On-disk KB per video-second when storing raw frames (coding bypass)."""
    frames = FPS * f.rate
    return frames * pixels(f) * RAW_BYTES_PER_PIXEL / 1024.0


def encoded_size_kb_per_s(f: Fidelity, c: Coding, motion: float) -> float:
    """Encoded KB per video-second for storage format <f, c>."""
    assert not c.raw
    return (
        BITRATE_720_BEST_KBPS
        * (_motion_factor(motion) / _motion_factor(0.3))
        * QUALITY_SIZE[f.quality]
        * pixel_ratio(f) ** 0.8
        * _sampling_size_factor(f.rate)
        * SPEED_SIZE[c.speed_step]
        * _kfi_size(c.keyframe_interval)
    )


def size_kb_per_s(f: Fidelity, c: Coding, motion: float) -> float:
    """KB per video-second of storage format <f, c> (raw or encoded)."""
    return raw_size_kb_per_s(f) if c.raw else encoded_size_kb_per_s(f, c, motion)


# ---- ingestion (encode) -----------------------------------------------------

def encode_cost_cores(f: Fidelity, c: Coding, motion: float) -> float:
    """CPU cores needed to transcode one realtime stream into <f, c>.

    RAW bypass skips the encoder; a small resize/copy cost remains.
    """
    if c.raw:
        return 0.01 * pixel_ratio(f) * f.rate
    return (
        ENC_CORES_720_FASTEST
        * pixel_ratio(f) ** 0.9
        * f.rate
        * QUALITY_ENC[f.quality]
        * SPEED_ENC_COST[c.speed_step]
        * (_motion_factor(motion) / _motion_factor(0.3))
    )


# ---- retrieval (decode / disk) ----------------------------------------------

def decoded_frames_per_s(consumer_sampling: Fraction | float, kfi: int) -> float:
    """Frames the decoder must touch per video-second when the consumer
    samples at rate s and chunks are M frames long.

    Sampled frames/s = FPS*s; the decoder decodes every chunk containing a
    sampled frame (M frames each) and can skip the rest, so decoded frames/s
    = min(FPS, FPS*s*M) — the paper's Fig 3b chunk-skipping model.
    """
    return min(float(FPS), FPS * float(consumer_sampling) * kfi)


def decode_speed_x(f: Fidelity, c: Coding, consumer_sampling: Fraction | float, motion: float) -> float:
    """Decode throughput in x-realtime for a consumer sampling at the given
    rate from storage format <f, c> (encoded)."""
    assert not c.raw
    frames = decoded_frames_per_s(consumer_sampling, c.keyframe_interval)
    per_frame = (
        DEC_COST_720_FRAME_S
        * pixel_ratio(f)
        * SPEED_DEC_COST[c.speed_step]
        * QUALITY_DEC[f.quality]
        * (0.9 + 0.35 * motion)
    )
    return 1.0 / (frames * per_frame)


def raw_retrieval_speed_x(f: Fidelity, consumer_sampling: Fraction | float) -> float:
    """Disk-bound retrieval speed (x-realtime) for raw storage: frames are
    individually addressable, so only the sampled fraction is read."""
    stored = f.rate
    wanted = min(float(consumer_sampling), stored)
    kb = raw_size_kb_per_s(f) * (wanted / stored)
    return DISK_KB_PER_S / max(kb, 1e-9)


def retrieval_speed_x(sf: StorageFormat, consumer_sampling: Fraction | float, motion: float) -> float:
    """Retrieval speed (x-realtime) of a storage format for one consumer."""
    if sf.coding.raw:
        return raw_retrieval_speed_x(sf.fidelity, consumer_sampling)
    return decode_speed_x(sf.fidelity, sf.coding, consumer_sampling, motion)
