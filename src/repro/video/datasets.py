"""The six benchmark videos as synthetic content profiles (paper §6.1).

The paper evaluates on jackson / miami / tucson (query A: Diff -> S-NN -> NN)
and dashcam / park / airport (query B: Motion -> License -> OCR), all ingested
at 720p30 h264. We have no video data, so each dataset is a content profile:

- ``motion``: fraction of inter-frame change (dash cameras ~0.85; quiet
  parking lots ~0.15). Drives coding cost/size (motion makes compression less
  effective — the paper's dashcam fills a 10 TB drive in 4 days under N->N)
  and sampling-related accuracy loss (high motion punishes sparse sampling).
- ``event_rate``: fraction of frames containing a query-relevant event
  (cars / plates / moving objects); drives cascade selectivity.

Profiles are the only thing the VStore algorithms ever observe about a video,
so this substitution preserves the behaviour being studied (see DESIGN.md §2).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Dataset:
    """Content profile of one ingested camera stream."""

    name: str
    motion: float  # 0..1, inter-frame change intensity
    event_rate: float  # 0..1, fraction of frames with query-relevant events
    query: str  # "A" or "B" — which query the paper benchmarks on it

    def __post_init__(self) -> None:
        if not (0.0 < self.motion < 1.0 and 0.0 < self.event_rate < 1.0):
            raise ValueError(f"{self.name}: motion and event_rate must be in (0, 1)")
        if self.query not in ("A", "B"):
            raise ValueError(f"{self.name}: query must be 'A' or 'B', not {self.query!r}")


DATASETS: dict[str, Dataset] = {
    d.name: d
    for d in (
        Dataset("jackson", motion=0.25, event_rate=0.40, query="A"),  # surveillance, town square
        Dataset("miami", motion=0.35, event_rate=0.45, query="A"),  # surveillance, crosswalk
        Dataset("tucson", motion=0.30, event_rate=0.35, query="A"),  # surveillance, avenue
        Dataset("dashcam", motion=0.85, event_rate=0.50, query="B"),  # dash camera, parking lot
        Dataset("park", motion=0.15, event_rate=0.20, query="B"),  # surveillance, parking lot
        Dataset("airport", motion=0.20, event_rate=0.25, query="B"),  # surveillance, airport parking
    )
}

#: Dataset each operator library is profiled on (paper §6.1: query-A operators
#: on jackson, query-B operators on dashcam).
PROFILING_DATASET = {"A": "jackson", "B": "dashcam"}
