"""The six operators of queries A and B (paper Fig 2) and their accuracy levels.

Query A (NoScope-style car detector): Diff -> S-NN (shallow AlexNet) -> NN
(YOLOv2). Query B (OpenALPR license recognition): Motion -> License -> OCR.

Cost constants are calibrated so consumption speeds land in the paper's
Table 2 ranges (x-realtime):

  Motion ~25-30k at tiny fidelity;  Diff ~3k-34k;  S-NN ~0.5k-8k;
  NN ~4-134;  License ~10-314;  OCR ~11-165.

Accuracy constants reproduce the paper's qualitative structure: Motion is
accurate (>~0.9) even at the poorest fidelity (§6.2 notes VStore picks the
cheapest fidelity for Motion at accuracies <= 0.9); Diff needs only tiny
resolutions; NN/License/OCR are resolution- and quality-hungry, with License
showing the strongest quality x resolution interaction (§2.4).
"""
from __future__ import annotations

from repro.ops.base import Operator

OPERATORS: dict[str, Operator] = {
    op.name: op
    for op in (
        Operator(
            name="diff", query="A",
            mq=0.15, ar=0.35, pr=14.0, asamp=0.03, psamp=1.0, ac=0.02, iota=1.0,
            a=2.0e-4, gamma=1.0, b=2.5e-5,
            pos_base=0.25, pos_motion=0.50, pos_event=0.0,
        ),
        Operator(
            name="snn", query="A",
            mq=0.50, ar=0.30, pr=6.0, asamp=0.15, psamp=1.2, ac=0.08, iota=2.0,
            a=5.5e-4, gamma=0.8, b=1.0e-4,
            pos_base=0.20, pos_motion=0.0, pos_event=0.40,
        ),
        Operator(
            name="nn", query="A",
            mq=0.80, ar=0.70, pr=3.0, asamp=0.20, psamp=1.2, ac=0.20, iota=3.0,
            a=1.1e-2, gamma=0.4, b=1.0e-3,
            pos_base=0.0, pos_motion=0.0, pos_event=1.0,
        ),
        Operator(
            name="motion", query="B",
            mq=0.10, ar=0.03, pr=4.0, asamp=0.012, psamp=1.0, ac=0.04, iota=0.5,
            a=9.0e-4, gamma=1.0, b=3.5e-5,
            pos_base=0.10, pos_motion=0.60, pos_event=0.0,
        ),
        Operator(
            name="license", query="B",
            mq=0.60, ar=0.45, pr=2.5, asamp=0.06, psamp=1.0, ac=0.10, iota=6.0,
            a=5.5e-3, gamma=1.0, b=2.0e-4,
            pos_base=0.08, pos_motion=0.0, pos_event=0.35,
        ),
        Operator(
            name="ocr", query="B",
            mq=0.50, ar=0.55, pr=2.0, asamp=0.05, psamp=1.0, ac=0.08, iota=4.0,
            a=7.0e-3, gamma=0.7, b=5.0e-4,
            pos_base=0.0, pos_motion=0.0, pos_event=0.50,
        ),
    )
}

#: operator cascades by query name (paper Fig 2)
QUERY_A: tuple[str, ...] = ("diff", "snn", "nn")
QUERY_B: tuple[str, ...] = ("motion", "license", "ocr")
CASCADES = {"A": QUERY_A, "B": QUERY_B}

#: accuracy levels the admin declares per operator (paper §6.1); with the six
#: operators they make the 24 consumers
ACCURACY_LEVELS: tuple[float, ...] = (0.95, 0.90, 0.80, 0.70)
