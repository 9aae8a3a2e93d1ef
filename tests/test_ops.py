"""Operator substrate: O1 monotonicity, O2 quality-costless, interactions."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.formats import CROPS, QUALITIES, RESOLUTIONS, SAMPLINGS, Fidelity
from repro.ops.base import f1_score
from repro.ops.library import (
    ACCURACY_LEVELS,
    OPERATORS,
    QUERY_A,
    QUERY_B,
)
from repro.video.datasets import DATASETS, PROFILING_DATASET
from repro.video.frames import segment_frames

S = Fraction
OPS = list(OPERATORS)


def ds_of(op):
    return DATASETS[PROFILING_DATASET[op.query]]


def chain(knob):
    """A chain of fidelities increasing only in `knob` (others fixed mid)."""
    base = dict(quality="good", resolution=360, sampling=S(1, 2), crop=0.75)
    values = {
        "quality": QUALITIES,
        "resolution": RESOLUTIONS,
        "sampling": sorted(SAMPLINGS),
        "crop": CROPS,
    }[knob]
    out = []
    for v in values:
        kw = dict(base)
        kw[knob] = v
        out.append(Fidelity(**kw))
    return out


class TestLibrary:
    def test_six_operators(self):
        assert len(OPERATORS) == 6

    def test_cascades(self):
        assert QUERY_A == ("diff", "snn", "nn")
        assert QUERY_B == ("motion", "license", "ocr")

    def test_24_consumers(self):
        # 6 operators x 4 accuracy levels (§6.1)
        assert len(OPERATORS) * len(ACCURACY_LEVELS) == 24
        assert ACCURACY_LEVELS == (0.95, 0.90, 0.80, 0.70)

    def test_lookup(self):
        assert OPERATORS["nn"].query == "A"

    def test_stage_order(self):
        for q in (QUERY_A, QUERY_B):
            assert [OPERATORS[n].stage for n in q] == [0, 1, 2]


class TestO1MonotonicAccuracy:
    @pytest.mark.parametrize(
        "op_name,knob", itertools.product(OPS, ["quality", "resolution", "sampling", "crop"])
    )
    def test_accuracy_nondecreasing(self, op_name, knob):
        op = OPERATORS[op_name]
        accs = [op.accuracy(f, ds_of(op).motion) for f in chain(knob)]
        assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))

    @pytest.mark.parametrize("op_name", OPS)
    def test_full_fidelity_is_perfect(self, op_name):
        # ground truth = operator output at the ingestion fidelity (§6.1)
        op = OPERATORS[op_name]
        assert op.accuracy(Fidelity("best", 720, S(1), 1.0), ds_of(op).motion) == pytest.approx(1.0)

    @pytest.mark.parametrize("op_name", OPS)
    def test_accuracy_in_unit_interval(self, op_name):
        op = OPERATORS[op_name]
        for f in [Fidelity("worst", 60, S(1, 30), 0.5), Fidelity("bad", 200, S(1, 2), 0.75)]:
            assert 0.0 < op.accuracy(f, ds_of(op).motion) <= 1.0


class TestO2QualityCostless:
    @pytest.mark.parametrize("op_name", OPS)
    def test_cost_independent_of_quality(self, op_name):
        # §4.2 O2: image quality does not impact consumption cost
        op = OPERATORS[op_name]
        costs = {
            op.cost_per_frame_s(Fidelity(q, 360, S(1, 2), 0.75)) for q in QUALITIES
        }
        assert len(costs) == 1

    @pytest.mark.parametrize("op_name", OPS)
    def test_cost_monotone_in_resolution(self, op_name):
        op = OPERATORS[op_name]
        costs = [op.cost_per_frame_s(Fidelity("good", r, S(1), 1.0)) for r in RESOLUTIONS]
        assert costs == sorted(costs)

    @pytest.mark.parametrize("op_name", OPS)
    def test_speed_monotone_in_sampling(self, op_name):
        op = OPERATORS[op_name]
        speeds = [
            op.consumption_speed_x(Fidelity("good", 360, s, 1.0))
            for s in sorted(SAMPLINGS)
        ]
        assert speeds == sorted(speeds, reverse=True)


class TestSpeedCalibration:
    """Per-operator speed ranges from Table 2 (orders of magnitude only)."""

    @pytest.mark.parametrize(
        "op_name,f,lo,hi",
        [
            ("motion", Fidelity("bad", 144, S(1, 30), 0.75), 15_000, 45_000),
            ("diff", Fidelity("best", 60, S(1, 30), 0.75), 20_000, 50_000),
            ("snn", Fidelity("best", 200, S(1), 0.5), 150, 900),
            ("nn", Fidelity("good", 600, S(2, 3), 1.0), 2, 8),
            ("license", Fidelity("best", 540, S(1), 1.0), 5, 20),
            ("ocr", Fidelity("best", 720, S(1, 2), 1.0), 6, 20),
        ],
    )
    def test_anchor(self, op_name, f, lo, hi):
        assert lo < OPERATORS[op_name].consumption_speed_x(f) < hi

    def test_three_orders_of_magnitude_across_ops(self):
        # §2.1: operator costs in a cascade differ by three orders of
        # magnitude — compared at their typical operating fidelities
        # (early ops scan cheap/sparse frames; late ops get rich ones)
        early = OPERATORS["motion"].consumption_speed_x(
            Fidelity("bad", 144, S(1, 30), 0.75)
        )
        late = OPERATORS["nn"].consumption_speed_x(
            Fidelity("good", 600, S(2, 3), 1.0)
        )
        assert early / late > 1000


class TestInteraction:
    @pytest.mark.parametrize("op_name", ["license", "nn", "ocr"])
    def test_resolution_drop_hurts_more_at_low_quality(self, op_name):
        # §2.4: "as image quality worsens, accuracy becomes more sensitive to
        # resolution changes" — the License example
        op = OPERATORS[op_name]
        m = ds_of(op).motion

        def drop(q):
            hi = op.accuracy(Fidelity(q, 720, S(1), 1.0), m)
            lo = op.accuracy(Fidelity(q, 360, S(1), 1.0), m)
            return hi - lo

        assert drop("bad") > drop("good") > drop("best") - 1e-12

    def test_motion_sensitive_sampling(self):
        # high-motion content punishes sparse sampling more
        op = OPERATORS["nn"]
        f = Fidelity("best", 720, S(1, 30), 1.0)
        assert op.accuracy(f, 0.85) < op.accuracy(f, 0.15)


class TestDetection:
    @pytest.mark.parametrize("op_name", OPS)
    def test_nested_detection_sets(self, op_name):
        # richer fidelity => superset of true positives, subset of false
        # positives (the shared-latent construction O1 relies on)
        op = OPERATORS[op_name]
        ds = ds_of(op)
        frames = segment_frames(ds, 0)
        gt = op.ground_truth(frames, ds.motion, ds.event_rate)
        poor = op.detect(frames, Fidelity("bad", 200, S(1, 6), 0.75), ds.motion, ds.event_rate)
        rich = op.detect(frames, Fidelity("best", 540, S(1), 1.0), ds.motion, ds.event_rate)
        assert np.all(~(poor & gt) | (rich & gt) | ~gt)  # TP(poor) ⊆ TP(rich)
        assert np.all(~(rich & ~gt) | (poor & ~gt) | gt)  # FP(rich) ⊆ FP(poor)

    @pytest.mark.parametrize("op_name", OPS)
    def test_full_fidelity_equals_ground_truth(self, op_name):
        op = OPERATORS[op_name]
        ds = ds_of(op)
        frames = segment_frames(ds, 1)
        gt = op.ground_truth(frames, ds.motion, ds.event_rate)
        pred = op.detect(frames, Fidelity("best", 720, S(1), 1.0), ds.motion, ds.event_rate)
        assert np.array_equal(gt, pred)

    @pytest.mark.parametrize("op_name", OPS)
    def test_measured_f1_close_to_analytic(self, op_name):
        op = OPERATORS[op_name]
        ds = ds_of(op)
        frames = segment_frames(ds, 2)
        f = Fidelity("good", 400, S(1, 2), 1.0)
        gt = op.ground_truth(frames, ds.motion, ds.event_rate)
        pred = op.detect(frames, f, ds.motion, ds.event_rate)
        assert f1_score(gt, pred) == pytest.approx(op.accuracy(f, ds.motion), abs=0.08)

    def test_ground_truth_rate_close_to_model(self):
        op = OPERATORS["diff"]
        ds = ds_of(op)
        frames = segment_frames(ds, 3)
        rate = op.ground_truth(frames, ds.motion, ds.event_rate).mean()
        assert rate == pytest.approx(op.positive_rate(ds.motion, ds.event_rate), abs=0.08)

    def test_positive_rate_clipped(self):
        assert 0.01 <= OPERATORS["nn"].positive_rate(0.99, 0.99) <= 0.95


class TestF1Score:
    def test_perfect(self):
        gt = np.array([True, False, True])
        assert f1_score(gt, gt) == 1.0

    def test_no_predictions(self):
        gt = np.array([True, True, False])
        assert f1_score(gt, np.zeros(3, bool)) == 0.0

    def test_half_recall_full_precision(self):
        gt = np.array([True, True, False, False])
        pred = np.array([True, False, False, False])
        # precision 1, recall .5 => F1 = 2/3
        assert f1_score(gt, pred) == pytest.approx(2 / 3)

    def test_symmetric_formula(self):
        gt = np.array([True] * 6 + [False] * 6)
        pred = np.array([True] * 4 + [False] * 4 + [True] * 4)
        tp, fp, fn = 4, 4, 2
        want = 2 * tp / (2 * tp + fp + fn)
        assert f1_score(gt, pred) == pytest.approx(want)
