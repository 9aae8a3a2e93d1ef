"""Profiling substrate: memoization, mode equivalence, counters."""
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from repro.codec.model import raw_retrieval_speed_x, retrieval_speed_x, size_kb_per_s
from repro.formats import Coding, Fidelity, RAW, SAMPLINGS, StorageFormat, coding_space
from repro.ops.library import OPERATORS
from repro.profiler.consumption import SAMPLE_SEGMENT, ConsumptionProfiler, _sample_clip
from repro.profiler.storage import StorageProfiler
from repro.video.datasets import DATASETS
from repro.video.frames import segment_frames
from tests.analytic import AnalyticProfiler

S = Fraction
F1 = Fidelity("good", 360, S(1, 2), 0.75)
F2 = Fidelity("best", 720, S(1), 1.0)
DIFF = OPERATORS["diff"]
# same name as the library operator but a different model, and a new name
DIFF_VARIANT = dataclasses.replace(DIFF, ar=0.9, a=3 * DIFF.a)
CUSTOM = dataclasses.replace(DIFF_VARIANT, name="custom")


class TestConsumptionProfiler:
    def test_memoization(self):
        p = ConsumptionProfiler(DATASETS["jackson"], mode="local")
        op = OPERATORS["diff"]
        a = p.profile(op, F1)
        assert (p.runs, p.hits) == (1, 0)
        b = p.profile(op, F1)
        assert (p.runs, p.hits) == (1, 1)
        assert a == b

    def test_memo_is_per_operator(self):
        p = ConsumptionProfiler(DATASETS["jackson"], mode="local")
        p.profile(OPERATORS["diff"], F1)
        p.profile(OPERATORS["snn"], F1)
        assert p.runs == 2

    def test_memo_keys_on_operator_not_name(self):
        # a same-named variant must get its own profile, not diff's memo entry
        f = Fidelity("best", 200, S(1, 2), 1.0)
        shared = ConsumptionProfiler(DATASETS["jackson"], mode="local")
        shared.profile(DIFF, f)
        fresh = ConsumptionProfiler(DATASETS["jackson"], mode="local")
        assert shared.profile(DIFF_VARIANT, f) == fresh.profile(DIFF_VARIANT, f)
        assert shared.runs == 2

    def test_batch_dedupes(self):
        p = ConsumptionProfiler(DATASETS["jackson"], mode="local")
        rs = p.profile_many(OPERATORS["diff"], [F1, F1, F2])
        assert p.runs == 2 and len(rs) == 3
        assert rs[0] == rs[1]

    def test_analytic_matches_model(self):
        p = AnalyticProfiler(DATASETS["dashcam"])
        op = OPERATORS["license"]
        r = p.profile(op, F1)
        assert r.f1 == pytest.approx(op.accuracy(F1, DATASETS["dashcam"].motion))
        assert r.speed_x == pytest.approx(op.consumption_speed_x(F1))

    def test_local_close_to_analytic(self):
        pl = ConsumptionProfiler(DATASETS["jackson"], mode="local")
        pa = AnalyticProfiler(DATASETS["jackson"])
        op = OPERATORS["snn"]
        assert pl.profile(op, F1).f1 == pytest.approx(pa.profile(op, F1).f1, abs=0.08)

    def test_sample_clip_is_shared_and_read_only(self):
        ds = DATASETS["jackson"]
        clip = _sample_clip(ds)
        assert _sample_clip(ds) is clip
        assert np.array_equal(clip, segment_frames(ds, SAMPLE_SEGMENT))
        with pytest.raises(ValueError):
            clip["u"][0] = 0.0

    def test_cost_is_reciprocal_speed(self):
        p = AnalyticProfiler(DATASETS["jackson"])
        r = p.profile(OPERATORS["diff"], F1)
        assert r.cost == pytest.approx(1.0 / r.speed_x)

    @pytest.mark.parametrize("op", [DIFF, DIFF_VARIANT, CUSTOM], ids=["diff", "variant", "custom"])
    def test_spark_equals_local(self, spark, op):
        ps = ConsumptionProfiler(DATASETS["miami"], spark, mode="spark")
        pl = ConsumptionProfiler(DATASETS["miami"], mode="local")
        fs = [F1, F2, Fidelity("worst", 100, S(1, 30), 0.5)]
        for a, b in zip(ps.profile_many(op, fs), pl.profile_many(op, fs)):
            assert a.f1 == pytest.approx(b.f1, abs=1e-12)
            assert a.speed_x == pytest.approx(b.speed_x)

    def test_spark_mode_requires_session(self):
        with pytest.raises(ValueError):
            ConsumptionProfiler(DATASETS["miami"], None, mode="spark")

    def test_unknown_mode_rejected(self):
        # ``analytic`` is a test-side profiler (tests/analytic.py), not a mode
        for mode in ("gpu", "analytic"):
            with pytest.raises(ValueError):
                ConsumptionProfiler(DATASETS["miami"], mode=mode)


class TestStorageProfiler:
    def test_memoization(self):
        p = StorageProfiler(DATASETS["dashcam"])
        c = Coding("fast", 10)
        p.profile(F1, c)
        p.profile(F1, c)
        assert (p.runs, p.hits) == (1, 1)

    def test_row_lookup_counts_each_coding(self):
        p = StorageProfiler(DATASETS["dashcam"])
        row = [p.profile(F1, c) for c in coding_space()]
        assert (p.runs, p.hits) == (25, 0)
        again = [p.profile(F1, c) for c in coding_space()]
        assert (p.runs, p.hits) == (25, 25)
        assert all(a is b for a, b in zip(row, again))

    def test_single_lookup_returns_row_entry(self):
        p = StorageProfiler(DATASETS["dashcam"])
        row = [p.profile(F1, c) for c in coding_space()]
        for c, prof in zip(coding_space(), row):
            assert p.profile(F1, c) is prof
            assert prof.coding == c

    def test_size_matches_codec_model(self):
        p = StorageProfiler(DATASETS["dashcam"])
        c = Coding("med", 50)
        prof = p.profile(F1, c)
        assert prof.size_kb_per_s == pytest.approx(
            size_kb_per_s(F1, c, DATASETS["dashcam"].motion)
        )

    @pytest.mark.parametrize("s", SAMPLINGS)
    def test_retrieval_matches_codec_model(self, s):
        # the profiler is a memo over the codec model: exactly equal
        p = StorageProfiler(DATASETS["dashcam"])
        for c in (Coding("slow", 10), RAW):
            prof = p.profile(F2, c)
            assert prof.speed_by_sampling[float(s)] == retrieval_speed_x(
                StorageFormat(F2, c), s, DATASETS["dashcam"].motion
            )

    def test_raw_profile(self):
        p = StorageProfiler(DATASETS["park"])
        prof = p.profile(F1, RAW)
        assert prof.speed_by_sampling[float(S(1, 6))] == pytest.approx(
            raw_retrieval_speed_x(F1, S(1, 6))
        )

    def test_distinct_codings_are_distinct_runs(self):
        p = StorageProfiler(DATASETS["park"])
        p.profile(F1, Coding("fast", 10))
        p.profile(F1, Coding("fast", 50))
        assert p.runs == 2
