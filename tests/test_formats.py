"""Knob inventory and richer-than partial order (paper Table 1, §2.3)."""
import itertools
import pickle
from fractions import Fraction

import pytest

from repro.formats import (
    CROPS,
    GOLDEN_CODING,
    KEYFRAME_INTERVALS,
    QUALITIES,
    RAW,
    RESOLUTIONS,
    SAMPLINGS,
    SPEED_STEPS,
    Coding,
    Fidelity,
    StorageFormat,
    cheaper_coding,
    coding_space,
    fidelity_space,
    knobwise_max,
    pixel_ratio,
    pixels,
)

F = Fidelity
S = Fraction


def fid(q="best", r=720, s=S(1), c=1.0):
    return F(q, r, s, c)


class TestSpaces:
    def test_fidelity_space_is_600(self):
        # Table 1: 4 qualities x 3 crops x 10 resolutions x 5 samplings
        assert len(fidelity_space()) == 600

    def test_fidelity_space_unique(self):
        assert len(set(fidelity_space())) == 600

    def test_coding_space_is_25(self):
        assert len(coding_space()) == 25

    def test_storage_space_is_15k(self):
        # the paper's "|F x C| is 15K"
        assert len(fidelity_space()) * len(coding_space()) == 15_000

    def test_seven_knobs(self):
        # 4 fidelity knobs + 3 coding knobs (speed step, kframe int, bypass)
        assert len(QUALITIES) == 4
        assert len(CROPS) == 3
        assert len(RESOLUTIONS) == 10
        assert len(SAMPLINGS) == 5
        assert len(SPEED_STEPS) == 5
        assert len(KEYFRAME_INTERVALS) == 5

    def test_keyframe_values(self):
        assert KEYFRAME_INTERVALS == (5, 10, 50, 100, 250)

    def test_resolution_extremes(self):
        assert min(RESOLUTIONS) == 60 and max(RESOLUTIONS) == 720

    def test_sampling_extremes(self):
        assert min(SAMPLINGS) == S(1, 30) and max(SAMPLINGS) == 1


class TestRicherThan:
    def test_reflexive(self):
        for f in list(fidelity_space())[::37]:
            assert f.richer_eq(f)
            assert not f.strictly_richer(f)

    def test_richest_dominates_all(self):
        top = fid()
        for f in fidelity_space():
            assert top.richer_eq(f)

    def test_poorest_dominated_by_all(self):
        bottom = F("worst", 60, S(1, 30), 0.5)
        for f in fidelity_space():
            assert f.richer_eq(bottom)

    def test_partial_order_example_from_paper(self):
        # good-50%-720p-1/2 vs bad-100%-540p-1 are incomparable (§2.3)
        a = F("good", 720, S(1, 2), 0.5)
        b = F("bad", 540, S(1), 1.0)
        assert not a.richer_eq(b) and not b.richer_eq(a)

    def test_antisymmetric(self):
        a = fid(r=540)
        b = fid(r=720)
        assert b.richer_eq(a) and not a.richer_eq(b)

    @pytest.mark.parametrize("knob,lo,hi", [
        ("quality", fid(q="bad"), fid(q="good")),
        ("resolution", fid(r=180), fid(r=200)),
        ("sampling", fid(s=S(1, 6)), fid(s=S(1, 2))),
        ("crop", fid(c=0.75), fid(c=1.0)),
    ])
    def test_single_knob_order(self, knob, lo, hi):
        assert hi.strictly_richer(lo)

    def test_transitive_on_sample(self):
        fs = list(fidelity_space())[::53]
        for a, b, c in itertools.islice(itertools.combinations(fs, 3), 300):
            if a.richer_eq(b) and b.richer_eq(c):
                assert a.richer_eq(c)


class TestKnobwiseMax:
    def test_join_upper_bound(self):
        a = F("good", 720, S(1, 2), 0.5)
        b = F("bad", 540, S(1), 1.0)
        m = knobwise_max(a, b)
        assert m.richer_eq(a) and m.richer_eq(b)
        assert m == F("good", 720, S(1), 1.0)

    def test_join_idempotent(self):
        a = fid(r=360)
        assert knobwise_max(a, a) == a

    def test_join_commutative(self):
        a, b = fid(q="bad", r=200), fid(q="best", r=100, s=S(1, 6))
        assert knobwise_max(a, b) == knobwise_max(b, a)

    def test_join_of_comparable_is_richer(self):
        a, b = fid(r=360), fid(r=720)
        assert knobwise_max(a, b) == b

    def test_join_many(self):
        fs = [fid(q="worst", r=60), fid(q="best", r=60, s=S(1, 30)), fid(q="worst", r=720, c=0.5)]
        m = knobwise_max(*fs)
        assert all(m.richer_eq(f) for f in fs)


class TestLattice:
    """The interned knob lattice against value-based references: the join is
    the max and richer-than the >= of every knob's value."""

    def test_exhaustive_against_values(self):
        space = fidelity_space()
        by_value = {(f.quality, f.resolution, f.sampling, f.crop): f for f in space}
        q = QUALITIES.index
        for a in space:
            for b in space:
                want = (
                    QUALITIES[max(q(a.quality), q(b.quality))],
                    max(a.resolution, b.resolution),
                    max(a.sampling, b.sampling),
                    max(a.crop, b.crop),
                )
                assert knobwise_max(a, b) is by_value[want]  # equal and interned
                assert a.richer_eq(b) == (
                    q(a.quality) >= q(b.quality)
                    and a.resolution >= b.resolution
                    and a.sampling >= b.sampling
                    and a.crop >= b.crop
                )

    def test_join_of_fresh_instances_is_interned(self):
        a, b = fid(q="bad", r=200), fid(q="good", r=100, s=S(1, 6))
        m = knobwise_max(a, b)
        assert any(m is f for f in fidelity_space())
        assert knobwise_max(a) is not a and knobwise_max(a) == a

    def test_pickle_round_trip(self):
        # Spark ships consumption formats to its profiling and cascade tasks
        for f in fidelity_space():
            g = pickle.loads(pickle.dumps(f))
            assert g == f and hash(g) == hash(f) and g.rate == f.rate == float(f.sampling)
            assert g.idx == f.idx and repr(g) == repr(f)


class TestCoding:
    def test_raw_flag(self):
        assert RAW.raw and not GOLDEN_CODING.raw

    def test_golden_coding_is_slowest_longest(self):
        # §4.3: the golden format uses the slowest coding with lowest storage
        assert GOLDEN_CODING.speed_step == "slowest"
        assert GOLDEN_CODING.keyframe_interval == 250

    def test_cheaper_coding_chain(self):
        c = Coding("slowest", 50)
        steps = []
        while c is not None:
            steps.append(c.speed_step)
            c = cheaper_coding(c)
        assert steps == list(SPEED_STEPS)

    def test_cheaper_coding_of_raw_none(self):
        assert cheaper_coding(RAW) is None

    def test_cheaper_keeps_kfi(self):
        c2 = cheaper_coding(Coding("med", 10))
        assert c2.keyframe_interval == 10 and c2.speed_step == "fast"

    def test_labels(self):
        assert RAW.label() == "RAW"
        assert Coding("fast", 10).label() == "10-fast"
        sf = StorageFormat(fid(r=540, s=S(1, 30)), Coding("fast", 10))
        assert sf.label() == "best-540p-1/30-100% [10-fast]"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            F("ultra", 720, S(1), 1.0)
        with pytest.raises(ValueError):
            F("best", 719, S(1), 1.0)
        with pytest.raises(ValueError):
            Coding("warp", 10)


class TestPixels:
    def test_720p_ratio_is_one(self):
        assert pixel_ratio(fid()) == pytest.approx(1.0)

    def test_ratio_monotone_in_resolution(self):
        rs = [pixel_ratio(fid(r=r)) for r in RESOLUTIONS]
        assert rs == sorted(rs)

    def test_crop_scales_linearly(self):
        assert pixels(fid(c=0.5)) == pytest.approx(0.5 * pixels(fid()))

    def test_16_9_aspect(self):
        assert pixels(fid(r=720)) == pytest.approx(720 * 1280)
