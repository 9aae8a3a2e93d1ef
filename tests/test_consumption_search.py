"""§4.2 staircase boundary search vs exhaustive profiling (Fig 13)."""
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.config as config
from repro.core.config import ConfigOptions, derive_config
from repro.core.consumption import derive_consumption_format, exhaustive_consumption_format
from repro.formats import CROPS, QUALITIES, RESOLUTIONS, SAMPLINGS
from repro.ops.library import ACCURACY_LEVELS, OPERATORS
from repro.profiler.consumption import ConsumptionProfiler
from repro.video.datasets import DATASETS, PROFILING_DATASET
from tests.analytic import AnalyticProfiler

CASES = list(itertools.product(OPERATORS, ACCURACY_LEVELS))
#: measured F1 (the ``local`` profiler) or the noise-free analytic surface
PROFILERS = {"local": ConsumptionProfiler, "analytic": AnalyticProfiler}


def profiler_for(op_name, kind):
    op = OPERATORS[op_name]
    return PROFILERS[kind](DATASETS[PROFILING_DATASET[op.query]], mode="local"), op


class TestStaircaseOptimality:
    @pytest.mark.parametrize("op_name,target", CASES)
    def test_matches_exhaustive_analytic(self, op_name, target):
        # the staircase must find the same minimum consumption cost as
        # exhaustive search over all 600 fidelity options
        p, op = profiler_for(op_name, "analytic")
        e, _ = profiler_for(op_name, "analytic")
        d = derive_consumption_format(p, op, target)
        x = exhaustive_consumption_format(e, op, target)
        assert d.speed_x == pytest.approx(x.speed_x)

    @pytest.mark.parametrize("op_name,target", CASES)
    def test_matches_exhaustive_empirical(self, op_name, target):
        # holds in measured-F1 mode too: shared latents keep F1 monotone
        p, op = profiler_for(op_name, "local")
        e, _ = profiler_for(op_name, "local")
        d = derive_consumption_format(p, op, target)
        x = exhaustive_consumption_format(e, op, target)
        assert d.speed_x == pytest.approx(x.speed_x)

    @pytest.mark.parametrize("op_name,target", CASES)
    def test_result_is_adequate(self, op_name, target):
        p, op = profiler_for(op_name, "local")
        d = derive_consumption_format(p, op, target)
        assert d.f1 >= target


class TestProfilingBill:
    @pytest.mark.parametrize("op_name", list(OPERATORS))
    def test_single_consumer_run_bound(self, op_name):
        # §4.2: O((N_sample + N_res) * N_crop + N_quality) runs per consumer
        p, op = profiler_for(op_name, "analytic")
        d = derive_consumption_format(p, op, 0.9)
        # the staircase may re-cross columns when walking back right, so the
        # worst case is ~(2*N_sample + N_res) per plane, still O(N_s + N_r)
        bound = (2 * len(SAMPLINGS) + len(RESOLUTIONS)) * len(CROPS) + len(QUALITIES)
        assert p.runs <= bound

    @pytest.mark.parametrize("op_name", list(OPERATORS))
    def test_all_accuracies_cheaper_than_exhaustive(self, op_name):
        # §4.2: profiling *all* accuracies of one operator is still cheaper
        # than exhaustively profiling the whole fidelity space
        p, op = profiler_for(op_name, "analytic")
        for acc in sorted(ACCURACY_LEVELS, reverse=True):
            derive_consumption_format(p, op, acc)
        assert p.runs < 600

    def test_order_of_magnitude_reduction(self):
        # Fig 13: 9x-15x fewer profiling runs than exhaustive — we assert
        # at least ~4x across the whole consumer set
        total = 0
        for op_name, op in OPERATORS.items():
            p, _ = profiler_for(op_name, "analytic")
            for acc in sorted(ACCURACY_LEVELS, reverse=True):
                derive_consumption_format(p, op, acc)
            total += p.runs
        assert total * 4 < 600 * len(OPERATORS)

    def test_memoization_across_accuracies(self):
        # deriving a lower accuracy after a higher one reuses profiles
        p, op = profiler_for("license", "analytic")
        derive_consumption_format(p, op, 0.95)
        runs_95 = p.runs
        derive_consumption_format(p, op, 0.9)
        assert p.hits > 0 and p.runs - runs_95 < runs_95 + 20


class TestQualityPostPass:
    def test_quality_lowered_when_harmless(self):
        # Motion is accurate everywhere, so the post-pass should reach a
        # sub-"best" quality for low targets (cuts storage, not cost)
        p, op = profiler_for("motion", "analytic")
        d = derive_consumption_format(p, op, 0.7)
        assert d.fidelity.quality != "best"

    def test_quality_kept_when_needed(self):
        # NN at 0.95 needs the full image quality
        p, op = profiler_for("nn", "analytic")
        d = derive_consumption_format(p, op, 0.95)
        assert d.fidelity.quality == "best"

    def test_post_pass_never_breaks_adequacy(self):
        for op_name in OPERATORS:
            p, op = profiler_for(op_name, "analytic")
            for acc in ACCURACY_LEVELS:
                d = derive_consumption_format(p, op, acc)
                assert d.f1 >= acc


class TestStructure:
    def test_cheapest_fidelity_for_easy_ops(self):
        # §6.2: VStore picks the lowest fidelity for Motion at accuracy <= 0.9
        p, op = profiler_for("motion", "local")
        d07 = derive_consumption_format(p, op, 0.7)
        d09 = derive_consumption_format(p, op, 0.9)
        assert d07.fidelity == d09.fidelity
        assert d07.fidelity.resolution == min(RESOLUTIONS)

    def test_costlier_for_higher_accuracy(self):
        # consumption cost never decreases as the target accuracy rises
        p, op = profiler_for("license", "local")
        speeds = [
            derive_consumption_format(p, op, a).speed_x
            for a in sorted(ACCURACY_LEVELS)
        ]
        assert speeds == sorted(speeds, reverse=True)

    def test_nn_slowest_consumer(self):
        pa, nn = profiler_for("nn", "local")
        pb, motion = profiler_for("motion", "local")
        d_nn = derive_consumption_format(pa, nn, 0.95)
        d_mo = derive_consumption_format(pb, motion, 0.95)
        assert d_nn.speed_x < d_mo.speed_x / 100


def one_at_a_time(kind, op_names, accuracies):
    """Per-consumer derivations on fresh profilers, in ``derive_config``'s
    consumer order: the reference ``derive_config`` must reproduce."""
    profilers = {
        q: PROFILERS[kind](DATASETS[PROFILING_DATASET[q]], mode="local") for q in "AB"
    }
    derived = {}
    for name in op_names:
        op = OPERATORS[name]
        for acc in sorted(accuracies, reverse=True):
            derived[(name, acc)] = derive_consumption_format(profilers[op.query], op, acc)
    ps = profilers.values()
    return derived, sum(p.runs for p in ps), sum(p.hits for p in ps)


def derived_with_counts(kind, op_names, accuracies):
    """``derive_config``'s local-mode derivation, with its runs and the hits
    of the profilers it made, one per operator."""
    made = []

    class Recording(PROFILERS[kind]):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    opts = ConfigOptions(profiler_mode="local", op_names=op_names, accuracies=accuracies)
    with mock.patch.object(config, "ConsumptionProfiler", Recording):
        cfg = derive_config(None, opts)
    assert len(made) == len(op_names)
    assert cfg.profiling_runs_consumption == sum(p.runs for p in made)
    return cfg.derived, cfg.profiling_runs_consumption, sum(p.hits for p in made)


#: (profiler kind, operators, accuracies, runs, hits) of one-at-a-time derivation
COUNTS = [
    ("local", tuple(OPERATORS), ACCURACY_LEVELS, 523, 536),
    ("analytic", tuple(OPERATORS), ACCURACY_LEVELS, 504, 569),
    ("local", ("nn", "ocr"), (0.95,), 30, 4),
]


class TestLockstepWaves:
    """``derive_config`` runs each operator's searches together, richest
    accuracy first; it must derive, run and hit exactly as one-at-a-time
    derivation does."""

    @pytest.mark.parametrize("kind,op_names,accuracies,runs,hits", COUNTS)
    def test_matches_one_at_a_time(self, kind, op_names, accuracies, runs, hits):
        want = one_at_a_time(kind, op_names, accuracies)
        assert derived_with_counts(kind, op_names, accuracies) == want
        assert want[1:] == (runs, hits)

    @pytest.mark.parametrize(
        "op_names,accuracies,runs,hits", [c[1:] for c in COUNTS if c[0] == "local"]
    )
    def test_spark_matches_one_at_a_time(self, spark, op_names, accuracies, runs, hits):
        # one executor task per operator; the tasks' profilers stay in the
        # executors, and only their runs come back
        want = one_at_a_time("local", op_names, accuracies)
        opts = ConfigOptions(profiler_mode="spark", op_names=op_names, accuracies=accuracies)
        cfg = derive_config(spark, opts)
        assert (cfg.derived, cfg.profiling_runs_consumption) == want[:2]
        assert want[1:] == (runs, hits)

    @given(
        op_names=st.lists(st.sampled_from(list(OPERATORS)), min_size=1, unique=True),
        accuracies=st.lists(st.sampled_from(ACCURACY_LEVELS), min_size=1, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_subsets_match_one_at_a_time(self, op_names, accuracies):
        args = ("analytic", tuple(op_names), tuple(accuracies))
        assert derived_with_counts(*args) == one_at_a_time(*args)
