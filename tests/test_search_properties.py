"""Property-based validation of the staircase search (hypothesis).

Random operator accuracy/cost surfaces (still monotone by construction —
the property §4.2 relies on) must always yield a staircase result equal in
cost to exhaustive search, and adequate in accuracy.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.consumption import (
    derive_consumption_format,
    exhaustive_consumption_format,
)
from repro.ops.base import Operator
from repro.video.datasets import DATASETS
from tests.analytic import AnalyticProfiler

op_params = st.fixed_dictionaries(
    {
        "mq": st.floats(0.0, 1.0),
        "ar": st.floats(0.0, 0.8),
        "pr": st.floats(1.0, 14.0),
        "asamp": st.floats(0.0, 0.3),
        "psamp": st.floats(0.5, 2.0),
        "ac": st.floats(0.0, 0.3),
        "iota": st.floats(0.0, 8.0),
        "a": st.floats(1e-5, 1e-2),
        "gamma": st.floats(0.2, 1.5),
        "b": st.floats(1e-6, 1e-3),
    }
)


def make_op(p):
    return Operator(
        name="rand", query="A",
        pos_base=0.3, pos_motion=0.0, pos_event=0.0, **p,
    )


@given(params=op_params, target=st.sampled_from([0.95, 0.9, 0.8, 0.7, 0.5]))
@settings(max_examples=40, deadline=None)
def test_staircase_equals_exhaustive_on_random_surfaces(params, target):
    op = make_op(params)
    ds = DATASETS["tucson"]
    p = AnalyticProfiler(ds)
    e = AnalyticProfiler(ds)
    d = derive_consumption_format(p, op, target)
    x = exhaustive_consumption_format(e, op, target)
    assert d.speed_x == pytest.approx(x.speed_x)
    assert d.f1 >= target
    assert p.runs <= e.runs


@given(params=op_params)
@settings(max_examples=30, deadline=None)
def test_random_surfaces_are_monotone(params):
    # sanity: the Operator accuracy model is monotone for any parameter draw
    from repro.formats import RESOLUTIONS, SAMPLINGS, Fidelity

    op = make_op(params)
    accs_r = [op.accuracy(Fidelity("good", r, Fraction(1, 2), 0.75), 0.3) for r in RESOLUTIONS]
    assert all(b >= a - 1e-12 for a, b in zip(accs_r, accs_r[1:]))
    accs_s = [op.accuracy(Fidelity("good", 360, s, 0.75), 0.3) for s in sorted(SAMPLINGS)]
    assert all(b >= a - 1e-12 for a, b in zip(accs_s, accs_s[1:]))
