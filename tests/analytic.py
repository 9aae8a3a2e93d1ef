"""A test-side profiler whose F1 is the operator's analytic accuracy surface
(noise-free): the algorithm-equivalence tests (staircase vs exhaustive) search
it, so that their optimum is the model's, not one sample clip's."""
from repro.profiler.consumption import ConsumptionProfiler, ProfileResult


def analytic_profile(op, f, ds):
    """``Operator.accuracy`` in place of running the operator on the sample clip."""
    return ProfileResult(f1=op.accuracy(f, ds.motion), speed_x=op.consumption_speed_x(f))


class AnalyticProfiler(ConsumptionProfiler):
    """A profiler, ``local`` by default, whose runs evaluate :func:`analytic_profile`."""

    evaluate = staticmethod(analytic_profile)

    def __init__(self, ds, spark=None, *, mode="local"):
        super().__init__(ds, spark, mode=mode)
