"""A test-side profiler whose F1 is the operator's analytic accuracy surface
(noise-free): the algorithm-equivalence tests (staircase vs exhaustive) search
it, so that their optimum is the model's, not one sample clip's."""
from repro.profiler.consumption import ConsumptionProfiler, ProfileResult


class AnalyticProfiler(ConsumptionProfiler):
    """A ``local`` profiler that evaluates ``Operator.accuracy`` instead of
    running the operator on the sample clip."""

    def __init__(self, ds, spark=None, *, mode="local"):
        super().__init__(ds, spark, mode=mode)

    def _evaluate(self, op, f):
        return ProfileResult(f1=op.accuracy(f, self.ds.motion), speed_x=op.consumption_speed_x(f))
