"""Top-level backward derivation (paper Fig 7): consumers -> CFs -> SFs.

``derive_config`` runs the whole pipeline the paper's Table 2 snapshot shows:
profile the query-A operators on *jackson* and the query-B operators on
*dashcam* (§6.1), derive one consumption format per <operator, accuracy>
consumer with the §4.2 staircase search, then coalesce the storage-format set
with §4.3. Budgets are applied separately: ingestion (Table 3) by calling
:func:`repro.core.storage.derive_storage_plan` with a budget, storage (§4.4)
via :func:`repro.core.erosion.plan_erosion`.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.codec.model import raw_retrieval_speed_x
from repro.core.consumption import DerivedCF, derive_consumption_format
from repro.core.storage import Consumer, StoragePlan, derive_storage_plan
from repro.ops.library import ACCURACY_LEVELS, OPERATORS
from repro.profiler.consumption import ConsumptionProfiler
from repro.profiler.storage import StorageProfiler
from repro.video.datasets import DATASETS, PROFILING_DATASET


@dataclass
class VStoreConfig:
    """A complete derived configuration of video formats."""

    consumers: list[Consumer]
    derived: dict[tuple[str, float], DerivedCF]
    storage: StoragePlan
    profiling_runs_consumption: int
    profiling_seconds_simulated: float  # sample-seconds of video profiled

    def cf_of(self, op_name: str, acc: float) -> Consumer:
        for c in self.consumers:
            if c.op_name == op_name and c.target_acc == acc:
                return c
        raise KeyError((op_name, acc))

    def sf_index_of(self, consumer: Consumer) -> int:
        return self.storage.assignment()[consumer]

    def unique_cf_count(self) -> int:
        return len({c.cf for c in self.consumers})


@dataclass
class ConfigOptions:
    """Knobs of the derivation run itself."""

    accuracies: tuple[float, ...] = ACCURACY_LEVELS
    op_names: tuple[str, ...] = tuple(OPERATORS)
    profiler_mode: str = "spark"


def derive_config(
    spark: SparkSession | None = None, options: ConfigOptions | None = None
) -> VStoreConfig:
    """Run the full backward derivation and return the configuration."""
    opt = options or ConfigOptions()
    profilers = {
        q: ConsumptionProfiler(
            DATASETS[PROFILING_DATASET[q]], spark, mode=opt.profiler_mode
        )
        for q in ("A", "B")
    }
    consumers: list[Consumer] = []
    derived: dict[tuple[str, float], DerivedCF] = {}
    for name in opt.op_names:
        op = OPERATORS[name]
        prof = profilers[op.query]
        # richest accuracy first so memoization helps the lower targets
        for acc in sorted(opt.accuracies, reverse=True):
            d = derive_consumption_format(prof, op, acc)
            derived[(name, acc)] = d
            # R2 demand cap: a consumer cannot be fed faster than the fastest
            # possible retrieval of its own fidelity (raw frames off disk), so
            # the speed the storage derivation must satisfy is the min of the
            # two — otherwise R2 would be unsatisfiable for very cheap
            # operators whose consumption outruns the disk.
            demand = min(d.speed_x, raw_retrieval_speed_x(d.fidelity, d.fidelity.sampling))
            consumers.append(
                Consumer(op_name=name, target_acc=acc, cf=d.fidelity, speed_x=demand)
            )
    total_runs = sum(p.runs for p in profilers.values())

    # Storage derivation profiles on the higher-motion profiling stream so the
    # coding choices are safe for every ingested stream (motion only shrinks
    # sizes / speeds retrieval for the others).
    sprof = StorageProfiler(DATASETS[PROFILING_DATASET["B"]])
    storage = derive_storage_plan(sprof, consumers)
    return VStoreConfig(
        consumers=consumers,
        derived=derived,
        storage=storage,
        profiling_runs_consumption=total_runs,
        profiling_seconds_simulated=10.0 * total_runs,
    )
