"""Top-level backward derivation (paper Fig 7): consumers -> CFs -> SFs.

``derive_config`` runs the whole pipeline the paper's Table 2 snapshot shows:
profile the query-A operators on *jackson* and the query-B operators on
*dashcam* (§6.1), derive one consumption format per <operator, accuracy>
consumer with the §4.2 staircase search, then coalesce the storage-format set
with §4.3. Each operator's searches run through one function, on a fresh
``local`` profiler of its profiling dataset, richest accuracy first so that
memoization helps the lower targets, mapped over the operators by the
profiling mode's :func:`repro.profiler.consumption.mapper`: on the driver
(``local``) or in one Spark job, one task per operator (``spark``). The
storage formats are profiled on the stream :func:`storage_profiler` names.
Budgets are applied separately: ingestion (Table 3) by calling
:func:`repro.core.storage.derive_storage_plan` with a budget, storage (§4.4)
via :func:`repro.core.erosion.plan_erosion`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from pyspark.sql import SparkSession

from repro.codec.model import raw_retrieval_speed_x
from repro.core.consumption import DerivedCF, derive_consumption_format
from repro.core.storage import Consumer, StoragePlan, derive_storage_plan
from repro.ops.base import Operator
from repro.ops.library import ACCURACY_LEVELS, OPERATORS
from repro.profiler.consumption import ConsumptionProfiler, mapper
from repro.profiler.storage import StorageProfiler
from repro.video.datasets import DATASETS, PROFILING_DATASET, Dataset


@dataclass
class VStoreConfig:
    """A complete derived configuration of video formats."""

    consumers: list[Consumer]
    derived: dict[tuple[str, float], DerivedCF]
    storage: StoragePlan
    profiling_runs_consumption: int

    def cf_of(self, op_name: str, acc: float) -> Consumer:
        for c in self.consumers:
            if c.op_name == op_name and c.target_acc == acc:
                return c
        raise KeyError((op_name, acc))

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
    ops = [OPERATORS[name] for name in opt.op_names]
    accs = sorted(opt.accuracies, reverse=True)
    work = [(DATASETS[PROFILING_DATASET[op.query]], op) for op in ops]
    found = mapper(spark, opt.profiler_mode)(partial(_derive_operator, accs), work)
    derived = {
        (name, acc): d
        for name, (cfs, _) in zip(opt.op_names, found)
        for acc, d in zip(accs, cfs)
    }
    consumers: list[Consumer] = []
    for name in opt.op_names:
        for acc in accs:
            d = derived[(name, acc)]
            # R2 demand cap: a consumer cannot be fed faster than the fastest
            # possible retrieval of its own fidelity (raw frames off disk), so
            # the speed the storage derivation must satisfy is the min of the
            # two — otherwise R2 would be unsatisfiable for very cheap
            # operators whose consumption outruns the disk.
            demand = min(d.speed_x, raw_retrieval_speed_x(d.fidelity, d.fidelity.sampling))
            consumers.append(
                Consumer(op_name=name, target_acc=acc, cf=d.fidelity, speed_x=demand)
            )

    storage = derive_storage_plan(storage_profiler(), consumers)
    return VStoreConfig(
        consumers=consumers,
        derived=derived,
        storage=storage,
        profiling_runs_consumption=sum(runs for _, runs in found),
    )


def storage_profiler() -> StorageProfiler:
    """A fresh storage profiler on the higher-motion profiling stream, where
    coding choices are safe for every ingested stream (motion only shrinks
    sizes and speeds retrieval for the others)."""
    return StorageProfiler(DATASETS[PROFILING_DATASET["B"]])


def _derive_operator(
    accuracies: list[float], item: tuple[Dataset, Operator]
) -> tuple[list[DerivedCF], int]:
    """One operator's staircase searches, in the order of ``accuracies``, on a
    fresh ``local`` profiler of its profiling dataset: the derived CFs and
    the profiling runs they took."""
    ds, op = item
    profiler = ConsumptionProfiler(ds, mode="local")
    return [derive_consumption_format(profiler, op, acc) for acc in accuracies], profiler.runs
