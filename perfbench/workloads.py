"""The three workloads: ``configure``, ``query-mix`` and ``lifecycle``.

A workload is a *round*: a fixed list of operations whose order the seed
permutes (and nothing else). Each operation is timed on its own and its
output is checked outside the timed region against the repo's own records
(``results/*.txt``) or an independent path (a local-mode derivation, the
DuckDB twin over the stored parquet). See ``README.md`` in this directory for
why each workload exists and which layer metric should move what.
"""
from __future__ import annotations

import os
import shutil
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import duckdb

import repro.core.erosion as erosion
import repro.core.storage as storage
import repro.query.cascade as cascade
from repro.core.config import ConfigOptions, derive_config
from repro.formats import RESOLUTIONS, Fidelity
from repro.ops.library import ACCURACY_LEVELS, OPERATORS
from repro.profiler.consumption import ConsumptionProfiler
from repro.profiler.storage import StorageProfiler
from repro.query.alternatives import make_provider
from repro.store.segment_store import SegmentStore
from repro.video.datasets import DATASETS
from tracing import parquet_rows

PROVIDERS = ("vstore", "1->1", "1->N", "N->N")
LIFESPAN_DAYS = 10
TB = 1024**4


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Callable[[], None] | None = None


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def read_lines(root: str, name: str) -> list[str]:
    with open(os.path.join(root, "results", name)) as fh:
        return fh.read().splitlines()


def tail_percentile(xs: list[float]) -> tuple[float | None, int | None]:
    """Highest whole percentile with at least ten samples above it
    (nearest-rank); ``(None, None)`` with fewer than eleven samples."""
    s = sorted(xs)
    n = len(s)
    for p in range(99, 0, -1):
        k = max(1, -(-p * n // 100))  # ceil(p*n/100)
        if n - k >= 10:
            return s[k - 1], p
    return None, None


def account(store: SegmentStore, spark, dataset: str) -> dict:
    """Storage accounting of one stream: per-SF KB and segment counts, and
    the storage growth rate."""
    rows = store.storage_by_sf(spark, dataset).collect()
    return {
        "by_sf": {r["sf_id"]: (float(r["total_kb"]), int(r["segments"])) for r in rows},
        "kb_per_s": store.storage_kb_per_s(spark, dataset),
    }


def duckdb_account(path: str) -> dict:
    """The same accounting computed by DuckDB straight from the parquet."""
    glob = os.path.join(path, "*.parquet")
    con = duckdb.connect()
    try:
        rows = con.execute(
            "select sf_id, sum(size_kb), count(*) from read_parquet(?) group by sf_id",
            [glob],
        ).fetchall()
        kb, secs = con.execute(
            "select (select sum(size_kb) from read_parquet($1)), "
            "(select sum(seconds) from (select distinct segment_id, seconds "
            "from read_parquet($1)))",
            [glob],
        ).fetchone()
    finally:
        con.close()
    return {"by_sf": {r[0]: (float(r[1]), int(r[2])) for r in rows}, "kb_per_s": kb / secs}


def same_account(got: dict, want: dict) -> bool:
    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))

    return (
        got["by_sf"].keys() == want["by_sf"].keys()
        and all(
            close(got["by_sf"][k][0], want["by_sf"][k][0])
            and got["by_sf"][k][1] == want["by_sf"][k][1]
            for k in want["by_sf"]
        )
        and close(got["kb_per_s"], want["kb_per_s"])
    )


class Workload:
    """Shared set-up: the full local-mode 24-consumer configuration."""

    #: kind -> operations of that kind per round
    kinds: dict[str, int] = {}
    #: benchmark-side functions the traced run spans: (owner, attr, span name)
    traced_helpers: tuple = ()

    def __init__(self, spark, root: str, scratch: str) -> None:
        self.spark = spark
        self.root = root  # checkout root (holds results/)
        self.scratch = scratch  # where the workload may write
        self.cfg = None

    def setup(self) -> None:
        self.cfg = derive_config(options=ConfigOptions(profiler_mode="local"))

    def warm(self) -> None:
        """Run the workload's Spark code paths once before anything is timed
        (first set-up only), so the first timed operation does not pay for
        JVM class loading and compilation."""

    def round_ops(self, rng, round_no: int) -> list[Op]:
        raise NotImplementedError

    def summary(self, samples: dict[str, list[float]]) -> list[tuple[str, float, str]]:
        raise NotImplementedError


# -- configure ---------------------------------------------------------------


class Configure(Workload):
    """Control plane: Spark-profiled derivation of a consumer subset, the
    Table-3 budget sweep and the Fig-12 erosion sweep."""

    #: one query-A operator (profiled on jackson) and one query-B operator
    #: (profiled on dashcam), at the richest accuracy
    SUBSET = ConfigOptions(profiler_mode="spark", op_names=("nn", "ocr"), accuracies=(0.95,))
    BUDGETS = (12.0, 8.0, 4.0, 3.0, 2.0, 1.0)  # Table 3, cores
    EROSION_FACTORS = (1.1, 0.85, 0.68, 0.51)  # Fig 12, x the no-erosion cost
    #: the Table-3 and Fig-12 sweeps run as one operation per budget, shuffled
    #: with the derivation, so that a slow spell of the host does not land on a
    #: whole sweep
    kinds = {
        "derive": 1,
        **{f"budget@{b:g}": 1 for b in BUDGETS},
        **{f"erosion@{f:g}x": 1 for f in EROSION_FACTORS},
    }

    def __init__(self, spark, root, scratch):
        super().__init__(spark, root, scratch)
        self._local_subset = None
        t3 = read_lines(root, "table3_ingest_budget.txt")
        self.table3 = t3[2 : 2 + len(self.BUDGETS)]
        f12 = read_lines(root, "fig12_erosion.txt")
        self.fig12 = [line for line in f12 if line.startswith("budget ")]

    def warm(self):
        prof = ConsumptionProfiler(DATASETS["jackson"], self.spark, mode="spark")
        for res in RESOLUTIONS[-6:]:  # six single-probe Spark jobs, as the staircase issues
            prof.profile(OPERATORS["nn"], Fidelity("best", res, Fraction(1), 1.0))

    # derive -----------------------------------------------------------------

    def _derive(self):
        return derive_config(self.spark, self.SUBSET)

    @staticmethod
    def _shape(cfg):
        return (
            [(c.op_name, c.target_acc, c.cf, c.speed_x) for c in cfg.consumers],
            [
                (n.fidelity, n.coding, sorted(c.label() for c in n.consumers))
                for n in cfg.storage.nodes
            ],
        )

    def _check_derive(self, cfg) -> None:
        if self._local_subset is None:
            local = ConfigOptions(
                profiler_mode="local",
                op_names=self.SUBSET.op_names,
                accuracies=self.SUBSET.accuracies,
            )
            self._local_subset = self._shape(derive_config(options=local))
        expect(self._shape(cfg) == self._local_subset, "spark-mode CFs/SFs != local mode")

    # Table 3: one operation per budget -------------------------------------

    def _budget_op(self, budget: float, want: str) -> Op:
        ds = DATASETS["dashcam"]

        def run():
            return storage.derive_storage_plan(
                StorageProfiler(ds), self.cfg.consumers,
                ingest_budget_cores=budget, motion=ds.motion,
            )

        def check(plan):
            mbs = plan.storage_kb_per_s() / 1024
            codings = ", ".join(
                ("SFg" if n.golden else f"SF{i}") + "=" + n.coding.label()
                for i, n in enumerate(plan.nodes)
            )
            got = (
                f"{budget:7.0f} {plan.ingest_cores(ds.motion):6.2f} {mbs:6.2f} "
                f"{mbs * 86400 / 1024:8.1f} {len(plan.nodes):4d}  {codings}"
            )
            expect(got == want, f"Table-3 row {got!r} != {want!r}")

        return Op(f"budget@{budget:g}", f"derive_storage_plan budget {budget:g} cores", run, check)

    # Fig 12: one operation per budget ----------------------------------------

    def _erosion_op(self, factor: float, want: str) -> Op:
        day_tb = self.cfg.storage.storage_kb_per_s() * 86400 * 1024 / TB
        tb = round(day_tb * LIFESPAN_DAYS * factor, 2)

        def run():
            return erosion.plan_erosion(
                self.cfg.storage, lifespan_days=LIFESPAN_DAYS, storage_budget_bytes=tb * TB
            )

        def check(ep):
            got = (
                f"budget {tb:5.2f} TB: k={ep.k:5.2f} "
                f"total={ep.total_storage_kb_s * 86400 * 1024 / TB:5.2f} TB  "
                "overall speed by age: " + " ".join(f"{v:.2f}" for v in ep.overall_by_age)
            )
            expect(got == want, f"Fig-12 line {got!r} != {want!r}")

        return Op(f"erosion@{factor:g}x", f"plan_erosion budget {tb} TB", run, check)

    def round_ops(self, rng, round_no):
        ops = [Op("derive", "derive nn+ocr@0.95 (spark)", self._derive, self._check_derive)]
        ops += [self._budget_op(b, w) for b, w in zip(self.BUDGETS, self.table3)]
        ops += [self._erosion_op(f, w) for f, w in zip(self.EROSION_FACTORS, self.fig12)]
        rng.shuffle(ops)
        return ops

    def summary(self, samples):
        def total(prefix):
            return sum(statistics.median(v) for k, v in samples.items() if k.startswith(prefix))

        return [
            ("configure_s", statistics.median(samples["derive"]), "s"),
            ("budget_sweep_s", total("budget@"), "s"),
            ("erosion_plan_s", total("erosion@"), "s"),
        ]


# -- query-mix ---------------------------------------------------------------


def query_summary(samples: list[float], hours: float) -> list[tuple[str, float, str]]:
    tail, pct = tail_percentile(samples)
    out = [("query_p50_s", statistics.median(samples), "s")]
    if tail is not None:
        out.append((f"query_tail_s (p{pct}, n={len(samples)})", tail, "s"))
    else:
        out.append((f"query_max_s (n={len(samples)} < 11, no tail percentile)", max(samples), "s"))
    out.append(("query_video_h_per_s", hours * len(samples) / sum(samples), "video_h/s"))
    return out


class QueryMix(Workload):
    """Fig-11a cells for jackson (query A) and dashcam (query B), one hour
    each. A round is a fixed 8 of the 32 cells, a Latin square over each
    stream's accuracy x provider grid: every provider on both streams, with
    the accuracies rotated so that each stream sees all four and each
    provider two."""

    DATASETS = ("jackson", "dashcam")
    HOURS = 1.0
    CELLS = tuple(
        (name, ACCURACY_LEVELS[(i + d) % len(ACCURACY_LEVELS)], kind)
        for d, name in enumerate(DATASETS)
        for i, kind in enumerate(PROVIDERS)
    )
    kinds = {"query": len(CELLS)}

    def __init__(self, spark, root, scratch):
        super().__init__(spark, root, scratch)
        self.fig11 = {}
        lines = read_lines(root, "fig11_end_to_end.txt")
        for line in lines[2:]:
            if not line.strip():
                break
            name, acc, *cells = line.split()
            self.fig11[(name, float(acc))] = dict(zip(PROVIDERS, cells))

    def setup(self):
        super().setup()
        self.providers = {
            (name, kind): make_provider(kind, self.cfg, DATASETS[name].motion)
            for name in self.DATASETS
            for kind in PROVIDERS
        }

    def warm(self):
        for name in self.DATASETS:  # one query per query type
            ds = DATASETS[name]
            cascade.run_query(self.spark, self.providers[(name, "vstore")], ds, 0.95,
                              hours=self.HOURS)

    def _op(self, name, acc, kind):
        def run():
            return cascade.run_query(
                self.spark, self.providers[(name, kind)], DATASETS[name], acc, hours=self.HOURS
            )

        def check(r):
            want = self.fig11[(name, acc)][kind]
            expect(f"{r.speed_x:.1f}" == want, f"{name}@{acc} {kind}: {r.speed_x:.1f}x != {want}x")

        return Op("query", f"{name}@{acc} {kind}", run, check)

    def round_ops(self, rng, round_no):
        ops = [self._op(name, acc, kind) for name, acc, kind in self.CELLS]
        rng.shuffle(ops)
        return ops

    def summary(self, samples):
        return query_summary(samples["query"], self.HOURS)


# -- lifecycle ---------------------------------------------------------------


class Lifecycle(Workload):
    """Video through the store: ingest every stream into VStore's SFs, long
    VStore queries, storage accounting, then one age's erosion."""

    INGEST_HOURS = 6.0
    QUERY_HOURS = 6.0
    #: one stream per query type, one high and one low accuracy
    QUERIES = (("jackson", 0.95), ("dashcam", 0.70))
    WARM_HOURS = 0.05
    ERODED = "dashcam"
    AGE = 3  # a row of Fig 12(b)
    kinds = {"ingest": len(DATASETS), "query": len(QUERIES), "account": 1, "erode": 1}
    traced_helpers = ((sys.modules[__name__], "account", "store.segment_store.accounting"),)

    def __init__(self, spark, root, scratch):
        super().__init__(spark, root, scratch)
        self.store = None
        # The erosion plan is the one Fig 12(b) records: per-SF surviving
        # fraction per age, at the 0.68x budget.
        lines = read_lines(root, "fig12_erosion.txt")
        head = next(i for i, line in enumerate(lines) if line.split()[:1] == ["age"])
        sf_ids = lines[head].split()[1:-1]
        row = lines[head + self.AGE].split()
        expect(int(row[0]) == self.AGE, f"no age-{self.AGE} row in fig12_erosion.txt")
        self.fractions = {
            sf: round(1.0 - float(v), 2) for sf, v in zip(sf_ids, row[1:]) if float(v) < 1.0
        }

    def setup(self):
        super().setup()
        self.providers = {
            name: make_provider("vstore", self.cfg, ds.motion) for name, ds in DATASETS.items()
        }

    def _begin_round(self, round_no):
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
        self.store = SegmentStore(os.path.join(self.scratch, f"store-{round_no}"))
        self._backup = self.store._path(self.ERODED) + ".pristine"

    def warm(self):
        store = SegmentStore(os.path.join(self.scratch, "warm-store"))
        ds = DATASETS[self.ERODED]
        store.ingest(self.spark, ds, self.providers[ds.name].sfs, hours=self.WARM_HOURS)
        account(store, self.spark, ds.name)  # the first parquet read costs ~4 s
        store.apply_erosion(self.spark, ds.name, self.fractions)
        cascade.run_query(self.spark, self.providers[ds.name], ds, 0.95, hours=self.WARM_HOURS)
        shutil.rmtree(store.root, ignore_errors=True)

    def _ingest(self, name):
        store = self.store
        ds = DATASETS[name]
        sfs = self.providers[name].sfs
        n_rows = int(self.INGEST_HOURS * 3600 / 10) * len(sfs)

        def run():
            store.ingest(self.spark, ds, sfs, hours=self.INGEST_HOURS)
            return store._path(name)

        def check(path):
            rows = parquet_rows(path)
            expect(rows == n_rows, f"ingest {name}: {rows} rows != {n_rows}")

        return Op("ingest", f"ingest {name}", run, check)

    def _query(self, name, acc):
        def run():
            return cascade.run_query(
                self.spark, self.providers[name], DATASETS[name], acc, hours=self.QUERY_HOURS
            )

        def check(r):
            expect(
                r.video_seconds == self.QUERY_HOURS * 3600 and len(r.stages) == 3
                and r.sim_time_s > 0,
                f"query {name}@{acc}: malformed result",
            )

        return Op("query", f"query {name}@{acc}", run, check)

    def _account(self):
        store = self.store

        def check(got):
            want = duckdb_account(store._path(self.ERODED))
            expect(same_account(got, want), "accounting != DuckDB twin (before erosion)")

        return Op("account", f"account {self.ERODED}",
                  lambda: account(store, self.spark, self.ERODED), check)

    def _erode(self):
        store = self.store
        live = store._path(self.ERODED)
        backup = self._backup
        n_seg = int(self.INGEST_HOURS * 3600 / 10)

        def prepare():
            # every execution erodes the freshly ingested stream
            if not os.path.exists(backup):
                shutil.copytree(live, backup)
            else:
                shutil.rmtree(live)
                shutil.copytree(backup, live)

        def run():
            store.apply_erosion(self.spark, self.ERODED, self.fractions)
            return account(store, self.spark, self.ERODED)

        def check(got):
            want = duckdb_account(live)
            expect(same_account(got, want), "accounting != DuckDB twin (after erosion)")
            for sf_id, frac in self.fractions.items():
                kept = got["by_sf"].get(sf_id, (0.0, 0))[1]
                expect(kept == n_seg - int(round(frac * n_seg)),
                       f"erosion kept {kept} segments of {sf_id}")

        return Op("erode", f"erode {self.ERODED} age {self.AGE}", run, check, prepare)

    def round_ops(self, rng, round_no):
        self._begin_round(round_no)
        ops = [self._ingest(name) for name in DATASETS]
        ops += [self._query(name, acc) for name, acc in self.QUERIES]
        rng.shuffle(ops)
        return ops + [self._account(), self._erode()]

    def summary(self, samples):
        ingest = samples["ingest"]
        return (
            [("ingest_video_h_per_s", self.INGEST_HOURS * len(ingest) / sum(ingest), "video_h/s")]
            + query_summary(samples["query"], self.QUERY_HOURS)
            + [
                ("account_s", statistics.median(samples["account"]), "s"),
                ("erode_s", statistics.median(samples["erode"]), "s"),
            ]
        )


WORKLOADS = {"configure": Configure, "query-mix": QueryMix, "lifecycle": Lifecycle}
