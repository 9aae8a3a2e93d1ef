"""Format providers: VStore vs the §6.2 alternative configurations.

A *format provider* answers, for one <operator, accuracy> stage of a query:
which fidelity does the operator consume (CF), and which stored version is it
retrieved from (SF)? The four providers mirror the paper's comparison:

- ``vstore``  — CFs and coalesced SFs from backward derivation;
- ``1->1``    — golden SF only, consumed at golden fidelity (a video database
  oblivious to algorithmic consumers; fixed operating point, accuracy = 1);
- ``1->N``    — golden SF only, converted at retrieval into VStore's CFs
  (configuring consumption but not storage: every consumer is capped by the
  golden format's decode speed);
- ``N->N``    — one SF per unique CF (no coalescing).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.codec.model import retrieval_speed_x
from repro.core.config import VStoreConfig, storage_profiler
from repro.core.storage import Consumer, SFNode, initial_nodes
from repro.formats import Fidelity, GOLDEN_CODING, StorageFormat
from repro.ops.library import OPERATORS


@dataclass(frozen=True)
class StagePlanEntry:
    """Retrieval/consumption plan for one operator at one accuracy."""

    cf: Fidelity
    sf_id: str
    consumption_speed_x: float
    retrieval_x: float  # retrieval speed for this consumer's sampling rate


@dataclass(frozen=True)
class FormatProvider:
    """Maps (operator, accuracy) -> StagePlanEntry, plus the stored SF set."""

    name: str
    entries: dict[tuple[str, float], StagePlanEntry]
    sfs: dict[str, StorageFormat]

    def entry(self, op_name: str, acc: float) -> StagePlanEntry:
        return self.entries[(op_name, acc)]


def _provider(
    name: str,
    sfs: dict[str, StorageFormat],
    route: Callable[[Consumer], tuple[Fidelity, str]],
    cfg: VStoreConfig,
    motion: float,
) -> FormatProvider:
    """Provider in which each consumer ``c`` consumes fidelity ``cf``
    retrieved from ``sfs[sf_id]``, where ``(cf, sf_id) = route(c)``."""
    entries = {}
    for c in cfg.consumers:
        cf, sf_id = route(c)
        entries[(c.op_name, c.target_acc)] = StagePlanEntry(
            cf=cf,
            sf_id=sf_id,
            consumption_speed_x=OPERATORS[c.op_name].consumption_speed_x(cf),
            retrieval_x=retrieval_speed_x(sfs[sf_id], cf.sampling, motion),
        )
    return FormatProvider(name, entries, sfs)


def _from_nodes(
    name: str, ids: list[str], nodes: list[SFNode], cfg: VStoreConfig, motion: float
) -> FormatProvider:
    """Provider that retrieves each consumer's CF from the node serving it."""
    sfs = {sf_id: n.storage_format() for sf_id, n in zip(ids, nodes)}
    sf_id_of = {c: sf_id for sf_id, n in zip(ids, nodes) for c in n.consumers}
    return _provider(name, sfs, lambda c: (c.cf, sf_id_of[c]), cfg, motion)


def vstore_provider(cfg: VStoreConfig, motion: float) -> FormatProvider:
    return _from_nodes("vstore", cfg.storage.sf_ids(), cfg.storage.nodes, cfg, motion)


def one_to_one_provider(cfg: VStoreConfig, motion: float) -> FormatProvider:
    """Golden format in, golden fidelity out (consumers get full fidelity)."""
    g = StorageFormat(cfg.storage.golden.fidelity, GOLDEN_CODING)
    return _provider("1->1", {"SFg": g}, lambda c: (g.fidelity, "SFg"), cfg, motion)


def one_to_n_provider(cfg: VStoreConfig, motion: float) -> FormatProvider:
    """Golden format in, VStore CFs out (decode golden at each consumer's
    sampling, convert per consumer)."""
    g = StorageFormat(cfg.storage.golden.fidelity, GOLDEN_CODING)
    return _provider("1->N", {"SFg": g}, lambda c: (c.cf, "SFg"), cfg, motion)


def n_to_n_provider(cfg: VStoreConfig, motion: float) -> FormatProvider:
    """One SF per unique CF, adequate min-size coding, no coalescing."""
    nodes = initial_nodes(storage_profiler(), cfg.consumers)[1:]
    ids = [f"SF{i:02d}" for i in range(len(nodes))]
    return _from_nodes("N->N", ids, nodes, cfg, motion)


_PROVIDERS = {
    "vstore": vstore_provider,
    "1->1": one_to_one_provider,
    "1->N": one_to_n_provider,
    "N->N": n_to_n_provider,
}


def make_provider(kind: str, cfg: VStoreConfig, motion: float) -> FormatProvider:
    """Build one of the four §6.2 configurations."""
    return _PROVIDERS[kind](cfg, motion)
