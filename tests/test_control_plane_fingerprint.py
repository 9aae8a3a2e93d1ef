"""Control-plane fingerprint: a sha256 over the seven storage plans the
paper's configuration tables show (the unbudgeted 24-consumer plan of
Table 2 and the six ingest budgets of Table 3) and their erosion
trajectories. It covers each plan's fidelities, codings, sizes, per-rate
retrieval speeds and consumers, the five §6.4 counters, and every state of
the §4.4 deletion trajectory, floats by their exact ``repr``. A speed-up of
the derivation must leave it unchanged; on a mismatch the test names the
first field whose digest moved and prints that field.

To re-pin after a change that is meant to move a number, run this file as a
script: ``PYTHONPATH=src:. python tests/test_control_plane_fingerprint.py``.
"""
import hashlib

import pytest

from jobs.table3_ingest_budget import BUDGETS
from repro.core.config import ConfigOptions, derive_config, storage_profiler
from repro.core.erosion import _trajectory
from repro.core.storage import derive_storage_plan

#: sha256 over every field's digest, in field order
PINNED = "9ed26d2777b4a69451a75bd161aebef88c2b6f0627f81d7f5b8d51826901a070"
#: the first 12 hex digits of each field's sha256
PINNED_FIELDS = {
    "unbudgeted.fidelities": "d5483cc9c858",
    "unbudgeted.codings": "773a21da5325",
    "unbudgeted.sizes": "e5e8cbf6a719",
    "unbudgeted.speeds": "bfc461613805",
    "unbudgeted.consumers": "633813c34fab",
    "unbudgeted.counters": "d53258373d19",
    "unbudgeted.trajectory": "02eb2e5cacf9",
    "budget@12.fidelities": "d5483cc9c858",
    "budget@12.codings": "773a21da5325",
    "budget@12.sizes": "e5e8cbf6a719",
    "budget@12.speeds": "bfc461613805",
    "budget@12.consumers": "633813c34fab",
    "budget@12.counters": "d53258373d19",
    "budget@12.trajectory": "02eb2e5cacf9",
    "budget@8.fidelities": "d5483cc9c858",
    "budget@8.codings": "55de6c491c64",
    "budget@8.sizes": "8ab475d62929",
    "budget@8.speeds": "5fbd2e8e7ad8",
    "budget@8.consumers": "633813c34fab",
    "budget@8.counters": "928752e26392",
    "budget@8.trajectory": "d1f5f772c47b",
    "budget@4.fidelities": "d5483cc9c858",
    "budget@4.codings": "55de6c491c64",
    "budget@4.sizes": "8ab475d62929",
    "budget@4.speeds": "5fbd2e8e7ad8",
    "budget@4.consumers": "633813c34fab",
    "budget@4.counters": "928752e26392",
    "budget@4.trajectory": "d1f5f772c47b",
    "budget@3.fidelities": "d5483cc9c858",
    "budget@3.codings": "3e0b51ce2b9c",
    "budget@3.sizes": "0eb25aedf9a6",
    "budget@3.speeds": "96cbfe2eefbb",
    "budget@3.consumers": "633813c34fab",
    "budget@3.counters": "c624c8bfe252",
    "budget@3.trajectory": "cc8837e8a365",
    "budget@2.fidelities": "d5483cc9c858",
    "budget@2.codings": "3e0b51ce2b9c",
    "budget@2.sizes": "0eb25aedf9a6",
    "budget@2.speeds": "96cbfe2eefbb",
    "budget@2.consumers": "633813c34fab",
    "budget@2.counters": "c624c8bfe252",
    "budget@2.trajectory": "cc8837e8a365",
    "budget@1.fidelities": "b56024f1b0af",
    "budget@1.codings": "d59b74e59f4a",
    "budget@1.sizes": "421bc7f631ac",
    "budget@1.speeds": "33ff632b5e35",
    "budget@1.consumers": "261fc1375f29",
    "budget@1.counters": "488ac8174a5c",
    "budget@1.trajectory": "6a757f7da64e",
}


def _fields(plan) -> dict[str, str]:
    """Canonical text of each fingerprinted field of one plan."""
    nodes, t = plan.nodes, _trajectory(plan)
    return {
        "fidelities": repr([(n.golden, n.fidelity.label()) for n in nodes]),
        "codings": repr([n.coding.label() for n in nodes]),
        "sizes": repr([n.size_kb_per_s for n in nodes]),
        "speeds": repr([sorted(n.profile.speed_by_sampling.items()) for n in nodes]),
        "consumers": repr([[c.label() for c in n.consumers] for n in nodes]),
        "counters": repr((plan.profiling_runs, plan.profiling_hits, plan.pairs_examined,
                          plan.rounds, plan.budget_moves)),
        "trajectory": repr((t.p_min, t.deleted, t.overall, t.storage_kb_s)),
    }


def fingerprint_fields() -> dict[str, str]:
    """``<plan>.<field>`` -> canonical text, over the seven plans."""
    consumers = derive_config(options=ConfigOptions(profiler_mode="local")).consumers
    motion = storage_profiler().ds.motion
    plans = {"unbudgeted": derive_storage_plan(storage_profiler(), consumers)}
    for b in BUDGETS:
        plans[f"budget@{b:g}"] = derive_storage_plan(
            storage_profiler(), consumers, ingest_budget_cores=b, motion=motion
        )
    return {f"{name}.{k}": v for name, plan in plans.items() for k, v in _fields(plan).items()}


def digests(fields: dict[str, str]) -> tuple[str, dict[str, str]]:
    """The total sha256 and each field's sha256."""
    each = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in fields.items()}
    total = hashlib.sha256("".join(f"{k}={d}\n" for k, d in each.items()).encode()).hexdigest()
    return total, each


def test_control_plane_fingerprint():
    fields = fingerprint_fields()
    total, each = digests(fields)
    if total != PINNED:
        first = next(
            (k for k, d in each.items() if d[:12] != PINNED_FIELDS.get(k)),
            "(the field list itself)",
        )
        pytest.fail(
            f"control-plane fingerprint moved: {total} != {PINNED}; "
            f"first differing field: {first} = {fields.get(first, '')[:2000]}"
        )


if __name__ == "__main__":
    total, each = digests(fingerprint_fields())
    print(f'PINNED = "{total}"')
    print("PINNED_FIELDS = {")
    for k, d in each.items():
        print(f'    "{k}": "{d[:12]}",')
    print("}")
