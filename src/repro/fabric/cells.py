"""The typed cell-kind registry and sweep-cell executors.

The fabric queue carries opaque cell ids; what an id *means* -- which
cache kind holds its payload, how a worker computes it, how results
merge -- is the cell's **kind**.  PR 8 hardcoded one kind (campaign
runs); this registry names them all:

========== ==================== ================= =========================
kind       cell payload kind    merged kind       planned by
========== ==================== ================= =========================
campaign   ``run``              ``campaign``      :mod:`repro.fabric.planner`
explore    ``explore``          --                :mod:`repro.fabric.sweep`
stabilize  ``stabilize-shard``  ``stabilize``     :mod:`repro.fabric.sweep`
========== ==================== ================= =========================

Campaign cells keep their PR 8 execution path (fork-supervised single
runs bound to a loaded plan); the sweep kinds are executed here, from
self-describing :class:`~repro.fabric.sweep.SweepCell` payloads, with
the compiled-table discipline that makes a fleet fast: each worker keeps
a :class:`~repro.analysis.cache.CompiledTableCache`, so a distinct
system is compiled once fleet-wide and revived everywhere else.

Stabilize shards also merge *opportunistically*: the worker that
completes a member's last outstanding shard reassembles and publishes
the full :class:`StabilizationResult` under the member's
``stabilize`` report key, so a drained queue needs no separate merge
pass before ``cached_stabilize`` runs warm.  Racing last-workers are
safe -- the merge is deterministic over the stored shard payloads, so
both publish identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.analysis.cache import (
    CompiledTableCache,
    ResultCache,
    explore_report_key,
    stabilize_report_key,
    stabilize_shard_key,
    system_fingerprint,
)
from repro.fabric.planner import CAMPAIGN_CELL_KIND, CAMPAIGN_OUTCOME_KIND
from repro.fabric.spec import FabricError
from repro.fabric.sweep import (
    SweepCell,
    build_explore_system,
    build_stabilize_system,
)

#: Cache kind holding stabilize shard payloads.
STABILIZE_SHARD_KIND = "stabilize-shard"


@dataclass(frozen=True)
class CellKindSpec:
    """One registered cell kind.

    Attributes:
        name: the kind tag carried in queue tickets.
        result_kind: cache kind of the per-cell payload.
        merged_kind: cache kind of the member-level merged result, or
            None when cells *are* member results (explore).
        description: one line for status displays.
    """

    name: str
    result_kind: str
    merged_kind: Optional[str]
    description: str


CELL_KINDS: Dict[str, CellKindSpec] = {
    "campaign": CellKindSpec(
        name="campaign",
        result_kind=CAMPAIGN_CELL_KIND,
        merged_kind=CAMPAIGN_OUTCOME_KIND,
        description="one supervised (input, seed) campaign run",
    ),
    "explore": CellKindSpec(
        name="explore",
        result_kind="explore",
        merged_kind=None,
        description="one exhaustive exploration of a family member",
    ),
    "stabilize": CellKindSpec(
        name="stabilize",
        result_kind=STABILIZE_SHARD_KIND,
        merged_kind="stabilize",
        description="one shard of a corrupted-start verdict sheet",
    ),
}


def cell_kind(name: str) -> CellKindSpec:
    """The registered :class:`CellKindSpec`, or a :class:`FabricError`."""
    try:
        return CELL_KINDS[name]
    except KeyError:
        raise FabricError(
            f"unknown cell kind {name!r}; known: {sorted(CELL_KINDS)}"
        ) from None


def sweep_cell_warm(cell: SweepCell, cache: ResultCache) -> bool:
    """True when ``cell``'s work is already in the store.

    Explore cells probe their report; stabilize shards probe the shard
    payload *and* the member's merged result -- either satisfies the
    cell, which is what makes a sweep warmed by a single-host
    ``cached_stabilize`` (any engine, any shard count) claim nothing.
    """
    kind = cell_kind(cell.kind)
    if cache.get(kind.result_kind, cell.cell_id) is not None:
        return True
    if kind.merged_kind is not None:
        return cache.get(kind.merged_kind, cell.result_key) is not None
    return False


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise FabricError(message)


def execute_sweep_cell(
    cell: SweepCell,
    cache: ResultCache,
    tables: CompiledTableCache,
    heartbeat=None,
) -> None:
    """Compute one sweep cell and publish its payload into ``cache``.

    Recomputes the cell's keys from its own parameters and refuses a
    cell whose id does not match -- the same forged-ticket refusal the
    campaign path applies through its plan binding.  Raises
    :class:`FabricError` / :class:`VerificationError` on failure; on
    return the payload is in the store.
    """
    if cell.kind == "explore":
        _execute_explore(cell, cache, tables, heartbeat)
    elif cell.kind == "stabilize":
        _execute_stabilize(cell, cache, tables, heartbeat)
    else:
        raise FabricError(
            f"cell kind {cell.kind!r} has no sweep executor"
        )


def _execute_explore(
    cell: SweepCell,
    cache: ResultCache,
    tables: CompiledTableCache,
    heartbeat=None,
) -> None:
    from repro.analysis.cache import cached_explore

    system = build_explore_system(
        cell.protocol, cell.channel, cell.input_sequence
    )
    report_key = explore_report_key(
        system,
        max_states=cell.max_states,
        include_drops=cell.include_drops,
    )
    _check(
        report_key == cell.result_key == cell.cell_id,
        f"explore cell {cell.cell_id[:12]} does not match its parameters",
    )
    table = tables.table_for(system)
    if heartbeat is not None:
        heartbeat()
    # Stores the report and, once, the grown table's snapshot.
    cached_explore(
        system,
        max_states=cell.max_states,
        include_drops=cell.include_drops,
        cache=cache,
        engine="batched",
        table=table,
    )


def _execute_stabilize(
    cell: SweepCell,
    cache: ResultCache,
    tables: CompiledTableCache,
    heartbeat=None,
) -> None:
    from repro.resilience.stabilize import (
        analyze_stabilization_shard,
        projected_system,
    )

    system = build_stabilize_system(
        cell.protocol,
        cell.channel,
        cell.input_sequence,
        cell.domain,
        capacity=cell.capacity,
    )
    report_key = stabilize_report_key(
        system,
        max_states=cell.max_states,
        include_drops=cell.include_drops,
        corruption=cell.corruption,
        channel_depth=cell.channel_depth,
        sample=cell.sample,
        seed=cell.seed,
        domain=cell.domain,
    )
    _check(
        report_key == cell.result_key,
        f"stabilize cell {cell.cell_id[:12]} result key does not match "
        "its parameters",
    )
    _check(
        stabilize_shard_key(report_key, cell.shard_index, cell.shard_count)
        == cell.cell_id,
        f"stabilize cell {cell.cell_id[:12]} shard key does not match "
        "its parameters",
    )
    # The compiled table is for the *projected* system -- the graph the
    # analysis actually walks -- keyed by its own fingerprint.
    projected = projected_system(system)
    base = system_fingerprint(projected)
    table = tables.table_for(projected, base)
    shard = analyze_stabilization_shard(
        system,
        cell.shard_index,
        cell.shard_count,
        sample=cell.sample,
        seed=cell.seed,
        max_states=cell.max_states,
        channel_depth=cell.channel_depth,
        include_drops=cell.include_drops,
        corruption=cell.corruption,
        table=table,
        heartbeat=heartbeat,
    )
    cache.put(STABILIZE_SHARD_KIND, cell.cell_id, shard)
    tables.publish(base, table)
    merge_stabilize_member(cell, cache)


def merge_stabilize_member(
    cell: SweepCell, cache: ResultCache
) -> Optional[object]:
    """Merge and publish the member's result if every shard is stored.

    The opportunistic last-worker merge: called after each shard
    completes, it probes the member's sibling shard keys and -- when all
    ``shard_count`` payloads are present -- publishes the merged
    :class:`StabilizationResult` under the member's ``stabilize``
    report key.  Returns the merged result, or None while shards are
    still outstanding.  Safe under races: every merger reads the same
    stored payloads and publishes identical bytes.
    """
    from repro.resilience.stabilize import merge_stabilization_shards

    merged = cache.get("stabilize", cell.result_key)
    if merged is not None:
        return merged
    shards = []
    for shard_index in range(cell.shard_count):
        payload = cache.get(
            STABILIZE_SHARD_KIND,
            stabilize_shard_key(
                cell.result_key, shard_index, cell.shard_count
            ),
        )
        if payload is None:
            return None
        shards.append(payload)
    merged = merge_stabilization_shards(shards)
    cache.put("stabilize", cell.result_key, merged)
    obs.add("fabric.sweep.members_merged")
    return merged


def kind_of_ticket(ticket: Dict[str, object]) -> str:
    """The cell kind a queue ticket carries (untyped tickets: campaign)."""
    embedded = ticket.get("cell")
    if isinstance(embedded, dict):
        return str(embedded.get("kind", "campaign"))
    return "campaign"


__all__: Tuple[str, ...] = (
    "STABILIZE_SHARD_KIND",
    "CellKindSpec",
    "CELL_KINDS",
    "cell_kind",
    "sweep_cell_warm",
    "execute_sweep_cell",
    "merge_stabilize_member",
    "kind_of_ticket",
)
