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
stabilize  ``stabilize``        --                :mod:`repro.fabric.sweep`
========== ==================== ================= =========================

Campaign cells keep their PR 8 execution path (fork-supervised single
runs bound to a loaded plan); the sweep kinds are executed here, from
self-describing :class:`~repro.fabric.sweep.SweepCell` payloads.  A
sweep cell is one family member, run through exactly the serial path
(:func:`~repro.analysis.cache.cached_explore` /
:func:`~repro.analysis.cache.cached_stabilize`), so its stored result
*is* the member result and the cell writes that one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.analysis.cache import (
    ResultCache,
    explore_report_key,
    stabilize_report_key,
)
from repro.fabric.planner import CAMPAIGN_CELL_KIND, CAMPAIGN_OUTCOME_KIND
from repro.fabric.spec import FabricError
from repro.fabric.sweep import (
    SweepCell,
    build_explore_system,
    build_stabilize_system,
)

@dataclass(frozen=True)
class CellKindSpec:
    """One registered cell kind.

    Attributes:
        name: the kind tag carried in queue tickets.
        result_kind: cache kind of the per-cell payload.
        merged_kind: cache kind of the merged result, or None when
            cells *are* member results (explore, stabilize).
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
        result_kind="stabilize",
        merged_kind=None,
        description="one member's corrupted-start verdict sheet",
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
    """True when ``cell``'s member result is already in the store.

    Whichever path stored it -- a fabric worker, ``serial_sweep`` or a
    plain ``cached_*`` call -- satisfies the cell.
    """
    return cache.get(cell_kind(cell.kind).result_kind, cell.cell_id) is not None


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise FabricError(message)


def execute_sweep_cell(
    cell: SweepCell, cache: ResultCache, heartbeat=None
) -> None:
    """Compute one sweep cell and publish its payload into ``cache``.

    Recomputes the cell's keys from its own parameters and refuses a
    cell whose id does not match -- the same forged-ticket refusal the
    campaign path applies through its plan binding.  Raises
    :class:`FabricError` / :class:`VerificationError` on failure; on
    return the payload is in the store.
    """
    if cell.kind == "explore":
        _execute_explore(cell, cache, heartbeat)
    elif cell.kind == "stabilize":
        _execute_stabilize(cell, cache, heartbeat)
    else:
        raise FabricError(
            f"cell kind {cell.kind!r} has no sweep executor"
        )


def _execute_explore(
    cell: SweepCell, cache: ResultCache, heartbeat=None
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
    if heartbeat is not None:
        heartbeat()
    # The serial path: one search, one ``explore`` entry.
    cached_explore(
        system,
        max_states=cell.max_states,
        include_drops=cell.include_drops,
        cache=cache,
    )


def _execute_stabilize(
    cell: SweepCell, cache: ResultCache, heartbeat=None
) -> None:
    from repro.analysis.cache import cached_stabilize

    system = build_stabilize_system(
        cell.protocol,
        cell.channel,
        cell.input_sequence,
        cell.domain,
        capacity=cell.capacity,
    )
    knobs: Dict[str, Any] = dict(
        max_states=cell.max_states,
        include_drops=cell.include_drops,
        corruption=cell.corruption,
        channel_depth=cell.channel_depth,
        sample=cell.sample,
        seed=cell.seed,
        domain=cell.domain,
    )
    report_key = stabilize_report_key(system, **knobs)
    _check(
        report_key == cell.result_key == cell.cell_id,
        f"stabilize cell {cell.cell_id[:12]} does not match its parameters",
    )
    if heartbeat is not None:
        heartbeat()
    # The serial path: one analysis, one ``stabilize`` entry.
    cached_stabilize(system, cache=cache, **knobs)


def merge_stabilize_member(
    cell: SweepCell, cache: ResultCache
) -> Optional[object]:
    """The member's stored :class:`StabilizationResult`, or None.

    Kept as a name ``perfbench/tracing.py`` wraps; a stabilize cell
    stores its member result directly, so there is nothing to merge.
    """
    return cache.get("stabilize", cell.result_key)


def kind_of_ticket(ticket: Dict[str, object]) -> str:
    """The cell kind a queue ticket carries (untyped tickets: campaign)."""
    embedded = ticket.get("cell")
    if isinstance(embedded, dict):
        return str(embedded.get("kind", "campaign"))
    return "campaign"


__all__: Tuple[str, ...] = (
    "CellKindSpec",
    "CELL_KINDS",
    "cell_kind",
    "sweep_cell_warm",
    "execute_sweep_cell",
    "merge_stabilize_member",
    "kind_of_ticket",
)
