"""Level-synchronous multi-source BFS over compiled rows.

:func:`explore_multi_source_batched` expands a whole frontier per level
with one ``set().union(*map(succ_row, ...))`` bulk step and one
``difference_update`` against the visited set, seeded with a whole set
of corrupt initial states.  Stabilization analysis
(:mod:`repro.resilience.stabilize`) runs on it: a set-seeded search has
no per-state discovery order to preserve, and its verdicts are
graph-isomorphism invariants.

Single-system exploration has one fast engine,
:func:`repro.verify.explorer.explore_compiled`, which walks the same
compiled rows in the object-graph oracle's order.  The names
:func:`explore_batched` and :func:`explore_batched_resumable` remain
only as delegating stubs for the benchmark's tracer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.kernel.compiled import CompiledSystem
from repro.kernel.errors import VerificationError
from repro.kernel.system import System


# ---------------------------------------------------------------------------
# multi-source BFS (corrupted-start exploration)
# ---------------------------------------------------------------------------


def explore_multi_source_batched(
    table: CompiledSystem,
    sources: Sequence[int],
    legitimate: frozenset,
    max_states: int = 1_000_000,
    include_drops: bool = True,
) -> Tuple[set, Tuple[int, ...]]:
    """Level-synchronous BFS seeded with a whole corrupt initial set.

    Instead of the singleton clean init, the frontier starts as *every*
    illegitimate source at once; states of ``legitimate`` (the
    clean-reachable set) absorb the search -- they are never expanded,
    because everything reachable from them is legitimate territory the
    caller already knows.  Returns ``(visited, widths)``: the set of
    every illegitimate state id reachable from the sources, and the
    per-level frontier widths (level ``k`` of the BFS is exactly the set
    of illegitimate states whose shortest corrupt-path distance from the
    source set is ``k``).

    The result is an order-free pair of sets/counts, so per-source
    stabilization verdicts derived from it cannot depend on state-id
    numbering or source order.  A ``max_states`` overflow raises
    :class:`~repro.kernel.errors.VerificationError` rather than
    truncating: a truncated corrupt reachability graph would make every
    downstream verdict unsound.
    """
    if max_states < 1:
        raise VerificationError("max_states must be positive")
    succ = table.succ_row if include_drops else table.succ_row_without_drops
    frontier = {sid for sid in sources if sid not in legitimate}
    visited = set(frontier)
    widths: List[int] = []
    while frontier:
        widths.append(len(frontier))
        if len(visited) > max_states:
            raise VerificationError(
                f"corrupted-start exploration exceeded max_states="
                f"{max_states}; raise the budget (verdicts from a "
                f"truncated graph would be unsound)"
            )
        new = set().union(*map(succ, frontier))
        new.difference_update(visited)
        new.difference_update(legitimate)
        visited.update(new)
        frontier = new
    return visited, tuple(widths)




# ---------------------------------------------------------------------------
# retired names
# ---------------------------------------------------------------------------


def explore_batched(
    system: System,
    max_states: int = 1_000_000,
    include_drops: bool = True,
    store_parents: bool = True,
    compiled: Optional[CompiledSystem] = None,
):
    """:func:`~repro.verify.explorer.explore_compiled` under a retired name.

    The batched single-system engine is gone; nothing in the library
    calls this.  It stays only because the benchmark's tracer
    (``perfbench/tracing.py``) wraps this name and refuses to run when
    a target no longer resolves.
    """
    from repro.verify.explorer import explore_compiled

    return explore_compiled(
        system, max_states, include_drops, store_parents, compiled
    )


explore_batched_resumable = explore_batched
