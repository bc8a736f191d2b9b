"""The batched frontier engine: level-synchronous BFS over compiled rows.

:func:`repro.verify.explorer.explore_compiled` walks the compiled
transition table one state at a time: a Python-level loop over every
``(event_id, next_id)`` edge of every frontier state, with a per-successor
membership test, safety probe, and list append.  For the exhaustive
sweeps the experiments actually run (65 family inputs x hundreds of tiny
state spaces, re-verified on every campaign point) that per-state
interpreter overhead dominates the real work.

This module processes **whole frontiers at once** and pushes the inner
loops into C:

* :func:`explore_batched` -- a drop-in for ``explore_compiled`` that
  expands each BFS level with one ``set().union(*map(succ_row, ...))``
  bulk step and one ``difference_update`` against the visited set.  Its
  report is **bit-identical** to the scalar engine's (timing fields
  aside); the order-sensitive cases it cannot replicate set-wise -- a
  Safety violation, or a ``max_states`` budget that runs out in the
  *middle* of a level -- are delegated wholesale to the scalar search,
  which recomputes the exact answer over the (now warm) table.
* :func:`explore_multi_source_batched` -- the same level step seeded
  with a whole set of corrupt initial states, for stabilization
  analysis (:mod:`repro.resilience.stabilize`).

Layering note: this module lives in the kernel because it is a traversal
over :class:`~repro.kernel.compiled.CompiledSystem`, but it *produces*
:class:`~repro.verify.explorer.ExplorationReport` values and delegates to
the scalar explorer for order-sensitive cases.  The explorer already
imports the kernel, so those imports happen lazily inside functions to
keep the import graph acyclic (``repro.verify`` re-exports everything
here).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro import obs
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
# report plumbing
# ---------------------------------------------------------------------------


_REPORT_CLS = None


def _report_cls():
    """The ExplorationReport class, imported lazily once (see the module
    docstring's layering note) and cached for the hot paths."""
    global _REPORT_CLS
    if _REPORT_CLS is None:
        from repro.verify.explorer import ExplorationReport

        _REPORT_CLS = ExplorationReport
    return _REPORT_CLS


def _fast_report(**fields):
    """Construct an ExplorationReport without the frozen-dataclass
    ``__init__``/``__setattr__`` toll (measured 3x cheaper; ``==``,
    ``hash`` and ``dataclasses.replace`` behave identically because the
    class is a plain non-slots frozen dataclass)."""
    cls = _report_cls()
    report = cls.__new__(cls)
    report.__dict__.update(fields)
    return report


def _unsafe_initial_report(completion_reachable: bool, start: float):
    return _fast_report(
        states=1,
        all_safe=False,
        violation_path=(),
        completion_reachable=completion_reachable,
        truncated=False,
        expanded_states=0,
        peak_frontier=1,
        elapsed_seconds=time.perf_counter() - start,
        states_per_second=0.0,
    )


# ---------------------------------------------------------------------------
# single-system batched search
# ---------------------------------------------------------------------------


def _explore_batched_core(
    system: System,
    max_states: int,
    include_drops: bool,
    store_parents: bool,
    compiled: Optional[CompiledSystem],
):
    """Level-synchronous search.

    Returns ``(report, stats)``; ``stats`` is None for delegated runs.
    """
    from repro.verify.explorer import _explore_table

    if max_states < 1:
        raise VerificationError("max_states must be positive")
    start = time.perf_counter()
    table = compiled if compiled is not None else CompiledSystem(system)
    initial_id = table.initial_id()
    completion_reachable = table.is_complete(initial_id)
    if not table.is_safe(initial_id):
        return _unsafe_initial_report(completion_reachable, start), None
    visited = {initial_id}
    frontier = {initial_id}
    expanded = 0
    peak_frontier = 1
    depth = 0

    succ = table.succ_row if include_drops else table.succ_row_without_drops
    safe = table._safe
    complete = table._complete
    truncated = False

    while frontier:
        width = len(frontier)
        if width > peak_frontier:
            peak_frontier = width
        remaining = max_states - expanded
        if remaining == 0:
            # The scalar engine charges budget per expanded state and
            # checks *before* expanding, so an exhausted budget at a
            # level boundary truncates with the peak already counted --
            # replicated here exactly.
            truncated = True
            break
        if remaining < width:
            # Mid-level truncation depends on scalar discovery order,
            # which sets do not preserve: recompute exactly.  The table
            # is warm, so this costs one integer-only scalar pass.
            return (
                _explore_table(
                    system, max_states, include_drops, store_parents, table
                ),
                None,
            )
        new = set().union(*map(succ, frontier))
        new.difference_update(visited)
        expanded += width
        depth += 1
        if not new:
            break
        if not all(map(safe.__getitem__, new)):
            # Which violating state the scalar search reaches first (and
            # hence the shortest witness path) is order-defined: delegate.
            return (
                _explore_table(
                    system, max_states, include_drops, store_parents, table
                ),
                None,
            )
        if not completion_reachable and any(
            map(complete.__getitem__, new)
        ):
            completion_reachable = True
        visited.update(new)
        frontier = new

    elapsed = time.perf_counter() - start
    report = _fast_report(
        states=len(visited),
        all_safe=True,
        violation_path=None,
        completion_reachable=completion_reachable,
        truncated=truncated,
        expanded_states=expanded,
        peak_frontier=peak_frontier,
        elapsed_seconds=elapsed,
        states_per_second=expanded / elapsed if elapsed > 0 else 0.0,
    )
    return report, {"depth": depth, "width": peak_frontier}


def explore_batched(
    system: System,
    max_states: int = 1_000_000,
    include_drops: bool = True,
    store_parents: bool = True,
    compiled: Optional[CompiledSystem] = None,
):
    """Batched twin of :func:`~repro.verify.explorer.explore_compiled`.

    The report is bit-identical to ``explore_compiled`` in every
    non-timing field: order-free levels are processed set-at-a-time, and
    the two order-sensitive cases (Safety violation; budget exhausted
    mid-level) fall back to the exact scalar search over the warm table.

    ``store_parents`` has no effect on the batched sweep itself (it keeps
    no parent links); it is forwarded to the scalar fallback, whose
    report is the same either way.
    """
    if not obs.enabled():
        return _explore_batched_core(
            system, max_states, include_drops, store_parents, compiled
        )[0]
    from repro.verify.explorer import _note_search

    with obs.span("explore", compiled=True, engine="batched") as _span:
        report, stats = _explore_batched_core(
            system, max_states, include_drops, store_parents, compiled
        )
        _note_search(_span, report, compiled=True)
        if stats is not None:
            obs.gauge_set("frontier.depth", stats["depth"])
            obs.gauge_set("frontier.width", stats["width"])
        return report


#: The benchmark's tracer (``perfbench/tracing.py``) still wraps this
#: name; nothing in the library calls it.
explore_batched_resumable = explore_batched
