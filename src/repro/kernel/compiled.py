"""The compiled transition-table kernel.

Every analysis layer in this repository bottoms out in the same hot
path: :meth:`repro.kernel.system.System.enabled_events` /
:meth:`~repro.kernel.system.System.apply` dispatching over boxed
:class:`~repro.kernel.system.Configuration` and event tuples, re-deriving
enabled events and re-hashing whole configurations on every step.  The
paper's protocols are small finite automata over a finite alphabet, so
the *product* system (sender state x receiver state x channel states x
output) is itself a finite automaton -- and a finite automaton can be
compiled once into dense integer transition tables, the standard trick in
explicit-state model checkers.

:class:`CompiledSystem` wraps one :class:`~repro.kernel.system.System`
and maintains:

* **interned state ids** -- every distinct reachable configuration gets a
  dense integer id (collapse compression via
  :class:`repro.kernel.intern.ConfigurationInterner`), assigned in first-
  visit order;
* **interned event ids** -- every distinct event tuple gets a dense
  integer id;
* **a flat successor table** -- ``row(sid)`` is the tuple of
  ``(event_id, next_state_id)`` pairs in exactly
  ``System.enabled_events`` order, so integer traversals visit successors
  in the same order object-graph traversals do (the property that makes
  the fast paths bit-identical);
* **per-state safety / completion bits** -- ``output_is_safe`` /
  ``output_is_complete``, stored for each state at intern time.

Rows are built through a **frame-keyed successor memo**.  An event reads
and writes only the few configuration fields its kind names in
:data:`repro.kernel.system.EVENT_FRAMES` (a sender step touches the
sender and the S->R channel, a drop only its channel), and the automata
and channels are pure.  So the successor's component ids in those fields
are a function of the event and the parent's component ids in the same
fields: the table keys each edge on exactly that, calls
:meth:`System.apply <repro.kernel.system.System.apply>` only the first
time it sees a key, and for every later edge with the same key splices
the remembered ids into the parent's key and looks the successor up by
key, without building a configuration.  The enabled-event list is
memoized the same way on the two channel ids, and the safety and
completion bits on the output id.  ``apply`` stays the only
implementation of the dynamics; the memo only decides when to call it.
State ids, event ids, rows and snapshots are exactly what one ``apply``
call per edge produces.

Compilation is **lazy**: a state's row is built (and its successors
interned) the first time the row is requested, so unreachable states cost
nothing and systems with unbounded state spaces still work under the
existing ``max_states`` / ``max_copies`` caps -- the table simply grows
monotonically as far as its users walk it.

The integer fast paths that consume this table are
:func:`repro.verify.explorer.explore_compiled` and
:func:`repro.kernel.simulator.simulate_compiled`; both produce
bit-identical results to their object-graph twins.  A populated table can
be exported with :meth:`CompiledSystem.snapshot` and revived with
:meth:`CompiledSystem.from_snapshot` -- the hook the content-addressed
result cache (:mod:`repro.analysis.cache`) uses to skip recompilation
across processes and CI runs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.kernel.errors import SimulationError
from repro.kernel.intern import ConfigurationInterner, Key
from repro.kernel.system import (
    ALL_FIELDS,
    ENABLED_FRAME,
    VERDICT_FRAME,
    Configuration,
    Event,
    System,
    event_frame,
)

#: Version tag embedded in snapshots; bump when the table layout changes.
SNAPSHOT_SCHEMA = "stp-compiled/1"

Edge = Tuple[int, int]
Row = Tuple[Edge, ...]

_ENABLED_READS = itemgetter(*ENABLED_FRAME)
_VERDICT_READS = itemgetter(*VERDICT_FRAME)


def _splicer(frame: Tuple[int, ...]) -> Callable[[Tuple[int, ...]], Key]:
    """``splice(key + written)``: ``written`` in ``frame``, ``key`` elsewhere.

    ``written`` holds one component id per field of ``frame``, in frame
    order; the result is a full key.
    """
    return itemgetter(
        *(
            len(ALL_FIELDS) + frame.index(field) if field in frame else field
            for field in ALL_FIELDS
        )
    )


class CompiledSystem:
    """Lazily compiled integer transition tables for one system.

    The compiled form is exact: state ``sid`` *is* the configuration
    ``config_of(sid)``, and an edge ``(eid, nid)`` in ``row(sid)`` means
    ``system.apply(config_of(sid), event_of(eid)) == config_of(nid)``.
    Rows preserve ``enabled_events`` order, so any traversal over the
    integer table reproduces the object-graph traversal step for step.
    """

    __slots__ = (
        "system",
        "_interner",
        "_configs",
        "_keys",
        "_safe",
        "_complete",
        "_rows",
        "_rows_nodrop",
        "_succ",
        "_succ_nodrop",
        "_edge_by_event",
        "_events",
        "_event_ids",
        "_event_is_drop",
        "_moves",
        "_enabled_memo",
        "_verdict_memo",
    )

    def __init__(self, system: System) -> None:
        self.system = system
        self._interner = ConfigurationInterner()
        self._configs: List[Configuration] = []
        self._keys: List[Key] = []
        self._safe = bytearray()
        self._complete = bytearray()
        self._rows: List[Optional[Row]] = []
        self._rows_nodrop: List[Optional[Row]] = []
        self._succ: List[Optional[Tuple[int, ...]]] = []
        self._succ_nodrop: List[Optional[Tuple[int, ...]]] = []
        self._edge_by_event: List[Optional[Dict[Event, int]]] = []
        self._events: List[Event] = []
        self._event_ids: Dict[Event, int] = {}
        self._event_is_drop: List[bool] = []
        # The frame-keyed memos (module docstring).  Per event id: the
        # successor memo (parent's ids in the frame -> successor's ids in
        # the frame), the getter of the frame's ids, the splicer, and the
        # frame itself.
        self._moves: List[
            Tuple[Dict, Callable, Callable, Tuple[int, ...]]
        ] = []
        # Channel ids -> enabled event ids; output id -> (safe, complete).
        self._enabled_memo: Dict[object, Tuple[int, ...]] = {}
        self._verdict_memo: Dict[object, Tuple[int, int]] = {}
        obs.add("compiled.tables")

    # -- interning -------------------------------------------------------

    def _ensure_state(self, config: Configuration) -> int:
        """The dense id of ``config``, interning it on first sight."""
        return self._ensure_key(self._interner.key(config), config)

    def _ensure_key(
        self, key: Key, config: Optional[Configuration] = None
    ) -> int:
        """The dense id of the state with ``key``, interned on first sight.

        ``config`` is that state's configuration when the caller has it;
        otherwise it is decoded from ``key`` if the state is new.
        """
        state_id, is_new = self._interner.ensure_key(key)
        if is_new:
            if config is None:
                config = self._interner.decode(key)
            self._configs.append(config)
            self._keys.append(key)
            reads = _VERDICT_READS(key)
            verdict = self._verdict_memo.get(reads)
            if verdict is None:
                verdict = (
                    1 if self.system.output_is_safe(config) else 0,
                    1 if self.system.output_is_complete(config) else 0,
                )
                self._verdict_memo[reads] = verdict
            self._safe.append(verdict[0])
            self._complete.append(verdict[1])
            self._rows.append(None)
            self._rows_nodrop.append(None)
            self._succ.append(None)
            self._succ_nodrop.append(None)
            self._edge_by_event.append(None)
        return state_id

    def _ensure_event(self, event: Event) -> int:
        event_id = self._event_ids.get(event)
        if event_id is None:
            event_id = len(self._events)
            self._event_ids[event] = event_id
            self._events.append(event)
            self._event_is_drop.append(event[0] == "drop")
            frame = event_frame(event)
            self._moves.append(
                ({}, itemgetter(*frame), _splicer(frame), frame)
            )
        return event_id

    def initial_id(self) -> int:
        """The id of the system's initial configuration."""
        return self._ensure_state(self.system.initial())

    # -- the successor table ---------------------------------------------

    def row(self, state_id: int) -> Row:
        """``(event_id, next_state_id)`` edges in ``enabled_events`` order.

        Built on first request (interning every successor); cached
        afterwards.  ``System.apply`` runs once per distinct event and
        parent ids in the event's frame (module docstring), so at most
        once per (state, event) pair and usually far less often.
        """
        cached = self._rows[state_id]
        if cached is not None:
            return cached
        system = self.system
        config = self._configs[state_id]
        key = self._keys[state_id]
        reads = _ENABLED_READS(key)
        event_ids = self._enabled_memo.get(reads)
        if event_ids is None:
            event_ids = tuple(
                map(self._ensure_event, system.enabled_events(config))
            )
            self._enabled_memo[reads] = event_ids
        moves = self._moves
        ensure_key = self._ensure_key
        edges: List[Edge] = []
        for event_id in event_ids:
            memo, frame_reads, splice, frame = moves[event_id]
            before = frame_reads(key)
            after = memo.get(before)
            if after is None:
                successor = system.apply(config, self._events[event_id])
                after = self._interner.component_ids(
                    successor.components(), frame
                )
                memo[before] = after
            edges.append((event_id, ensure_key(splice(key + after))))
        row: Row = tuple(edges)
        # One guarded call per *materialized* row: the warm fast path
        # (cached return above) pays nothing.
        obs.add("compiled.rows_materialized")
        self._rows[state_id] = row
        is_drop = self._event_is_drop
        nodrop = tuple(edge for edge in row if not is_drop[edge[0]])
        self._rows_nodrop[state_id] = nodrop
        return row

    def row_without_drops(self, state_id: int) -> Row:
        """:meth:`row` with the environment's explicit drop moves removed."""
        cached = self._rows_nodrop[state_id]
        if cached is None:
            self.row(state_id)
            cached = self._rows_nodrop[state_id]
        return cached

    def succ_row(self, state_id: int) -> Tuple[int, ...]:
        """Unique successor ids of ``state_id`` in first-occurrence order.

        The event labels are dropped and duplicate targets collapsed (a
        state reached by several enabled events appears once), which is
        exactly the view a set-based frontier sweep needs.  Self-loops are
        kept: whether a self-edge matters is the *consumer's* policy (the
        batched engine prunes them because set-BFS evolution is unchanged
        without them).

        Derived lazily from the edge row on first request, so scalar
        users (which never call this) pay nothing for the cache.
        """
        cached = self._succ[state_id]
        if cached is None:
            cached = tuple(
                dict.fromkeys(nid for _, nid in self.row(state_id))
            )
            self._succ[state_id] = cached
        return cached

    def succ_row_without_drops(self, state_id: int) -> Tuple[int, ...]:
        """:meth:`succ_row` restricted to non-drop events."""
        cached = self._succ_nodrop[state_id]
        if cached is None:
            cached = tuple(
                dict.fromkeys(
                    nid for _, nid in self.row_without_drops(state_id)
                )
            )
            self._succ_nodrop[state_id] = cached
        return cached

    def enabled(self, state_id: int) -> Tuple[Event, ...]:
        """Decoded enabled events -- equal to ``System.enabled_events``."""
        return tuple(self._events[event_id] for event_id, _ in self.row(state_id))

    def step(self, state_id: int, event: Event) -> int:
        """The successor id under ``event``.

        Raises :class:`~repro.kernel.errors.SimulationError` if ``event``
        is not enabled at ``state_id``.
        """
        edges = self._edge_by_event[state_id]
        if edges is None:
            edges = {
                self._events[event_id]: next_id
                for event_id, next_id in self.row(state_id)
            }
            self._edge_by_event[state_id] = edges
        try:
            return edges[event]
        except KeyError:
            raise SimulationError(
                f"event {event!r} is not enabled at compiled state "
                f"{state_id}; enabled: {self.enabled(state_id)!r}"
            ) from None

    # -- decoding / predicates -------------------------------------------

    def config_of(self, state_id: int) -> Configuration:
        """The configuration interned as ``state_id``."""
        return self._configs[state_id]

    def event_of(self, event_id: int) -> Event:
        """The event tuple interned as ``event_id``."""
        return self._events[event_id]

    def is_safe(self, state_id: int) -> bool:
        """Precomputed ``output_is_safe`` bit for ``state_id``."""
        return bool(self._safe[state_id])

    def is_complete(self, state_id: int) -> bool:
        """Precomputed ``output_is_complete`` bit for ``state_id``."""
        return bool(self._complete[state_id])

    def __len__(self) -> int:
        """Number of configurations interned so far."""
        return len(self._configs)

    @property
    def compiled_rows(self) -> int:
        """Number of states whose successor row has been built."""
        return sum(1 for row in self._rows if row is not None)

    @property
    def event_count(self) -> int:
        """Number of distinct events interned so far."""
        return len(self._events)

    # -- snapshots (for the on-disk result cache) ------------------------

    def snapshot(self) -> Dict[str, object]:
        """A picklable export of the table (configs, rows, events, bits)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "configs": tuple(self._configs),
            "rows": tuple(self._rows),
            "events": tuple(self._events),
            "safe": bytes(self._safe),
            "complete": bytes(self._complete),
        }

    @classmethod
    def from_snapshot(
        cls, system: System, snapshot: Dict[str, object]
    ) -> "CompiledSystem":
        """Revive a compiled table for ``system`` from :meth:`snapshot`.

        The snapshot must come from an identical system (the cache layer
        guarantees this by fingerprinting); ids are re-assigned in the
        stored order, so they match the exporting process exactly.

        A malformed snapshot -- mismatched table lengths, or a row edge
        referencing an out-of-range event or state id -- raises
        :class:`~repro.kernel.errors.SimulationError` instead of
        producing a table that fails later mid-traversal.  Fabric
        workers revive snapshots published by *other* processes into a
        shared store, so a truncated or corrupted blob must be rejected
        at the boundary (the cache layer turns the rejection into a
        miss and recompiles).
        """
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise SimulationError(
                f"unsupported compiled-system snapshot: "
                f"{snapshot.get('schema')!r}"
            )
        configs = snapshot["configs"]
        events = snapshot["events"]
        rows = snapshot["rows"]
        safe = snapshot.get("safe", b"")
        complete = snapshot.get("complete", b"")
        state_count = len(configs)  # type: ignore[arg-type]
        event_count = len(events)  # type: ignore[arg-type]
        if len(rows) != state_count:  # type: ignore[arg-type]
            raise SimulationError(
                f"corrupt compiled-system snapshot: {len(rows)} rows "  # type: ignore[arg-type]
                f"for {state_count} configurations"
            )
        if len(safe) != state_count or len(complete) != state_count:  # type: ignore[arg-type]
            raise SimulationError(
                "corrupt compiled-system snapshot: predicate bit arrays "
                f"({len(safe)}/{len(complete)}) do not cover "  # type: ignore[arg-type]
                f"{state_count} configurations"
            )
        compiled = cls(system)
        obs.add("compiled.tables_revived")
        for config in snapshot["configs"]:  # type: ignore[union-attr]
            compiled._ensure_state(config)
        for event in snapshot["events"]:  # type: ignore[union-attr]
            compiled._ensure_event(event)
        is_drop = compiled._event_is_drop
        for state_id, row in enumerate(snapshot["rows"]):  # type: ignore[arg-type]
            if row is None:
                continue
            for event_id, next_id in row:
                if not (0 <= event_id < event_count and 0 <= next_id < state_count):
                    raise SimulationError(
                        f"corrupt compiled-system snapshot: row {state_id} "
                        f"edge ({event_id}, {next_id}) exceeds "
                        f"{event_count} events / {state_count} states"
                    )
            compiled._rows[state_id] = row
            nodrop = tuple(edge for edge in row if not is_drop[edge[0]])
            compiled._rows_nodrop[state_id] = nodrop
        return compiled


def compile_system(system: System) -> CompiledSystem:
    """Convenience constructor mirroring the module-level naming scheme."""
    return CompiledSystem(system)
