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

Rows are built through a **factored transition memo**.
:meth:`System.apply <repro.kernel.system.System.apply>` composes a few
per-component steps: a delivery or a drop takes the message from its
channel, the receiving process moves
(:meth:`~repro.kernel.system.System.sender_move` /
:meth:`~repro.kernel.system.System.receiver_move`), its sends are
:func:`~repro.kernel.system.put` on its outgoing channel and a
receiver's writes are appended to the output.  The automata and
channels are pure, so each step is a function of the one component id
it reads plus the event's message (or the sends, or the writes).
:meth:`CompiledSystem.row` composes the same steps over a state's key --
its five component ids -- with one memo per step: the process move
keyed on its state id, take and drop on the channel id, the put on the
channel id and the sends, the append on the output id and the writes.
Only a miss runs an automaton or a channel, so their checks (alphabet,
no sender writes, deliverability) raise where ``apply`` would first
raise them; a hit is a few dict lookups, and the successor is looked up
by key without building a configuration.  The enabled-event list is
memoized on the two channel ids and the safety and completion bits on
the output id.  State ids, event ids and rows are exactly what one
``apply`` call per edge produces, and a state's configuration
is decoded from its key only when asked for.  On the benchmark's cold
verification workload (``perfbench`` ``verify-cold``, traced) the
31,398 rows cost no ``apply`` call at all; the frame-keyed memo this
replaced keyed each edge on the three or four components an event
touches and still called ``apply`` 57,536 times.

Compilation is **lazy**: a state's row is built (and its successors
interned) the first time the row is requested, so unreachable states cost
nothing and systems with unbounded state spaces still work under the
existing ``max_states`` / ``max_copies`` caps -- the table simply grows
monotonically as far as its users walk it.

The integer fast paths that consume this table are
:func:`repro.verify.explorer.explore_compiled` and
:func:`repro.kernel.simulator.simulate_compiled`; both produce
bit-identical results to their object-graph twins.  Tables live only as
long as the search that built them: the result cache
(:mod:`repro.analysis.cache`) stores reports, not tables, because each
family member is a distinct system explored once, so a stored table
would never be revived.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.kernel.errors import SimulationError
from repro.kernel.intern import ConfigurationInterner, Key
from repro.kernel.system import (
    CHAN_RS,
    CHAN_SR,
    ENABLED_FRAME,
    EVENT_STEPS,
    OUTPUT,
    SENDER,
    STEP,
    VERDICT_FRAME,
    Configuration,
    Event,
    System,
    put,
)

Edge = Tuple[int, int]
Row = Tuple[Edge, ...]
Mover = Callable[[Key], Key]

_ENABLED_READS = itemgetter(*ENABLED_FRAME)
_VERDICT_READS = itemgetter(*VERDICT_FRAME)


class _Memo(dict):
    """A dict that fills a missing key with ``compute(key)``.

    A hit is one dict subscript; only a miss calls ``compute``, and an
    exception it raises propagates with nothing stored.
    """

    __slots__ = ("compute",)

    def __init__(self, compute: Callable) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _shared_memos(
    system: System, interner: ConfigurationInterner
) -> Tuple[Dict[int, _Memo], _Memo]:
    """The table-wide step memos: per channel field, the put of a sends
    tuple, ``(channel id, sends) -> channel id``; and the output append,
    ``(output id, writes) -> output id``."""
    component, intern = interner.component, interner.component_id

    def putter(field: int, channel) -> _Memo:
        return _Memo(
            lambda step: intern(
                field, put(channel, component(field, step[0]), step[1])
            )
        )

    puts = {
        CHAN_SR: putter(CHAN_SR, system.channel_sr),
        CHAN_RS: putter(CHAN_RS, system.channel_rs),
    }
    appends = _Memo(
        lambda step: intern(OUTPUT, component(OUTPUT, step[0]) + step[1])
    )
    return puts, appends


def _mover(
    system: System,
    event: Event,
    interner: ConfigurationInterner,
    puts: Dict[int, _Memo],
    appends: _Memo,
) -> Mover:
    """The successor key of an ``event`` edge, from the parent's key.

    Composes ``event``'s steps of :meth:`System.apply` over component
    ids (module docstring), each behind its own memo: the take from the
    channel and the process move are ``event``'s own, ``puts`` and
    ``appends`` are the table's (:func:`_shared_memos`).  Closes over no
    table, so a table is freed by reference counting.
    """
    try:
        take_field, process_field = EVENT_STEPS[event[:2]]
        message = STEP if take_field is None else event[2]
    except (KeyError, TypeError, IndexError):
        raise SimulationError(f"unknown event {event!r}") from None
    component, intern = interner.component, interner.component_id
    if take_field is not None:
        channel = (
            system.channel_sr if take_field == CHAN_SR else system.channel_rs
        )
        take = (
            channel.after_drop if process_field is None else channel.after_deliver
        )
        taken = _Memo(
            lambda chan: intern(
                take_field, take(component(take_field, chan), message)
            )
        )
    if process_field is None:
        if take_field == CHAN_SR:
            return lambda key: (key[0], key[1], taken[key[2]], key[3], key[4])
        return lambda key: (key[0], key[1], key[2], taken[key[3]], key[4])

    move = (
        system.sender_move if process_field == SENDER else system.receiver_move
    )

    def moved(state: int) -> Tuple[int, Tuple, Tuple]:
        transition = move(component(process_field, state), message)
        return (
            intern(process_field, transition.state),
            tuple(transition.sends),
            transition.writes,
        )

    moves = _Memo(moved)
    if process_field == SENDER:
        put_sr = puts[CHAN_SR]

        def successor(key: Key) -> Key:
            s, r, sr, rs, o = key
            if take_field is not None:
                rs = taken[rs]
            s, sends, _ = moves[s]
            if sends:
                sr = put_sr[sr, sends]
            return (s, r, sr, rs, o)

    else:
        put_rs = puts[CHAN_RS]

        def successor(key: Key) -> Key:
            s, r, sr, rs, o = key
            if take_field is not None:
                sr = taken[sr]
            r, sends, writes = moves[r]
            if sends:
                rs = put_rs[rs, sends]
            if writes:
                o = appends[o, writes]
            return (s, r, sr, rs, o)

    return successor


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
        "_state_ids",
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
        "_movers",
        "_puts",
        "_appends",
        "_enabled_memo",
        "_verdict_memo",
    )

    def __init__(self, system: System) -> None:
        self.system = system
        self._interner = ConfigurationInterner()
        self._state_ids = self._interner.state_ids
        self._configs: List[Optional[Configuration]] = []
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
        # The factored memos (module docstring): per event id, the
        # successor function that holds the event's take and move memos;
        # per channel field, (channel id, sends) -> channel id; and
        # (output id, writes) -> output id.
        self._movers: List[Mover] = []
        self._puts, self._appends = _shared_memos(system, self._interner)
        # Channel ids -> enabled event ids; output id -> (safe, complete).
        self._enabled_memo: Dict[object, Tuple[int, ...]] = {}
        self._verdict_memo: Dict[object, Tuple[int, int]] = {}
        obs.add("compiled.tables")

    # -- interning -------------------------------------------------------

    def _ensure_state(self, config: Configuration) -> int:
        """The dense id of ``config``, interning it on first sight."""
        key = self._interner.key(config)
        state_id = self._state_ids.get(key)
        if state_id is None:
            state_id = self._add_state(key, config)
        return state_id

    def _add_state(
        self, key: Key, config: Optional[Configuration] = None
    ) -> int:
        """Intern the new state with ``key`` (and ``config``, if known)."""
        state_id, _ = self._interner.ensure_key(key)
        self._configs.append(config)
        self._keys.append(key)
        reads = _VERDICT_READS(key)
        verdict = self._verdict_memo.get(reads)
        if verdict is None:
            if config is None:
                config = self._interner.decode(key)
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
            mover = _mover(
                self.system, event, self._interner, self._puts, self._appends
            )
            event_id = len(self._events)
            self._event_ids[event] = event_id
            self._events.append(event)
            self._event_is_drop.append(event[0] == "drop")
            self._movers.append(mover)
        return event_id

    def initial_id(self) -> int:
        """The id of the system's initial configuration."""
        return self._ensure_state(self.system.initial())

    # -- the successor table ---------------------------------------------

    def row(self, state_id: int) -> Row:
        """``(event_id, next_state_id)`` edges in ``enabled_events`` order.

        Built on first request (interning every successor); cached
        afterwards.  An automaton or channel method runs only on a miss
        of its step's memo (module docstring), so at most once per
        distinct component id and message, sends or writes.
        """
        cached = self._rows[state_id]
        if cached is not None:
            return cached
        key = self._keys[state_id]
        reads = _ENABLED_READS(key)
        event_ids = self._enabled_memo.get(reads)
        if event_ids is None:
            enabled = self.system.enabled_events(self._interner.decode(key))
            event_ids = tuple(map(self._ensure_event, enabled))
            self._enabled_memo[reads] = event_ids
        movers = self._movers
        state_of = self._state_ids.get
        edges: List[Edge] = []
        for event_id in event_ids:
            successor = movers[event_id](key)
            next_id = state_of(successor)
            if next_id is None:
                next_id = self._add_state(successor)
            edges.append((event_id, next_id))
        row: Row = tuple(edges)
        # One guarded call per *materialized* row: the warm fast path
        # (cached return above) pays nothing.
        obs.add("compiled.rows_materialized")
        self._rows[state_id] = row
        return row

    def row_without_drops(self, state_id: int) -> Row:
        """:meth:`row` with the environment's explicit drop moves removed.

        Derived lazily from the edge row on first request.
        """
        cached = self._rows_nodrop[state_id]
        if cached is None:
            is_drop = self._event_is_drop
            cached = tuple(
                edge for edge in self.row(state_id) if not is_drop[edge[0]]
            )
            self._rows_nodrop[state_id] = cached
        return cached

    def succ_row(self, state_id: int) -> Tuple[int, ...]:
        """Unique successor ids of ``state_id`` in first-occurrence order.

        The event labels are dropped and duplicate targets collapsed (a
        state reached by several enabled events appears once), which is
        exactly the view a set-based frontier sweep needs.  Self-loops are
        kept: whether a self-edge matters is the *consumer's* policy.

        Derived lazily from the edge row on first request, so users that
        walk edge rows (which never call this) pay nothing for the cache.
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
        """The configuration interned as ``state_id``.

        Decoded from the state's key on first request and cached.
        """
        config = self._configs[state_id]
        if config is None:
            config = self._interner.decode(self._keys[state_id])
            self._configs[state_id] = config
        return config

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
        return len(self._keys)

    @property
    def compiled_rows(self) -> int:
        """Number of states whose successor row has been built."""
        return sum(1 for row in self._rows if row is not None)

    @property
    def event_count(self) -> int:
        """Number of distinct events interned so far."""
        return len(self._events)

    # -- retired names -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Retired: tables are no longer exported.

        Kept only because the benchmark's tracer
        (``perfbench/tracing.py``) wraps this name and refuses to run
        when a target no longer resolves.  Raises
        :class:`~repro.kernel.errors.SimulationError`.
        """
        raise SimulationError("compiled-table snapshots are retired")

    @classmethod
    def from_snapshot(
        cls, system: System, snapshot: Dict[str, object]
    ) -> "CompiledSystem":
        """Retired with :meth:`snapshot`; kept only because
        ``perfbench/tracing.py`` wraps this name.  Raises
        :class:`~repro.kernel.errors.SimulationError`."""
        raise SimulationError("compiled-table snapshots are retired")


def compile_system(system: System) -> CompiledSystem:
    """Convenience constructor mirroring the module-level naming scheme."""
    return CompiledSystem(system)
