"""Corrupted-start exploration and stabilization-time verdicts.

The rest of the resilience layer injects faults into *runs* that start
clean; this module drops the clean-start assumption itself, following
the self-stabilization literature closest to our channel models (Dolev
et al., Delaet et al. -- see PAPERS.md): the run begins in an arbitrary
**corrupted configuration** and the question is whether the protocol
converges back to its legitimate behaviour on its own.

The pipeline, end to end:

1.  **Output projection.**  The output tape is monotone -- a corrupted
    run that writes a wrong item can never literally re-enter the set of
    clean-reachable configurations, because no clean configuration
    carries that output.  Since the system's *dynamics* never read the
    output (it is write-only), quotienting it away is exact: we explore
    the projected system whose receiver keeps its state machine but has
    its writes stripped (:class:`OutputProjectedReceiver`), and every
    configuration's output tape stays ``()``.

2.  **Legitimate set** ``L``: the configurations reachable from the
    projected system's clean initial configuration -- forward-closed by
    construction, the standard legitimate-state predicate.

3.  **Corruption model** (:func:`corrupt_initial_set`): the product of
    the *observed* sender states, observed receiver states (or just the
    freshly-reset receiver under ``corruption="receiver-amnesia"``, the
    post-crash shape of ``CrashRestart(state_loss="full")``), and
    observed-or-forged channel states.  Forged channel contents are
    enumerated by folding ``after_send`` over each side's declared
    message alphabet up to the channel's capacity bound (or
    ``channel_depth``), so duplicated / reordered / fabricated in-flight
    messages are all represented within capacity.  Enumeration order is
    deterministic (``repr``-sorted products); ``sample``/``seed`` give a
    seeded deterministic subsample.

4.  **Multi-source BFS** over the compiled table, seeded with the whole
    corrupt set at once, with ``L`` absorbing
    (:func:`repro.kernel.frontier.explore_multi_source_batched`).

5.  **Verdicts.**  On that graph, an illegitimate state is a *trap* if
    no path from it reaches ``L``.  A source **stabilizes** iff it
    cannot reach any trap (convergence under any fair daemon; an
    unrestricted daemon could refuse to drain forged channels forever,
    which would make stabilization unsatisfiable for every protocol,
    since local steps are always enabled).  Its **stabilization depth**
    is the shortest number of events until the run re-enters ``L`` --
    the per-source "levels until legitimate" verdict.  Both are computed
    with two backward BFS passes over the reversed graph, so they are
    invariant under state-id renumbering: verdicts cannot depend on the
    engine or shard count that produced the graph.

**Sharding.**  Per-source verdicts depend only on the subgraph
reachable from that source: a path out of a source never leaves its
reachable set, so the shortest depth into ``L`` and trap-reachability
computed on the restriction equal those computed on the full
multi-source graph.  That makes the corrupt set embarrassingly
partitionable: :func:`shard_of_source` deals each source (by the digest
of its ``repr``) onto one of ``shard_count`` shards,
:func:`analyze_stabilization_shard` judges one shard's sources on its
own reachable subgraph, and :func:`merge_stabilization_shards`
reassembles the full :class:`StabilizationResult` -- bit-identical
(timing aside) to the single-host analysis.  The work fabric does not
shard: under full corruption each shard's BFS reaches most of the
illegitimate graph, so a shard costs about as much as its member, and
a fabric ``stabilize`` cell runs one member's whole analysis instead.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.kernel.compiled import CompiledSystem
from repro.kernel.errors import VerificationError
from repro.kernel.frontier import explore_multi_source_batched
from repro.kernel.interfaces import (
    ReceiverProtocol,
    SenderProtocol,
    Transition,
)
from repro.kernel.system import Configuration, System

#: Version tag mixed into corrupt-set fingerprints; bump when the
#: corruption model's enumeration changes.
CORRUPTION_SCHEMA = "stp-corrupt/1"

#: Supported corruption models (see :func:`corrupt_initial_set`).
CORRUPTION_MODES = ("full", "receiver-amnesia")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


class OutputProjectedReceiver(ReceiverProtocol):
    """A receiver with identical dynamics whose writes are discarded.

    Sound as a quotient because nothing in
    :class:`~repro.kernel.system.System` reads the output tape -- a
    receiver's writes are appended to it, and it is consulted only by the
    Safety / completion predicates, which corrupted-start analysis
    replaces with legitimate-set membership.
    """

    def __init__(self, inner: ReceiverProtocol) -> None:
        self.inner = inner

    @property
    def message_alphabet(self):
        return self.inner.message_alphabet

    def initial_state(self):
        return self.inner.initial_state()

    def on_message(self, state, message) -> Transition:
        transition = self.inner.on_message(state, message)
        return Transition(state=transition.state, sends=transition.sends)

    def on_step(self, state) -> Transition:
        transition = self.inner.on_step(state)
        return Transition(state=transition.state, sends=transition.sends)


class CorruptedStartSender(SenderProtocol):
    """A sender forced to begin in a given (possibly corrupt) local state.

    The input tape passed to ``initial_state`` is ignored -- the corrupt
    state carries whatever tape the corruption scenario says it does.
    Used by the resilient-runner path to *run* (not just explore) a
    corrupted start under the simulator.
    """

    def __init__(self, inner: SenderProtocol, corrupt_state) -> None:
        self.inner = inner
        self.corrupt_state = corrupt_state

    @property
    def message_alphabet(self):
        return self.inner.message_alphabet

    def initial_state(self, input_sequence):
        return self.corrupt_state

    def on_message(self, state, message) -> Transition:
        return self.inner.on_message(state, message)

    def on_step(self, state) -> Transition:
        return self.inner.on_step(state)


class CorruptedStartReceiver(ReceiverProtocol):
    """A receiver forced to begin in a given (possibly corrupt) local state."""

    def __init__(self, inner: ReceiverProtocol, corrupt_state) -> None:
        self.inner = inner
        self.corrupt_state = corrupt_state

    @property
    def message_alphabet(self):
        return self.inner.message_alphabet

    def initial_state(self):
        return self.corrupt_state

    def on_message(self, state, message) -> Transition:
        return self.inner.on_message(state, message)

    def on_step(self, state) -> Transition:
        return self.inner.on_step(state)


def projected_system(system: System) -> System:
    """``system`` with its receiver output-projected (writes stripped)."""
    return System(
        system.sender,
        OutputProjectedReceiver(system.receiver),
        system.channel_sr,
        system.channel_rs,
        system.input_sequence,
    )


# ---------------------------------------------------------------------------
# the corruption model
# ---------------------------------------------------------------------------


def _forged_channel_states(channel, alphabet, depth: int) -> set:
    """Channel states forgeable by at most ``depth`` sends of any messages.

    Folding ``after_send`` from ``empty()`` over the declared alphabet
    enumerates every in-flight multiset/sequence the channel's own
    algebra can represent within the bound -- duplicated, reordered, and
    fabricated contents included, but never a state the channel family
    itself could not hold.
    """
    empty = channel.empty()
    states = {empty}
    frontier = [empty]
    messages = sorted(alphabet, key=repr)
    for _ in range(max(0, depth)):
        grown: List = []
        for state in frontier:
            for message in messages:
                candidate = channel.after_send(state, message)
                if candidate not in states:
                    states.add(candidate)
                    grown.append(candidate)
        if not grown:
            break
        frontier = grown
    return states


def _channel_depth(channel, channel_depth: Optional[int]) -> int:
    if channel_depth is not None:
        return channel_depth
    capacity = getattr(channel, "capacity", None)
    if isinstance(capacity, int):
        return capacity
    return 2


def corrupt_initial_set(
    system: System,
    channel_depth: Optional[int] = None,
    corruption: str = "full",
    legitimate_configs: Optional[Sequence[Configuration]] = None,
    max_states: int = 500_000,
    include_drops: bool = True,
) -> Tuple[Configuration, ...]:
    """The deterministic corrupt initial set for a protocol x channel pair.

    The product of observed sender states x observed receiver states
    (``corruption="receiver-amnesia"`` pins the receiver to its fresh
    initial state instead -- the configuration a
    ``CrashRestart(state_loss="full")`` crash leaves behind) x
    observed-or-forged channel states on each side.  "Observed" means
    "occurring somewhere in the legitimate set", so scrambled local
    states are states the automaton *has* but at the wrong moment;
    forged channel states come from :func:`_forged_channel_states`
    bounded by ``channel_depth`` (default: the channel's capacity, else
    2).  Returned ``repr``-sorted and duplicate-free, on the *projected*
    system (all outputs ``()``), so enumeration order is reproducible
    everywhere.
    """
    return tuple(
        config
        for _, config in _corrupt_pairs(
            system, channel_depth, corruption, legitimate_configs,
            max_states, include_drops,
        )
    )


#: A corrupt source with its ``repr``, which orders, digests and
#: partitions it.
_Source = Tuple[str, Configuration]


def _corrupt_pairs(
    system: System,
    channel_depth: Optional[int],
    corruption: str,
    legitimate_configs: Optional[Sequence[Configuration]],
    max_states: int,
    include_drops: bool,
) -> List[_Source]:
    """:func:`corrupt_initial_set` as ``repr``-sorted ``(repr, config)``
    pairs, so callers that key, digest or partition by ``repr`` compute
    each one once."""
    if corruption not in CORRUPTION_MODES:
        raise VerificationError(
            f"unknown corruption mode {corruption!r}; "
            f"known: {CORRUPTION_MODES}"
        )
    projected = projected_system(system)
    if legitimate_configs is None:
        table = CompiledSystem(projected)
        legit_ids, _ = explore_multi_source_batched(
            table, (table.initial_id(),), frozenset(),
            max_states=max_states, include_drops=include_drops,
        )
        legitimate_configs = [table.config_of(sid) for sid in legit_ids]
    sender_states = sorted(
        {config.sender_state for config in legitimate_configs}, key=repr
    )
    if corruption == "receiver-amnesia":
        receiver_states = [projected.receiver.initial_state()]
    else:
        receiver_states = sorted(
            {config.receiver_state for config in legitimate_configs},
            key=repr,
        )
    chan_sr_states = sorted(
        {config.chan_sr for config in legitimate_configs}
        | _forged_channel_states(
            projected.channel_sr,
            projected.sender.message_alphabet,
            _channel_depth(projected.channel_sr, channel_depth),
        ),
        key=repr,
    )
    chan_rs_states = sorted(
        {config.chan_rs for config in legitimate_configs}
        | _forged_channel_states(
            projected.channel_rs,
            projected.receiver.message_alphabet,
            _channel_depth(projected.channel_rs, channel_depth),
        ),
        key=repr,
    )
    configs = {
        Configuration(
            sender_state=sender_state,
            receiver_state=receiver_state,
            chan_sr=chan_sr,
            chan_rs=chan_rs,
            output=(),
        )
        for sender_state, receiver_state, chan_sr, chan_rs in
        itertools.product(
            sender_states, receiver_states, chan_sr_states, chan_rs_states
        )
    }
    return sorted(
        ((repr(config), config) for config in configs), key=itemgetter(0)
    )


def corrupt_set_fingerprint(configs: Sequence[Configuration]) -> str:
    """A stable digest of a corrupt initial set (cache / report key)."""
    return _fingerprint_of_reprs(map(repr, configs))


def _fingerprint_of_reprs(reprs: Iterable[str]) -> str:
    """The schema tag, then each ``repr`` and a newline, digested.

    Stored results and shard keys carry this digest, so the byte layout
    must not change without a :data:`CORRUPTION_SCHEMA` bump.
    """
    text = CORRUPTION_SCHEMA + "".join(item + "\n" for item in reprs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the judge: traps and stabilization depths
# ---------------------------------------------------------------------------


def _judge(
    adjacency: Dict[int, Tuple[int, ...]],
    legitimate: frozenset,
) -> Tuple[Dict[int, int], set]:
    """``(depth, doomed)`` over the illegitimate reachable graph.

    ``depth[sid]`` is the length of the shortest path from ``sid`` into
    the legitimate set (defined exactly for the states that have one);
    ``doomed`` is the set of states from which some path reaches a
    *trap* -- a state with no path into the legitimate set at all.  Two
    backward BFS passes over the reversed graph; both quantities are
    graph-isomorphism invariants, which is what makes verdicts
    engine-independent.
    """
    reverse: Dict[int, List[int]] = {sid: [] for sid in adjacency}
    depth: Dict[int, int] = {}
    queue: deque = deque()
    for sid, successors in adjacency.items():
        touches_legitimate = False
        for nid in successors:
            if nid in legitimate:
                touches_legitimate = True
            elif nid != sid:
                reverse[nid].append(sid)
        if touches_legitimate:
            depth[sid] = 1
            queue.append(sid)
    while queue:
        sid = queue.popleft()
        parent_depth = depth[sid] + 1
        for pid in reverse[sid]:
            if pid not in depth:
                depth[pid] = parent_depth
                queue.append(pid)
    doomed = {sid for sid in adjacency if sid not in depth}
    queue = deque(doomed)
    while queue:
        sid = queue.popleft()
        for pid in reverse[sid]:
            if pid not in doomed:
                doomed.add(pid)
                queue.append(pid)
    return depth, doomed


# ---------------------------------------------------------------------------
# the result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizationResult:
    """The corrupted-start verdict sheet for one protocol x channel pair.

    Attributes:
        sources: size of the corrupt initial set analyzed.
        legitimate_states: size of the legitimate (clean-reachable,
            output-projected) set ``L``.
        explored_states: states touched in total -- ``L`` plus the
            illegitimate states reachable from the source set.
        stabilizing: sources that provably converge (cannot reach a trap).
        non_stabilizing: sources that can reach a trap.
        max_depth: largest stabilization depth among stabilizing
            sources; ``None`` when nothing stabilizes.
        depth_histogram: ``((depth, count), ...)`` over stabilizing
            sources, depth-sorted.
        verdicts: ``((configuration, stabilizes, depth), ...)`` for every
            source, ``repr``-sorted -- the field the equivalence sweeps
            compare bit-for-bit across engines and shard counts.
        non_stabilizing_examples: up to 5 witness configurations.
        converges: True iff every source stabilizes -- the protocol is
            self-stabilizing over this corrupt set.
        corrupt_fingerprint: digest of the enumerated corrupt set.
        corruption: the corruption mode analyzed.
        engine / sample / seed: how the run was made.
        elapsed_seconds / states_per_second: timing.
    """

    sources: int
    legitimate_states: int
    explored_states: int
    stabilizing: int
    non_stabilizing: int
    max_depth: Optional[int]
    depth_histogram: Tuple[Tuple[int, int], ...]
    verdicts: Tuple[Tuple[Configuration, bool, Optional[int]], ...]
    non_stabilizing_examples: Tuple[Configuration, ...]
    converges: bool
    corrupt_fingerprint: str
    corruption: str
    engine: str
    sample: Optional[int]
    seed: int
    elapsed_seconds: float
    states_per_second: float

    def summary(self) -> Dict[str, object]:
        """The JSON-friendly projection joined into resilience reports."""
        return {
            "sources": self.sources,
            "legitimate_states": self.legitimate_states,
            "explored_states": self.explored_states,
            "stabilizing": self.stabilizing,
            "non_stabilizing": self.non_stabilizing,
            "max_depth": self.max_depth,
            "depth_histogram": [list(pair) for pair in self.depth_histogram],
            "converges": self.converges,
            "corrupt_fingerprint": self.corrupt_fingerprint,
            "corruption": self.corruption,
            "engine": self.engine,
            "sample": self.sample,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# the analysis entry point
# ---------------------------------------------------------------------------

def analyze_stabilization(
    system: System,
    engine: str = "batched",
    sample: Optional[int] = None,
    seed: int = 0,
    max_states: int = 500_000,
    channel_depth: Optional[int] = None,
    include_drops: bool = True,
    corruption: str = "full",
    domain: Optional[Sequence] = None,
) -> StabilizationResult:
    """Exhaustive corrupted-start analysis of one system.

    ``engine`` is a label: "scalar" is accepted for CLI symmetry and
    runs the batched multi-source BFS too -- there is no per-state order
    for a set-seeded BFS to preserve; ``sample`` (with ``seed``)
    analyzes a seeded deterministic subsample of the enumerated corrupt
    set instead of all of it.  ``domain`` does not change the analysis:
    it is accepted so callers can pass the same data-item domain that
    identifies the run in :func:`~repro.analysis.cache.stabilize_report_key`.
    ``include_drops`` should stay True on lossy channels: explicit drop
    moves are how the corrupt in-flight garbage drains.
    """
    from repro.analysis.cache import ENGINES

    if engine not in ENGINES:
        raise VerificationError(
            f"unknown engine {engine!r}; known: {ENGINES}"
        )
    if not obs.enabled():
        return _analyze(
            system, engine, sample, seed, max_states, channel_depth,
            include_drops, corruption,
        )
    with obs.span("stabilize", engine=engine) as span:
        result = _analyze(
            system, engine, sample, seed, max_states, channel_depth,
            include_drops, corruption,
        )
        span.set(
            sources=result.sources,
            states=result.explored_states,
            non_stabilizing=result.non_stabilizing,
        )
        _emit_stabilization_gauges(result)
        return result


@dataclass
class _StabilizePrep:
    """Everything the verdict phase needs, shared by host and shard paths."""

    table: CompiledSystem
    legitimate: FrozenSet[int]
    corrupt: List[_Source]
    fingerprint: str


def _prepare(
    system: System,
    sample: Optional[int],
    seed: int,
    max_states: int,
    channel_depth: Optional[int],
    include_drops: bool,
    corruption: str,
    table: Optional[CompiledSystem] = None,
) -> _StabilizePrep:
    """Legitimate set, corrupt enumeration, and its fingerprint.

    The deterministic prefix every shard recomputes identically (and the
    single-host path computes once): because the enumeration and
    sampling are pure functions of the system and knobs, shards on
    different workers agree on the exact corrupt set, its order, and
    fingerprint without any coordination.  ``table`` lets a fabric worker
    hand in a revived :class:`~repro.kernel.compiled.CompiledSystem` for
    the *projected* system -- verdicts are id-invariant, so a table grown
    by another process is as good as a fresh compile.  Sources are not
    interned here: each path interns only the sources it judges.
    """
    if table is None:
        table = CompiledSystem(projected_system(system))

    # The legitimate set: one single-source run of the same BFS core.
    legit_ids, _ = explore_multi_source_batched(
        table, (table.initial_id(),), frozenset(),
        max_states=max_states, include_drops=include_drops,
    )
    legitimate = frozenset(legit_ids)
    corrupt = _corrupt_pairs(
        system,
        channel_depth,
        corruption,
        [table.config_of(sid) for sid in legitimate],
        max_states,
        include_drops,
    )
    if sample is not None and 0 < sample < len(corrupt):
        corrupt = sorted(
            random.Random(seed).sample(corrupt, sample), key=itemgetter(0)
        )
    return _StabilizePrep(
        table=table,
        legitimate=legitimate,
        corrupt=corrupt,
        fingerprint=_fingerprint_of_reprs(text for text, _ in corrupt),
    )


def _judge_sources(
    prep: _StabilizePrep,
    sources: Sequence[_Source],
    max_states: int,
    include_drops: bool,
    heartbeat=None,
) -> Tuple[
    set, List[int], Tuple[Tuple[Configuration, bool, Optional[int]], ...]
]:
    """Multi-source BFS from ``sources`` and one verdict per source.

    ``sources`` is all of ``prep.corrupt`` on the host path and one
    shard's slice of it on the shard path, in verdict order; only these
    are interned into the table.  Returns ``(visited, source_ids,
    verdicts)``: the illegitimate states the BFS reached, each source's
    state id, and ``((configuration, stabilizes, depth), ...)`` over
    ``sources``.
    """
    table = prep.table
    legitimate = prep.legitimate
    ensure = table._ensure_state
    source_ids = [ensure(config) for _, config in sources]
    visited, _widths = explore_multi_source_batched(
        table,
        source_ids,
        legitimate,
        max_states=max_states,
        include_drops=include_drops,
    )
    if heartbeat is not None:
        heartbeat()

    successor = (
        table.succ_row if include_drops else table.succ_row_without_drops
    )
    adjacency = {
        sid: tuple(sorted(set(successor(sid)))) for sid in sorted(visited)
    }
    depth, doomed = _judge(adjacency, legitimate)

    def verdict_of(sid: int) -> Tuple[bool, Optional[int]]:
        if sid in legitimate:
            return True, 0
        if sid in doomed:
            return False, None
        return True, depth[sid]

    verdicts = tuple(
        (config, *verdict_of(sid))
        for (_, config), sid in zip(sources, source_ids)
    )
    return visited, source_ids, verdicts


def _result(
    verdicts: Tuple[Tuple[Configuration, bool, Optional[int]], ...],
    sources: int,
    legitimate_states: int,
    explored_states: int,
    elapsed_seconds: float,
    **labels,
) -> StabilizationResult:
    """The verdict sheet's summary fields, derived from its verdicts.

    ``labels`` carries the fields that only describe the run:
    ``corrupt_fingerprint``, ``corruption``, ``engine``, ``sample`` and
    ``seed``.
    """
    stabilizing_depths = [d for _, ok, d in verdicts if ok]
    non_stabilizing = [config for config, ok, _ in verdicts if not ok]
    return StabilizationResult(
        sources=sources,
        legitimate_states=legitimate_states,
        explored_states=explored_states,
        stabilizing=len(stabilizing_depths),
        non_stabilizing=len(non_stabilizing),
        max_depth=max(stabilizing_depths) if stabilizing_depths else None,
        depth_histogram=tuple(sorted(Counter(stabilizing_depths).items())),
        verdicts=verdicts,
        non_stabilizing_examples=tuple(non_stabilizing[:5]),
        converges=not non_stabilizing,
        elapsed_seconds=elapsed_seconds,
        states_per_second=(
            explored_states / elapsed_seconds if elapsed_seconds > 0 else 0.0
        ),
        **labels,
    )


def _analyze(
    system: System,
    engine: str,
    sample: Optional[int],
    seed: int,
    max_states: int,
    channel_depth: Optional[int],
    include_drops: bool,
    corruption: str,
) -> StabilizationResult:
    start = time.perf_counter()
    prep = _prepare(
        system, sample, seed, max_states, channel_depth, include_drops,
        corruption,
    )
    visited, _ids, verdicts = _judge_sources(
        prep, prep.corrupt, max_states, include_drops
    )
    return _result(
        verdicts,
        sources=len(prep.corrupt),
        legitimate_states=len(prep.legitimate),
        explored_states=len(prep.legitimate) + len(visited),
        elapsed_seconds=time.perf_counter() - start,
        corrupt_fingerprint=prep.fingerprint,
        corruption=corruption,
        engine=engine,
        sample=sample,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# sharding: partition the corrupt set, judge per shard, merge bit-identically
# ---------------------------------------------------------------------------


def _repr_digest(text: str) -> bytes:
    """A stable 16-byte digest of one configuration's ``repr`` (for the
    visited-set union)."""
    return hashlib.sha256(text.encode()).digest()[:16]


def shard_of_source(source_repr: str, shard_count: int) -> int:
    """The shard owning one corrupt source, given its ``repr``.

    Keyed by the digest of the source's ``repr`` -- which every process
    derives identically from the ``repr``-sorted corrupt enumeration --
    salted with :data:`CORRUPTION_SCHEMA` so partition assignments shift
    whenever the enumeration semantics do.
    """
    digest = hashlib.sha256(
        (CORRUPTION_SCHEMA + source_repr).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") % max(1, shard_count)


@dataclass(frozen=True)
class StabilizationShard:
    """One shard's verdicts plus the agreement fields merging checks.

    ``sources`` / ``legitimate_states`` / ``corrupt_fingerprint``
    describe the *full* analysis (every shard recomputes the
    deterministic prefix and must agree on them); ``verdicts`` covers
    only the sources :func:`shard_of_source` assigned here,
    ``repr``-sorted.  ``visited_digests`` holds the digest of the
    ``repr`` of each illegitimate state this shard's BFS visited -- the
    merge unions them to reconstruct the single-host ``explored_states``
    count exactly.
    """

    shard_index: int
    shard_count: int
    corruption: str
    sample: Optional[int]
    seed: int
    sources: int
    legitimate_states: int
    corrupt_fingerprint: str
    verdicts: Tuple[Tuple[Configuration, bool, Optional[int]], ...]
    visited_digests: FrozenSet[bytes]
    elapsed_seconds: float


def analyze_stabilization_shard(
    system: System,
    shard_index: int,
    shard_count: int,
    sample: Optional[int] = None,
    seed: int = 0,
    max_states: int = 500_000,
    channel_depth: Optional[int] = None,
    include_drops: bool = True,
    corruption: str = "full",
    table: Optional[CompiledSystem] = None,
    heartbeat=None,
) -> StabilizationShard:
    """Corrupted-start verdicts for one shard of the corrupt set.

    Sound because per-source verdicts are reachable-subgraph-local (see
    the module docstring): judging this shard's sources on the graph
    reachable from them alone yields exactly the verdicts the full
    multi-source analysis assigns them.  ``table`` accepts a revived
    compiled table for the *projected* system; ``heartbeat`` (a no-arg
    callable) is invoked between phases so a fabric worker can keep its
    queue lease fresh through a long BFS.
    """
    if not (0 <= shard_index < shard_count):
        raise VerificationError(
            f"shard_index {shard_index} out of range for "
            f"{shard_count} shards"
        )
    start = time.perf_counter()
    prep = _prepare(
        system, sample, seed, max_states, channel_depth, include_drops,
        corruption, table=table,
    )
    if heartbeat is not None:
        heartbeat()
    mine = [
        source
        for source in prep.corrupt
        if shard_of_source(source[0], shard_count) == shard_index
    ]
    visited, source_ids, verdicts = _judge_sources(
        prep, mine, max_states, include_drops, heartbeat=heartbeat
    )
    # Sources arrive with their repr; other visited states need one.
    texts = dict(zip(source_ids, (text for text, _ in mine)))
    config_of = prep.table.config_of
    digests = frozenset(
        _repr_digest(texts.get(sid) or repr(config_of(sid)))
        for sid in visited
    )
    return StabilizationShard(
        shard_index=shard_index,
        shard_count=shard_count,
        corruption=corruption,
        sample=sample,
        seed=seed,
        sources=len(prep.corrupt),
        legitimate_states=len(prep.legitimate),
        corrupt_fingerprint=prep.fingerprint,
        verdicts=verdicts,
        visited_digests=digests,
        elapsed_seconds=time.perf_counter() - start,
    )


def merge_stabilization_shards(
    shards: Sequence[StabilizationShard],
) -> StabilizationResult:
    """Reassemble shard verdicts into the single-host result.

    Deterministic in everything but timing: verdicts are the
    ``repr``-sorted concatenation (equal to the single-host verdict
    order because the shards partition the same ``repr``-sorted corrupt
    set), and ``explored_states`` is rebuilt from the union of the
    shards' visited digests.  The timing fields are *sums over the
    stored shards*, so two workers racing to merge the same shard
    payloads publish byte-identical results.  Raises
    :class:`VerificationError` on an incomplete or disagreeing shard
    set, on a source judged twice, and on a verdict held by a shard
    :func:`shard_of_source` does not assign it to.
    """
    if not shards:
        raise VerificationError("no stabilization shards to merge")
    ordered = sorted(shards, key=lambda shard: shard.shard_index)
    first = ordered[0]
    indices = [shard.shard_index for shard in ordered]
    if (
        len(ordered) != first.shard_count
        or set(indices) != set(range(first.shard_count))
    ):
        raise VerificationError(
            f"shard indices {indices} do not cover "
            f"0..{first.shard_count - 1} exactly once"
        )
    agreement = (
        first.shard_count, first.corruption, first.sample, first.seed,
        first.sources, first.legitimate_states, first.corrupt_fingerprint,
    )
    for shard in ordered[1:]:
        if (
            shard.shard_count, shard.corruption, shard.sample, shard.seed,
            shard.sources, shard.legitimate_states,
            shard.corrupt_fingerprint,
        ) != agreement:
            raise VerificationError(
                f"shard {shard.shard_index} disagrees with shard "
                f"{first.shard_index} on the deterministic prefix "
                "(corrupt set / legitimate set / knobs)"
            )
    keyed = sorted(
        (
            (repr(verdict[0]), shard.shard_index, verdict)
            for shard in ordered
            for verdict in shard.verdicts
        ),
        key=itemgetter(0),
    )
    if len(keyed) != first.sources:
        raise VerificationError(
            f"merged verdicts cover {len(keyed)} sources, "
            f"expected {first.sources}"
        )
    previous = None
    for text, shard_index, _verdict in keyed:
        if text == previous:
            raise VerificationError(
                f"two merged verdicts judge the same source {text}"
            )
        owner = shard_of_source(text, first.shard_count)
        if owner != shard_index:
            raise VerificationError(
                f"shard {shard_index} holds a verdict for a source "
                f"assigned to shard {owner}: {text}"
            )
        previous = text
    visited_union: FrozenSet[bytes] = frozenset().union(
        *(shard.visited_digests for shard in ordered)
    )
    return _result(
        tuple(verdict for _, _, verdict in keyed),
        sources=first.sources,
        legitimate_states=first.legitimate_states,
        explored_states=first.legitimate_states + len(visited_union),
        elapsed_seconds=sum(shard.elapsed_seconds for shard in ordered),
        corrupt_fingerprint=first.corrupt_fingerprint,
        corruption=first.corruption,
        engine="batched",
        sample=first.sample,
        seed=first.seed,
    )


def _emit_stabilization_gauges(result: StabilizationResult) -> None:
    if not obs.enabled():
        return
    obs.gauge_set("recovery.stabilization_sources", result.sources)
    obs.gauge_set(
        "recovery.stabilization_non_stabilizing", result.non_stabilizing
    )
    obs.gauge_set(
        "recovery.stabilization_max_depth", result.max_depth or 0
    )
