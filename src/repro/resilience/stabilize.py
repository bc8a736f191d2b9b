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
    order in which the graph was built.

The corrupt set is judged in one piece.  Splitting it by source does
not pay: under full corruption each part's BFS reaches most of the
illegitimate graph, so a part costs about as much as the whole, and a
fabric ``stabilize`` cell runs one member's whole analysis instead.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


#: A corrupt source with its ``repr``, which orders and digests it.
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
    pairs, so callers that sort or digest by ``repr`` compute each one
    once."""
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

    Stored results carry this digest, so the byte layout must not
    change without a :data:`CORRUPTION_SCHEMA` bump.
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
    independent of state-id numbering.
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
            source, ``repr``-sorted.
        non_stabilizing_examples: up to 5 witness configurations.
        converges: True iff every source stabilizes -- the protocol is
            self-stabilizing over this corrupt set.
        corrupt_fingerprint: digest of the enumerated corrupt set.
        corruption: the corruption mode analyzed.
        sample / seed: which corrupt starts were analyzed.
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
            "sample": self.sample,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# the analysis entry point
# ---------------------------------------------------------------------------

def analyze_stabilization(
    system: System,
    engine: Optional[str] = None,
    sample: Optional[int] = None,
    seed: int = 0,
    max_states: int = 500_000,
    channel_depth: Optional[int] = None,
    include_drops: bool = True,
    corruption: str = "full",
    domain: Optional[Sequence] = None,
) -> StabilizationResult:
    """Exhaustive corrupted-start analysis of one system.

    ``sample`` (with ``seed``) analyzes a seeded deterministic subsample
    of the enumerated corrupt set instead of all of it.  ``domain`` does
    not change the analysis: it is accepted so callers can pass the same
    data-item domain that identifies the run in
    :func:`~repro.analysis.cache.stabilize_report_key`.
    ``include_drops`` should stay True on lossy channels: explicit drop
    moves are how the corrupt in-flight garbage drains.  ``engine`` is
    retired (see :func:`~repro.analysis.cache.check_retired_engine`).
    """
    from repro.analysis.cache import check_retired_engine

    check_retired_engine(engine, VerificationError)
    if not obs.enabled():
        return _analyze(
            system, sample, seed, max_states, channel_depth, include_drops,
            corruption,
        )
    with obs.span("stabilize") as span:
        result = _analyze(
            system, sample, seed, max_states, channel_depth, include_drops,
            corruption,
        )
        span.set(
            sources=result.sources,
            states=result.explored_states,
            non_stabilizing=result.non_stabilizing,
        )
        _emit_stabilization_gauges(result)
        return result


def _analyze(
    system: System,
    sample: Optional[int],
    seed: int,
    max_states: int,
    channel_depth: Optional[int],
    include_drops: bool,
    corruption: str,
) -> StabilizationResult:
    """The legitimate set, the corrupt enumeration, one multi-source BFS
    from every corrupt source, and one verdict per source."""
    start = time.perf_counter()
    table = CompiledSystem(projected_system(system))
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

    source_ids = [table._ensure_state(config) for _, config in corrupt]
    visited, _widths = explore_multi_source_batched(
        table,
        source_ids,
        legitimate,
        max_states=max_states,
        include_drops=include_drops,
    )
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
        for (_, config), sid in zip(corrupt, source_ids)
    )
    stabilizing_depths = [d for _, ok, d in verdicts if ok]
    non_stabilizing = [config for config, ok, _ in verdicts if not ok]
    explored_states = len(legitimate) + len(visited)
    elapsed = time.perf_counter() - start
    return StabilizationResult(
        sources=len(corrupt),
        legitimate_states=len(legitimate),
        explored_states=explored_states,
        stabilizing=len(stabilizing_depths),
        non_stabilizing=len(non_stabilizing),
        max_depth=max(stabilizing_depths) if stabilizing_depths else None,
        depth_histogram=tuple(sorted(Counter(stabilizing_depths).items())),
        verdicts=verdicts,
        non_stabilizing_examples=tuple(non_stabilizing[:5]),
        converges=not non_stabilizing,
        corrupt_fingerprint=_fingerprint_of_reprs(text for text, _ in corrupt),
        corruption=corruption,
        sample=sample,
        seed=seed,
        elapsed_seconds=elapsed,
        states_per_second=explored_states / elapsed if elapsed > 0 else 0.0,
    )


# ---------------------------------------------------------------------------
# retired names
# ---------------------------------------------------------------------------


def analyze_stabilization_shard(*_args, **_kwargs):
    """Retired: the corrupt set is no longer split into shards.

    Kept only because the benchmark's tracer (``perfbench/tracing.py``)
    wraps this name and refuses to run when a target no longer
    resolves.  Raises :class:`~repro.kernel.errors.VerificationError`;
    call :func:`analyze_stabilization`.
    """
    raise VerificationError(
        "stabilization shards are retired; call analyze_stabilization"
    )


def merge_stabilization_shards(*_args, **_kwargs):
    """Retired with :func:`analyze_stabilization_shard`.

    Kept only because ``perfbench/tracing.py`` wraps this name.  Raises
    :class:`~repro.kernel.errors.VerificationError`.
    """
    raise VerificationError(
        "stabilization shards are retired; call analyze_stabilization"
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
