"""Tests for the compiled transition-table kernel (repro.kernel.compiled)."""

from __future__ import annotations

import gc

import pytest

from repro.adversaries import AgingFairAdversary, EagerAdversary, RandomAdversary
from repro.channels import DeletingChannel, DuplicatingChannel
from repro.kernel.compiled import CompiledSystem, compile_system
from repro.kernel.errors import AlphabetError, SimulationError
from repro.kernel.interfaces import ReceiverProtocol, SenderProtocol, Transition
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import Simulator, simulate_compiled
from repro.kernel.system import RECEIVER_STEP, SENDER_STEP, System
from repro.protocols.norepeat import norepeat_protocol
from repro.protocols.norepeat_del import bounded_del_protocol


def make_system(items=("a", "b"), channel=DuplicatingChannel):
    sender, receiver = norepeat_protocol(tuple(sorted(set(items))) or ("a",))
    return System(sender, receiver, channel(), channel(), tuple(items))


def grow_fully(table, cap=5_000):
    """Build every row reachable from the initial state; returns the ids.

    ``cap`` turns a table that never closes (a kernel defect) into a
    failure instead of a hang.
    """
    table.initial_id()
    state_id = 0
    while state_id < len(table):
        assert state_id < cap, f"table grew past {cap} states"
        table.row(state_id)
        state_id += 1
    return range(len(table))


class Counting:
    """Delegates to ``inner``, recording the arguments of each call of
    ``methods``."""

    def __init__(self, inner, methods) -> None:
        self.inner = inner
        self.methods = methods
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in self.methods:
            return attr
        calls = self.calls

        def counted(*args):
            calls.append((name, args))
            return attr(*args)

        return counted

    def calls_of(self, method):
        return [args for name, args in self.calls if name == method]


class Scripted(SenderProtocol):
    """``inner`` with its local step replaced by ``on_step``."""

    def __init__(self, inner: SenderProtocol, on_step) -> None:
        self.inner = inner
        self._on_step = on_step

    @property
    def message_alphabet(self):
        return self.inner.message_alphabet

    def initial_state(self, input_sequence):
        return self.inner.initial_state(input_sequence)

    def on_message(self, state, message) -> Transition:
        return self.inner.on_message(state, message)

    def on_step(self, state) -> Transition:
        return self._on_step(state)


class ReactiveSender(SenderProtocol):
    """A sender that takes its next local step as soon as a message
    arrives, so it sends on deliveries.

    No registered sender sends on a delivery, so this one exercises the
    S->R channel field of the sender delivery's frame.
    """

    def __init__(self, inner: SenderProtocol) -> None:
        self.inner = inner

    @property
    def message_alphabet(self):
        return self.inner.message_alphabet

    def initial_state(self, input_sequence):
        return self.inner.initial_state(input_sequence)

    def on_message(self, state, message) -> Transition:
        reaction = self.inner.on_message(state, message)
        step = self.inner.on_step(reaction.state)
        return Transition(step.state, reaction.sends + step.sends)

    def on_step(self, state) -> Transition:
        return self.inner.on_step(state)


class DeferredWritesReceiver(ReceiverProtocol):
    """A receiver that holds back its writes until its next local step.

    No registered receiver writes on a local step, so this one exercises
    the output field of the receiver step's frame.
    """

    def __init__(self, inner: ReceiverProtocol) -> None:
        self.inner = inner

    @property
    def message_alphabet(self):
        return self.inner.message_alphabet

    def initial_state(self):
        return (self.inner.initial_state(), ())

    def on_message(self, state, message) -> Transition:
        inner_state, pending = state
        step = self.inner.on_message(inner_state, message)
        return Transition((step.state, pending + step.writes), step.sends)

    def on_step(self, state) -> Transition:
        inner_state, pending = state
        step = self.inner.on_step(inner_state)
        return Transition((step.state, ()), step.sends, pending + step.writes)


class TestRows:
    def test_row_matches_enabled_events_order(self):
        system = make_system()
        table = CompiledSystem(system)
        state_id = table.initial_id()
        row = table.row(state_id)
        enabled = system.enabled_events(system.initial())
        assert tuple(table.event_of(eid) for eid, _ in row) == enabled

    def test_row_successors_match_apply(self):
        system = make_system()
        table = CompiledSystem(system)
        state_id = table.initial_id()
        config = table.config_of(state_id)
        for event_id, successor_id in table.row(state_id):
            event = table.event_of(event_id)
            assert table.config_of(successor_id) == system.apply(config, event)

    def test_row_without_drops_filters_drop_events(self):
        system = make_system(channel=lambda: DeletingChannel(max_copies=2))
        table = CompiledSystem(system)
        # Walk a few expansions so some state has an enabled drop.
        seen_drop = False
        frontier = [table.initial_id()]
        for _ in range(4):
            next_frontier = []
            for state_id in frontier:
                events = {
                    table.event_of(eid)[0] for eid, _ in table.row(state_id)
                }
                lean = {
                    table.event_of(eid)[0]
                    for eid, _ in table.row_without_drops(state_id)
                }
                assert "drop" not in lean
                if "drop" in events:
                    seen_drop = True
                next_frontier.extend(nid for _, nid in table.row(state_id))
            frontier = next_frontier
        assert seen_drop

    def test_rows_are_lazy(self):
        table = CompiledSystem(make_system())
        assert table.compiled_rows == 0
        table.row(table.initial_id())
        assert table.compiled_rows == 1

    def test_each_step_runs_once_per_distinct_component_transition(
        self, monkeypatch
    ):
        """The factored memo: on the full T4 m=2 table (drops included)
        ``row`` never calls ``System.apply``, and every automaton and
        channel method runs at most once per distinct component and
        argument -- far fewer calls than the table has edges."""
        applied = []
        monkeypatch.setattr(
            System, "apply", lambda self, config, event: applied.append(event)
        )
        sender, receiver = bounded_del_protocol("ab")
        wrapped = {
            "S": Counting(sender, ("on_step", "on_message")),
            "R": Counting(receiver, ("on_step", "on_message")),
            "SR": Counting(
                DeletingChannel(max_copies=2),
                ("after_deliver", "after_drop", "after_send"),
            ),
            "RS": Counting(
                DeletingChannel(max_copies=2),
                ("after_deliver", "after_drop", "after_send"),
            ),
        }
        system = System(
            wrapped["S"], wrapped["R"], wrapped["SR"], wrapped["RS"], ("a", "b")
        )
        table = CompiledSystem(system)
        edges = sum(len(table.row(sid)) for sid in grow_fully(table))

        assert applied == []
        for counted in wrapped.values():
            for method in ("on_step", "on_message", "after_deliver", "after_drop"):
                calls = counted.calls_of(method)
                assert len(calls) == len(set(calls)), method
        assert wrapped["SR"].calls_of("after_drop")
        assert wrapped["RS"].calls_of("after_drop")
        # Each distinct (channel state, sends) pair is put once, one
        # ``after_send`` per message.
        puts = {"SR": set(), "RS": set()}
        for state_id in range(len(table)):
            config = table.config_of(state_id)
            for event_id, _ in table.row(state_id):
                event = table.event_of(event_id)
                if event[0] == "drop":
                    continue
                if event in (SENDER_STEP, RECEIVER_STEP):
                    process = event[1]
                    message = ()
                else:
                    process = event[1][1]
                    message = (event[2],)
                automaton, out = (
                    (sender, "SR") if process == "S" else (receiver, "RS")
                )
                method = "on_message" if message else "on_step"
                state = config.sender_state if process == "S" else (
                    config.receiver_state
                )
                sends = getattr(automaton, method)(state, *message).sends
                chan = config.chan_sr if out == "SR" else config.chan_rs
                if sends:
                    puts[out].add((chan, tuple(sends)))
        for out, pairs in puts.items():
            assert len(wrapped[out].calls_of("after_send")) <= sum(
                len(sends) for _, sends in pairs
            )
        total = sum(len(counted.calls) for counted in wrapped.values())
        assert 0 < total < edges

    def test_sends_and_writes_on_any_event_stay_exact(self):
        sender, receiver = norepeat_protocol(("a", "b"))
        system = System(
            ReactiveSender(sender),
            DeferredWritesReceiver(receiver),
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a", "b"),
        )
        table = CompiledSystem(system)
        states = grow_fully(table)
        for state_id in states:
            config = table.config_of(state_id)
            for event_id, next_id in table.row(state_id):
                assert table.config_of(next_id) == system.apply(
                    config, table.event_of(event_id)
                )
        assert any(table.is_complete(sid) for sid in states)

    def test_compile_system_helper(self):
        table = compile_system(make_system())
        assert isinstance(table, CompiledSystem)
        table.initial_id()
        assert len(table) == 1


class TestCompiledChecks:
    """``row`` runs ``apply``'s checks and frees its tables."""

    def test_sender_write_is_rejected(self):
        sender, receiver = norepeat_protocol(("a",))
        system = System(
            Scripted(sender, on_step=lambda state: Transition(state, (), ("x",))),
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a",),
        )
        with pytest.raises(SimulationError, match="must not write"):
            system.apply(system.initial(), SENDER_STEP)
        table = CompiledSystem(system)
        with pytest.raises(SimulationError, match="must not write"):
            table.row(table.initial_id())

    def test_out_of_alphabet_send_is_rejected(self):
        sender, receiver = norepeat_protocol(("a",))
        system = System(
            Scripted(sender, on_step=lambda state: Transition(state, ("zz",))),
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a",),
        )
        with pytest.raises(AlphabetError):
            system.apply(system.initial(), SENDER_STEP)
        table = CompiledSystem(system)
        with pytest.raises(AlphabetError):
            table.row(table.initial_id())

    def test_sends_given_as_a_list_match_apply(self):
        sender, receiver = norepeat_protocol(("a", "b"))

        def listed(state):
            transition = sender.on_step(state)
            return Transition(transition.state, list(transition.sends))

        system = System(
            Scripted(sender, on_step=listed),
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a", "b"),
        )
        table = CompiledSystem(system)
        for state_id in grow_fully(table):
            config = table.config_of(state_id)
            for event_id, next_id in table.row(state_id):
                assert table.config_of(next_id) == system.apply(
                    config, table.event_of(event_id)
                )

    def test_dropped_table_needs_no_cycle_collector(self):
        def tables():
            return sum(
                isinstance(obj, CompiledSystem) for obj in gc.get_objects()
            )

        gc.collect()
        gc.disable()
        try:
            before = tables()
            table = CompiledSystem(
                make_system(channel=lambda: DeletingChannel(max_copies=2))
            )
            grow_fully(table)
            table.row_without_drops(0)
            table.succ_row(0)
            table.step(0, SENDER_STEP)
            table.config_of(len(table) - 1)
            del table
            after = tables()
        finally:
            gc.enable()
        assert after == before


class TestStep:
    def test_step_follows_enabled_event(self):
        system = make_system()
        table = CompiledSystem(system)
        state_id = table.initial_id()
        event = table.enabled(state_id)[0]
        successor_id = table.step(state_id, event)
        assert table.config_of(successor_id) == system.apply(
            table.config_of(state_id), event
        )

    def test_step_rejects_disabled_event(self):
        table = CompiledSystem(make_system())
        with pytest.raises(SimulationError):
            table.step(table.initial_id(), ("no-such-event",))


class TestPredicates:
    def test_initial_state_flags(self):
        system = make_system(items=())
        table = CompiledSystem(system)
        state_id = table.initial_id()
        assert table.is_safe(state_id)
        # Empty input: the initial configuration is already complete.
        assert table.is_complete(state_id)


class TestRetiredNames:
    """Names kept only for the benchmark's tracer are inert stubs."""

    def test_snapshots_raise(self):
        system = make_system()
        with pytest.raises(SimulationError, match="retired"):
            CompiledSystem(system).snapshot()
        with pytest.raises(SimulationError, match="retired"):
            CompiledSystem.from_snapshot(system, {})

    def test_explore_batched_is_explore_compiled(self):
        from dataclasses import replace

        from repro.kernel.frontier import (
            explore_batched,
            explore_batched_resumable,
        )
        from repro.verify import explore_compiled

        def untimed(report):
            return replace(report, elapsed_seconds=0.0, states_per_second=0.0)

        expected = untimed(explore_compiled(make_system()))
        assert untimed(explore_batched(make_system())) == expected
        assert untimed(explore_batched_resumable(make_system())) == expected

    def test_stabilization_shards_raise(self):
        from repro.kernel.errors import VerificationError
        from repro.resilience.stabilize import (
            analyze_stabilization_shard,
            merge_stabilization_shards,
        )

        with pytest.raises(VerificationError, match="retired"):
            analyze_stabilization_shard(make_system(), 0, 2)
        with pytest.raises(VerificationError, match="retired"):
            merge_stabilization_shards([])


class TestSimulateCompiled:
    @pytest.mark.parametrize("items", [(), ("a",), ("a", "b"), ("a", "b", "c")])
    def test_bit_identical_to_simulator(self, items):
        def adversary():
            return AgingFairAdversary(
                RandomAdversary(DeterministicRNG(3, "compiled-test")),
                patience=64,
            )

        base = Simulator(make_system(items), adversary(), max_steps=5_000).run()
        fast = simulate_compiled(
            make_system(items), adversary(), max_steps=5_000
        )
        assert fast.trace.steps == base.trace.steps
        assert fast.completed == base.completed
        assert fast.safe == base.safe
        assert fast.steps == base.steps
        assert fast.stopped_by_adversary == base.stopped_by_adversary
        assert fast.first_violation_time == base.first_violation_time
        assert fast.budget_exceeded == base.budget_exceeded
        assert fast.recovery == base.recovery

    def test_warm_table_reuse(self):
        system = make_system()
        table = CompiledSystem(system)
        first = simulate_compiled(
            system, EagerAdversary(), max_steps=5_000, compiled=table
        )
        rows_after_first = table.compiled_rows
        second = simulate_compiled(
            system, EagerAdversary(), max_steps=5_000, compiled=table
        )
        assert second.trace.steps == first.trace.steps
        # An identical eager run revisits only known transitions.
        assert table.compiled_rows == rows_after_first

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(SimulationError):
            simulate_compiled(make_system(), EagerAdversary(), max_steps=0)
