"""Tests for the compiled transition-table kernel (repro.kernel.compiled)."""

from __future__ import annotations

import pytest

from repro.adversaries import AgingFairAdversary, EagerAdversary, RandomAdversary
from repro.channels import DeletingChannel, DuplicatingChannel
from repro.kernel.compiled import CompiledSystem, compile_system
from repro.kernel.errors import SimulationError
from repro.kernel.interfaces import ReceiverProtocol, SenderProtocol, Transition
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import Simulator, simulate_compiled
from repro.kernel.system import System
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

    def test_apply_runs_once_per_frame_transition_not_per_edge(
        self, monkeypatch
    ):
        """The successor memo: the full T4 m=2 table (drops included)
        calls ``System.apply`` strictly fewer times than it has edges."""
        calls = []
        real_apply = System.apply

        def counting_apply(self, config, event):
            calls.append(event)
            return real_apply(self, config, event)

        monkeypatch.setattr(System, "apply", counting_apply)
        sender, receiver = bounded_del_protocol("ab")
        system = System(
            sender,
            receiver,
            DeletingChannel(max_copies=2),
            DeletingChannel(max_copies=2),
            ("a", "b"),
        )
        table = CompiledSystem(system)
        edges = sum(len(table.row(sid)) for sid in grow_fully(table))
        assert any(event[0] == "drop" for event in calls)
        assert 0 < len(calls) < edges

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


class TestSnapshot:
    def test_roundtrip_preserves_ids_and_rows(self):
        system = make_system()
        table = CompiledSystem(system)
        frontier = [table.initial_id()]
        for _ in range(3):
            frontier = [
                nid for sid in frontier for _, nid in table.row(sid)
            ]
        snapshot = table.snapshot()
        revived = CompiledSystem.from_snapshot(system, snapshot)
        assert len(revived) == len(table)
        assert revived.compiled_rows == table.compiled_rows
        for state_id in range(table.compiled_rows):
            assert revived.row(state_id) == table.row(state_id)
            assert revived.config_of(state_id) == table.config_of(state_id)
        # Growing on from the revived table needs the component ids its
        # successor memo keys on, which revival rebuilt from the configs.
        def grow(compiled, level):
            return list(
                dict.fromkeys(
                    nid for sid in level for _, nid in compiled.row(sid)
                )
            )

        revived_frontier = frontier = list(dict.fromkeys(frontier))
        for _ in range(2):
            frontier = grow(table, frontier)
            revived_frontier = grow(revived, revived_frontier)
        assert revived_frontier == frontier
        assert revived.snapshot() == table.snapshot()

    def test_snapshot_rejects_other_schema(self):
        system = make_system()
        snapshot = CompiledSystem(system).snapshot()
        snapshot["schema"] = "bogus/0"
        with pytest.raises(Exception):
            CompiledSystem.from_snapshot(system, snapshot)


class TestSnapshotCorruption:
    """Fabric workers revive snapshots other processes published, so a
    truncated or bit-flipped blob must be rejected at the boundary."""

    def grown_snapshot(self, system):
        table = CompiledSystem(system)
        frontier = [table.initial_id()]
        for _ in range(3):
            frontier = [
                nid for sid in frontier for _, nid in table.row(sid)
            ]
        return table.snapshot()

    def test_truncated_rows_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        snapshot["rows"] = snapshot["rows"][:-1]
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_wrong_safe_bits_length_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        snapshot["safe"] = snapshot["safe"][:-1]
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_wrong_complete_bits_length_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        snapshot["complete"] = snapshot["complete"] + b"\x00"
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_out_of_range_edge_ids_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        rows = list(snapshot["rows"])
        for state_id, row in enumerate(rows):
            if row:
                bad = ((row[0][0], len(snapshot["configs"]) + 7),) + row[1:]
                rows[state_id] = bad
                break
        snapshot["rows"] = tuple(rows)
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_out_of_range_event_id_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        rows = list(snapshot["rows"])
        for state_id, row in enumerate(rows):
            if row:
                bad = ((len(snapshot["events"]), row[0][1]),) + row[1:]
                rows[state_id] = bad
                break
        snapshot["rows"] = tuple(rows)
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_cache_layer_treats_corrupt_snapshot_as_miss(self, tmp_path):
        """A corrupted shared-store snapshot recompiles, never crashes."""
        from repro.analysis.cache import (
            COMPILED_KIND,
            CompiledTableCache,
            ResultCache,
            system_fingerprint,
        )

        system = make_system()
        base = system_fingerprint(system)
        cache = ResultCache(tmp_path)
        snapshot = self.grown_snapshot(system)
        snapshot["rows"] = snapshot["rows"][:-1]
        cache.put(COMPILED_KIND, base, snapshot)

        tables = CompiledTableCache(cache=cache)
        table = tables.table_for(system, base)
        assert table.initial_id() == 0
        # The poisoned snapshot counted as a miss: compiled, not reused.
        assert tables.compiled == 1
        assert tables.reused == 0


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
