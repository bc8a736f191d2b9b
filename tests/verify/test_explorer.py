"""Tests for exhaustive state-space exploration."""

import pytest

from repro.channels import (
    DeletingChannel,
    DuplicatingChannel,
    LossyFifoChannel,
    ReorderingChannel,
)
from repro.kernel.errors import VerificationError
from repro.kernel.system import System
from repro.protocols.norepeat import norepeat_protocol
from repro.protocols.trivial import StreamingReceiver, StreamingSender
from repro.verify import explore


def norepeat_system(channel_factory, input_sequence=("a", "b"), **kwargs):
    sender, receiver = norepeat_protocol("ab")
    return System(
        sender,
        receiver,
        channel_factory(**kwargs),
        channel_factory(**kwargs),
        input_sequence,
    )


class TestCorrectProtocol:
    def test_norepeat_dup_fully_safe(self):
        report = explore(norepeat_system(DuplicatingChannel))
        assert report.all_safe
        assert report.completion_reachable
        assert not report.truncated
        assert report.violation_path is None

    def test_norepeat_del_fully_safe_with_cap(self):
        sender, receiver = norepeat_protocol("ab")
        system = System(
            sender,
            receiver,
            DeletingChannel(max_copies=2),
            DeletingChannel(max_copies=2),
            ("a", "b"),
        )
        report = explore(system)
        assert report.all_safe and report.completion_reachable

    def test_state_count_is_exact_and_stable(self):
        first = explore(norepeat_system(DuplicatingChannel))
        second = explore(norepeat_system(DuplicatingChannel))
        assert first.states == second.states

    def test_drops_can_be_excluded(self):
        sender, receiver = norepeat_protocol("ab")
        system = System(
            sender,
            receiver,
            DeletingChannel(max_copies=2),
            DeletingChannel(max_copies=2),
            ("a",),
        )
        with_drops = explore(system, include_drops=True)
        without = explore(system, include_drops=False)
        assert without.states <= with_drops.states


class TestBrokenProtocol:
    def test_streaming_reorder_violation_found(self):
        system = System(
            StreamingSender("ab"),
            StreamingReceiver("ab"),
            ReorderingChannel(),
            ReorderingChannel(),
            ("a", "b"),
        )
        report = explore(system)
        assert not report.all_safe
        assert report.violation_path is not None

    def test_violation_path_replays_to_violation(self):
        system = System(
            StreamingSender("ab"),
            StreamingReceiver("ab"),
            ReorderingChannel(),
            ReorderingChannel(),
            ("a", "b"),
        )
        report = explore(system)
        from repro.kernel.trace import Trace

        trace = Trace(system)
        trace.replay(report.violation_path)
        assert not system.output_is_safe(trace.last)

    def test_violation_path_is_shortest(self):
        # BFS guarantee: reorder attack on streaming needs exactly 3 events
        # (two sends, one out-of-order delivery).
        system = System(
            StreamingSender("ab"),
            StreamingReceiver("ab"),
            ReorderingChannel(),
            ReorderingChannel(),
            ("a", "b"),
        )
        report = explore(system)
        assert len(report.violation_path) == 3


class TestBudget:
    def test_truncation_reported(self):
        report = explore(norepeat_system(DuplicatingChannel), max_states=3)
        assert report.truncated

    def test_budget_validation(self):
        with pytest.raises(VerificationError):
            explore(norepeat_system(DuplicatingChannel), max_states=0)

    def test_budget_counts_expansions_not_discoveries(self):
        # A budget of exactly the reachable-state count must NOT truncate:
        # states discovered at the final frontier whose successors are
        # never generated do not consume budget.
        full = explore(norepeat_system(DuplicatingChannel))
        assert not full.truncated
        exact = explore(
            norepeat_system(DuplicatingChannel), max_states=full.states
        )
        assert not exact.truncated
        assert exact.states == full.states
        assert exact.expanded_states == full.states

    def test_truncated_means_no_violation_found_within_budget(self):
        # Streaming over reordering channels HAS a reachable violation
        # (see TestBrokenProtocol), but with a budget too small to reach
        # it the report must say truncated=True with all_safe=True --
        # i.e. "no violation found within budget", not "the space is
        # safe".
        system = System(
            StreamingSender("ab"),
            StreamingReceiver("ab"),
            ReorderingChannel(),
            ReorderingChannel(),
            ("a", "b"),
        )
        report = explore(system, max_states=1)
        assert report.truncated
        assert report.all_safe
        assert report.violation_path is None
        assert report.expanded_states == 1

    def test_truncated_caps_expansions(self):
        report = explore(norepeat_system(DuplicatingChannel), max_states=3)
        assert report.expanded_states == 3
        # discovery can exceed the expansion budget by one frontier layer
        assert report.states >= report.expanded_states


class TestCompactMode:
    def test_fast_mode_counts_match(self):
        full = explore(norepeat_system(DuplicatingChannel))
        fast = explore(norepeat_system(DuplicatingChannel), store_parents=False)
        assert fast.states == full.states
        assert fast.all_safe and fast.completion_reachable

    def test_fast_mode_reconstructs_shortest_violation_path(self):
        def broken():
            return System(
                StreamingSender("ab"),
                StreamingReceiver("ab"),
                ReorderingChannel(),
                ReorderingChannel(),
                ("a", "b"),
            )

        with_parents = explore(broken())
        without = explore(broken(), store_parents=False)
        assert without.violation_path == with_parents.violation_path
        assert len(without.violation_path) == 3

    def test_perf_counters_reported(self):
        report = explore(norepeat_system(DuplicatingChannel))
        assert report.expanded_states == report.states
        assert report.peak_frontier >= 1
        assert report.elapsed_seconds >= 0.0
        assert report.states_per_second >= 0.0


class TestInterner:
    def test_collapse_keys_track_equality(self):
        from repro.kernel.intern import ConfigurationInterner

        system = norepeat_system(DuplicatingChannel)
        interner = ConfigurationInterner()
        initial = system.initial()
        assert interner.intern(initial) == 0
        # an equal-but-distinct Configuration object maps to the same key
        rebuilt = system.initial()
        assert rebuilt is not initial
        assert interner.intern(rebuilt) is None
        successor = system.apply(initial, system.enabled_events(initial)[0])
        assert interner.intern(successor) == 1
        assert len(interner) == 2
        assert all(count >= 1 for count in interner.component_counts)

    def test_capped_lossy_fifo_is_finite(self):
        from repro.protocols.abp import abp_protocol

        sender, receiver = abp_protocol("ab")
        system = System(
            sender,
            receiver,
            LossyFifoChannel(capacity=2),
            LossyFifoChannel(capacity=2),
            ("a", "b"),
        )
        report = explore(system, max_states=500_000)
        assert not report.truncated
        assert report.all_safe and report.completion_reachable
