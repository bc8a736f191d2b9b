"""Property sweep: the compiled kernel is bit-identical to the object path.

Every registered protocol crossed with every registered channel and a
family of small inputs must produce (a) identical ``ExplorationReport``
fields from :func:`explore` and :func:`explore_compiled`, (b)
identical traces from :class:`Simulator` and :func:`simulate_compiled`
under a seeded adversary, and (c) a compiled table whose every edge is
one ``System.apply`` step.  This is the contract that lets every layer
above (campaigns, experiments, the result cache) switch kernels freely.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.adversaries import AgingFairAdversary, RandomAdversary
from repro.channels import channel_by_name, channel_names
from repro.kernel.compiled import CompiledSystem
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import Simulator, simulate_compiled
from repro.kernel.system import System
from repro.protocols import protocol_by_name, protocol_names
from repro.verify import explore, explore_compiled

DOMAIN = ("a", "b")
INPUTS = ((), ("a",), ("a", "b"))
# Small enough that truncating searches truncate identically on both
# paths and uncapped channels stay tractable.
MAX_STATES = 600
MAX_STEPS = 200

GRID = [
    (protocol, channel, input_sequence)
    for protocol in protocol_names()
    for channel in channel_names()
    for input_sequence in INPUTS
]


def build_system(protocol: str, channel: str, input_sequence):
    sender, receiver = protocol_by_name(protocol, DOMAIN, len(DOMAIN))
    return System(
        sender,
        receiver,
        channel_by_name(channel),
        channel_by_name(channel),
        tuple(input_sequence),
    )


def strip_timing(report):
    return replace(report, elapsed_seconds=0.0, states_per_second=0.0)


@pytest.mark.parametrize(
    "protocol,channel,input_sequence",
    GRID,
    ids=[f"{p}-{c}-{len(i)}" for p, c, i in GRID],
)
class TestCompiledEquivalence:
    def test_exploration_reports_identical(
        self, protocol, channel, input_sequence
    ):
        base = explore(
            build_system(protocol, channel, input_sequence),
            max_states=MAX_STATES,
        )
        fast = explore_compiled(
            build_system(protocol, channel, input_sequence),
            max_states=MAX_STATES,
        )
        assert strip_timing(fast) == strip_timing(base)

    def test_every_edge_is_one_apply_step(
        self, protocol, channel, input_sequence
    ):
        """The factored transition memo against ``apply`` itself.

        Rows are composed from memoized per-component steps, so every
        edge of the table materialized up to ``MAX_STATES`` rows, and
        every state's bits, must equal what the object-graph functions
        give for that state's own configuration.
        """
        system = build_system(protocol, channel, input_sequence)
        table = CompiledSystem(system)
        table.initial_id()
        state_id = 0
        while state_id < min(len(table), MAX_STATES):
            config = table.config_of(state_id)
            row = table.row(state_id)
            assert table.enabled(state_id) == system.enabled_events(config)
            for event_id, next_id in row:
                assert table.config_of(next_id) == system.apply(
                    config, table.event_of(event_id)
                )
            state_id += 1
        for state_id in range(len(table)):
            config = table.config_of(state_id)
            assert table.is_safe(state_id) == system.output_is_safe(config)
            assert table.is_complete(state_id) == (
                system.output_is_complete(config)
            )

    def test_simulation_traces_identical(
        self, protocol, channel, input_sequence
    ):
        def adversary():
            return AgingFairAdversary(
                RandomAdversary(
                    DeterministicRNG(17, f"{protocol}/{channel}")
                ),
                patience=32,
            )

        base = Simulator(
            build_system(protocol, channel, input_sequence),
            adversary(),
            max_steps=MAX_STEPS,
        ).run()
        fast = simulate_compiled(
            build_system(protocol, channel, input_sequence),
            adversary(),
            max_steps=MAX_STEPS,
        )
        assert fast.trace.steps == base.trace.steps
        assert fast.trace.initial == base.trace.initial
        assert (
            fast.completed,
            fast.safe,
            fast.steps,
            fast.stopped_by_adversary,
            fast.first_violation_time,
            fast.budget_exceeded,
            fast.recovery,
        ) == (
            base.completed,
            base.safe,
            base.steps,
            base.stopped_by_adversary,
            base.first_violation_time,
            base.budget_exceeded,
            base.recovery,
        )
